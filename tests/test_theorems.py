import itertools
import math
import re

import numpy as np
import pytest

from riemannlab import (
    Box,
    DimensionMismatch,
    EqualPartitionRequired,
    FixedK,
    LargestTerm,
    NonFiniteSum,
    OrientationCheckFailed,
    ParametricRegion,
    PowerLaw,
    Prefix,
    RandomPick,
    SumEstimate,
    TheoremReport,
    VariantSpec,
    VectorField,
    gauss_check,
    green_check,
    make_partition,
    make_uniform_partition,
    reverse_path,
    stokes_check,
    surface_sum,
    swap_surface,
)
from oracles import DISK_PROBE_CURL, estimate_bits
from riemannlab.harness import evaluate_scenario, run_sweep
from riemannlab.quadrature import pieces_sum
from riemannlab.scenarios import (
    CIRCLE_3D,
    DISK_PATCH,
    DISK_REGION,
    HEMISPHERE,
    ROTATION_2D,
    ROTATION_3D,
    TWO_PI,
    get_scenario,
)
from riemannlab.theorems import _DISK_PROBE, _curl_flux

FULL = VariantSpec()


def disk_partitions(m_axis=64, boundary_m=512):
    interior = make_uniform_partition(DISK_REGION.param_box, (m_axis, m_axis))
    boundary = make_uniform_partition(Box(((0.0, TWO_PI),)), boundary_m)
    return interior, [boundary]


class TestGreen:
    def test_rotation_disk_both_sides(self):
        interior, bps = disk_partitions(256, 4096)
        rep = green_check(ROTATION_2D, DISK_REGION, interior, bps, reference=TWO_PI)
        assert rep.lhs_error < 2e-2 and rep.rhs_error < 2e-2
        assert rep.gap < 2e-2

    def test_conservative_field_circulates_zero(self):
        # F = grad(x*y) = (y, x): both sides vanish
        F = VectorField(
            2,
            2,
            lambda p: np.stack([p[..., 1], p[..., 0]], -1),
            curl=lambda p: np.zeros(p.shape[:-1]),
        )
        interior, bps = disk_partitions(64, 4096)
        rep = green_check(F, DISK_REGION, interior, bps, reference=0.0)
        assert rep.lhs.value == 0.0
        assert abs(rep.rhs.value) < 1e-3

    def test_deletion_gap_shrinks_monotonically(self):
        spec = VariantSpec("deleted", FixedK(3), Prefix())
        gaps = []
        for m_axis in (32, 64, 128, 256):
            interior, bps = disk_partitions(m_axis, 16 * m_axis)
            rep = green_check(
                ROTATION_2D, DISK_REGION, interior, bps, spec, spec.with_seed(1)
            )
            gaps.append(rep.gap)
        assert all(b <= 1.2 * a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]

    def test_orientation_check_fails_on_reversed_boundary(self):
        backwards = ParametricRegion(
            dim=2,
            param_box=DISK_REGION.param_box,
            mapping=DISK_REGION.mapping,
            jac_det=DISK_REGION.jac_det,
            boundary=(reverse_path(DISK_REGION.boundary[0]),),
        )
        a, b = backwards.boundary[0].domain
        interior = make_uniform_partition(DISK_REGION.param_box, (16, 16))
        bps = [make_uniform_partition(Box(((a, b),)), 128)]
        with pytest.raises(OrientationCheckFailed):
            green_check(ROTATION_2D, backwards, interior, bps)

    def test_boundary_partition_count_must_match(self):
        interior, bps = disk_partitions(8, 64)
        with pytest.raises(DimensionMismatch):
            green_check(ROTATION_2D, DISK_REGION, interior, [])


class TestGauss:
    def test_identity_on_ball(self):
        sc = get_scenario("gauss.ball.identity")
        rep = evaluate_scenario(sc, 32)
        assert rep.lhs_error < 5e-2 and rep.rhs_error < 5e-2 and rep.gap < 5e-2

    def test_constant_field_flux_balances(self):
        sc = get_scenario("gauss.ball.identity")
        const = np.array([1.0, -2.0, 0.5])
        F = VectorField(
            3,
            3,
            lambda p: np.broadcast_to(const, p.shape).copy(),
            div=lambda p: np.zeros(p.shape[:-1]),
        )
        interior = make_uniform_partition(sc.region.param_box, (16, 16, 16))
        bps = [make_uniform_partition(sc.region.boundary[0].domain, (64, 64))]
        rep = gauss_check(F, sc.region, interior, bps, reference=0.0)
        assert rep.lhs.value == 0.0
        assert abs(rep.rhs.value) < 1e-3

    def test_x_field_on_cube_exact_faces(self):
        sc = get_scenario("gauss.cube.xfield")
        rep = evaluate_scenario(sc, 16)
        assert rep.lhs.value == 1.0
        assert rep.rhs.value == 1.0
        assert rep.gap == 0.0

    def test_orientation_check_fails_on_inward_normals(self):
        sc = get_scenario("gauss.ball.identity")
        inward = ParametricRegion(
            dim=3,
            param_box=sc.region.param_box,
            mapping=sc.region.mapping,
            jac_det=sc.region.jac_det,
            boundary=(swap_surface(sc.region.boundary[0]),),
        )
        interior = make_uniform_partition(sc.region.param_box, (8, 8, 8))
        bps = [make_uniform_partition(inward.boundary[0].domain, (32, 32))]
        with pytest.raises(OrientationCheckFailed):
            gauss_check(sc.field, inward, interior, bps)


class TestStokes:
    def test_rotation_disk(self):
        sc = get_scenario("stokes.disk.rotation")
        rep = evaluate_scenario(sc, 256, boundary_m=4096)
        assert rep.lhs_error < 2e-2 and rep.rhs_error < 2e-2 and rep.gap < 2e-2

    def test_conservative_field_vanishes(self):
        # F = grad(xyz) = (yz, xz, xy)
        F = VectorField(
            3,
            3,
            lambda p: np.stack(
                [
                    p[..., 1] * p[..., 2],
                    p[..., 0] * p[..., 2],
                    p[..., 0] * p[..., 1],
                ],
                -1,
            ),
            curl=lambda p: np.zeros(p.shape[:-1] + (3,)),
        )
        surf_p = make_uniform_partition(DISK_PATCH.domain, (64, 64))
        bp = make_uniform_partition(Box(((0.0, TWO_PI),)), 4096)
        rep = stokes_check(F, DISK_PATCH, surf_p, CIRCLE_3D, bp, reference=0.0)
        assert rep.lhs.value == 0.0
        assert abs(rep.rhs.value) < 1e-3

    def test_surface_independence_disk_vs_hemisphere(self):
        disk = evaluate_scenario(get_scenario("stokes.disk.rotation"), 128)
        hemi = evaluate_scenario(get_scenario("stokes.hemisphere.rotation"), 128)
        assert abs(disk.lhs.value - hemi.lhs.value) < 5e-2
        assert disk.rhs.value == hemi.rhs.value  # same boundary circle

    def test_orientation_check_fails_on_flipped_surface(self):
        sc = get_scenario("stokes.disk.rotation")
        flipped = swap_surface(sc.surface)
        surf_p = make_uniform_partition(flipped.domain, (16, 16))
        bp = make_uniform_partition(Box(((0.0, TWO_PI),)), 128)
        with pytest.raises(OrientationCheckFailed):
            stokes_check(sc.field, flipped, surf_p, sc.path, bp)


class TestStokesProbe:
    """The probe's flux, the surface sum of its ``curl`` handle, is the flux
    of the stored curl field it replaced, bit for bit."""

    @pytest.mark.parametrize("tag_rule", ["midpoint", "corner", "random"])
    @pytest.mark.parametrize("selector", [Prefix(), RandomPick(4), LargestTerm()])
    @pytest.mark.parametrize("kind", ["full", "deleted", "perturbed", "combined"])
    @pytest.mark.parametrize("surface", [DISK_PATCH, HEMISPHERE], ids=["disk", "hemisphere"])
    def test_flux_matches_the_stored_curl_field(self, surface, kind, selector, tag_rule):
        p = make_uniform_partition(surface.domain, (10, 12), tag_rule, seed=3)
        spec = VariantSpec(kind, FixedK(2), selector, 0.5, seed=8)
        got = _curl_flux(_DISK_PROBE, surface, p, spec)
        want = surface_sum(DISK_PROBE_CURL, surface, p, spec)
        assert estimate_bits(got) == estimate_bits(want)

    @pytest.mark.parametrize("tag_rule", ["midpoint", "corner", "random"])
    @pytest.mark.parametrize("surface", [DISK_PATCH, HEMISPHERE], ids=["disk", "hemisphere"])
    def test_a_flipped_surface_reports_that_flux(self, surface, tag_rule):
        flipped = swap_surface(surface)
        p = make_uniform_partition(flipped.domain, (10, 12), tag_rule, seed=3)
        bp = make_uniform_partition(Box(((0.0, TWO_PI),)), 128)
        flux = surface_sum(DISK_PROBE_CURL, flipped, p).value
        assert flux < 0.0
        with pytest.raises(OrientationCheckFailed, match=re.escape(f"side ({flux!r})")):
            stokes_check(ROTATION_3D, flipped, p, CIRCLE_3D, bp)


class TestInputErrors:
    """Inputs every theorem check refuses before it sums anything wrong."""

    @staticmethod
    def _miss(kind):
        """A check whose boundary partition covers [0,1]^d, not its piece."""
        if kind == "green":
            interior = make_uniform_partition(DISK_REGION.param_box, 16)
            unit = make_uniform_partition(Box(((0.0, 1.0),)), 512)
            return lambda: green_check(ROTATION_2D, DISK_REGION, interior, [unit])
        if kind == "gauss":
            sc = get_scenario("gauss.ball.identity")
            interior = make_uniform_partition(sc.region.param_box, 8)
            square = make_uniform_partition(Box(((0.0, 1.0), (0.0, 1.0))), 16)
            return lambda: gauss_check(sc.field, sc.region, interior, [square])
        sc = get_scenario("stokes.disk.rotation")
        surf_p = make_uniform_partition(sc.surface.domain, 16)
        unit = make_uniform_partition(Box(((0.0, 1.0),)), 512)
        return lambda: stokes_check(sc.field, sc.surface, surf_p, sc.path, unit)

    @pytest.mark.parametrize("kind", ["green", "gauss", "stokes"])
    def test_boundary_partition_must_cover_its_piece(self, kind):
        with pytest.raises(DimensionMismatch, match="must cover"):
            self._miss(kind)()

    def test_region_without_boundary_is_refused(self):
        ball = get_scenario("gauss.ball.identity")
        disk_r, ball_r = DISK_REGION, ball.region
        bare_disk = ParametricRegion(2, disk_r.param_box, disk_r.mapping, disk_r.jac_det)
        bare_ball = ParametricRegion(3, ball_r.param_box, ball_r.mapping, ball_r.jac_det)
        disk_p = make_uniform_partition(disk_r.param_box, 8)
        ball_p = make_uniform_partition(ball_r.param_box, 4)
        with pytest.raises(DimensionMismatch):
            green_check(ROTATION_2D, bare_disk, disk_p, [])
        with pytest.raises(DimensionMismatch):
            gauss_check(ball.field, bare_ball, ball_p, [])
        with pytest.raises(DimensionMismatch):
            pieces_sum([], [])

    def test_green_refuses_a_3d_field(self):
        interior, bps = disk_partitions(8, 64)
        field = get_scenario("stokes.disk.rotation").field
        with pytest.raises(DimensionMismatch):
            green_check(field, DISK_REGION, interior, bps)

    def test_gauss_refuses_a_2d_region(self):
        interior, bps = disk_partitions(8, 64)
        field = get_scenario("gauss.ball.identity").field
        with pytest.raises(DimensionMismatch):
            gauss_check(field, DISK_REGION, interior, bps)

    def test_stokes_refuses_a_2d_field(self):
        surf_p = make_uniform_partition(DISK_PATCH.domain, (16, 16))
        bp = make_uniform_partition(Box(((0.0, TWO_PI),)), 128)
        with pytest.raises(DimensionMismatch):
            stokes_check(ROTATION_2D, DISK_PATCH, surf_p, CIRCLE_3D, bp)

    @pytest.mark.parametrize(
        "kind, dims",
        [("green", (2, 1)), ("green", (2, 3)), ("gauss", (3, 2)), ("gauss", (3, 4)),
         ("stokes", (3, 2))],
    )
    def test_a_field_of_another_output_dim_is_refused_before_any_sum(
        self, kind, dims, monkeypatch
    ):
        import riemannlab.theorems as theorems

        def no_sum(*args, **kwargs):
            raise AssertionError("a sum ran before the field's dims were checked")

        for name in ("pieces_sum", "region_sum", "surface_sum"):
            monkeypatch.setattr(theorems, name, no_sum)
        F = VectorField(*dims, lambda p: p[..., : dims[1]])
        with pytest.raises(DimensionMismatch, match=f"{kind}_check needs"):
            if kind == "green":
                green_check(F, DISK_REGION, *disk_partitions(8, 64))
            elif kind == "gauss":
                region = get_scenario("gauss.ball.identity").region
                interior = make_uniform_partition(region.param_box, 4)
                faces = [make_uniform_partition(s.domain, 4) for s in region.boundary]
                gauss_check(F, region, interior, faces)
            else:
                surf_p = make_uniform_partition(DISK_PATCH.domain, (16, 16))
                bp = make_uniform_partition(Box(((0.0, TWO_PI),)), 128)
                stokes_check(F, DISK_PATCH, surf_p, CIRCLE_3D, bp)


class TestReport:
    @staticmethod
    def _side(value, variant="full"):
        return SumEstimate(value, 4, 0.5, 0, 0.0, variant, 0.0)

    def test_gap_errors_and_variants_derive_from_the_sides(self):
        rep = TheoremReport("green", self._side(1.0), self._side(1.5, "perturbed"), 2.0)
        assert (rep.gap, rep.lhs_error, rep.rhs_error) == (0.5, 1.0, 0.5)
        assert (rep.lhs_variant, rep.rhs_variant) == ("full", "perturbed")
        assert rep.variant == "fullxperturbed"
        bare = TheoremReport("green", self._side(1.0), self._side(1.5))
        assert bare.lhs_error is None and bare.rhs_error is None

    def test_gap_must_be_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            TheoremReport("green", self._side(1e308), self._side(-1e308))

    def test_non_finite_gap_is_a_package_error(self):
        with pytest.raises(NonFiniteSum):
            TheoremReport("green", self._side(1e308), self._side(-1e308))


class TestClauseStructure:
    def test_clause_ii_fixed_k_runs_on_any_partition(self):
        interior = make_partition(
            DISK_REGION.param_box,
            [
                np.array([0.0, 0.2, 0.5, 1.0]),
                np.linspace(0.0, TWO_PI, 9),
            ],
        )
        assert not interior.is_equal
        bps = [make_uniform_partition(Box(((0.0, TWO_PI),)), 128)]
        spec = VariantSpec("deleted", FixedK(2), Prefix())
        rep = green_check(ROTATION_2D, DISK_REGION, interior, bps, spec, FULL)
        assert rep.lhs.deleted_count == 2

    def test_clause_iii_refuses_non_equal_interior(self):
        interior = make_partition(
            DISK_REGION.param_box,
            [
                np.array([0.0, 0.2, 0.5, 1.0]),
                np.linspace(0.0, TWO_PI, 9),
            ],
        )
        bps = [make_uniform_partition(Box(((0.0, TWO_PI),)), 128)]
        spec = VariantSpec("deleted", PowerLaw(0.5), Prefix())
        with pytest.raises(EqualPartitionRequired):
            green_check(ROTATION_2D, DISK_REGION, interior, bps, spec, FULL)

    def test_clause_iii_refuses_non_equal_boundary(self):
        interior = make_uniform_partition(DISK_REGION.param_box, (16, 16))
        breaks = np.concatenate([[0.0], np.sort(np.random.default_rng(2).uniform(
            0.1, TWO_PI - 0.1, 30)), [TWO_PI]])
        bps = [make_partition(Box(((0.0, TWO_PI),)), [breaks])]
        spec = VariantSpec("deleted", PowerLaw(0.5), Prefix())
        with pytest.raises(EqualPartitionRequired):
            green_check(ROTATION_2D, DISK_REGION, interior, bps, FULL, spec)

    def test_clause_iii_runs_on_equal_partitions(self):
        interior, bps = disk_partitions(32, 256)
        spec = VariantSpec("deleted", PowerLaw(0.5), Prefix())
        rep = green_check(ROTATION_2D, DISK_REGION, interior, bps, spec, spec)
        assert rep.lhs.deleted_count == int(math.floor((32 * 32) ** 0.5))
        assert rep.rhs.deleted_count == 16  # floor(sqrt(256))


class TestIndexChoiceIndependence:
    def test_spread_bounded_by_twice_deletion_bound(self):
        k = 4
        interior, bps = disk_partitions(256, 64)
        g_max = 2.0  # sup of the pulled-back integrand 2r on the unit disk
        max_measure = float(np.max(interior.measures))
        values = []
        for seed in range(20):
            spec = VariantSpec("deleted", FixedK(k), RandomPick(seed))
            rep = green_check(ROTATION_2D, DISK_REGION, interior, bps, spec, FULL)
            values.append(rep.lhs.value)
        spread = max(values) - min(values)
        assert spread <= 2 * k * g_max * max_measure


MATRIX = [
    ("green.disk.rotation", (32, 64, 128, 256)),
    ("gauss.ball.identity", (8, 16, 32, 64)),
    ("gauss.cube.xfield", (8, 16, 32, 64)),
    ("stokes.disk.rotation", (32, 64, 128, 256)),
    ("stokes.hemisphere.rotation", (32, 64, 128, 256)),
]


@pytest.mark.parametrize("name,m_list", MATRIX)
def test_two_sided_convergence_all_variant_pairs(name, m_list):
    """Gap at the largest m under tolerance and shrinking at least 4x.

    The fallback branch covers pairs whose gap already sits at rounding
    level (exact-by-symmetry sides) or far below the scenario tolerance,
    where a decrease ratio is meaningless.
    """
    sc = get_scenario(name)
    floor = max(1e-13 * (1.0 + abs(sc.exact)), sc.gap_tolerance / 25.0)
    kinds = ("full", "deleted", "perturbed", "combined")
    for lhs_kind, rhs_kind in itertools.product(kinds, kinds):
        lhs_spec = VariantSpec(lhs_kind, FixedK(4), Prefix(), gamma=0.5)
        rhs_spec = VariantSpec(rhs_kind, FixedK(4), Prefix(), gamma=0.5)
        rep = run_sweep(name, lhs_spec, m_list, seed=0, boundary_spec=rhs_spec)
        gaps = [row.gap for row in rep.rows]
        label = f"{name} {lhs_kind}x{rhs_kind}"
        assert gaps[-1] < sc.gap_tolerance, label
        assert gaps[-1] * 4 <= gaps[0] or gaps[-1] <= floor, (label, gaps)
