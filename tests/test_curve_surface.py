import math

import numpy as np
import pytest

from oracles import (
    naive_line_terms,
    naive_magnitude,
    naive_surface_terms,
    naive_total,
)
from riemannlab import (
    Box,
    DegenerateNormal,
    DeletionPlan,
    DimensionMismatch,
    FixedK,
    ParametricSurface,
    Path,
    Prefix,
    RandomPick,
    ScalarField,
    VariantSpec,
    VectorField,
    bind_deletion,
    line_sum,
    make_uniform_partition,
    perturb,
    reverse_path,
    surface_sum,
    swap_surface,
)
from riemannlab.curve_surface import line_dots, surface_dots
from riemannlab.scenarios import (
    CIRCLE_2D,
    DISK_PATCH,
    ROTATION_2D,
    SPHERE,
    TWO_PI,
    UNIT_DENSITY_3D,
    UNIT_SPEED_2D,
)

EPS = np.finfo(float).eps
CIRCLE_BOX = Box(((0.0, TWO_PI),))
FLAT_PATCH = ParametricSurface(
    domain=Box(((0.0, 1.0), (0.0, 1.0))),
    pos=lambda p: np.stack([p[..., 0], p[..., 1], np.zeros(p.shape[:-1])], axis=-1),
    du=lambda p: np.stack(
        [np.ones(p.shape[:-1]), np.zeros(p.shape[:-1]), np.zeros(p.shape[:-1])], -1
    ),
    dv=lambda p: np.stack(
        [np.zeros(p.shape[:-1]), np.ones(p.shape[:-1]), np.zeros(p.shape[:-1])], -1
    ),
)


def circle_partition(m, **kw):
    return make_uniform_partition(CIRCLE_BOX, m, **kw)


class TestScalarLineSum:
    def test_unit_circle_arclength(self):
        est = line_sum(UNIT_SPEED_2D, CIRCLE_2D, circle_partition(64))
        assert abs(est.value - TWO_PI) <= 64 * EPS * TWO_PI

    def test_one_deleted_term(self):
        p = circle_partition(64)
        plan = bind_deletion(DeletionPlan(FixedK(1), Prefix()), p)
        est = line_sum(UNIT_SPEED_2D, CIRCLE_2D, p, plan=plan)
        assert abs(est.value - TWO_PI * 63 / 64) <= 64 * EPS * TWO_PI

    def test_segment_midpoint_exact(self):
        seg = Path(
            domain=(0.0, 1.0),
            pos=lambda t: np.stack([np.asarray(t, float), np.zeros(np.shape(t))], -1),
            vel=lambda t: np.stack(
                np.broadcast_arrays(np.ones(np.shape(t)), np.zeros(np.shape(t))), -1
            ),
        )
        f = ScalarField(2, lambda p: p[..., 0])
        p = make_uniform_partition(Box(((0.0, 1.0),)), 8)
        assert line_sum(f, seg, p).value == 0.5

    def test_dimension_mismatch(self):
        f3 = ScalarField(3, lambda p: np.ones(p.shape[:-1]))
        with pytest.raises(DimensionMismatch):
            line_sum(f3, CIRCLE_2D, circle_partition(8))

    def test_partition_must_cover_domain(self):
        p = make_uniform_partition(Box(((0.0, 1.0),)), 8)
        with pytest.raises(DimensionMismatch):
            line_sum(UNIT_SPEED_2D, CIRCLE_2D, p)


class TestVectorLineSum:
    @pytest.mark.parametrize("m", [4, 16, 128])
    def test_rotation_circulation(self, m):
        est = line_sum(ROTATION_2D, CIRCLE_2D, circle_partition(m))
        assert abs(est.value - TWO_PI) <= 4 * m * EPS * TWO_PI

    def test_gradient_field_potential_difference(self):
        # F = grad(x*y) along the diagonal (t, t): integral = 1*1 - 0 = 1
        diag = Path(
            domain=(0.0, 1.0),
            pos=lambda t: np.stack(np.broadcast_arrays(t, t), -1),
            vel=lambda t: np.ones(np.shape(t) + (2,)),
        )
        F = VectorField(2, 2, lambda p: np.stack([p[..., 1], p[..., 0]], -1))
        p = make_uniform_partition(Box(((0.0, 1.0),)), 1024)
        est = line_sum(F, diag, p)
        assert abs(est.value - 1.0) < 1e-12

    def test_perturbed_zero_gamma_equals_full(self):
        p = circle_partition(32)
        pp = perturb(p, 0.0, seed=1)
        full = line_sum(ROTATION_2D, CIRCLE_2D, p)
        pert = line_sum(ROTATION_2D, CIRCLE_2D, p, perturbation=pp)
        assert pert.value == full.value


class TestScalarSurfaceSum:
    def test_sphere_area(self):
        p = make_uniform_partition(SPHERE.domain, (128, 128))
        est = surface_sum(UNIT_DENSITY_3D, SPHERE, p)
        assert abs(est.value - 4 * math.pi) < 1e-2

    def test_flat_patch_exact(self):
        p = make_uniform_partition(FLAT_PATCH.domain, (8, 8))
        est = surface_sum(UNIT_DENSITY_3D, FLAT_PATCH, p)
        assert est.value == 1.0

    def test_deletion_bound_by_oracle(self):
        p = make_uniform_partition(SPHERE.domain, (12, 12))
        terms = naive_surface_terms(UNIT_DENSITY_3D, SPHERE, p)
        plan = bind_deletion(DeletionPlan(FixedK(5), RandomPick(2)), p)
        full = surface_sum(UNIT_DENSITY_3D, SPHERE, p)
        part = surface_sum(UNIT_DENSITY_3D, SPHERE, p, plan=plan)
        assert abs(part.value - full.value) <= 5 * max(abs(t) for t in terms) * (1 + 1e-12)

    def test_degenerate_normal_at_used_tag(self):
        # corner tags include u = 0 where the disk patch normal (0,0,u) vanishes
        p = make_uniform_partition(DISK_PATCH.domain, (4, 4), tag_rule="corner")
        with pytest.raises(DegenerateNormal):
            surface_sum(UNIT_DENSITY_3D, DISK_PATCH, p)
        # deleting exactly the degenerate tags makes the rest computable
        plan = DeletionPlan(FixedK(4), Prefix(), resolved=(0, 1, 2, 3))
        est = surface_sum(UNIT_DENSITY_3D, DISK_PATCH, p, plan=plan)
        assert est.deleted_count == 4


class TestVectorSurfaceSum:
    def test_sphere_flux(self):
        from riemannlab.scenarios import IDENTITY_3D

        p = make_uniform_partition(SPHERE.domain, (128, 128))
        est = surface_sum(IDENTITY_3D, SPHERE, p)
        assert abs(est.value - 4 * math.pi) < 1e-2

    def test_constant_flux_through_flat_patch(self):
        F = VectorField(
            3,
            3,
            lambda p: np.stack(
                [np.zeros(p.shape[:-1]), np.zeros(p.shape[:-1]), np.ones(p.shape[:-1])],
                -1,
            ),
        )
        p = make_uniform_partition(FLAT_PATCH.domain, (8, 8))
        assert surface_sum(F, FLAT_PATCH, p).value == 1.0

    def test_tangent_field_zero_flux(self):
        F = VectorField(
            3,
            3,
            lambda p: np.stack([-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], -1),
        )
        p = make_uniform_partition(FLAT_PATCH.domain, (8, 8))
        assert surface_sum(F, FLAT_PATCH, p).value == 0.0


class TestOrientation:
    def test_reversed_path_negates_terms_exactly(self):
        from riemannlab import reflect_partition

        m = 48
        p = circle_partition(m, tag_rule="random", seed=5)
        rev_path = reverse_path(CIRCLE_2D)
        rev_p = reflect_partition(p)
        fwd = line_dots(ROTATION_2D, CIRCLE_2D, p) * p.measures
        bwd = line_dots(ROTATION_2D, rev_path, rev_p) * rev_p.measures
        np.testing.assert_array_equal(bwd, -fwd[::-1])
        sf = line_sum(ROTATION_2D, CIRCLE_2D, p)
        sb = line_sum(ROTATION_2D, rev_path, rev_p)
        scale = float(np.sum(np.abs(fwd)))
        assert abs(sb.value + sf.value) <= 4 * EPS * scale

    def test_swapped_surface_negates_terms_exactly(self):
        from riemannlab import swap_axes_partition
        from riemannlab.scenarios import IDENTITY_3D

        p = make_uniform_partition(SPHERE.domain, (6, 9), tag_rule="random", seed=3)
        swapped = swap_surface(SPHERE)
        sw_p = swap_axes_partition(p)
        fwd = surface_dots(IDENTITY_3D, SPHERE, p) * p.measures
        bwd = surface_dots(IDENTITY_3D, swapped, sw_p) * sw_p.measures
        np.testing.assert_array_equal(bwd, -fwd.reshape(6, 9).T.ravel())
        sf = surface_sum(IDENTITY_3D, SPHERE, p)
        sb = surface_sum(IDENTITY_3D, swapped, sw_p)
        assert abs(sb.value + sf.value) <= 4 * EPS * float(np.sum(np.abs(fwd)))


class TestReparametrization:
    def test_circle_under_t_and_t_squared(self):
        f = ScalarField(2, lambda p: p[..., 0] ** 2)  # int x^2 ds = pi
        m = 10**4
        straight = line_sum(f, CIRCLE_2D, circle_partition(m))
        end = math.sqrt(TWO_PI)
        squared = Path(
            domain=(0.0, end),
            pos=lambda s: np.stack(
                [np.cos(np.asarray(s) ** 2), np.sin(np.asarray(s) ** 2)], -1
            ),
            vel=lambda s: np.stack(
                [
                    -2.0 * np.asarray(s) * np.sin(np.asarray(s) ** 2),
                    2.0 * np.asarray(s) * np.cos(np.asarray(s) ** 2),
                ],
                -1,
            ),
        )
        sq_p = make_uniform_partition(Box(((0.0, end),)), m)
        reparam = line_sum(f, squared, sq_p)
        assert abs(straight.value - reparam.value) < 1e-3
        assert abs(straight.value - math.pi) < 1e-3


class TestVariantBounds:
    def test_line_deletion_bound(self):
        # |deleted - full| <= K * M' * max_k (||x'|| dt), M' = max |f| on tags
        rng = np.random.default_rng(41)
        from oracles import random_poly_path, random_poly_scalar

        for trial in range(20):
            pos, vel = random_poly_path(rng, dim_out=2)
            path = Path(domain=(0.0, 1.0), pos=pos, vel=vel)
            p = make_uniform_partition(Box(((0.0, 1.0),)), int(rng.integers(4, 40)),
                                       "random", seed=trial)
            fn, _ = random_poly_scalar(rng, 2, [(-3, 3), (-3, 3)])
            f = ScalarField(2, fn)
            k = int(rng.integers(1, p.m))
            plan = bind_deletion(DeletionPlan(FixedK(k), RandomPick(trial)), p)
            full = line_sum(f, path, p)
            part = line_sum(f, path, p, plan=plan)
            t = p.tags[:, 0]
            speeds = np.sqrt(np.sum(np.asarray(path.vel(t)) ** 2, axis=-1))
            m_prime = float(np.max(np.abs(f(path.pos(t)))))
            max_weight = float(np.max(speeds * p.measures))
            assert abs(part.value - full.value) <= k * m_prime * max_weight * (1 + 1e-12)

    def test_surface_deletion_bound(self):
        rng = np.random.default_rng(42)
        from oracles import random_poly_scalar, random_poly_surface

        for trial in range(20):
            pos, du, dv = random_poly_surface(rng)
            surface = ParametricSurface(Box(((0.0, 1.0), (0.0, 1.0))), pos, du, dv)
            p = make_uniform_partition(surface.domain, (5, 6), "random", seed=trial)
            fn, _ = random_poly_scalar(rng, 3, [(-3, 3)] * 3)
            f = ScalarField(3, fn)
            k = int(rng.integers(1, p.m))
            plan = bind_deletion(DeletionPlan(FixedK(k), RandomPick(trial)), p)
            full = surface_sum(f, surface, p)
            part = surface_sum(f, surface, p, plan=plan)
            norms = np.sqrt(np.sum(surface.normal(p.tags) ** 2, axis=-1))
            m_prime = float(np.max(np.abs(f(surface.pos(p.tags)))))
            max_weight = float(np.max(norms * p.measures))
            assert abs(part.value - full.value) <= k * m_prime * max_weight * (1 + 1e-12)


class TestVariantEntryPoints:
    def test_line_sum_dispatches_on_field_type(self):
        p = circle_partition(64)
        v = line_sum(ROTATION_2D, CIRCLE_2D, p)
        s = line_sum(UNIT_SPEED_2D, CIRCLE_2D, p)
        assert v.variant == s.variant == "full"
        assert abs(v.value - TWO_PI) < 1e-12 and abs(s.value - TWO_PI) < 1e-12

    def test_surface_sum_variant_plumbing(self):
        from riemannlab.scenarios import IDENTITY_3D

        p = make_uniform_partition(SPHERE.domain, (16, 16))
        spec = VariantSpec("combined", FixedK(3), RandomPick(7), gamma=0.5, seed=7)
        est = surface_sum(IDENTITY_3D, SPHERE, p, spec)
        assert est.variant == "combined"
        assert est.deleted_count == 3
        assert est.symdiff_total > 0

    def test_oracle_equivalence_small_line(self):
        rng = np.random.default_rng(31)
        from oracles import random_poly_path

        for trial in range(20):
            pos, vel = random_poly_path(rng, dim_out=2)
            path = Path(domain=(0.0, 1.0), pos=pos, vel=vel)
            m = int(rng.integers(2, 17))
            p = make_uniform_partition(Box(((0.0, 1.0),)), m, "random", seed=trial)
            F = VectorField(
                2, 2, lambda q: np.stack([q[..., 1], q[..., 0] * q[..., 1]], -1)
            )
            pp = perturb(p, 0.5, seed=trial)
            plan = bind_deletion(DeletionPlan(FixedK(1), RandomPick(trial)), p)
            est = line_sum(F, path, p, plan=plan, perturbation=pp)
            terms = naive_line_terms(F, path, p, perturbation=pp, vector=True)
            expected = naive_total(terms, plan.resolved)
            scale = max(naive_magnitude(terms, plan.resolved), 1e-30)
            assert abs(est.value - expected) <= 4 * EPS * scale
