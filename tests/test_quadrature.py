import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    estimate_bits,
    mask_and_copy_sum,
    naive_box_terms,
    naive_magnitude,
    naive_total,
    random_box,
    random_poly_scalar,
    region_integrand,
)
from riemannlab import (
    Box,
    DeletionPlan,
    DimensionMismatch,
    FixedK,
    InvalidParameter,
    LargestTerm,
    ParametricRegion,
    PowerLaw,
    Prefix,
    RandomPick,
    ScalarField,
    UnboundPlan,
    VariantSpec,
    apply_perturbation,
    bind_deletion,
    make_uniform_partition,
    neumaier_sum,
    perturb,
    region_sum,
    schedule_count,
    variant_sum,
)
from riemannlab.scenarios import BALL_REGION, DISK_REGION, SINPROD_2D

UNIT = Box(((0.0, 1.0),))
ONE_1D = ScalarField(1, lambda x: np.ones(x.shape[:-1]), bound_M=1.0)
X_1D = ScalarField(1, lambda x: x[..., 0], bound_M=1.0)
EPS = np.finfo(float).eps


class TestRiemannSum:
    def test_constant_tiles(self):
        p = make_uniform_partition(UNIT, 4)
        assert variant_sum(ONE_1D, p).value == 1.0

    def test_midpoint_exact_for_linear(self):
        p = make_uniform_partition(UNIT, 4, tag_rule="midpoint")
        assert variant_sum(X_1D, p).value == 0.5

    def test_corner_tags_2d_hand_value(self):
        f = ScalarField(2, lambda p: p[..., 0] * p[..., 1])
        p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 1.0))), (2, 2), "corner")
        assert variant_sum(f, p).value == 0.0625

    def test_dimension_mismatch(self):
        p = make_uniform_partition(UNIT, 4)
        with pytest.raises(DimensionMismatch):
            variant_sum(SINPROD_2D, p)

    def test_estimate_provenance(self):
        p = make_uniform_partition(UNIT, 8)
        est = variant_sum(X_1D, p)
        assert (est.m, est.mesh, est.variant) == (8, 0.125, "full")
        assert est.deleted_count == 0 and est.symdiff_total == 0.0


class TestDeletedSum:
    def test_drop_one_cell(self):
        p = make_uniform_partition(UNIT, 4)
        plan = DeletionPlan(FixedK(1), Prefix(), resolved=(1,))
        assert variant_sum(ONE_1D, p, plan=plan).value == 0.75

    def test_drop_all_but_one(self):
        p = make_uniform_partition(UNIT, 4)
        plan = DeletionPlan(FixedK(3), Prefix(), resolved=(0, 1, 2))
        assert variant_sum(ONE_1D, p, plan=plan).value == 0.25

    def test_prefix_powerlaw_against_loop(self):
        p = make_uniform_partition(UNIT, 100, tag_rule="midpoint")
        plan = bind_deletion(DeletionPlan(PowerLaw(0.5), Prefix()), p)
        est = variant_sum(X_1D, p, plan=plan)
        full = variant_sum(X_1D, p)
        removed = math.fsum(p.tags[k, 0] / 100.0 for k in range(10))
        assert abs(est.value - (full.value - removed)) <= 4 * EPS
        assert est.deleted_count == 10

    def test_unbound_plan_rejected(self):
        p = make_uniform_partition(UNIT, 4)
        with pytest.raises(UnboundPlan):
            variant_sum(ONE_1D, p, plan=DeletionPlan(FixedK(1), Prefix()))


@st.composite
def explicit_plans(draw):
    """A 1-3 D random-tag partition with up to a few thousand cells, a
    polynomial field on it, and a hand-built deleted index set, in a tuple, a
    list or an int32, int64 or uint16 array, whose indices may come in any
    order and repeat (fewer entries than cells, as a plan must have)."""
    dim = draw(st.integers(1, 3))
    top = {1: 3000, 2: 60, 3: 14}[dim]
    counts = tuple(draw(st.lists(st.integers(1, top), min_size=dim, max_size=dim)))
    m = math.prod(counts)
    if m < 2:
        counts, m = (2,) + counts[1:], 2 * m
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    axes = random_box(rng, dim)
    p = make_uniform_partition(Box(tuple(axes)), counts, "random", seed)
    fn, _ = random_poly_scalar(rng, dim, axes)
    size = draw(st.integers(1, min(m - 1, 64)))
    picks = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    container = draw(st.sampled_from([tuple, list, np.int32, np.int64, np.uint16]))
    picks = container(picks) if container in (tuple, list) else np.array(picks, container)
    return ScalarField(dim, fn), p, picks


class TestDeletionByIndex:
    """Deleted terms are overwritten by index; every bit of the estimate is
    that of the kept terms copied out by a keep mask."""

    @settings(max_examples=150, deadline=None)
    @given(explicit_plans(), st.floats(0.0, 0.9) | st.none())
    def test_explicit_plans_match_mask_and_copy(self, case, gamma):
        f, p, picks = case
        plan = DeletionPlan(FixedK(len(picks)), Prefix(), picks)
        idx = plan.resolved
        assert idx.dtype == np.int64 and not idx.flags.writeable
        assert np.all(idx[1:] > idx[:-1])
        pp = None if gamma is None else perturb(p, gamma, seed=len(idx))
        est = variant_sum(f, p, plan=plan, perturbation=pp)
        terms = np.asarray(f(p.tags), dtype=float) * (p if pp is None else pp).measures
        value, residual, deleted = mask_and_copy_sum(terms, picks)
        assert est.value.hex() == value.hex()
        assert est.compensation_residual.hex() == residual.hex()
        assert est.deleted_count == deleted == len(set(np.asarray(picks).tolist()))
        assert est.variant == ("deleted" if pp is None else "combined")

    def test_repeated_unsorted_indices_delete_each_cell_once(self):
        p = make_uniform_partition(UNIT, 4)
        est = variant_sum(ONE_1D, p, plan=DeletionPlan(FixedK(2), Prefix(), (3, 1, 3)))
        assert (est.value, est.deleted_count, est.variant) == (0.5, 2, "deleted")
        # Repeats count once toward K < m: three distinct cells of four.
        est = variant_sum(ONE_1D, p, plan=DeletionPlan(FixedK(3), Prefix(), (0, 0, 1, 2)))
        assert (est.value, est.deleted_count) == (0.25, 3)

    @pytest.mark.parametrize(
        "resolved", [(1.5,), ("1",), (True,), (np.float64(2.7),), ((0, 1), (2, 3))],
        ids=["float", "str", "bool", "numpy-float", "2-D"],
    )
    def test_index_sets_of_other_than_1d_integers_are_refused(self, resolved):
        with pytest.raises(InvalidParameter, match="deleted indices must be 1-D integers"):
            DeletionPlan(FixedK(1), Prefix(), resolved)

    @pytest.mark.parametrize("selector", [Prefix(), RandomPick(5)], ids=["prefix", "random"])
    def test_a_big_deletion_counts_each_of_its_k_cells(self, selector):
        p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 1.0))), 1024)
        spec = VariantSpec("deleted", PowerLaw(0.95), selector)
        est = variant_sum(ScalarField(2, lambda q: q[..., 0]), p, spec)
        assert est.deleted_count == schedule_count(PowerLaw(0.95), p.m) == 524_287

    @pytest.mark.parametrize("selector", [Prefix(), RandomPick(5)], ids=["prefix", "random"])
    def test_a_big_deletion_peaks_at_the_full_sum_and_its_k_indices(self, selector):
        """tracemalloc peaks of one process: a deleted sum holds what the full
        sum holds and its K indices, 8·K bytes. RandomPick adds the peak of
        ``Generator.choice`` without replacement, measured at 8·m + 8·K bytes
        (a permutation of all m indices, then a copy of K of them; 12 MiB
        here). The margin, 1 MiB, holds the strict-increase check's K-byte
        mask. Nothing is timed."""
        p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 1.0))), 1024)
        f = ScalarField(2, lambda q: q[..., 0])
        k = schedule_count(PowerLaw(0.95), p.m)

        def peak(spec):
            variant_sum(f, p, spec)  # numpy's first-call allocations, untraced
            tracemalloc.start()
            try:
                variant_sum(f, p, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        full = peak(VariantSpec())
        choice = 8 * p.m + 8 * k if isinstance(selector, RandomPick) else 0
        assert peak(VariantSpec("deleted", PowerLaw(0.95), selector)) <= (
            full + 8 * k + choice + 2**20
        )

    @pytest.mark.parametrize("resolved", [(), (0, 1, 2, 3), (-1,), (4,), (0, 1, 1, 2, 3)])
    def test_invalid_index_sets_are_unbound(self, resolved):
        p = make_uniform_partition(UNIT, 4)
        with pytest.raises(UnboundPlan, match="invalid for m=4"):
            variant_sum(ONE_1D, p, plan=DeletionPlan(FixedK(1), Prefix(), resolved))


class TestPerturbedSum:
    def test_zero_gamma_equals_full_bitwise(self):
        p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), (5, 3))
        pp = perturb(p, 0.0, seed=3)
        f = ScalarField(2, lambda q: q[..., 0] + q[..., 1])
        assert variant_sum(f, p, perturbation=pp).value == variant_sum(f, p).value

    def test_forced_breakpoint_constant(self):
        p = make_uniform_partition(UNIT, 2)
        pp = apply_perturbation(p, [np.array([0.0, 0.55, 1.0])])
        assert variant_sum(ONE_1D, p, perturbation=pp).value == 1.0

    def test_forced_breakpoint_linear(self):
        p = make_uniform_partition(UNIT, 2)
        pp = apply_perturbation(p, [np.array([0.0, 0.55, 1.0])])
        est = variant_sum(X_1D, p, perturbation=pp)
        assert abs(est.value - 0.475) <= 2 * EPS  # 0.25*0.55 + 0.75*0.45 by hand
        assert est.symdiff_total == pp.symdiff_total


class TestCombinedSum:
    def test_zero_gamma_reduces_to_deleted(self):
        p = make_uniform_partition(UNIT, 4)
        pp = perturb(p, 0.0, seed=0)
        plan = DeletionPlan(FixedK(1), Prefix(), resolved=(1,))
        combined = variant_sum(ONE_1D, p, plan=plan, perturbation=pp)
        assert combined.value == variant_sum(ONE_1D, p, plan=plan).value

    def test_forced_perturbation_with_prefix_deletion(self):
        p = make_uniform_partition(UNIT, 2)
        pp = apply_perturbation(p, [np.array([0.0, 0.55, 1.0])])
        plan = bind_deletion(DeletionPlan(FixedK(1), Prefix()), p)
        assert variant_sum(ONE_1D, p, plan=plan, perturbation=pp).value == 1.0 - 0.55

    def test_matches_oracle_on_small_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            axes = random_box(rng, dim)
            box = Box(tuple(axes))
            counts = tuple(int(rng.integers(2, 3 if dim == 3 else 5)) for _ in range(dim))
            p = make_uniform_partition(box, counts, "random", seed=trial)
            fn, bound = random_poly_scalar(rng, dim, axes)
            f = ScalarField(dim, fn, bound_M=bound)
            pp = perturb(p, float(rng.uniform(0, 0.9)), seed=trial)
            plan = bind_deletion(
                DeletionPlan(FixedK(int(rng.integers(1, p.m))), RandomPick(trial)), p
            )
            est = variant_sum(f, p, plan=plan, perturbation=pp)
            terms = naive_box_terms(f, p, perturbation=pp)
            expected = naive_total(terms, plan.resolved)
            scale = naive_magnitude(terms, plan.resolved)
            assert abs(est.value - expected) <= 4 * EPS * max(scale, 1e-30)


class TestBounds:
    def test_deletion_bound_randomized(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            dim = int(rng.integers(1, 4))
            axes = random_box(rng, dim)
            p = make_uniform_partition(
                Box(tuple(axes)),
                tuple(int(rng.integers(2, 5)) for _ in range(dim)),
                tag_rule=("midpoint", "corner", "random")[trial % 3],
                seed=trial,
            )
            fn, bound = random_poly_scalar(rng, dim, axes)
            f = ScalarField(dim, fn, bound_M=bound)
            k = int(rng.integers(1, p.m))
            plan = bind_deletion(DeletionPlan(FixedK(k), RandomPick(trial)), p)
            gap = abs(variant_sum(f, p, plan=plan).value - variant_sum(f, p).value)
            assert gap <= len(plan.resolved) * bound * float(np.max(p.measures))

    def test_fraction_bound_on_equal_partitions(self):
        rng = np.random.default_rng(22)
        for trial in range(60):
            dim = int(rng.integers(1, 4))
            axes = random_box(rng, dim)
            box = Box(tuple(axes))
            p = make_uniform_partition(
                box, tuple(int(rng.integers(2, 5)) for _ in range(dim)), seed=trial
            )
            fn, bound = random_poly_scalar(rng, dim, axes)
            f = ScalarField(dim, fn, bound_M=bound)
            plan = bind_deletion(DeletionPlan(PowerLaw(0.5), RandomPick(trial)), p)
            gap = abs(variant_sum(f, p, plan=plan).value - variant_sum(f, p).value)
            assert gap <= bound * box.measure * len(plan.resolved) / p.m * (1 + 1e-12)

    def test_perturbation_bound_randomized(self):
        rng = np.random.default_rng(23)
        for trial in range(60):
            dim = int(rng.integers(1, 4))
            axes = random_box(rng, dim)
            p = make_uniform_partition(
                Box(tuple(axes)),
                tuple(int(rng.integers(2, 6)) for _ in range(dim)),
                seed=trial,
            )
            fn, bound = random_poly_scalar(rng, dim, axes)
            f = ScalarField(dim, fn, bound_M=bound)
            pp = perturb(p, float(rng.uniform(0, 0.9)), seed=trial + 1)
            gap = abs(variant_sum(f, p, perturbation=pp).value - variant_sum(f, p).value)
            assert gap <= bound * pp.symdiff_total + 4 * EPS * bound


class TestVariantSum:
    def test_full_matches_riemann(self):
        p = make_uniform_partition(UNIT, 16)
        riemann, _ = neumaier_sum(X_1D(p.tags) * p.measures)
        assert variant_sum(X_1D, p).value == riemann

    def test_largest_term_uses_current_magnitudes(self):
        p = make_uniform_partition(UNIT, 8, tag_rule="midpoint")
        spec = VariantSpec("deleted", FixedK(2), LargestTerm())
        est = variant_sum(X_1D, p, spec)
        # the two largest |x * dx| terms sit at the right edge
        plan = DeletionPlan(FixedK(2), Prefix(), resolved=(6, 7))
        assert est.value == variant_sum(X_1D, p, plan=plan).value

    def test_determinism(self):
        p1 = make_uniform_partition(UNIT, 64, "random", seed=4)
        p2 = make_uniform_partition(UNIT, 64, "random", seed=4)
        spec = VariantSpec("combined", FixedK(5), RandomPick(9), gamma=0.7, seed=9)
        a = variant_sum(X_1D, p1, spec)
        b = variant_sum(X_1D, p2, spec)
        assert a == b

    def test_overflowing_sum_is_not_finite(self):
        huge = ScalarField(1, lambda x: np.full(x.shape[:-1], 1e308))
        p = make_uniform_partition(Box(((0.0, 2.0),)), 2)
        with pytest.raises(ValueError, match="not finite"):
            variant_sum(huge, p)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            VariantSpec(kind="nope")


class TestIntegrateRegion:
    def test_disk_area(self):
        one = ScalarField(2, lambda p: np.ones(p.shape[:-1]))
        p = make_uniform_partition(DISK_REGION.param_box, (256, 256))
        est = region_sum(one, DISK_REGION, p)
        assert abs(est.value - math.pi) < 1e-3

    def test_ball_volume(self):
        one = ScalarField(3, lambda p: np.ones(p.shape[:-1]))
        p = make_uniform_partition(BALL_REGION.param_box, (64, 64, 64))
        est = region_sum(one, BALL_REGION, p)
        assert abs(est.value - 4.0 * math.pi / 3.0) < 1e-2

    def test_identity_map_reduces_to_riemann_sum(self):
        box = Box(((0.0, 1.0), (0.0, 1.0)))
        region = ParametricRegion(
            dim=2,
            param_box=box,
            mapping=lambda p: p,
            jac_det=lambda p: np.ones(p.shape[:-1]),
        )
        p = make_uniform_partition(box, (7, 5), "random", seed=2)
        est = region_sum(SINPROD_2D, region, p)
        assert est.value == variant_sum(SINPROD_2D, p).value

    def test_variants_propagate(self):
        one = ScalarField(2, lambda p: np.ones(p.shape[:-1]))
        p = make_uniform_partition(DISK_REGION.param_box, (16, 16))
        plan = bind_deletion(DeletionPlan(FixedK(3), Prefix()), p)
        pp = perturb(p, 0.5, seed=1)
        assert region_sum(one, DISK_REGION, p, plan=plan).variant == "deleted"
        assert region_sum(one, DISK_REGION, p, perturbation=pp).variant == "perturbed"
        est = region_sum(one, DISK_REGION, p, plan=plan, perturbation=pp)
        assert est.variant == "combined" and est.deleted_count == 3

    def test_perturbation_must_be_built_from_p(self):
        # a perturbation of another partition of a larger box once summed
        # over that box, 62.14 here, instead of the disk area pi
        one = ScalarField(2, lambda q: np.ones(q.shape[:-1]))
        p = make_uniform_partition(DISK_REGION.param_box, (8, 8))
        q = make_uniform_partition(Box(((0.0, 5.0), (0.0, 5.0))), (8, 8))
        with pytest.raises(DimensionMismatch):
            region_sum(one, DISK_REGION, p, perturbation=perturb(q, 0.3, 1))

    def test_partition_must_match_param_box(self):
        p = make_uniform_partition(Box(((0.0, 2.0), (0.0, 1.0))), (4, 4))
        one = ScalarField(2, lambda q: np.ones(q.shape[:-1]))
        with pytest.raises(DimensionMismatch):
            region_sum(one, DISK_REGION, p)

    def test_cover_is_checked_before_the_field_dimension(self):
        one_3d = ScalarField(3, lambda q: np.ones(q.shape[:-1]))
        elsewhere = make_uniform_partition(Box(((0.0, 2.0), (0.0, 1.0))), (4, 4))
        with pytest.raises(DimensionMismatch, match="does not cover"):
            region_sum(one_3d, DISK_REGION, elsewhere)
        p = make_uniform_partition(DISK_REGION.param_box, (4, 4))
        with pytest.raises(DimensionMismatch, match="field dim 3 != region dim 2"):
            region_sum(one_3d, DISK_REGION, p)

    @pytest.mark.parametrize("tag_rule", ["midpoint", "corner", "random"])
    @pytest.mark.parametrize("selector", [Prefix(), RandomPick(4), LargestTerm()])
    @pytest.mark.parametrize("kind", ["full", "deleted", "perturbed", "combined"])
    @pytest.mark.parametrize(
        "region,f,counts",
        [
            (DISK_REGION, ScalarField(2, lambda q: q[..., 0] * q[..., 0] + q[..., 1]), 12),
            (BALL_REGION, ScalarField(3, lambda q: q[..., 0] * q[..., 1] + q[..., 2]), 6),
        ],
        ids=["disk", "ball"],
    )
    def test_matches_the_pulled_back_field_bit_for_bit(
        self, region, f, counts, kind, selector, tag_rule
    ):
        p = make_uniform_partition(region.param_box, counts, tag_rule, seed=5)
        spec = VariantSpec(kind, FixedK(3), selector, 0.5, seed=9)
        got = region_sum(f, region, p, spec)
        want = variant_sum(region_integrand(f, region), p, spec)
        assert estimate_bits(got) == estimate_bits(want)


class TestConvergenceSmoke:
    # n = 3 runs at 64 per axis to keep the suite fast; the tolerances are
    # the same ones the 256-per-axis acceptance sweep pins for n = 2.
    @pytest.mark.parametrize("dim,m_axis", [(1, 256), (2, 256), (3, 64)])
    def test_sin_product_all_variants_converge(self, dim, m_axis):
        box = Box(tuple((0.0, 1.0) for _ in range(dim)))
        exact = (1.0 - math.cos(1.0)) ** dim

        def fn(p):
            out = np.ones(p.shape[:-1])
            for axis in range(dim):
                out = out * np.sin(p[..., axis])
            return out

        f = ScalarField(dim, fn, bound_M=math.sin(1.0) ** dim)
        p = make_uniform_partition(box, m_axis)
        tight = (
            VariantSpec(),
            VariantSpec("deleted", FixedK(8), Prefix()),
        )
        loose = (
            VariantSpec("perturbed", gamma=0.5, seed=2),
            VariantSpec("combined", FixedK(8), Prefix(), gamma=0.5, seed=2),
        )
        for spec in tight:
            assert abs(variant_sum(f, p, spec).value - exact) < 1e-3
        for spec in loose:
            assert abs(variant_sum(f, p, spec).value - exact) < 1e-2
