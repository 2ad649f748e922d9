import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riemannlab import (
    Box,
    CountOverflow,
    DegenerateBox,
    DeletionPlan,
    EqualPartitionRequired,
    FixedK,
    InvalidParameter,
    LargestTerm,
    Logarithmic,
    MissingTerms,
    Partition,
    PowerLaw,
    Prefix,
    RandomPick,
    RiemannLabError,
    ScalarField,
    SumEstimate,
    TagEscape,
    VariantSpec,
    apply_perturbation,
    bind_deletion,
    fields,
    get_scenario,
    make_partition,
    make_uniform_partition,
    perturb,
    reflect_partition,
    register_scenario,
    schedule_count,
    swap_axes_partition,
    variant_sum,
)

from riemannlab.fields import _rowwise
from riemannlab.geometry import TAG_RULES, _escaped_axis, select_indices

from oracles import (
    argsort_top_k,
    flip_reflected_tags,
    grid_scan_extents,
    grid_stack_tags,
    meshgrid_random_tags,
    naive_symdiff,
    per_cell_escaped_axis,
    slab_scan_breakpoints,
    transposed_swap_tags,
    unravel,
)

UNIT = Box(((0.0, 1.0),))


def _held_arrays(obj):
    """``(field name, array)`` for every array the dataclass ``obj`` holds,
    directly or in a tuple."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield field.name, item


def _assert_per_axis_arrays_only(obj, counts):
    """Every array the dataclass ``obj`` holds, directly or in a tuple, has
    at most one entry per breakpoint of the ``counts`` grid."""
    for name, item in _held_arrays(obj):
        assert len(item) <= max(counts) + 1, name


class TestBox:
    def test_measure(self):
        assert Box(((0.0, 1.0), (0.0, 2.0))).measure == 2.0

    def test_degenerate_axis(self):
        with pytest.raises(DegenerateBox):
            Box(((0.0, 0.0),))
        with pytest.raises(DegenerateBox):
            Box(((1.0, 0.5),))

    def test_dimension_cap(self):
        Box(tuple((0.0, 1.0) for _ in range(8)))  # allowed
        with pytest.raises(DegenerateBox):
            Box(tuple((0.0, 1.0) for _ in range(9)))


class TestUniformPartition:
    def test_1d_midpoint_example(self):
        p = make_uniform_partition(UNIT, 4, tag_rule="midpoint")
        assert p.counts == (4,)
        np.testing.assert_array_equal(p.breakpoints[0], [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(p.tags.ravel(), [0.125, 0.375, 0.625, 0.875])
        assert p.mesh == 0.25
        assert p.is_equal

    def test_2d_corner_example(self):
        box = Box(((0.0, 1.0), (0.0, 2.0)))
        p = make_uniform_partition(box, (2, 2), tag_rule="corner")
        assert p.m == 4
        np.testing.assert_array_equal(p.measures, [0.5, 0.5, 0.5, 0.5])
        np.testing.assert_array_equal(
            p.tags, [[0.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 1.0]]
        )

    def test_random_tags_deterministic(self):
        a = make_uniform_partition(UNIT, 3, tag_rule="random", seed=7)
        b = make_uniform_partition(UNIT, 3, tag_rule="random", seed=7)
        np.testing.assert_array_equal(a.tags, b.tags)
        lows, highs = a.breakpoints[0][:-1, None], a.breakpoints[0][1:, None]
        assert np.all(a.tags >= lows) and np.all(a.tags <= highs)

    def test_count_overflow(self):
        with pytest.raises(CountOverflow):
            make_uniform_partition(Box(((0.0, 1.0), (0.0, 1.0)), ), (10**5, 10**4))

    def test_bad_counts(self):
        with pytest.raises(DegenerateBox):
            make_uniform_partition(UNIT, 0)

    def test_counts_of_any_integer_type(self):
        box = Box(((0.0, 1.0), (0.0, 2.0)))
        for counts in (np.array(4), np.int64(4), (np.int32(4), 4), np.array([4, 4])):
            assert make_uniform_partition(box, counts).counts == (4, 4)

    def test_a_sub_ulp_grid_is_refused_as_make_partition_refuses_it(self):
        # The spacing of doubles at 1e16 is 2, so 16 cells of width 0.5 do
        # not exist: linspace rounds the breakpoints to repeated values.
        box = Box(((1e16, 1e16 + 8),))
        message = "axis 0: breakpoints must be strictly increasing"
        with pytest.raises(DegenerateBox, match=message):
            make_partition(box, [np.linspace(1e16, 1e16 + 8, 17)])
        with pytest.raises(DegenerateBox, match=message):
            make_uniform_partition(box, 16)

    @given(
        st.floats(-1e300, 1e300, allow_nan=False),
        st.integers(1, 200),
        st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    @example(1e16, 4, 16)
    @example(0.0, 3, 8)  # subnormal widths
    def test_a_narrow_box_is_split_exactly_when_its_linspace_is_a_partition(
        self, lo, ulps, count
    ):
        hi = lo
        for _ in range(ulps):  # a box a few ulps wide
            hi = float(np.nextafter(hi, np.inf))
        box = Box(((lo, hi),))
        try:
            expected = make_partition(box, [np.linspace(lo, hi, count + 1)])
        except DegenerateBox as refused:
            with pytest.raises(DegenerateBox) as info:
                make_uniform_partition(box, count)
            assert str(info.value) == str(refused)
            return
        p = make_uniform_partition(box, count)
        assert np.all(np.diff(p.breakpoints[0]) > 0)
        np.testing.assert_array_equal(p.breakpoints[0], expected.breakpoints[0])

    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.1, 7, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiling(self, c1, c2, lo, width):
        box = Box(((lo, lo + width), (0.0, 3.0)))
        p = make_uniform_partition(box, (c1, c2))
        total = float(np.sum(p.measures))
        assert abs(total - box.measure) <= 8 * p.m * np.finfo(float).eps * box.measure


class TestExplicitPartition:
    def test_non_equal_flag(self):
        p = make_partition(UNIT, [np.array([0.0, 0.3, 1.0])])
        assert not p.is_equal
        np.testing.assert_allclose(p.measures, [0.3, 0.7])

    def test_explicit_tags_validated(self):
        with pytest.raises(ValueError):
            make_partition(
                UNIT, [np.array([0.0, 0.5, 1.0])], tags=np.array([[0.6], [0.7]])
            )

    def test_explicit_tag_outside_on_axis_1_refused(self):
        box = Box(((0.0, 1.0), (0.0, 1.0)))
        breaks = [np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0])]
        tags = np.array([[0.2, 0.1], [0.2, 0.6], [0.7, 0.1], [0.7, 0.6]])
        make_partition(box, breaks, tags=tags)  # every tag in its cell
        tags[2, 1] = 0.3  # cell (1, 0) spans [0, 0.25] on axis 1
        with pytest.raises(ValueError, match="inside their closed cells"):
            make_partition(box, breaks, tags=tags)

    def test_inputs_are_copied(self):
        b = np.array([0.0, 0.5, 1.0])
        tags = np.array([[0.1], [0.6]])
        p = make_partition(UNIT, [b], tags=tags)
        g = np.array([0.0, 0.55, 1.0])
        pp = apply_perturbation(make_uniform_partition(UNIT, 2), [g])
        b[1], tags[0, 0], g[1] = 0.9, 0.9, 0.45
        np.testing.assert_array_equal(p.breakpoints[0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(p.tags, [[0.1], [0.6]])
        np.testing.assert_array_equal(pp.breakpoints[0], [0.0, 0.55, 1.0])

    def test_breakpoints_must_span_box(self):
        with pytest.raises(DegenerateBox):
            make_partition(UNIT, [np.array([0.0, 0.5, 0.9])])
        with pytest.raises(DegenerateBox):
            make_partition(UNIT, [np.array([0.0, 0.5, 0.5, 1.0])])

    def test_tiling_holds_for_arbitrary_breakpoints(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            dim = int(rng.integers(1, 4))
            axes, breaks = [], []
            for _ in range(dim):
                lo = float(rng.uniform(-3, 2))
                hi = lo + float(rng.uniform(0.5, 4))
                inner = np.sort(rng.uniform(lo, hi, size=int(rng.integers(1, 7))))
                axes.append((lo, hi))
                breaks.append(np.concatenate([[lo], inner, [hi]]))
            box = Box(tuple(axes))
            p = make_partition(box, breaks)
            total = float(np.sum(p.measures))
            tol = 8 * p.m * np.finfo(float).eps * abs(box.measure)
            assert abs(total - box.measure) <= tol



# An unknown name or inconsistent label raises InvalidParameter: a package
# error, and still a ValueError for callers that catch that.
INVALID = {
    "tag rule": lambda: make_uniform_partition(UNIT, 2, tag_rule="edge"),
    "tag shape": lambda: make_partition(UNIT, [[0.0, 0.5, 1.0]], tags=np.zeros((3, 1))),
    "tag outside its cell": lambda: make_partition(
        UNIT, [[0.0, 0.5, 1.0]], tags=[[0.6], [0.7]]
    ),
    "variant kind": lambda: VariantSpec("halved"),
    "estimate variant": lambda: SumEstimate(1.0, 2, 0.5, 0, 0.0, "halved", 0.0),
    "deleted count of a full sum": lambda: SumEstimate(1.0, 2, 0.5, 1, 0.0, "full", 0.0),
    "symdiff of a deleted sum": lambda: SumEstimate(1.0, 2, 0.5, 0, 0.1, "deleted", 0.0),
    "scenario registered twice": lambda: register_scenario(get_scenario("box.sinprod.2d")),
    # Seeds are non-negative integers wherever a draw is made.
    "random tag seed None": lambda: make_uniform_partition(UNIT, 8, "random", None),
    "fractional random tag seed": lambda: make_uniform_partition(UNIT, 8, "random", 1.5),
    "negative jitter seed": lambda: perturb(make_uniform_partition(UNIT, 4), 0.5, -1),
    "RandomPick seed None": lambda: select_indices(FixedK(1), RandomPick(None), 4),
    "RandomPick seed None in a sum": lambda: variant_sum(
        ScalarField(1, lambda x: x[..., 0]),
        make_uniform_partition(UNIT, 4),
        VariantSpec("deleted", selector=RandomPick(None)),
    ),
    "spec seed None": lambda: VariantSpec("perturbed", seed=None),
    "negative spec seed": lambda: VariantSpec(seed=-1),
    "fractional spec seed": lambda: VariantSpec(seed=1.5),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_names_and_labels_raise_typed_errors(case):
    with pytest.raises(RiemannLabError) as info:
        INVALID[case]()
    assert isinstance(info.value, InvalidParameter)
    assert isinstance(info.value, ValueError)


# Documented refusals of malformed shapes and counts: (call, error, message).
REFUSALS = {
    "breakpoint sequences per axis": (
        lambda: make_partition(UNIT, [[0.0, 1.0], [0.0, 1.0]]),
        DegenerateBox, "one breakpoint sequence required per axis",
    ),
    "one breakpoint": (
        lambda: make_partition(UNIT, [[0.0]]),
        DegenerateBox, "axis 0: need at least two breakpoints",
    ),
    "counts per axis": (
        lambda: make_uniform_partition(UNIT, (2, 2)),
        DegenerateBox, "one count per axis required",
    ),
    "fractional count": (
        lambda: make_uniform_partition(UNIT, 2.7),
        DegenerateBox, "counts must be integers, got 2.7",
    ),
    "fractional count on one axis": (
        lambda: make_uniform_partition(Box(((0.0, 1.0), (0.0, 1.0))), (2.7, 3)),
        DegenerateBox, r"counts must be integers, got \(2.7, 3\)",
    ),
    "ragged counts": (
        lambda: make_uniform_partition(Box(((0.0, 1.0), (0.0, 1.0))), [[1, 2], 3]),
        DegenerateBox, "counts must be integers",
    ),
    "count as a string": (
        lambda: make_uniform_partition(UNIT, "3"),
        DegenerateBox, "counts must be integers, got '3'",
    ),
    "perturbed cell count": (
        lambda: apply_perturbation(make_uniform_partition(UNIT, 2), [[0.0, 0.3, 0.6, 1.0]]),
        DegenerateBox, "perturbed breakpoints must keep the base cell counts",
    ),
    "axis swap in 1-D": (
        lambda: swap_axes_partition(make_uniform_partition(UNIT, 2)),
        DegenerateBox, "axis swap is defined for 2D partitions",
    ),
    "LargestTerm magnitudes": (
        lambda: select_indices(FixedK(1), LargestTerm(), 4, np.ones(3)),
        MissingTerms, "expected 4 magnitudes, got 3",
    ),
    "fractional K": (
        lambda: FixedK(2.5), InvalidParameter, "K must be an integer, got 2.5",
    ),
    "K as a string": (
        lambda: FixedK("3"), InvalidParameter, "K must be an integer, got '3'",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_malformed_shapes_and_counts_are_refused(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


class TestPerturbation:
    def test_forced_breakpoint_example(self):
        p = make_uniform_partition(UNIT, 2)
        pp = apply_perturbation(p, [np.array([0.0, 0.55, 1.0])])
        np.testing.assert_allclose(pp.measures, [0.55, 0.45])
        assert abs(pp.symdiff_total - 0.10) < 1e-15

    def test_zero_gamma_identity(self):
        p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), (4, 3))
        pp = perturb(p, 0.0, seed=5)
        for base_b, pert_b in zip(p.breakpoints, pp.breakpoints):
            np.testing.assert_array_equal(base_b, pert_b)
        assert pp.symdiff_total == 0.0
        np.testing.assert_array_equal(pp.measures, p.measures)

    @pytest.mark.parametrize("m", [10, 100, 1000, 10000])
    def test_symdiff_bound_uniform_1d(self, m):
        p = make_uniform_partition(UNIT, m)
        pp = perturb(p, 0.5, seed=m)
        assert pp.symdiff_total <= 2 * m * 0.5 * p.mesh**2

    def test_symdiff_vanishes_with_refinement(self):
        totals = []
        for m in [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]:
            p = make_uniform_partition(UNIT, m)
            totals.append(perturb(p, 0.5, seed=3).symdiff_total)
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        small = perturb(make_uniform_partition(UNIT, 10), 0.5, seed=3).symdiff_total
        large = perturb(make_uniform_partition(UNIT, 10**4), 0.5, seed=3).symdiff_total
        assert large < small * 1e-2

    def test_symdiff_dominates_measure_change(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            dim = int(rng.integers(1, 4))
            box = Box(tuple((0.0, float(rng.uniform(0.5, 3))) for _ in range(dim)))
            counts = tuple(int(rng.integers(2, 6)) for _ in range(dim))
            rule = ("midpoint", "corner", "random")[trial % 3]
            p = make_uniform_partition(box, counts, tag_rule=rule, seed=trial)
            pp = perturb(p, float(rng.uniform(0, 0.95)), seed=trial)
            symdiff = np.array(naive_symdiff(p, pp))
            assert np.all(symdiff >= np.abs(pp.measures - p.measures))

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("rule", ["midpoint", "corner", "random"])
    def test_symdiff_total_matches_per_cell_oracle(self, rule, gamma):
        # The per-cell reference prod(w) - prod(o) cancels and the per-axis
        # total does not, so the tolerance scales with the measures summed,
        # not with the symmetric difference.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(17)
        for trial in range(40):
            dim = int(rng.integers(1, 4))
            axes, breaks = [], []
            for _ in range(dim):
                lo = float(rng.uniform(-3, 2))
                hi = lo + float(rng.uniform(0.5, 4))
                inner = np.sort(rng.uniform(lo, hi, size=int(rng.integers(1, 8))))
                axes.append((lo, hi))
                breaks.append(np.concatenate([[lo], inner, [hi]]))
            box = Box(tuple(axes))
            if trial % 2:
                p = make_partition(box, breaks, tag_rule=rule, seed=trial)
            else:
                counts = [len(b) - 1 for b in breaks]
                p = make_uniform_partition(box, counts, tag_rule=rule, seed=trial)
            pp = perturb(p, gamma, seed=trial)
            if gamma == 0.0:
                assert pp.symdiff_total == 0.0
            reference = math.fsum(naive_symdiff(p, pp))
            scale = math.fsum(p.measures.tolist()) + math.fsum(pp.measures.tolist())
            assert abs(pp.symdiff_total - reference) <= 4 * dim * eps * scale

    def test_keeps_per_axis_state_only(self):
        p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 1.0))), 512)
        tracemalloc.start()
        try:
            pp = perturb(p, 0.5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * p.m  # less than one m-length float array
        _assert_per_axis_arrays_only(pp, p.counts)

    def test_tags_stay_in_intersection(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            p = make_uniform_partition(
                Box(((0.0, 1.0), (0.0, 2.0))), (5, 4), tag_rule="random", seed=trial
            )
            pp = perturb(p, 0.9, seed=trial + 1)
            idx = np.array([unravel(k, p.counts) for k in range(p.m)]).T
            for axis in range(2):
                coord = p.tags[:, axis]
                assert np.all(coord >= pp.breakpoints[axis][:-1][idx[axis]])
                assert np.all(coord <= pp.breakpoints[axis][1:][idx[axis]])

    def test_tag_escape_on_forced_grid(self):
        p = make_uniform_partition(UNIT, 2, tag_rule="corner")  # tags 0.0, 0.5
        with pytest.raises(TagEscape):
            apply_perturbation(p, [np.array([0.0, 0.6, 1.0])])

    def test_tag_escape_names_the_axis_in_3d(self):
        box = Box(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
        p = make_uniform_partition(box, (2, 3, 4), tag_rule="corner")
        grid = [b.copy() for b in p.breakpoints]
        grid[0][1], grid[1][1] = 0.45, 0.3  # moves that keep every tag inside
        apply_perturbation(p, grid)
        grid[2][2] = 0.55  # past the corner tags at 0.5 on axis 2
        with pytest.raises(TagEscape, match="^axis 2:"):
            apply_perturbation(p, grid)

    def test_corner_tags_clamp_to_one_side(self):
        p = make_uniform_partition(UNIT, 4, tag_rule="corner")
        pp = perturb(p, 0.9, seed=11)
        # corner tags sit on the lower breakpoints, so jitter can only move
        # interior breakpoints down (or not at all)
        assert np.all(pp.breakpoints[0][1:-1] <= p.breakpoints[0][1:-1])

    def test_gamma_range(self):
        p = make_uniform_partition(UNIT, 4)
        with pytest.raises(ValueError):
            perturb(p, 1.0)
        with pytest.raises(ValueError):
            perturb(p, -0.1)

    def test_determinism(self):
        p1 = make_uniform_partition(UNIT, 64, tag_rule="random", seed=9)
        p2 = make_uniform_partition(UNIT, 64, tag_rule="random", seed=9)
        a = perturb(p1, 0.5, seed=13)
        b = perturb(p2, 0.5, seed=13)
        np.testing.assert_array_equal(a.breakpoints[0], b.breakpoints[0])
        np.testing.assert_array_equal(a.axis_widths[0], b.axis_widths[0])
        assert naive_symdiff(p1, a) == naive_symdiff(p2, b)
        assert a.symdiff_total == b.symdiff_total


# Tag values that sit on, or just past, a face of the tag's cell on one axis.
EDGE_TAGS = {
    "lower face": lambda lo, hi: lo,
    "upper face": lambda lo, hi: hi,
    "one ulp below": lambda lo, hi: np.nextafter(lo, -np.inf),
    "one ulp above": lambda lo, hi: np.nextafter(hi, np.inf),
    "nan": lambda lo, hi: np.nan,
    "inf": lambda lo, hi: np.inf,
    "-inf": lambda lo, hi: -np.inf,
}


@st.composite
def quarter_grids(draw):
    """A 1-3 D box whose breakpoints lie on a grid of quarters (exact in
    binary, at least 1/4 apart)."""
    dim = draw(st.integers(1, 3))
    axes, breaks = [], []
    for _ in range(dim):
        lo = draw(st.integers(-3, 3)) / 2
        steps = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
        b = lo + np.cumsum([0] + steps) / 4
        axes.append((lo, float(b[-1])))
        breaks.append(b)
    return Box(tuple(axes)), tuple(breaks)


@st.composite
def tagged_grids(draw):
    """A quarter grid with one tag per cell: drawn inside the cell, then up
    to three coordinates moved onto a face, one ulp past it, nan or inf."""
    box, breaks = draw(quarter_grids())
    counts = tuple(len(b) - 1 for b in breaks)
    cells = [unravel(k, counts) for k in range(math.prod(counts))]
    tags = np.empty((len(cells), box.dim))
    for k, idx in enumerate(cells):
        for a, j in enumerate(idx):
            lo, hi = breaks[a][j], breaks[a][j + 1]
            tags[k, a] = min(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), hi)
    edit = st.tuples(
        st.integers(0, len(cells) - 1),
        st.integers(0, box.dim - 1),
        st.sampled_from(sorted(EDGE_TAGS)),
    )
    for k, a, kind in draw(st.lists(edit, max_size=3)):
        j = cells[k][a]
        tags[k, a] = EDGE_TAGS[kind](breaks[a][j], breaks[a][j + 1])
    return box, breaks, tags


def _unchecked_partition(breaks, tags):
    """A partition holding ``tags`` as given, wherever they lie."""
    return Partition(breaks, tuple(np.diff(b) for b in breaks), tags)


class TestTagExtents:
    """Per-axis tag extents decide what the per-cell references decide."""

    @settings(max_examples=300, deadline=None)
    @given(tagged_grids())
    def test_explicit_tag_check_matches_per_cell_reference(self, grid):
        box, breaks, tags = grid
        counts = tuple(len(b) - 1 for b in breaks)
        expected = per_cell_escaped_axis(tags, counts, breaks)
        p = _unchecked_partition(breaks, tags)
        assert _escaped_axis(p.tag_extents, breaks) == expected
        if expected is None:
            assert make_partition(box, breaks, tags=tags).tags.tobytes() == tags.tobytes()
        else:
            with pytest.raises(InvalidParameter, match="inside their closed cells"):
                make_partition(box, breaks, tags=tags)

    @settings(max_examples=300, deadline=None)
    @given(tagged_grids(), st.data())
    def test_perturbation_tag_check_matches_per_cell_reference(self, grid, data):
        box, breaks, tags = grid
        pert = []
        for b in breaks:  # interior moves of 1/16 keep 1/4-spaced points increasing
            moves = st.sampled_from((-1 / 16, 0.0, 1 / 16))
            q = b.copy()
            q[1:-1] += data.draw(st.lists(moves, min_size=len(b) - 2, max_size=len(b) - 2))
            pert.append(q)
        counts = tuple(len(b) - 1 for b in breaks)
        expected = per_cell_escaped_axis(tags, counts, pert)
        p = _unchecked_partition(breaks, tags)
        if expected is None:
            apply_perturbation(p, pert)
        else:
            with pytest.raises(TagEscape, match=f"^axis {expected}: a base tag left"):
                apply_perturbation(p, pert)

    @settings(max_examples=200, deadline=None)
    @given(
        quarter_grids(),
        st.booleans(),
        st.sampled_from(["midpoint", "corner", "random", "explicit"]),
        st.integers(0, 2**16),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_perturb_matches_slab_scan_clamp(self, grid, uniform, rule, seed, gamma):
        box, breaks = grid
        if uniform:
            breaks = make_uniform_partition(box, [len(b) - 1 for b in breaks]).breakpoints
        if rule == "explicit":
            tags = make_partition(box, breaks, "random", seed).tags
            p = make_partition(box, breaks, tags=tags)
        else:
            p = make_partition(box, breaks, rule, seed)
        expected = slab_scan_breakpoints(p, gamma, seed)
        collapsed = [a for a, b in enumerate(expected) if not np.all(np.diff(b) > 0)]
        if collapsed:
            with pytest.raises(TagEscape, match=f"^axis {collapsed[0]}: clamped"):
                perturb(p, gamma, seed)
            return
        pp = perturb(p, gamma, seed)
        for got, want in zip(pp.breakpoints, expected):
            assert got.tobytes() == want.tobytes()
        want = apply_perturbation(p, expected).symdiff_total
        assert pp.symdiff_total.hex() == want.hex()

    def test_an_explicit_tag_partition_keeps_its_checked_extents(self):
        box = Box(((0.0, 1.0), (0.0, 2.0)))
        p = make_partition(box, [[0.0, 0.5, 1.0], [0.0, 2.0]], tags=[[0.0, 0.5], [1.0, 2.0]])
        assert "tag_extents" in vars(p)  # cached by the check, read again by perturb
        (lo0, hi0), (lo1, hi1) = p.tag_extents
        assert lo0.tolist() == [0.0, 1.0] and hi0.tolist() == [0.0, 1.0]
        assert lo1.tolist() == [0.5] and hi1.tolist() == [2.0]


TAG_SOURCES = ("midpoint", "corner", "random", "explicit")


def _tagged_partition(box, counts, source, seed):
    """A uniform partition with ``source`` tags, and its tags as the (m, dim)
    array partitions stored before grid tags stayed per axis."""
    if source == "explicit":
        tags = make_uniform_partition(box, counts, "random", seed).tags
        p = make_partition(box, make_uniform_partition(box, counts).breakpoints, tags=tags)
    else:
        p = make_uniform_partition(box, counts, source, seed)
    if source in ("midpoint", "corner"):
        return p, grid_stack_tags(p.breakpoints, source)
    if source == "random":
        return p, meshgrid_random_tags(p.breakpoints, seed)
    return p, p.tags


@st.composite
def slab_cases(draw):
    """A 1-4 D partition with any of the four tag sources, its old tag array,
    and a slab size just below, at or just above one axis's trailing block."""
    dim = draw(st.integers(1, 4))
    counts = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    lows = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    box = Box(tuple((lo / 2, lo / 2 + 1.5) for lo in lows))
    source = draw(st.sampled_from(TAG_SOURCES))
    p, tags = _tagged_partition(box, counts, source, draw(st.integers(0, 2**16)))
    block = math.prod(counts[draw(st.integers(0, dim - 1)) + 1 :])
    max_rows = max(1, block + draw(st.sampled_from((-1, 0, 1))))
    return p, tags, max_rows


def _assert_same_extents(got, want):
    assert len(got) == len(want)
    for (lo, hi), (want_lo, want_hi) in zip(got, want):
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()


class TestGridTags:
    """Midpoint and corner tags stay per axis; every view of them matches
    the (m, dim) tag array partitions used to store."""

    @settings(max_examples=300, deadline=None)
    @given(slab_cases())
    @example((*_tagged_partition(Box(((0.0, 1.5),) * 2), (2, 3), "midpoint", 0), 2))
    def test_slab_rows_are_slices_of_the_old_tag_array(self, case):
        p, tags, max_rows = case
        bounds, rows = p.tag_slabs(max_rows)
        assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
        assert bounds[-1][1] == p.m and all(0 < b - a <= max_rows for a, b in bounds)
        sizes = [b - a for a, b in bounds]
        assert sizes[:-1] == [sizes[0]] * (len(sizes) - 1) and sizes[-1] <= sizes[0]
        for a, b in bounds:
            got = rows(a, b)
            assert got.shape == (b - a, p.dim) and got.tobytes() == tags[a:b].tobytes()
        assert p.tags.tobytes() == tags.tobytes()
        with mock.patch.object(fields, "_SLAB_ROWS", max_rows):
            assert _rowwise(lambda q, start, stop, dest: q, p).tobytes() == tags.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(slab_cases())
    def test_mirror_swap_and_extents_match_the_old_tag_array(self, case):
        p, tags, _ = case
        _assert_same_extents(p.tag_extents, grid_scan_extents(tags, p.counts))
        mirrored = reflect_partition(p)
        mirror_tags = flip_reflected_tags(tags, p.counts)
        assert mirrored.tags.tobytes() == mirror_tags.tobytes()
        _assert_same_extents(mirrored.tag_extents, grid_scan_extents(mirror_tags, p.counts))
        outputs = [p, mirrored]
        if p.dim == 2:
            swapped = swap_axes_partition(p)
            swap_tags = transposed_swap_tags(tags, p.counts)
            assert swapped.tags.tobytes() == swap_tags.tobytes()
            _assert_same_extents(
                swapped.tag_extents, grid_scan_extents(swap_tags, p.counts[::-1])
            )
            outputs.append(swapped)
        if p.tag_axes is not None:
            for q in outputs:
                assert q.tag_axes is not None
                _assert_per_axis_arrays_only(q, q.counts)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(1, 8), min_size=1, max_size=6), min_size=dim, max_size=dim
            )
        ),
        st.integers(0, 2**16),
    )
    def test_random_tags_match_the_meshgrid_expression(self, steps, seed):
        breaks = [np.cumsum([0] + s) / 3 for s in steps]  # unequal segments
        box = Box(tuple((0.0, float(b[-1])) for b in breaks))
        p = make_partition(box, breaks, "random", seed)
        assert p.tags.tobytes() == meshgrid_random_tags(p.breakpoints, seed).tobytes()

    def test_a_uniform_partition_allocates_no_per_cell_array(self):
        tracemalloc.start()
        try:
            p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the 2^20 tags alone would be 16 MiB
        _assert_per_axis_arrays_only(p, p.counts)

    def test_random_tags_are_built_in_the_draws_array(self):
        """The draws, then one grid of widths or lows at a time: no third
        (m, dim) array for ``lows + draws * widths``. A small build runs
        untraced first, so that one-time imports (``numpy.random``) do not
        count."""
        box = Box(((0.0, 1.0), (0.0, 2.0)))
        make_uniform_partition(box, 2, "random", 5)
        tracemalloc.start()
        try:
            p = make_uniform_partition(box, 1024, "random", 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * p.m + 2**20  # each (m, 2) array is 16 bytes per cell


class TestDerivedFacts:
    """A partition's box and equal flag are read off its breakpoints and
    widths, and agree with the box and flag each constructor was given."""

    @settings(max_examples=200, deadline=None)
    @given(quarter_grids(), st.sampled_from(TAG_RULES), st.integers(0, 2**16))
    def test_box_and_equal_flag_match_each_constructor(self, grid, rule, seed):
        box, breaks = grid
        counts = tuple(len(b) - 1 for b in breaks)
        mirrored = Box(tuple((-hi, -lo) for lo, hi in box.axes))
        for p, uniform in (
            (make_partition(box, breaks, rule, seed), False),
            (make_uniform_partition(box, counts, rule, seed), True),
        ):
            equal = all(bool(np.all(w == w[0])) for w in p.axis_widths)
            assert p.parent == box and p.is_equal == equal
            assert p.is_equal or not uniform
            assert p.dim == box.dim
            q = reflect_partition(p)
            assert q.parent == mirrored and q.is_equal == p.is_equal
            if box.dim == 2:
                s = swap_axes_partition(p)
                assert s.parent == Box(box.axes[::-1]) and s.is_equal == p.is_equal

    def test_a_direct_partition_cannot_claim_equal_cells(self):
        b = np.array([0.0, 0.1, 0.5, 0.6, 1.0])
        p = Partition((b,), (np.diff(b),), (b[:-1],))
        assert p.parent == UNIT and not p.is_equal
        with pytest.raises(EqualPartitionRequired):
            bind_deletion(DeletionPlan(PowerLaw(0.5), Prefix()), p)
        spec = VariantSpec("deleted", PowerLaw(0.5))
        with pytest.raises(EqualPartitionRequired):
            variant_sum(ScalarField(1, lambda x: x[..., 0]), p, spec)


class TestReadOnly:
    """A partition and a perturbation hold read-only arrays, so no write can
    move a tag out of its cell once the checks have passed."""

    @pytest.mark.parametrize("source", TAG_SOURCES)
    def test_every_held_array_refuses_writes(self, source):
        p, _ = _tagged_partition(Box(((0.0, 1.0), (-1.0, 2.0))), (3, 4), source, 5)
        pp = perturb(p, 0.5, seed=2)
        held = [*_held_arrays(p), *_held_arrays(pp)]
        assert {name for name, _ in held} >= {"breakpoints", "axis_widths", "tag_source"}
        if p.tag_axes is None:
            held.append(("tags", p.tags))
        for name, a in held:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 99.0

    def test_a_grid_tag_cannot_leave_its_cell(self):
        p = make_uniform_partition(UNIT, 4)
        with pytest.raises(ValueError, match="read-only"):
            p.tag_axes[0][0] = 99.0
        assert variant_sum(ScalarField(1, lambda q: q[..., 0]), p).value == 0.5

    def test_inputs_stay_writeable(self):
        breaks = [np.array([0.0, 0.5, 1.0])]
        tags = np.array([[0.25], [0.75]])
        make_partition(UNIT, breaks, tags=tags)
        Partition(tuple(breaks), (np.diff(breaks[0]),), tags)
        breaks[0][1] = 0.25
        tags[0, 0] = 0.0


class TestDeletionPlan:
    def test_prefix_example(self):
        p = make_uniform_partition(UNIT, 4)
        plan = bind_deletion(DeletionPlan(FixedK(1), Prefix()), p)
        assert plan.resolved.tolist() == [0]

    def test_powerlaw_count_example(self):
        p = make_uniform_partition(UNIT, 100)
        plan = bind_deletion(DeletionPlan(PowerLaw(0.5), Prefix()), p)
        assert len(plan.resolved) == 10

    def test_largest_term_tie_break(self):
        p = make_uniform_partition(UNIT, 4)
        plan = bind_deletion(
            DeletionPlan(FixedK(2), LargestTerm()), p, terms=(3.0, 1.0, 9.0, 9.0)
        )
        assert plan.resolved.tolist() == [2, 3]
        plan1 = bind_deletion(
            DeletionPlan(FixedK(1), LargestTerm()), p, terms=(3.0, 1.0, 9.0, 9.0)
        )
        assert plan1.resolved.tolist() == [2]  # tie broken toward the lowest index

    @given(
        st.integers(2, 5000).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(1, m - 1))
        ),
        st.lists(
            st.sampled_from(
                [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, math.inf, -math.inf, math.nan]
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_largest_term_is_the_full_sort_rule(self, m_and_k, pool, seed):
        m, k = m_and_k
        terms = np.random.default_rng(seed).choice(np.array(pool), m)
        got = select_indices(FixedK(k), LargestTerm(), m, terms)
        assert got.tolist() == list(argsort_top_k(terms, k))

    def test_largest_term_requires_terms(self):
        p = make_uniform_partition(UNIT, 4)
        with pytest.raises(MissingTerms):
            bind_deletion(DeletionPlan(FixedK(1), LargestTerm()), p)

    def test_random_selector_deterministic(self):
        p = make_uniform_partition(UNIT, 50)
        a = bind_deletion(DeletionPlan(FixedK(5), RandomPick(3)), p)
        b = bind_deletion(DeletionPlan(FixedK(5), RandomPick(3)), p)
        assert a.resolved.tolist() == b.resolved.tolist()
        assert len(set(a.resolved)) == 5
        assert a.resolved.tolist() == sorted(a.resolved.tolist())

    def test_fixed_k_clamps_to_m_minus_one(self):
        p = make_uniform_partition(UNIT, 4)
        plan = bind_deletion(DeletionPlan(FixedK(10), Prefix()), p)
        assert plan.resolved.tolist() == [0, 1, 2]

    def test_single_cell_refuses(self):
        p = make_uniform_partition(UNIT, 1)
        with pytest.raises(ValueError):
            bind_deletion(DeletionPlan(FixedK(1), Prefix()), p)

    def test_vanishing_schedule_needs_equal_partition(self):
        p = make_partition(UNIT, [np.array([0.0, 0.3, 0.6, 1.0])])
        with pytest.raises(EqualPartitionRequired):
            bind_deletion(DeletionPlan(PowerLaw(0.5), Prefix()), p)
        with pytest.raises(EqualPartitionRequired):
            bind_deletion(DeletionPlan(Logarithmic(), Prefix()), p)
        # clause i (fixed K) binds on any partition
        assert bind_deletion(DeletionPlan(FixedK(1), Prefix()), p).resolved.tolist() == [0]

    @pytest.mark.parametrize("m", [100, 10**4, 10**6])
    def test_schedule_fractions_vanish(self, m):
        assert schedule_count(PowerLaw(0.5), m) / m <= m ** (0.5 - 1.0)
        assert schedule_count(Logarithmic(), m) / m <= math.log(m) / m

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PowerLaw(1.0)
        with pytest.raises(ValueError):
            PowerLaw(0.0)
        with pytest.raises(ValueError):
            FixedK(0)

    def test_out_of_range_parameters_are_typed(self):
        p = make_uniform_partition(UNIT, 4)
        for make in (lambda: perturb(p, 1.0), lambda: FixedK(0), lambda: PowerLaw(1.0)):
            with pytest.raises(InvalidParameter) as info:
                make()
            assert isinstance(info.value, RiemannLabError)
            assert isinstance(info.value, ValueError)
