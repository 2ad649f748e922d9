"""The variant kernel behind every box, line and surface sum.

Each entry point (``variant_sum``, ``line_sum``, ``surface_sum``) takes a
``VariantSpec`` that the kernel, ``quadrature.pieces_sum``, resolves, or an
explicit bound ``plan=`` and ``perturbation=``. These tests pin that the two
spellings agree bit for bit, that a perturbation is refused unless it was
built from the partition it weights, and that LargestTerm ranks the one
field evaluation the sum itself uses: every integrand sees each of its
piece's tags exactly once per sum. LargestTerm keeps each slab's K largest
base terms as candidates and picks the K from their union, which must be
the K a whole-array ``select_indices`` picks. Sums also keep their bits
when later slabs grow from a cheap first slab, and equal cells are weighed
by one float with the bits of their per-cell measures.
"""

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemannlab import (
    Box,
    DegenerateNormal,
    DeletionPlan,
    DimensionMismatch,
    FixedK,
    InvalidParameter,
    LargestTerm,
    NonFiniteSum,
    ParametricRegion,
    Path,
    PowerLaw,
    Prefix,
    RandomPick,
    ScalarField,
    TooFewCells,
    VariantSpec,
    VectorField,
    fields,
    gauss_check,
    green_check,
    line_sum,
    make_uniform_partition,
    neumaier_sum,
    perturb,
    quadrature,
    surface_sum,
    swap_surface,
    variant_sum,
)
from riemannlab.curve_surface import pull_back
from riemannlab.fields import _SLAB_ROWS, _usable_cpus
from riemannlab.geometry import _cell_measures, select_indices
from riemannlab.quadrature import resolve_variant
from riemannlab.scenarios import CIRCLE_2D, CUBE_REGION, IDENTITY_3D, ROTATION_2D, SPHERE, TWO_PI

from oracles import mask_and_copy_sum

SQUARE = Box(((0.0, 1.0), (0.0, 1.0)))
CIRCLE_BOX = Box(((0.0, TWO_PI),))
BOX_FIELD = ScalarField(2, lambda p: p[..., 0] ** 2 + np.sin(3.0 * p[..., 1]))
LINE_FIELD = ScalarField(2, lambda p: 1.5 + p[..., 0] * p[..., 1] ** 2)
SURFACE_FIELD = ScalarField(3, lambda p: 2.0 + p[..., 0] * p[..., 2])
SELECTORS = {"prefix": Prefix(), "random": RandomPick(4), "largest": LargestTerm()}


def _speed(path, p):
    return np.sqrt(np.sum(np.asarray(path.vel(p.tags[:, 0])) ** 2, axis=-1))


def _normal_norm(surface, p):
    return np.sqrt(np.sum(surface.normal(p.tags) ** 2, axis=-1))


# kind -> (field, partition, spec call, explicit call, base terms)
# The explicit call passes the plan and perturbation resolve_variant builds;
# the base terms (integrand x unperturbed measure) feed LargestTerm.
CASES = {
    "box": (
        BOX_FIELD,
        lambda: make_uniform_partition(SQUARE, (7, 5), "random", seed=3),
        lambda f, p, spec: variant_sum(f, p, spec),
        lambda f, p, plan, pp: variant_sum(f, p, plan=plan, perturbation=pp),
        lambda f, p: np.asarray(f(p.tags)) * p.measures,
    ),
    "scalar-line": (
        LINE_FIELD,
        lambda: make_uniform_partition(CIRCLE_BOX, 23, "random", seed=3),
        lambda f, p, spec: line_sum(f, CIRCLE_2D, p, spec),
        lambda f, p, plan, pp: line_sum(
            f, CIRCLE_2D, p, plan=plan, perturbation=pp
        ),
        lambda f, p: np.asarray(f(CIRCLE_2D.pos(p.tags[:, 0])))
        * _speed(CIRCLE_2D, p) * p.measures,
    ),
    "vector-line": (
        ROTATION_2D,
        lambda: make_uniform_partition(CIRCLE_BOX, 23, "random", seed=3),
        lambda f, p, spec: line_sum(f, CIRCLE_2D, p, spec),
        lambda f, p, plan, pp: line_sum(
            f, CIRCLE_2D, p, plan=plan, perturbation=pp
        ),
        lambda f, p: np.sum(
            f(CIRCLE_2D.pos(p.tags[:, 0])) * CIRCLE_2D.vel(p.tags[:, 0]), axis=-1
        ) * p.measures,
    ),
    "scalar-surface": (
        SURFACE_FIELD,
        lambda: make_uniform_partition(SPHERE.domain, (6, 7), "random", seed=3),
        lambda f, p, spec: surface_sum(f, SPHERE, p, spec),
        lambda f, p, plan, pp: surface_sum(
            f, SPHERE, p, plan=plan, perturbation=pp
        ),
        lambda f, p: np.asarray(f(SPHERE.pos(p.tags)))
        * _normal_norm(SPHERE, p) * p.measures,
    ),
    "vector-surface": (
        IDENTITY_3D,
        lambda: make_uniform_partition(SPHERE.domain, (6, 7), "random", seed=3),
        lambda f, p, spec: surface_sum(f, SPHERE, p, spec),
        lambda f, p, plan, pp: surface_sum(
            f, SPHERE, p, plan=plan, perturbation=pp
        ),
        lambda f, p: np.sum(f(SPHERE.pos(p.tags)) * SPHERE.normal(p.tags), axis=-1)
        * p.measures,
    ),
}


def _fields(est) -> tuple:
    return (
        float(est.value).hex(),
        est.m,
        float(est.mesh).hex(),
        est.deleted_count,
        float(est.symdiff_total).hex(),
        est.variant,
        float(est.compensation_residual).hex(),
    )


@pytest.mark.parametrize("selector", sorted(SELECTORS))
@pytest.mark.parametrize("kind", ["full", "deleted", "perturbed", "combined"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_spec_and_explicit_entry_points_agree_bitwise(case, kind, selector):
    field, partition, spec_sum, explicit_sum, base_terms = CASES[case]
    p = partition()
    spec = VariantSpec(kind, FixedK(3), SELECTORS[selector], gamma=0.4, seed=11)
    plan, pp = resolve_variant(spec, p, np.abs(base_terms(field, p)))
    via_spec = spec_sum(field, p, spec)
    via_explicit = explicit_sum(field, p, plan, pp)
    assert via_spec.variant == kind
    assert _fields(via_spec) == _fields(via_explicit)


@pytest.mark.parametrize("case", sorted(CASES))
def test_perturbation_of_another_partition_is_refused(case):
    field, partition, _, explicit_sum, _ = CASES[case]
    # an equal partition, but not the one the sum weights
    other = perturb(partition(), 0.3, seed=1)
    with pytest.raises(DimensionMismatch):
        explicit_sum(field, partition(), None, other)


def _counted(field):
    """``field`` with a handle that counts its calls."""
    calls = []

    def fn(x):
        calls.append(1)
        return field.fn(x)

    if isinstance(field, VectorField):
        return VectorField(field.dim_in, field.dim_out, fn), calls
    return ScalarField(field.dim, fn), calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_largest_term_deletion_evaluates_the_field_once(case):
    field, partition, spec_sum, _, _ = CASES[case]
    counted, calls = _counted(field)
    spec = VariantSpec("deleted", FixedK(3), LargestTerm())
    est = spec_sum(counted, partition(), spec)
    assert est.deleted_count == 3
    assert len(calls) == 1


def _recorded(field, dim):
    """``field`` with a handle that records every point it receives."""
    seen = []

    def fn(x):
        seen.append(np.array(x, dtype=float).reshape(-1, dim))
        return field.fn(x)

    return dataclasses.replace(field, fn=fn), seen  # analytic handles are kept


def _sorted_rows(points):
    points = np.asarray(points, dtype=float)
    return points[np.lexsort(points.T[::-1])]


def _assert_seen_once(seen, expected):
    """The recorded points are ``expected``, each once, in any slab order."""
    got = np.concatenate(seen)
    assert len(got) == len(expected)
    assert _sorted_rows(got).tobytes() == _sorted_rows(expected).tobytes()


MANY = 3 * _SLAB_ROWS + 5  # 47 * 523 cells: three full slabs and a partial one
GRID = make_uniform_partition(SQUARE, (47, 523), "random", seed=3)
LOOP = make_uniform_partition(CIRCLE_BOX, MANY, "random", seed=3)
SPHERE_GRID = make_uniform_partition(SPHERE.domain, (47, 523), "random", seed=3)

# case of CASES -> (a partition of MANY cells, the points its field receives)
SEEN_CASES = {
    "box": (GRID, GRID.tags),
    "scalar-line": (LOOP, CIRCLE_2D.pos(LOOP.tags[:, 0])),
    "vector-line": (LOOP, CIRCLE_2D.pos(LOOP.tags[:, 0])),
    "scalar-surface": (SPHERE_GRID, SPHERE.pos(SPHERE_GRID.tags)),
    "vector-surface": (SPHERE_GRID, SPHERE.pos(SPHERE_GRID.tags)),
}


@pytest.mark.parametrize("selector", sorted(SELECTORS))
@pytest.mark.parametrize("kind", ["full", "deleted", "perturbed", "combined"])
@pytest.mark.parametrize("case", sorted(SEEN_CASES))
def test_each_integrand_sees_its_tags_once(case, kind, selector):
    field, _, spec_sum, _, _ = CASES[case]
    p, expected = SEEN_CASES[case]
    recorded, seen = _recorded(field, expected.shape[-1])
    spec = VariantSpec(kind, FixedK(3), SELECTORS[selector], gamma=0.4, seed=11)
    assert spec_sum(recorded, p, spec).m == MANY
    _assert_seen_once(seen, expected)


def _edge(start, step):
    """The unit square's edge from ``start`` along ``step``, t in [0, 1]."""
    start, step = np.array(start, dtype=float), np.array(step, dtype=float)
    return Path(
        (0.0, 1.0),
        pos=lambda t: start + np.multiply.outer(t, step),
        vel=lambda t: np.broadcast_to(step, np.shape(t) + (2,)).copy(),
    )


# The unit square with its four edges counterclockwise: four boundary pieces.
SQUARE_REGION = ParametricRegion(
    2, SQUARE, lambda p: p, lambda p: np.ones(p.shape[:-1]),
    boundary=(
        _edge((0, 0), (1, 0)), _edge((1, 0), (0, 1)),
        _edge((1, 1), (-1, 0)), _edge((0, 1), (0, -1)),
    ),
)
SHEAR = VectorField(
    2, 2, lambda p: np.stack([-p[..., 0] * p[..., 1], p[..., 0] * p[..., 1]], axis=-1),
    curl=lambda p: p[..., 0] + p[..., 1],
)


@pytest.mark.parametrize("selector", sorted(SELECTORS))
@pytest.mark.parametrize("kind", ["full", "deleted", "perturbed", "combined"])
def test_green_boundary_field_sees_each_boundary_tag_once(kind, selector):
    counts = (_SLAB_ROWS + 3, 2 * _SLAB_ROWS + 1, 5, _SLAB_ROWS)
    bps = [
        make_uniform_partition(Box(((0.0, 1.0),)), c, "random", seed=i)
        for i, c in enumerate(counts)
    ]
    recorded, seen = _recorded(SHEAR, 2)
    spec = VariantSpec(kind, FixedK(3), SELECTORS[selector], gamma=0.4, seed=11)
    interior = make_uniform_partition(SQUARE, 8)
    report = green_check(recorded, SQUARE_REGION, interior, bps, spec, spec)
    assert report.rhs.m == sum(counts)
    expected = np.concatenate([
        piece.pos(bp.tags[:, 0]) for piece, bp in zip(SQUARE_REGION.boundary, bps)
    ])
    _assert_seen_once(seen, expected)



class FieldFailure(Exception):
    pass


def test_a_failing_jitter_raises_after_evaluation_and_selection():
    """Measures are weighted where each slab is evaluated, so the jitter is
    drawn first; a jitter that fails still raises where it always did."""

    def fails(q):
        raise FieldFailure

    one = ScalarField(1, lambda q: q[..., 0])
    cells = make_uniform_partition(Box(((0.0, 1.0),)), 4)
    cell = make_uniform_partition(Box(((0.0, 1.0),)), 1)
    bad_gamma = VariantSpec("combined", FixedK(1), Prefix(), gamma=2.0)
    with pytest.raises(FieldFailure):
        variant_sum(ScalarField(1, fails), cells, bad_gamma)
    with pytest.raises(TooFewCells):
        variant_sum(one, cell, bad_gamma)
    with pytest.raises(InvalidParameter, match="gamma"):
        variant_sum(one, cells, bad_gamma)


# --- LargestTerm's per-slab candidates -----------------------------------------


@contextlib.contextmanager
def _slabs(rows: int, helpers: bool, grow: bool | None = None):
    """Sums whose first slab has ``rows`` tags, with every helper slot free or
    taken, and the later slabs grown as the first slab's cost says (None),
    always (True: every first slab is cheap) or never (False)."""
    target = {None: fields._GROW_TARGET_S, True: math.inf, False: 0.0}[grow]
    taken = 0
    try:
        while not helpers and taken < _usable_cpus() and fields._slots.acquire(blocking=False):
            taken += 1
        with mock.patch.object(fields, "_SLAB_ROWS", rows), \
                mock.patch.object(fields, "_GROW_TARGET_S", target):
            yield
    finally:
        for _ in range(taken):
            fields._slots.release()


@contextlib.contextmanager
def _picks():
    """A list that receives every index set the kernel's select_indices returns."""
    picked = []

    def recorded(*args, **kwargs):
        picked.append(select_indices(*args, **kwargs))
        return picked[-1]

    with mock.patch.object(quadrature, "select_indices", recorded):
        yield picked


TIE_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan]


@given(
    st.integers(2, 300).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
    st.booleans(),  # PowerLaw(0.9) in place of FixedK(k)
    st.lists(st.sampled_from(TIE_POOL), min_size=1, max_size=5),
    st.sampled_from([1, 3, 7, 64]),
    st.booleans(),
    st.sampled_from([None, True, False]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_slab_candidates_pick_the_whole_array_k(m_and_k, power, pool, rows, helpers, grow,
                                                seed):
    """Few distinct values tie across slab edges, grown slabs' included; nan
    and inf rank as the whole-array rule ranks them, and K may exceed a slab."""
    m, k = m_and_k
    table = np.random.default_rng(seed).choice(np.array(pool), m)
    # Cell j of [0, m] has width 1.0 and its midpoint tag in [j, j + 1).
    p = make_uniform_partition(Box(((0.0, float(m)),)), m)
    f = ScalarField(1, lambda q: table[np.floor(q[..., 0]).astype(int)])
    schedule = PowerLaw(0.9) if power else FixedK(k)
    with _slabs(rows, helpers, grow), _picks() as picked:
        try:
            variant_sum(f, p, VariantSpec("deleted", schedule, LargestTerm()))
        except NonFiniteSum:  # a kept nan or inf; the selection came first
            pass
    want = select_indices(schedule, LargestTerm(), m, table)
    assert [a.tolist() for a in picked] == [want.tolist()]


@pytest.mark.parametrize("helpers", [True, False], ids=["helpers", "caller-only"])
@pytest.mark.parametrize("schedule", [FixedK(3), FixedK(200)], ids=["K=3", "K=200"])
@pytest.mark.parametrize("kind", ["deleted", "combined"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_slab_candidates_give_the_whole_array_plans_bits(case, kind, schedule, helpers):
    """A combined sum ranks base terms and sums perturbed ones."""
    field, partition, spec_sum, explicit_sum, base_terms = CASES[case]
    p = partition()
    spec = VariantSpec(kind, schedule, LargestTerm(), gamma=0.4, seed=11)
    plan, pp = resolve_variant(spec, p, np.abs(base_terms(field, p)))
    with _slabs(7, helpers):
        assert _fields(spec_sum(field, p, spec)) == _fields(explicit_sum(field, p, plan, pp))


CUBE_FIELD = VectorField(
    3, 3, lambda p: np.stack([p[..., 0] ** 2, p[..., 1] * p[..., 2], -p[..., 2]], axis=-1)
)


@pytest.mark.parametrize("helpers", [True, False], ids=["helpers", "caller-only"])
@pytest.mark.parametrize("schedule", [FixedK(4), PowerLaw(0.8)], ids=["K=4", "K=PowerLaw"])
def test_six_cube_faces_pick_the_whole_array_k(schedule, helpers):
    """The boundary sum's pieces form one index space: its candidates come
    from slabs of six faces, and PowerLaw's K exceeds a slab."""
    interior = make_uniform_partition(CUBE_REGION.param_box, 4)
    bps = [make_uniform_partition(s.domain, 16, "random", seed=i)
           for i, s in enumerate(CUBE_REGION.boundary)]
    spec = VariantSpec("combined", schedule, LargestTerm(), gamma=0.4, seed=11)
    base = np.concatenate([
        pull_back(CUBE_FIELD, s, bp)(bp.tags) * bp.measures
        for s, bp in zip(CUBE_REGION.boundary, bps)
    ])
    with _slabs(50, helpers), _picks() as picked:
        slabbed = gauss_check(CUBE_FIELD, CUBE_REGION, interior, bps, boundary_spec=spec)
    want = select_indices(schedule, LargestTerm(), len(base), base)
    assert [a.tolist() for a in picked] == [want.tolist()]
    with mock.patch.object(fields, "_SLAB_ROWS", math.inf):
        whole = gauss_check(CUBE_FIELD, CUBE_REGION, interior, bps, boundary_spec=spec)
    assert _fields(slabbed.rhs) == _fields(whole.rhs)


# --- slabs grown from the first slab's cost ------------------------------------

BOX_MIXES = {  # the benchmark's six variant/selector mixes
    "full": VariantSpec(),
    "deleted-random": VariantSpec("deleted", FixedK(8), RandomPick(3)),
    "deleted-largest": VariantSpec("deleted", FixedK(8), LargestTerm()),
    "perturbed": VariantSpec("perturbed", gamma=0.5, seed=3),
    "combined-random": VariantSpec("combined", FixedK(8), RandomPick(3), 0.5, 3),
    "combined-largest": VariantSpec("combined", FixedK(8), LargestTerm(), 0.5, 3),
}
SMALL_SLABS = 97


def _modes_agree(run, rows=(_SLAB_ROWS, SMALL_SLABS)):
    """``run()`` gives in slabs of each of ``rows``, grown or not, with helper
    slots free or taken, what it gives in one whole-array slab."""
    with mock.patch.object(fields, "_SLAB_ROWS", math.inf):
        whole = run()
    for mode in [(r, h, g) for r in rows for h in (True, False) for g in (True, False)]:
        with _slabs(*mode):
            assert run() == whole, mode


@pytest.mark.parametrize(
    "counts", [(1024, 1024), (96, 96, 96), (211, 233), (37, 41, 43)], ids=str
)
@pytest.mark.parametrize("mix", sorted(BOX_MIXES))
def test_grown_slabs_keep_the_bits_of_box_sums(mix, counts):
    """The benchmark's fields and mixes: at its sizes in default slabs, and
    at about 5 * 10^4 cells in small slabs as well."""
    if len(counts) == 2:
        f = ScalarField(2, lambda p: np.sin(p[..., 0]) * np.sin(p[..., 1]))
    else:
        f = ScalarField(3, lambda p: p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2)
    p = make_uniform_partition(Box(((0.0, 1.0),) * len(counts)), counts)
    rows = (_SLAB_ROWS,) if p.m > 10**5 else (_SLAB_ROWS, SMALL_SLABS)
    _modes_agree(lambda: _fields(variant_sum(f, p, BOX_MIXES[mix])), rows)


def test_grown_slabs_keep_the_vanishing_normal_rule():
    """With corner tags the swapped sphere's pole, where the normal vanishes,
    is the first cell of each run of 40, so every slab holds some: a sum that
    keeps them raises, and one that deletes them all has the same bits."""
    surface = swap_surface(SPHERE)
    p = make_uniform_partition(surface.domain, (1201, 40), "corner")
    poles = tuple(range(0, p.m, 40))
    plan = DeletionPlan(FixedK(len(poles)), Prefix(), poles)

    def run():
        with pytest.raises(DegenerateNormal):
            surface_sum(SURFACE_FIELD, surface, p)
        return _fields(surface_sum(SURFACE_FIELD, surface, p, plan=plan))

    _modes_agree(run)


def test_grown_slabs_keep_the_bits_of_six_cube_faces():
    interior = make_uniform_partition(CUBE_REGION.param_box, 4)
    bps = [make_uniform_partition(s.domain, 256, "random", seed=i)
           for i, s in enumerate(CUBE_REGION.boundary)]  # eight slabs a face
    spec = VariantSpec("combined", FixedK(4), LargestTerm(), gamma=0.4, seed=11)

    def run():
        report = gauss_check(CUBE_FIELD, CUBE_REGION, interior, bps, boundary_spec=spec)
        return _fields(report.lhs), _fields(report.rhs)

    _modes_agree(run)


@pytest.mark.parametrize("k", [3, 6])
def test_largest_term_ties_across_the_first_and_grown_slabs(k):
    """Four equal greatest magnitudes straddle the edge between the first
    slab and the first grown one, and four the edge after it; ties go to
    the lowest index, whichever slab holds it."""
    grown = _SLAB_ROWS * fields._GROW_MAX
    m = _SLAB_ROWS + 3 * grown
    table = np.ones(m)
    for edge in (_SLAB_ROWS, _SLAB_ROWS + grown):
        table[edge - 2 : edge + 2] = -4.0
    # Cell j of [0, m] has width 1.0 and its midpoint tag in [j, j + 1).
    p = make_uniform_partition(Box(((0.0, float(m)),)), m)
    f = ScalarField(1, lambda q: table[np.floor(q[..., 0]).astype(int)])
    spec = VariantSpec("deleted", FixedK(k), LargestTerm())
    want = select_indices(FixedK(k), LargestTerm(), m, table)

    def run():
        with _picks() as picked:
            bits = _fields(variant_sum(f, p, spec))
        assert [a.tolist() for a in picked] == [want.tolist()]
        return bits

    _modes_agree(run, (_SLAB_ROWS,))


# An inexact box in 2-D, and one in 3-D where (w0 * w1) * w2 != w0 * (w1 * w2).
INEXACT = [
    (((0.1, 0.7), (-1.3, 2.9)), (3, 7)),
    (((0.1, 0.7), (-1.3, 2.9), (0.2, 1.7)), (3, 7, 11)),
]


def _measures_seen(monkeypatch):
    """A list of the ``axis_widths`` the kernel builds cell measures from."""
    seen = []

    def recorded(widths, start, stop):
        seen.append(widths)
        return _cell_measures(widths, start, stop)

    monkeypatch.setattr(quadrature, "_cell_measures", recorded)
    return seen


@pytest.mark.parametrize("axes, counts", INEXACT, ids=["2-D", "3-D"])
def test_equal_cells_weigh_by_one_measure_with_the_arrays_bits(axes, counts, monkeypatch):
    p = make_uniform_partition(Box(axes), counts)
    f = ScalarField(len(counts), lambda q: np.sin(q.sum(axis=-1)) + 2.0)
    value, residual = neumaier_sum(np.asarray(f(p.tags)) * p.measures)
    seen = _measures_seen(monkeypatch)
    est = variant_sum(f, p)
    assert seen == []  # one float, no per-cell measures
    assert est.value.hex() == value.hex()
    assert est.compensation_residual.hex() == residual.hex()


@pytest.mark.parametrize("selector", [Prefix(), LargestTerm()], ids=["prefix", "largest"])
@pytest.mark.parametrize("axes, counts", INEXACT, ids=["2-D", "3-D"])
def test_a_perturbed_sum_weighs_by_its_perturbed_measures(axes, counts, selector,
                                                          monkeypatch):
    """Only base cells are ever weighed by one float; a combined LargestTerm
    sum ranks by it and sums perturbed terms."""
    p = make_uniform_partition(Box(axes), counts)
    pp = perturb(p, 0.4, seed=5)
    f = ScalarField(len(counts), lambda q: np.sin(q.sum(axis=-1)) + 2.0)
    spec = VariantSpec("combined", FixedK(2), selector)
    plan, _ = resolve_variant(spec, p, np.abs(np.asarray(f(p.tags)) * p.measures))
    terms = np.asarray(f(p.tags)) * pp.measures
    value, residual, _ = mask_and_copy_sum(terms, plan.resolved)
    seen = _measures_seen(monkeypatch)
    est = variant_sum(f, p, spec, perturbation=pp)
    assert seen and all(widths is pp.axis_widths for widths in seen)
    assert est.value.hex() == value.hex()
    assert est.compensation_residual.hex() == residual.hex()
