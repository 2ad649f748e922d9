"""The variant kernel behind every box, line and surface sum.

Each entry point (``variant_sum``, ``line_sum``, ``surface_sum``) takes a
``VariantSpec`` that the kernel, ``quadrature.pieces_sum``, resolves, or an
explicit bound ``plan=`` and ``perturbation=``. These tests pin that the two
spellings agree bit for bit, that a perturbation is refused unless it was
built from the partition it weights, and that LargestTerm ranks the one
field evaluation the sum itself uses: every integrand sees each of its
piece's tags exactly once per sum.
"""

import dataclasses

import numpy as np
import pytest

from riemannlab import (
    Box,
    DimensionMismatch,
    FixedK,
    LargestTerm,
    ParametricRegion,
    Path,
    Prefix,
    RandomPick,
    ScalarField,
    VariantSpec,
    VectorField,
    green_check,
    line_sum,
    make_uniform_partition,
    perturb,
    surface_sum,
    variant_sum,
)
from riemannlab.fields import _SLAB_ROWS
from riemannlab.quadrature import resolve_variant
from riemannlab.scenarios import CIRCLE_2D, IDENTITY_3D, ROTATION_2D, SPHERE, TWO_PI

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
