"""The variant kernel behind every box, line and surface sum.

Each entry point (``variant_sum``, ``line_sum``, ``surface_sum``) takes a
``VariantSpec`` that the kernel, ``quadrature.pieces_sum``, resolves, or an
explicit bound ``plan=`` and ``perturbation=``. These tests pin that the two
spellings agree bit for bit, that a perturbation is refused unless it was
built from the partition it weights, and that LargestTerm ranks the one
field evaluation the sum itself uses.
"""

import numpy as np
import pytest

from riemannlab import (
    Box,
    DimensionMismatch,
    FixedK,
    LargestTerm,
    Prefix,
    RandomPick,
    ScalarField,
    VariantSpec,
    VectorField,
    line_sum,
    make_uniform_partition,
    perturb,
    surface_sum,
    variant_sum,
)
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
