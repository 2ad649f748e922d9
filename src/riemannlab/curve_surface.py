"""Line and surface integrals as parameter-domain Riemann sums.

Scalar line sums weight f(x(t*)) by ||x'(t*)|| dt, vector line sums dot F
with x'(t*) dt; surface sums use the normal N = X_u x X_v of a parametrized
surface, weighting by ||N|| dD (scalar) or N dD (vector). This module only
builds those integrands, all with one rule, :func:`pull_back`: a row-wise
callable of a slab of parameter tags. The kernel,
:func:`riemannlab.quadrature.pieces_sum`, evaluates them at the tags and
owns the cell measures, the four variants (full, deleted, perturbed,
combined) and the reduction. :func:`line_sum` and :func:`surface_sum` are
the entry points, scalar or vector by field type; the theorem boundaries
call :func:`pull_back` directly. Partitions always live on the parameter
domain (:func:`parameter_box`), never on the embedded curve or surface;
:func:`pull_back` refuses a partition that does not cover it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .fields import ParametricSurface, Path, VectorField
from .geometry import Box, DeletionPlan, Partition, PerturbedPartition
from .quadrature import FULL, SumEstimate, VariantSpec, pieces_sum


def parameter_box(piece: Path | ParametricSurface) -> Box:
    """The parameter domain a partition of a path or surface must cover."""
    return Box((piece.domain,)) if isinstance(piece, Path) else piece.domain


def pull_back(field, piece: Path | ParametricSurface, partition: Partition):
    """Row-wise integrand of ``field`` on ``piece`` at a slab of parameter tags.

    The tangent is x' on a path and N on a surface: a vector field gives
    F(x) . tangent, a scalar one f(x) ||tangent||, one column either way, so
    a tag where the tangent vanishes gives a zero term. No widths are
    applied. Refuses a partition not covering :func:`parameter_box` and a
    field dim that is not the codomain.
    """
    path = isinstance(piece, Path)
    kind = "path" if path else "surface"
    if partition.parent.axes != parameter_box(piece).axes:
        raise DimensionMismatch(f"partition must cover the {kind} domain")
    codim = piece.codim if path else 3
    vector = isinstance(field, VectorField)
    dim = field.dim_in if vector else field.dim
    if dim != codim:
        raise DimensionMismatch(f"field dim {dim} != {kind} codomain {codim}")
    if vector and field.dim_out != codim:
        raise DimensionMismatch(f"output dim {field.dim_out} != {kind} codomain {codim}")

    def tangent(x):
        return np.asarray(piece.vel(x), float) if path else piece.normal(x)

    def integrand(tags):
        x = tags[:, 0] if path else tags
        if vector:
            return np.sum(np.asarray(field(piece.pos(x)), float) * tangent(x), axis=-1)
        norms = np.sqrt(np.sum(tangent(x) ** 2, axis=-1))
        return np.asarray(field(piece.pos(x)), float) * norms

    return integrand


def line_sum(
    field,
    path: Path,
    partition: Partition,
    spec: VariantSpec = FULL,
    plan: DeletionPlan | None = None,
    perturbation: PerturbedPartition | None = None,
) -> SumEstimate:
    """Line sum over ``partition`` of the path's parameter interval.

    Scalar or vector by field type. An explicit bound ``plan`` or
    ``perturbation`` (built from ``partition``) wins over what ``spec``
    would resolve; see :func:`riemannlab.quadrature.pieces_sum`.
    """
    return pieces_sum(
        [pull_back(field, path, partition)], [partition], spec, plan, perturbation
    )


def surface_sum(
    field,
    surface: ParametricSurface,
    partition: Partition,
    spec: VariantSpec = FULL,
    plan: DeletionPlan | None = None,
    perturbation: PerturbedPartition | None = None,
) -> SumEstimate:
    """Surface sum over ``partition`` of the surface's parameter domain.

    Scalar or vector by field type; ``plan`` and ``perturbation`` are as
    for :func:`line_sum`. A tag where the normal vanishes, such as a
    sphere's pole, gives a zero term, f ||N|| or F . N alike.
    """
    return pieces_sum(
        [pull_back(field, surface, partition)], [partition], spec, plan, perturbation
    )
