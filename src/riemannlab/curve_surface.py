"""Line and surface integrals as parameter-domain Riemann sums.

Scalar line sums weight f(x(t*)) by ||x'(t*)|| dt, vector line sums dot F
with x'(t*) dt; surface sums use the normal N = X_u x X_v of a parametrized
surface, weighting by ||N|| dD (scalar) or N dD (vector). This module only
builds those integrands, as row-wise callables of a slab of parameter tags;
the kernel, :func:`riemannlab.quadrature.pieces_sum`, evaluates them at the
tags and owns the cell measures, the four variants (full, deleted,
perturbed, combined) and the reduction. :func:`line_sum` and
:func:`surface_sum` are the entry points, scalar or vector by field type;
:func:`line_dots` and :func:`surface_dots` are the vector integrands the
theorem boundaries sum. Partitions always live on the parameter domain
(:func:`parameter_box`), never on the embedded curve or surface; each
integrand refuses a partition that does not cover it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .fields import ParametricSurface, Path, ScalarField, VectorField
from .geometry import Box, DeletionPlan, Partition, PerturbedPartition
from .quadrature import FULL, SumEstimate, VariantSpec, pieces_sum


def parameter_box(piece: Path | ParametricSurface) -> Box:
    """The parameter domain a partition of a path or surface must cover."""
    return Box((piece.domain,)) if isinstance(piece, Path) else piece.domain


def _check(piece: Path | ParametricSurface, partition: Partition, field_dim: int):
    """Refuse a partition or field not fitting ``piece``."""
    kind = "path" if isinstance(piece, Path) else "surface"
    if partition.parent.axes != parameter_box(piece).axes:
        raise DimensionMismatch(f"partition must cover the {kind} domain")
    codim = piece.codim if kind == "path" else 3
    if field_dim != codim:
        raise DimensionMismatch(f"field dim {field_dim} != {kind} codomain {codim}")


def _scalar_line_integrand(f: ScalarField, path: Path, partition: Partition):
    """Row-wise f(x(t*_k)) ||x'(t*_k)|| of a slab of tags (no widths applied)."""
    _check(path, partition, f.dim)

    def integrand(tags):
        t = tags[:, 0]
        values = np.asarray(f(path.pos(t)), dtype=float)
        speed = np.sqrt(np.sum(np.asarray(path.vel(t), float) ** 2, axis=-1))
        return values * speed

    return integrand


def line_dots(F: VectorField, path: Path, partition: Partition):
    """Row-wise F(x(t*_k)) . x'(t*_k) of a slab of tags (no widths applied)."""
    _check(path, partition, F.dim_in)

    def integrand(tags):
        t = tags[:, 0]
        return np.sum(
            np.asarray(F(path.pos(t)), float) * np.asarray(path.vel(t), float), axis=-1
        )

    return integrand


def _scalar_surface_integrand(
    f: ScalarField, surface: ParametricSurface, partition: Partition
):
    """Row-wise columns f(X(xi_k)) ||N(xi_k)|| and ||N(xi_k)|| of a slab of tags."""
    _check(surface, partition, f.dim)

    def integrand(xi):
        norms = np.sqrt(np.sum(surface.normal(xi) ** 2, axis=-1))
        values = np.asarray(f(surface.pos(xi)), dtype=float)
        return np.stack([values * norms, norms], axis=-1)

    return integrand


def surface_dots(F: VectorField, surface: ParametricSurface, partition: Partition):
    """Row-wise F(X(xi_k)) . N(xi_k) of a slab of tags (no widths applied)."""
    _check(surface, partition, F.dim_in)

    def integrand(xi):
        return np.sum(np.asarray(F(surface.pos(xi)), float) * surface.normal(xi), axis=-1)

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
    integrand = line_dots if isinstance(field, VectorField) else _scalar_line_integrand
    return pieces_sum(
        [integrand(field, path, partition)], [partition], spec, plan, perturbation
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
    for :func:`line_sum`. A scalar surface sum raises DegenerateNormal when
    it keeps a cell whose tag has a vanishing normal; a vector one does not
    check.
    """
    vector = isinstance(field, VectorField)
    integrand = surface_dots if vector else _scalar_surface_integrand
    return pieces_sum(
        [integrand(field, surface, partition)], [partition], spec, plan, perturbation,
        degenerate=not vector,
    )
