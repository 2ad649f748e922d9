"""Line and surface integrals as parameter-domain Riemann sums.

Scalar line sums weight f(x(t*)) by ||x'(t*)|| dt, vector line sums dot F
with x'(t*) dt; surface sums use the normal N = X_u x X_v of a parametrized
surface, weighting by ||N|| dD (scalar) or N dD (vector). This module only
evaluates those integrands at the parameter tags; the cell measures, the
four variants (full, deleted, perturbed, combined) and the reduction all
come from the one kernel, :func:`riemannlab.quadrature.pieces_sum`.
:func:`line_sum` and :func:`surface_sum` are the entry points, scalar or
vector by field type; :func:`line_dots` and :func:`surface_dots` are the
vector integrands the theorem boundaries sum. Partitions always live on the
parameter domain, never on the embedded curve/surface itself.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .fields import ParametricSurface, Path, ScalarField, VectorField
from .geometry import DeletionPlan, Partition, PerturbedPartition
from .quadrature import FULL, SumEstimate, VariantSpec, pieces_sum


def _scalar_line_integrand(
    f: ScalarField, path: Path, partition: Partition
) -> np.ndarray:
    """f(x(t*_k)) ||x'(t*_k)|| at the partition tags (no widths applied)."""
    if f.dim != path.codim:
        raise DimensionMismatch(f"field dim {f.dim} != path codomain {path.codim}")
    t = partition.tags[:, 0]
    values = np.asarray(f(path.pos(t)), dtype=float)
    speed = np.sqrt(np.sum(np.asarray(path.vel(t), float) ** 2, axis=-1))
    return values * speed


def line_dots(F: VectorField, path: Path, partition: Partition) -> np.ndarray:
    """F(x(t*_k)) . x'(t*_k) at the partition tags (no widths applied)."""
    if F.dim_in != path.codim:
        raise DimensionMismatch(f"field dim {F.dim_in} != path codomain {path.codim}")
    t = partition.tags[:, 0]
    return np.sum(
        np.asarray(F(path.pos(t)), float) * np.asarray(path.vel(t), float), axis=-1
    )


def _scalar_surface_integrand(
    f: ScalarField, surface: ParametricSurface, partition: Partition
) -> tuple[np.ndarray, np.ndarray]:
    """(f(X(xi_k)) ||N(xi_k)||, ||N(xi_k)|| == 0) at the partition tags."""
    if f.dim != 3:
        raise DimensionMismatch("scalar surface sums need a field on R^3")
    xi = partition.tags
    norms = np.sqrt(np.sum(surface.normal(xi) ** 2, axis=-1))
    values = np.asarray(f(surface.pos(xi)), dtype=float)
    return values * norms, norms == 0.0


def surface_dots(
    F: VectorField, surface: ParametricSurface, partition: Partition
) -> np.ndarray:
    """F(X(xi_k)) . N(xi_k) at the partition tags (no widths applied)."""
    if F.dim_in != 3:
        raise DimensionMismatch("vector surface sums need a field on R^3")
    xi = partition.tags
    return np.sum(
        np.asarray(F(surface.pos(xi)), float) * surface.normal(xi), axis=-1
    )


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
    a, b = path.domain
    if partition.parent.axes != ((float(a), float(b)),):
        raise DimensionMismatch("partition must cover the path domain")
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
    for :func:`line_sum`.
    """
    if partition.parent.axes != surface.domain.axes:
        raise DimensionMismatch("partition must cover the surface domain")
    if isinstance(field, VectorField):
        return pieces_sum(
            [surface_dots(field, surface, partition)], [partition], spec, plan,
            perturbation,
        )
    dots, degenerate = _scalar_surface_integrand(field, surface, partition)
    return pieces_sum([dots], [partition], spec, plan, perturbation, degenerate)
