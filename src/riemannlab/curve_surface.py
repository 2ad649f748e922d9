"""Line and surface integrals as parameter-domain Riemann sums.

Scalar line sums weight f(x(t*)) by ||x'(t*)|| dt, vector line sums dot F
with x'(t*) dt; surface sums use the normal N = X_u x X_v of a parametrized
surface, weighting by ||N|| dD (scalar) or N dD (vector). This module only
evaluates those integrands at the parameter tags; the cell measures, the
four variants (full, deleted, perturbed, combined) and the reduction all
come from the one kernel, :func:`riemannlab.quadrature.pieces_sum`.
Partitions always live on the parameter domain, never on the embedded
curve/surface itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .fields import ParametricSurface, Path, ScalarField, VectorField
from .geometry import DeletionPlan, Partition, PerturbedPartition
from .quadrature import FULL, SumEstimate, VariantSpec, pieces_sum


@dataclass(frozen=True, eq=False)
class LineSumConfig:
    """A path with a 1D parameter partition and optional variant data."""

    path: Path
    partition: Partition
    plan: DeletionPlan | None = None
    perturbation: PerturbedPartition | None = None

    def __post_init__(self):
        if self.partition.dim != 1:
            raise DimensionMismatch("line sums need a 1D parameter partition")
        a, b = self.path.domain
        if self.partition.parent.axes != ((float(a), float(b)),):
            raise DimensionMismatch("partition must cover the path domain")
        if self.perturbation is not None and self.perturbation.base is not self.partition:
            raise DimensionMismatch("perturbation must be built from this partition")


@dataclass(frozen=True, eq=False)
class SurfaceSumConfig:
    """A surface with a 2D parameter partition and optional variant data."""

    surface: ParametricSurface
    partition: Partition
    plan: DeletionPlan | None = None
    perturbation: PerturbedPartition | None = None

    def __post_init__(self):
        if self.partition.dim != 2:
            raise DimensionMismatch("surface sums need a 2D parameter partition")
        if self.partition.parent.axes != self.surface.domain.axes:
            raise DimensionMismatch("partition must cover the surface domain")
        if self.perturbation is not None and self.perturbation.base is not self.partition:
            raise DimensionMismatch("perturbation must be built from this partition")


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


def vector_line_terms(F: VectorField, cfg: LineSumConfig) -> np.ndarray:
    """All m terms F(x(t*_k)) . x'(t*_k) dt_k."""
    cells = cfg.partition if cfg.perturbation is None else cfg.perturbation
    return line_dots(F, cfg.path, cfg.partition) * cells.measures


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


def vector_surface_terms(F: VectorField, cfg: SurfaceSumConfig) -> np.ndarray:
    """All m terms F(X(xi_k)) . N(xi_k) dD_k."""
    cells = cfg.partition if cfg.perturbation is None else cfg.perturbation
    return surface_dots(F, cfg.surface, cfg.partition) * cells.measures


def scalar_line_sum(f: ScalarField, cfg: LineSumConfig) -> SumEstimate:
    return pieces_sum(
        [_scalar_line_integrand(f, cfg.path, cfg.partition)],
        [cfg.partition], plan=cfg.plan, perturbation=cfg.perturbation,
    )


def vector_line_sum(F: VectorField, cfg: LineSumConfig) -> SumEstimate:
    return pieces_sum(
        [line_dots(F, cfg.path, cfg.partition)],
        [cfg.partition], plan=cfg.plan, perturbation=cfg.perturbation,
    )


def scalar_surface_sum(f: ScalarField, cfg: SurfaceSumConfig) -> SumEstimate:
    dots, degenerate = _scalar_surface_integrand(f, cfg.surface, cfg.partition)
    return pieces_sum(
        [dots], [cfg.partition], plan=cfg.plan, perturbation=cfg.perturbation,
        degenerate=degenerate,
    )


def vector_surface_sum(F: VectorField, cfg: SurfaceSumConfig) -> SumEstimate:
    return pieces_sum(
        [surface_dots(F, cfg.surface, cfg.partition)],
        [cfg.partition], plan=cfg.plan, perturbation=cfg.perturbation,
    )


# --- variant-configured entry points -----------------------------------------


def line_sum(
    field,
    path: Path,
    partition: Partition,
    spec: VariantSpec = FULL,
) -> SumEstimate:
    """Line sum under a variant spec; scalar or vector by field type.

    LargestTerm selection ranks the actual |terms| of the unperturbed
    configuration; the jitter and index seeds come from ``spec``.
    """
    LineSumConfig(path, partition)  # validates the parameter partition
    integrand = line_dots if isinstance(field, VectorField) else _scalar_line_integrand
    return pieces_sum([integrand(field, path, partition)], [partition], spec)


def surface_sum(
    field,
    surface: ParametricSurface,
    partition: Partition,
    spec: VariantSpec = FULL,
) -> SumEstimate:
    """Surface sum under a variant spec; scalar or vector by field type."""
    SurfaceSumConfig(surface, partition)  # validates the parameter partition
    if isinstance(field, VectorField):
        return pieces_sum([surface_dots(field, surface, partition)], [partition], spec)
    dots, degenerate = _scalar_surface_integrand(field, surface, partition)
    return pieces_sum([dots], [partition], spec, degenerate=degenerate)
