"""Two-sided verification of Green's, Gauss's, and Stokes' theorems.

Each check computes the interior/differential side and the boundary side of
the identity with independently configured sum variants (independent
deletion index sets and jitters per side), verifies the declared boundary
orientation with a probe field, and reports both values plus their gap.

A multi-piece boundary is one call to the variant kernel,
:func:`riemannlab.quadrature.pieces_sum`: its pieces share one index space
for deletion, and a perturbation jitters piece i with seed ``spec.seed + i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve_surface import line_dots, surface_dots, surface_sum
from .errors import DimensionMismatch, OrientationCheckFailed
from .fields import (
    ParametricRegion,
    ParametricSurface,
    Path,
    ScalarField,
    VectorField,
    curl,
    divergence,
    plane_curl,
)
from .geometry import Partition
from .quadrature import FULL, SumEstimate, VariantSpec, pieces_sum, region_sum
from .summation import neumaier_sum  # noqa: F401  (bench/tracing.py wraps this binding)


@dataclass(frozen=True)
class TheoremReport:
    """Both sides of one theorem identity and their agreement."""

    theorem: str
    lhs: SumEstimate
    rhs: SumEstimate
    gap: float
    lhs_variant: str
    rhs_variant: str
    reference: float | None = None
    lhs_error: float | None = None
    rhs_error: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.gap) and self.gap >= 0.0):
            raise ValueError("gap must be finite and nonnegative")


def _report(theorem, lhs, rhs, lhs_spec, rhs_spec, reference):
    gap = abs(lhs.value - rhs.value)
    lhs_err = abs(lhs.value - reference) if reference is not None else None
    rhs_err = abs(rhs.value - reference) if reference is not None else None
    return TheoremReport(
        theorem=theorem,
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        lhs_variant=lhs_spec.kind,
        rhs_variant=rhs_spec.kind,
        reference=reference,
        lhs_error=lhs_err,
        rhs_error=rhs_err,
    )


# --- concatenated boundary sums ----------------------------------------------


def _boundary_circulation(F, paths, partitions, spec) -> SumEstimate:
    dots = [line_dots(F, path, part) for path, part in zip(paths, partitions)]
    return pieces_sum(dots, partitions, spec)


def _boundary_flux(F, surfaces, partitions, spec) -> SumEstimate:
    dots = [surface_dots(F, surf, part) for surf, part in zip(surfaces, partitions)]
    return pieces_sum(dots, partitions, spec)


# --- orientation probes -------------------------------------------------------

_AREA_PROBE = VectorField(
    2, 2, lambda p: np.stack([-p[..., 1], p[..., 0]], axis=-1) / 2.0
)
_VOLUME_PROBE = VectorField(3, 3, lambda p: p / 3.0, div=lambda p: np.ones(p.shape[:-1]))
_DISK_PROBE = VectorField(
    3,
    3,
    lambda p: np.stack([-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], axis=-1) / 2.0,
    curl=lambda p: np.broadcast_to(np.array([0.0, 0.0, 1.0]), p.shape).copy(),
)


def _check_green_orientation(paths, partitions):
    probe = _boundary_circulation(_AREA_PROBE, paths, partitions, FULL)
    if not probe.value > 0.0:
        raise OrientationCheckFailed(
            f"boundary circulation of the area probe is {probe.value}; "
            "curves must keep the region on the left"
        )


def _check_gauss_orientation(surfaces, partitions):
    probe = _boundary_flux(_VOLUME_PROBE, surfaces, partitions, FULL)
    if not probe.value > 0.0:
        raise OrientationCheckFailed(
            f"boundary flux of the volume probe is {probe.value}; "
            "surface normals must point away from the solid"
        )


def _check_stokes_orientation(surface, surf_partition, path, path_partition):
    curl_probe = VectorField(3, 3, _DISK_PROBE.curl)
    lhs = surface_sum(curl_probe, surface, surf_partition, FULL)
    rhs = _boundary_circulation(_DISK_PROBE, [path], [path_partition], FULL)
    if not lhs.value * rhs.value > 0.0:
        raise OrientationCheckFailed(
            f"probe sides disagree in sign (surface {lhs.value}, boundary "
            f"{rhs.value}); the boundary must be oriented consistently with "
            "the surface"
        )


# --- the three checks ---------------------------------------------------------


def green_check(
    F: VectorField,
    region: ParametricRegion,
    interior_partition: Partition,
    boundary_partitions,
    interior_spec: VariantSpec = FULL,
    boundary_spec: VariantSpec = FULL,
    reference: float | None = None,
) -> TheoremReport:
    """Compare both sides of Green's theorem on a 2D parametric region.

    lhs: region integral of dQ/dx - dP/dy under ``interior_spec``.
    rhs: circulation of F over the boundary curves under ``boundary_spec``
    (its own deletion index set and jitter, independent of the lhs).
    """
    if F.dim_in != 2 or region.dim != 2:
        raise DimensionMismatch("green_check needs a 2D field and region")
    paths = list(region.boundary)
    partitions = list(boundary_partitions)
    if len(paths) != len(partitions):
        raise DimensionMismatch("one boundary partition per boundary curve required")
    _check_green_orientation(paths, partitions)

    integrand = ScalarField(2, fn=lambda xy: plane_curl(F, xy))
    lhs = region_sum(integrand, region, interior_partition, interior_spec)
    rhs = _boundary_circulation(F, paths, partitions, boundary_spec)
    return _report("green", lhs, rhs, interior_spec, boundary_spec, reference)


def gauss_check(
    F: VectorField,
    solid: ParametricRegion,
    interior_partition: Partition,
    boundary_partitions,
    interior_spec: VariantSpec = FULL,
    boundary_spec: VariantSpec = FULL,
    reference: float | None = None,
) -> TheoremReport:
    """Compare both sides of the divergence theorem on a 3D solid."""
    if F.dim_in != 3 or solid.dim != 3:
        raise DimensionMismatch("gauss_check needs a 3D field and solid")
    surfaces = list(solid.boundary)
    partitions = list(boundary_partitions)
    if len(surfaces) != len(partitions):
        raise DimensionMismatch("one boundary partition per boundary surface required")
    _check_gauss_orientation(surfaces, partitions)

    integrand = ScalarField(3, fn=lambda x: divergence(F, x))
    lhs = region_sum(integrand, solid, interior_partition, interior_spec)
    rhs = _boundary_flux(F, surfaces, partitions, boundary_spec)
    return _report("gauss", lhs, rhs, interior_spec, boundary_spec, reference)


def stokes_check(
    F: VectorField,
    surface: ParametricSurface,
    surface_partition: Partition,
    boundary: Path,
    boundary_partition: Partition,
    surface_spec: VariantSpec = FULL,
    boundary_spec: VariantSpec = FULL,
    reference: float | None = None,
) -> TheoremReport:
    """Compare both sides of Stokes' theorem on a parametrized surface."""
    if F.dim_in != 3:
        raise DimensionMismatch("stokes_check needs a 3D field")
    _check_stokes_orientation(surface, surface_partition, boundary, boundary_partition)

    curl_field = VectorField(3, 3, fn=lambda x: curl(F, x))
    lhs = surface_sum(curl_field, surface, surface_partition, surface_spec)
    rhs = _boundary_circulation(F, [boundary], [boundary_partition], boundary_spec)
    return _report("stokes", lhs, rhs, surface_spec, boundary_spec, reference)
