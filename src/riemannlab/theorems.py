"""Two-sided verification of Green's, Gauss's, and Stokes' theorems.

Each check computes the interior/differential side and the boundary side of
the identity with independently configured sum variants (independent
deletion index sets and jitters per side) and reports both values plus
their gap. The three checks share one boundary path, :func:`_two_sided`.
It checks once that the boundary's curves or surfaces have one partition
each, and sums the probe field and F over them alike: each piece's
integrand (:func:`riemannlab.curve_surface.pull_back`, which checks that
the partition covers the piece) goes to the variant kernel,
:func:`riemannlab.quadrature.pieces_sum`, in one call, so the pieces share
one index space for deletion and a perturbation jitters piece i with seed
``spec.seed + i``. The orientation rule: the probe's boundary side must
have the sign of its interior side, which is an area or a volume (positive,
as ``jac_det >= 0``) for Green and Gauss and the probe's curl flux for Stokes,
summed as Stokes' interior side is, from the probe's ``curl`` handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve_surface import pull_back, surface_sum
from .errors import DimensionMismatch, NonFiniteSum, OrientationCheckFailed
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
    """Both sides of one theorem identity, with their gap and errors."""

    theorem: str
    lhs: SumEstimate
    rhs: SumEstimate
    reference: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.gap):
            raise NonFiniteSum("gap is not finite")

    @property
    def gap(self) -> float:
        return abs(self.lhs.value - self.rhs.value)

    @property
    def lhs_variant(self) -> str:
        return self.lhs.variant

    @property
    def rhs_variant(self) -> str:
        return self.rhs.variant

    @property
    def variant(self) -> str:
        """The two sides' variants, interior first: ``"fullxdeleted"``."""
        return f"{self.lhs.variant}x{self.rhs.variant}"

    @property
    def lhs_error(self) -> float | None:
        return None if self.reference is None else abs(self.lhs.value - self.reference)

    @property
    def rhs_error(self) -> float | None:
        return None if self.reference is None else abs(self.rhs.value - self.reference)


# --- the shared boundary path ---------------------------------------------------

_AREA_PROBE = VectorField(
    2, 2, lambda p: np.stack([-p[..., 1], p[..., 0]], axis=-1) / 2.0
)
_VOLUME_PROBE = VectorField(3, 3, lambda p: p / 3.0)
_DISK_PROBE = VectorField(
    3,
    3,
    lambda p: np.stack([-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], axis=-1) / 2.0,
    curl=lambda p: np.broadcast_to(np.array([0.0, 0.0, 1.0]), p.shape),
)

# theorem -> (orientation probe, what a failing probe asks of the boundary)
_PROBES = {
    "green": (_AREA_PROBE, "curves must keep the region on the left"),
    "gauss": (_VOLUME_PROBE, "surface normals must point away from the solid"),
    "stokes": (_DISK_PROBE, "the boundary must be oriented consistently with the surface"),
}


def _two_sided(
    theorem, F, interior, pieces, partitions, lhs_spec, rhs_spec, reference,
    probe_interior=None,
) -> TheoremReport:
    """Check the boundary orientation, then compute and report both sides.

    ``interior(lhs_spec)`` computes the interior side. ``probe_interior`` is
    the probe's interior side; None means it is known to be positive.
    """
    pieces, partitions = list(pieces), list(partitions)
    if len(pieces) != len(partitions):
        raise DimensionMismatch("one boundary partition per boundary piece required")

    def boundary_sum(G, spec) -> SumEstimate:
        integrands = [pull_back(G, p, part) for p, part in zip(pieces, partitions)]
        return pieces_sum(integrands, partitions, spec)

    probe, hint = _PROBES[theorem]
    boundary = boundary_sum(probe, FULL).value
    sign = 1.0 if probe_interior is None else probe_interior
    if not sign * boundary > 0.0:
        side = "positive" if probe_interior is None else probe_interior
        raise OrientationCheckFailed(
            f"{theorem} orientation probe: boundary side {boundary} does not have "
            f"the sign of the interior side ({side}); {hint}"
        )
    lhs = interior(lhs_spec)
    rhs = boundary_sum(F, rhs_spec)
    return TheoremReport(theorem, lhs, rhs, reference)


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
    if F.dim_in != 2 or F.dim_out != 2 or region.dim != 2:
        raise DimensionMismatch("green_check needs a 2D field and region")
    integrand = ScalarField(2, fn=lambda xy: plane_curl(F, xy))
    return _two_sided(
        "green", F, lambda spec: region_sum(integrand, region, interior_partition, spec),
        region.boundary, boundary_partitions, interior_spec, boundary_spec, reference,
    )


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
    if F.dim_in != 3 or F.dim_out != 3 or solid.dim != 3:
        raise DimensionMismatch("gauss_check needs a 3D field and solid")
    integrand = ScalarField(3, fn=lambda x: divergence(F, x))
    return _two_sided(
        "gauss", F, lambda spec: region_sum(integrand, solid, interior_partition, spec),
        solid.boundary, boundary_partitions, interior_spec, boundary_spec, reference,
    )


def _curl_flux(F, surface, partition, spec) -> SumEstimate:
    """The flux of curl(F) through ``surface``: Stokes' interior side."""
    return surface_sum(VectorField(3, 3, lambda x: curl(F, x)), surface, partition, spec)


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
    if F.dim_in != 3 or F.dim_out != 3:
        raise DimensionMismatch("stokes_check needs a 3D field")
    probe_flux = _curl_flux(_DISK_PROBE, surface, surface_partition, FULL).value
    return _two_sided(
        "stokes", F, lambda spec: _curl_flux(F, surface, surface_partition, spec),
        [boundary], [boundary_partition], surface_spec, boundary_spec, reference,
        probe_flux,
    )
