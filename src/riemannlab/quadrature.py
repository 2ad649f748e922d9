"""The variant kernel, and box and region sums in the four variants.

full        sum_k f(xi_k) m(I_k)
deleted     the same sum with a bound deletion plan's indices dropped
perturbed   base tags with perturbed cell measures m(I~_k)
combined    perturbed measures and a deletion plan together

:func:`pieces_sum` is the one place these variants are told apart: box,
region, line, surface and theorem-boundary sums only produce integrands at
their tags and hand them to it, with the partitions they live on. It
resolves deletion once over one index space, weights by base or perturbed
cell measures, and accumulates in ascending cell order with compensated
summation, so equal inputs give bit-identical estimates.

Each integral has one entry point (:func:`variant_sum`, :func:`region_sum`
here; ``line_sum`` and ``surface_sum`` in :mod:`riemannlab.curve_surface`).
It takes a :class:`VariantSpec`, and optionally an explicit bound ``plan``
and/or ``perturbation``, which win over what the spec would resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateNormal, DimensionMismatch, UnboundPlan
from .fields import ParametricRegion, ScalarField
from .geometry import (
    DeletionPlan,
    FixedK,
    LargestTerm,
    Partition,
    PerturbedPartition,
    Prefix,
    RandomPick,
    Schedule,
    Selector,
    bind_deletion,
    perturb,
    select_indices,
)
from .summation import neumaier_sum

VARIANTS = ("full", "deleted", "perturbed", "combined")


@dataclass(frozen=True)
class SumEstimate:
    """One quadrature result with full provenance."""

    value: float
    m: int
    mesh: float
    deleted_count: int
    symdiff_total: float
    variant: str
    compensation_residual: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not math.isfinite(self.value):
            raise ValueError("sum estimate is not finite")
        if self.deleted_count and self.variant not in ("deleted", "combined"):
            raise ValueError("deleted_count > 0 only for deleted/combined variants")
        if self.symdiff_total and self.variant not in ("perturbed", "combined"):
            raise ValueError("symdiff_total > 0 only for perturbed/combined variants")


def _values(f: ScalarField, p: Partition) -> np.ndarray:
    """The box integrand: f at the tags of ``p``."""
    if f.dim != p.dim:
        raise DimensionMismatch(f"field dim {f.dim} != partition dim {p.dim}")
    return np.asarray(f(p.tags), dtype=float)


# --- region integrals via change of variables --------------------------------


def region_integrand(f: ScalarField, region: ParametricRegion) -> ScalarField:
    """Pull f back to the parameter box: g = f(mapping(params)) * jac_det."""
    if f.dim != region.dim:
        raise DimensionMismatch(f"field dim {f.dim} != region dim {region.dim}")
    return ScalarField(
        dim=region.param_box.dim,
        fn=lambda params: np.asarray(f(region.mapping(params)), dtype=float)
        * np.asarray(region.jac_det(params), dtype=float),
    )


# --- variant configuration ---------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    """One knob per theorem ingredient: K / K(m), J_K selector, jitter, tags.

    ``seed`` drives the mesh jitter; a RandomPick selector carries its own
    seed. :meth:`with_seed` rebinds both, which is how sweeps derive
    independent per-row randomness.
    """

    kind: str = "full"
    schedule: Schedule = FixedK(1)
    selector: Selector = Prefix()
    gamma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in VARIANTS:
            raise ValueError(f"unknown variant kind {self.kind!r}")

    @property
    def deletes(self) -> bool:
        return self.kind in ("deleted", "combined")

    @property
    def perturbs(self) -> bool:
        return self.kind in ("perturbed", "combined")

    def with_seed(self, seed: int) -> "VariantSpec":
        sel = RandomPick(seed) if isinstance(self.selector, RandomPick) else self.selector
        return replace(self, seed=seed, selector=sel)


FULL = VariantSpec()


# --- the variant kernel --------------------------------------------------------


def _keep_mask(plan: DeletionPlan, m: int) -> np.ndarray:
    if plan.resolved is None:
        raise UnboundPlan("deletion plan must be bound to the partition first")
    idx = np.asarray(plan.resolved, dtype=int)
    if len(idx) == 0 or len(idx) >= m or idx.min() < 0 or idx.max() >= m:
        raise UnboundPlan(f"resolved index set invalid for m={m}")
    keep = np.ones(m, dtype=bool)
    keep[idx] = False
    return keep


def _selected(spec: VariantSpec, dots, partitions, m: int) -> tuple[int, ...]:
    """The indices ``spec`` deletes from the pieces' one index space."""
    magnitudes = None
    if isinstance(spec.selector, LargestTerm):
        base_terms = [d * p.measures for d, p in zip(dots, partitions)]
        magnitudes = np.abs(np.concatenate(base_terms))
    if len(partitions) == 1:
        is_equal = partitions[0].is_equal
    else:
        measures = np.concatenate([p.measures for p in partitions])
        is_equal = bool(np.all(measures == measures[0]))
    return select_indices(spec.schedule, spec.selector, m, magnitudes, is_equal)


def pieces_sum(
    dots: list[np.ndarray],
    partitions: list[Partition],
    spec: VariantSpec = FULL,
    plan: DeletionPlan | None = None,
    perturbation: PerturbedPartition | None = None,
    degenerate: np.ndarray | None = None,
) -> SumEstimate:
    """Sum integrand x cell measure over tagged pieces, in any variant.

    ``dots[i]`` is the integrand of piece i at the tags of ``partitions[i]``;
    the pieces form one index space. A bound ``plan`` and a ``perturbation``
    are used as given, in place of what ``spec`` would resolve; a
    perturbation must be built from the one partition it weights. Otherwise
    ``spec`` selects the deleted indices (LargestTerm ranks |integrand x
    base measure|) and jitters piece i with seed ``spec.seed + i``. Keeping
    a cell marked ``degenerate`` (vanishing surface normal) raises
    DegenerateNormal.
    """
    if perturbation is not None and (
        len(partitions) != 1 or perturbation.base is not partitions[0]
    ):
        raise DimensionMismatch(
            "a perturbation must be built from the one partition it weights"
        )
    m = sum(p.m for p in partitions)
    if plan is None and spec.deletes:
        indices = _selected(spec, dots, partitions, m)
        plan = DeletionPlan(spec.schedule, spec.selector, indices)
    pps = None if perturbation is None else [perturbation]
    if pps is None and spec.perturbs:
        pps = [perturb(p, spec.gamma, spec.seed + i) for i, p in enumerate(partitions)]

    terms = np.concatenate([d * w.measures for d, w in zip(dots, pps or partitions)])
    # Integrands a caller passed as temporaries are freed here, so they do not
    # add to the peak memory of the reduction.
    del dots
    keep = None if plan is None else _keep_mask(plan, m)
    if degenerate is not None:
        if np.any(degenerate if keep is None else degenerate[keep]):
            raise DegenerateNormal("surface normal vanishes at a used tag")
    value, resid = neumaier_sum(terms if keep is None else terms[keep])
    deleted = 0 if keep is None else int(m - keep.sum())
    symdiff = 0.0 if pps is None else sum(pp.symdiff_total for pp in pps)
    # VARIANTS is ordered full, deleted, perturbed, combined.
    variant = VARIANTS[(keep is not None) + 2 * (pps is not None)]
    mesh = max(p.mesh for p in partitions)
    return SumEstimate(value, m, mesh, deleted, symdiff, variant, resid)


def resolve_variant(
    spec: VariantSpec, p: Partition, magnitudes=None
) -> tuple[DeletionPlan | None, PerturbedPartition | None]:
    """Build the bound plan and/or perturbation a spec asks for on ``p``.

    This is the one-piece resolution :func:`pieces_sum` does itself, as
    explicit values for callers that check a sum against its inputs.
    ``magnitudes`` (per-cell |term| on the base configuration) is consulted
    only by the LargestTerm selector.
    """
    plan = None
    if spec.deletes:
        plan = bind_deletion(
            DeletionPlan(spec.schedule, spec.selector),
            p,
            terms=magnitudes if isinstance(spec.selector, LargestTerm) else None,
        )
    pp = perturb(p, spec.gamma, spec.seed) if spec.perturbs else None
    return plan, pp


def variant_sum(
    f: ScalarField,
    p: Partition,
    spec: VariantSpec = FULL,
    plan: DeletionPlan | None = None,
    perturbation: PerturbedPartition | None = None,
) -> SumEstimate:
    """Box sum of f over ``p`` in the variant ``spec`` describes.

    An explicit bound ``plan`` or ``perturbation`` (built from ``p``) wins
    over what ``spec`` would resolve; see :func:`pieces_sum`.
    """
    return pieces_sum([_values(f, p)], [p], spec, plan, perturbation)


def region_sum(
    f: ScalarField,
    region: ParametricRegion,
    p: Partition,
    spec: VariantSpec = FULL,
    plan: DeletionPlan | None = None,
    perturbation: PerturbedPartition | None = None,
) -> SumEstimate:
    """Region integral: change of variables, then :func:`variant_sum`.

    ``p`` must partition ``region.param_box``; ``plan`` and ``perturbation``
    are as for :func:`variant_sum`.
    """
    if p.parent.axes != region.param_box.axes:
        raise DimensionMismatch("partition does not cover the region's parameter box")
    return variant_sum(region_integrand(f, region), p, spec, plan, perturbation)


def field_bound(f: ScalarField, p: Partition) -> tuple[float, bool]:
    """(M, declared): the declared sup bound, or a tag-sample estimate.

    Bound-inequality checks must be skipped when ``declared`` is False;
    testing an estimated bound against itself would be tautological.
    """
    if f.bound_M is not None:
        return float(f.bound_M), True
    return float(np.max(np.abs(np.asarray(f(p.tags), dtype=float)))), False
