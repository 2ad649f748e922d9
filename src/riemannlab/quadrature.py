"""The variant kernel, and box and region sums in the four variants.

full        sum_k f(xi_k) m(I_k)
deleted     the same sum with a bound deletion plan's indices dropped
perturbed   base tags with perturbed cell measures m(I~_k)
combined    perturbed measures and a deletion plan together

:func:`pieces_sum` is the one place these variants are told apart: box,
region, line, surface and theorem-boundary sums only build row-wise
integrands (a region's is f pulled back to its parameter box) and hand
them to it, with the partitions they live on. It is the one place
integrands are evaluated, at their tags in row slabs, and each slab's
terms are weighed where it is evaluated, by its base or perturbed cell
measures, straight into its rows of one m-term array, the only array of m
entries a sum holds. Equal base cells are weighed by one float, their
measure multiplied in the per-cell order, so every term keeps its bits.
It resolves deletion once over one index space (LargestTerm from each
slab's own K largest), overwrites the deleted terms with -0.0, which
changes no bit of a sum, and reduces to the correctly rounded,
order-independent sum, so equal inputs give bit-identical estimates.

Each integral has one entry point (:func:`variant_sum`, :func:`region_sum`
here; ``line_sum`` and ``surface_sum`` in :mod:`riemannlab.curve_surface`).
It takes a :class:`VariantSpec`, and optionally an explicit bound ``plan``
and/or ``perturbation``, which win over what the spec would resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .errors import NonFiniteSum, RiemannLabError, UnboundPlan
from .fields import ParametricRegion, ScalarField, _rowwise
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
    _cell_measures,
    _largest,
    bind_deletion,
    check_seed,
    perturb,
    schedule_count,
    select_indices,
)
from .summation import neumaier_sum

VARIANTS = ("full", "deleted", "perturbed", "combined")


@dataclass(frozen=True)
class SumEstimate:
    """One quadrature result with full provenance.

    ``value`` is the correctly rounded sum of the terms; ``compensation_residual``
    is ``value`` minus their plain float sum in ascending cell order.
    """

    value: float
    m: int
    mesh: float
    deleted_count: int
    symdiff_total: float
    variant: str
    compensation_residual: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidParameter(f"unknown variant {self.variant!r}")
        if not math.isfinite(self.value):
            raise NonFiniteSum("sum estimate is not finite")
        if self.deleted_count and self.variant not in ("deleted", "combined"):
            raise InvalidParameter("deleted_count > 0 only for deleted/combined variants")
        if self.symdiff_total and self.variant not in ("perturbed", "combined"):
            raise InvalidParameter("symdiff_total > 0 only for perturbed/combined variants")


# --- variant configuration ---------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    """One knob per theorem ingredient: K / K(m), J_K selector, jitter, tags.

    ``seed`` (a non-negative integer) drives the mesh jitter; a RandomPick
    selector carries its own seed. :meth:`with_seed` rebinds both, which is
    how sweeps derive independent per-row randomness.
    """

    kind: str = "full"
    schedule: Schedule = FixedK(1)
    selector: Selector = Prefix()
    gamma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in VARIANTS:
            raise InvalidParameter(f"unknown variant kind {self.kind!r}")
        check_seed(self.seed)

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


def _deleted_indices(plan: DeletionPlan, m: int) -> np.ndarray:
    """A bound plan's ascending deleted indices, checked against ``m`` terms."""
    idx = plan.resolved
    if idx is None:
        raise UnboundPlan("deletion plan must be bound to the partition first")
    if len(idx) == 0 or len(idx) >= m or idx[0] < 0 or idx[-1] >= m:
        raise UnboundPlan(f"resolved index set invalid for m={m}")
    return idx


def _equal_measure(p: Partition) -> float | None:
    """The one measure of all of ``p``'s cells, multiplied in
    ``_cell_measures``' order so it has their bits, or None if they differ."""
    return math.prod(w[0] for w in p.axis_widths) if p.is_equal else None


def _is_equal(partitions) -> bool:
    """The pieces' cells all have one measure, as vanishing schedules ask."""
    firsts = [_equal_measure(p) for p in partitions]
    return firsts[0] is not None and all(f == firsts[0] for f in firsts)


def pieces_sum(
    integrands: list[Callable],
    partitions: list[Partition],
    spec: VariantSpec = FULL,
    plan: DeletionPlan | None = None,
    perturbation: PerturbedPartition | None = None,
) -> SumEstimate:
    """Sum integrand x cell measure over tagged pieces, in any variant.

    ``integrands[i]``, row-wise on slabs of the tags of ``partitions[i]``, is
    evaluated once per tag (:func:`fields._rowwise`); the pieces form one
    index space. Each slab's terms are weighed where it is evaluated, by its
    cell measures (``geometry._cell_measures``, or one float for equal base
    cells), into its rows of the sum's one m-term array. A bound ``plan``
    and a ``perturbation`` are used as given, in place of what ``spec`` would
    resolve; a perturbation must be built from the one partition it weights.
    A plan's ``resolved``, a read-only, ascending int64 array normalised at
    construction, is read as it is. Otherwise ``spec`` selects the deleted
    indices and jitters piece i with seed ``spec.seed + i``.
    LargestTerm ranks |integrand x base measure|: each slab keeps its own K
    largest as candidates, and one :func:`select_indices` call picks the K
    from their union. No pieces (a region declared without boundary, say)
    raise DimensionMismatch.
    """
    if not partitions:
        raise DimensionMismatch("a sum needs at least one piece")
    if perturbation is not None and (
        len(partitions) != 1 or perturbation.base is not partitions[0]
    ):
        raise DimensionMismatch(
            "a perturbation must be built from the one partition it weights"
        )
    offsets = list(accumulate((p.m for p in partitions), initial=0))
    m = offsets[-1]
    pps = None if perturbation is None else [perturbation]
    unweighted = None  # a jitter that fails raises after evaluation and selection
    if pps is None and spec.perturbs:
        try:
            pps = [perturb(p, spec.gamma, spec.seed + i) for i, p in enumerate(partitions)]
        except RiemannLabError as exc:
            unweighted = exc
    ranked = plan is None and spec.deletes and isinstance(spec.selector, LargestTerm)
    k = schedule_count(spec.schedule, max(m, 2)) if ranked else 0
    candidates = {}  # global slab start -> (indices, base terms) of its K largest

    def slab_terms(i):
        """Piece i's terms of a slab, integrand x base or perturbed measure,
        written into the slab's rows of the sum's terms."""
        integrand, p, offset = integrands[i], partitions[i], offsets[i]
        weights = p if pps is None else pps[i]
        cell = _equal_measure(p)

        def terms(rows, start, stop, dest):
            values = np.asarray(integrand(rows), float)
            if weights is p or ranked:
                base = cell
                if base is None:
                    base = _cell_measures(p.axis_widths, start, stop)
                base = np.multiply(values, base, out=dest)
                if ranked:
                    # A sum of one slab is ranked once, by select_indices.
                    picked = _largest(base, k if stop - start < m else m)
                    candidates[offset + start] = (offset + start + picked, base[picked])
                if weights is p:
                    return base
            perturbed = _cell_measures(weights.axis_widths, start, stop)
            return np.multiply(values, perturbed, out=dest)

        return terms

    terms = np.empty(m)
    for i, p in enumerate(partitions):
        _rowwise(slab_terms(i), p, terms[offsets[i] : offsets[i + 1]])
    if plan is None and spec.deletes:
        at = ranked_terms = None
        if ranked:
            picks = [candidates[start] for start in sorted(candidates)]
            at = np.concatenate([indices for indices, _ in picks])
            ranked_terms = np.concatenate([base for _, base in picks])
        indices = select_indices(
            spec.schedule, spec.selector, m, ranked_terms, _is_equal(partitions), at
        )
        plan = DeletionPlan(spec.schedule, spec.selector, indices)
    if unweighted is not None:
        raise unweighted
    if plan is not None:
        terms[_deleted_indices(plan, m)] = -0.0  # x + (-0.0) == x for every x, ±0 included
    value, resid = neumaier_sum(terms)
    deleted = 0 if plan is None else len(plan.resolved)
    symdiff = 0.0 if pps is None else sum(pp.symdiff_total for pp in pps)
    # VARIANTS is ordered full, deleted, perturbed, combined.
    variant = VARIANTS[(plan is not None) + 2 * (pps is not None)]
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
        plan = bind_deletion(DeletionPlan(spec.schedule, spec.selector), p, magnitudes)
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
    if f.dim != p.dim:
        raise DimensionMismatch(f"field dim {f.dim} != partition dim {p.dim}")
    return pieces_sum([f], [p], spec, plan, perturbation)


def region_sum(
    f: ScalarField,
    region: ParametricRegion,
    p: Partition,
    spec: VariantSpec = FULL,
    plan: DeletionPlan | None = None,
    perturbation: PerturbedPartition | None = None,
) -> SumEstimate:
    """Region integral: the box sum of ``f(mapping(params)) * jac_det(params)``.

    ``p`` must partition ``region.param_box``; ``plan`` and ``perturbation``
    are as for :func:`variant_sum`.
    """
    if p.parent.axes != region.param_box.axes:
        raise DimensionMismatch("partition does not cover the region's parameter box")
    if f.dim != region.dim:
        raise DimensionMismatch(f"field dim {f.dim} != region dim {region.dim}")

    def integrand(params):
        values = np.asarray(f(region.mapping(params)), float)
        return values * np.asarray(region.jac_det(params), float)

    return pieces_sum([integrand], [p], spec, plan, perturbation)
