"""Boxes, tagged tensor-product partitions, mesh perturbation, deletion plans.

This is the combinatorial substrate every sum variant consumes: an
n-dimensional box is split per axis into strictly increasing breakpoints,
cells are the Cartesian products of the axis segments (C-order, axis 0
slowest), and each cell carries one tag point. All per-cell geometry is
per-axis: a cell's bounds are its axis segments, and the tag checks read only
``Partition.tag_extents``, each segment's least and greatest tag coordinate.
A perturbed partition keeps the same cells-by-index structure but jitters
interior breakpoints, and a deletion plan names the cell indices a sum
should drop.

All constructed values are immutable and deterministic: equal inputs
(including seeds) give bit-identical state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    CountOverflow,
    DegenerateBox,
    EqualPartitionRequired,
    InvalidParameter,
    MissingTerms,
    TagEscape,
    TooFewCells,
)
from .summation import neumaier_sum

MAX_CELLS = 10**8
MAX_DIM = 8

TAG_RULES = ("midpoint", "corner", "random")


@dataclass(frozen=True)
class Box:
    """Axis-aligned interval product ``[lo_1,hi_1] x ... x [lo_n,hi_n]``."""

    axes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        axes = tuple((float(lo), float(hi)) for lo, hi in self.axes)
        object.__setattr__(self, "axes", axes)
        if not 1 <= len(axes) <= MAX_DIM:
            raise DegenerateBox(f"dimension must be in [1, {MAX_DIM}], got {len(axes)}")
        for i, (lo, hi) in enumerate(axes):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise DegenerateBox(f"axis {i} collapsed: [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def measure(self) -> float:
        return math.prod(hi - lo for lo, hi in self.axes)


def _grid_stack(per_axis) -> np.ndarray:
    """Cartesian product of per-axis value arrays as an (m, n) array, C-order."""
    grids = np.meshgrid(*per_axis, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _outer_product(per_axis) -> np.ndarray:
    """Per-cell products of per-axis factors, flattened in C-order."""
    out = np.asarray(per_axis[0], dtype=float)
    for w in per_axis[1:]:
        out = np.multiply.outer(out, np.asarray(w, dtype=float))
    return out.ravel()


@dataclass(frozen=True, eq=False)
class Partition:
    """Tagged tensor-product partition of a box.

    ``breakpoints[i]`` runs from the box lower to upper bound of axis i,
    strictly increasing. ``axis_widths[i]`` are the canonical segment
    measures used in all sums; for uniform constructions they are stored as
    the exact common width so equal partitions have bitwise-equal cell
    measures. ``tags`` is (m, dim), one point per cell, inside the closed
    cell; ``tag_extents`` reduces them per axis in one cached pass, after which
    the tag checks cost O(sum of counts).
    ``is_equal`` means every cell has the same measure.
    """

    parent: Box
    breakpoints: tuple[np.ndarray, ...]
    axis_widths: tuple[np.ndarray, ...]
    tags: np.ndarray
    is_equal: bool

    @property
    def dim(self) -> int:
        return self.parent.dim

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(b) - 1 for b in self.breakpoints)

    @property
    def m(self) -> int:
        return math.prod(self.counts)

    @property
    def measures(self) -> np.ndarray:
        """Per-cell measures m(I_k), C-order, length m: computed from
        ``axis_widths`` on each access (m * 8 bytes), and not cached."""
        return _outer_product(self.axis_widths)

    @cached_property
    def mesh(self) -> float:
        """lambda(P): the largest cell diameter."""
        return float(math.sqrt(sum(float(np.max(w)) ** 2 for w in self.axis_widths)))

    @property
    def tag_grid(self) -> np.ndarray:
        """``tags`` on the cell grid: ``tag_grid[i_1, ..., i_n]`` is a tag. It is
        read to build ``tag_extents`` and the mirrored and swapped partitions."""
        return self.tags.reshape(self.counts + (self.dim,))

    @cached_property
    def tag_extents(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis a, ``(lo, hi)``: the least and greatest a-coordinate of
        the tags in each a-segment's slab of cells (nan if a tag is nan)."""
        coords = np.moveaxis(self.tag_grid, -1, 0)
        others = [tuple(j for j in range(self.dim) if j != a) for a in range(self.dim)]
        return tuple((c.min(axis=o), c.max(axis=o)) for c, o in zip(coords, others))


def _validate_breakpoints(box: Box, breakpoints) -> tuple[np.ndarray, ...]:
    if len(breakpoints) != box.dim:
        raise DegenerateBox("one breakpoint sequence required per axis")
    out = []
    for i, (raw, (lo, hi)) in enumerate(zip(breakpoints, box.axes)):
        b = np.array(raw, dtype=float)  # a copy: partitions never alias inputs
        if b.ndim != 1 or len(b) < 2:
            raise DegenerateBox(f"axis {i}: need at least two breakpoints")
        if b[0] != lo or b[-1] != hi:
            raise DegenerateBox(f"axis {i}: breakpoints must span [{lo}, {hi}]")
        if not np.all(np.diff(b) > 0):
            raise DegenerateBox(f"axis {i}: breakpoints must be strictly increasing")
        out.append(b)
    return tuple(out)


def _check_cell_cap(counts) -> int:
    m = math.prod(int(c) for c in counts)
    if m > MAX_CELLS:
        raise CountOverflow(f"cell count exceeds cap {MAX_CELLS}")
    return m


def _escaped_axis(extents, breakpoints) -> int | None:
    """First axis on which some tag leaves its closed cell, or None: on each
    axis, a slab's tags lie in their cells exactly when its extents do."""
    for axis, ((lo, hi), b) in enumerate(zip(extents, breakpoints)):
        if not (np.all(lo >= b[:-1]) and np.all(hi <= b[1:])):
            return axis
    return None


def _make_tags(breakpoints, tag_rule: str, seed: int) -> np.ndarray:
    if tag_rule == "midpoint":
        return _grid_stack([(b[:-1] + b[1:]) / 2.0 for b in breakpoints])
    if tag_rule == "corner":
        return _grid_stack([b[:-1] for b in breakpoints])
    if tag_rule == "random":
        lows = _grid_stack([b[:-1] for b in breakpoints])
        widths = _grid_stack([np.diff(b) for b in breakpoints])
        rng = np.random.default_rng(seed)
        return lows + rng.random(lows.shape) * widths
    raise InvalidParameter(f"unknown tag rule {tag_rule!r}; expected one of {TAG_RULES}")


def make_partition(
    box: Box,
    breakpoints,
    tag_rule: str = "midpoint",
    seed: int = 0,
    tags: np.ndarray | None = None,
) -> Partition:
    """Build a partition from explicit per-axis breakpoints.

    ``tags`` overrides the tag rule with explicit points (one per cell,
    C-order); they must lie inside the closed cells.
    """
    breaks = _validate_breakpoints(box, breakpoints)
    m = _check_cell_cap(len(b) - 1 for b in breaks)
    widths = tuple(np.diff(b) for b in breaks)
    is_equal = all(bool(np.all(w == w[0])) for w in widths)
    if tags is None:
        return Partition(box, breaks, widths, _make_tags(breaks, tag_rule, seed), is_equal)
    tags = np.array(tags, dtype=float, order="C")
    if tags.shape != (m, box.dim):
        raise InvalidParameter(f"tags must have shape ({m}, {box.dim})")
    p = Partition(box, breaks, widths, tags, is_equal)
    if _escaped_axis(p.tag_extents, breaks) is not None:  # p keeps its extents
        raise InvalidParameter("explicit tags must lie inside their closed cells")
    return p


def make_uniform_partition(
    box: Box, counts, tag_rule: str = "midpoint", seed: int = 0
) -> Partition:
    """Split every axis of ``box`` into equal segments.

    ``counts`` gives the number of segments per axis (an int is broadcast to
    all axes). The common cell measure is stored exactly, so the result is
    an equal partition in the bitwise sense.
    """
    if np.isscalar(counts):
        counts = (int(counts),) * box.dim
    counts = tuple(int(c) for c in counts)
    if len(counts) != box.dim:
        raise DegenerateBox("one count per axis required")
    if any(c < 1 for c in counts):
        raise DegenerateBox("counts must be >= 1 on every axis")
    _check_cell_cap(counts)
    breaks = tuple(
        np.linspace(lo, hi, c + 1) for (lo, hi), c in zip(box.axes, counts)
    )
    widths = tuple(
        np.full(c, (hi - lo) / c) for (lo, hi), c in zip(box.axes, counts)
    )
    tags = _make_tags(breaks, tag_rule, seed)
    return Partition(box, breaks, widths, tags, is_equal=True)


@dataclass(frozen=True, eq=False)
class PerturbedPartition:
    """A jittered copy of a partition with its total symmetric difference.

    Cell k of the perturbed family is the product of the k-th perturbed axis
    segments. ``symdiff_total = sum_k m(I_k ^ I~_k)`` comes from per-axis
    segment overlaps by interval arithmetic, never by sampling, and dominates
    ``sum_k |m(I~_k) - m(I_k)|``. Tags are inherited from the base partition
    and verified to lie in the intersection of base and perturbed cells.
    """

    base: Partition
    breakpoints: tuple[np.ndarray, ...]
    axis_widths: tuple[np.ndarray, ...]
    symdiff_total: float

    @property
    def measures(self) -> np.ndarray:
        """Per-cell perturbed measures m(Ĩ_k), C-order, computed on each access."""
        return _outer_product(self.axis_widths)


def apply_perturbation(p: Partition, breakpoints) -> PerturbedPartition:
    """Pair ``p`` with explicit perturbed breakpoints (the forced-grid hook).

    Endpoints must match the parent box and segment counts must match the
    base. ``symdiff_total`` is assembled from correctly rounded per-axis sums
    of segment widths and overlaps, in O(sum of counts) work; no per-cell
    array is built. Raises :class:`TagEscape` if any base tag falls outside the
    intersection of its base and perturbed cell, read from ``p.tag_extents``
    (one cached pass over the tags, then O(sum of counts)).
    """
    pert = _validate_breakpoints(p.parent, breakpoints)
    if tuple(len(b) - 1 for b in pert) != p.counts:
        raise DegenerateBox("perturbed breakpoints must keep the base cell counts")

    # Segments whose endpoints did not move keep the base's stored width and
    # overlap fully, so unjittered cells contribute exactly zero symmetric
    # difference (and gamma = 0 reproduces the base partition bitwise).
    # Adding axis a turns a cell's prod(w) - prod(o) into
    # (prod(w) - prod(o)) * w_a + prod(o) * (w_a - o_a); summed over all cells,
    # every factor is a per-axis sum and none is negative (o <= w), so the
    # totals t0 (base side) and t1 (perturbed side) never cancel.
    pert_widths = []
    t0 = t1 = 0.0
    o_sum = 1.0
    for axis, (b0, b1, w0) in enumerate(zip(p.breakpoints, pert, p.axis_widths)):
        unchanged = (b1[:-1] == b0[:-1]) & (b1[1:] == b0[1:])
        w1 = np.where(unchanged, w0, np.diff(b1))
        raw = np.minimum(b0[1:], b1[1:]) - np.maximum(b0[:-1], b1[:-1])
        ov = np.minimum(np.maximum(raw, 0.0), np.minimum(w0, w1))
        ov = np.where(unchanged, w0, ov)
        pert_widths.append(w1)
        if axis:  # t0 and t1 are still 0 on the first axis
            t0 *= neumaier_sum(w0)[0]
            t1 *= neumaier_sum(w1)[0]
        t0 += o_sum * neumaier_sum(w0 - ov)[0]
        t1 += o_sum * neumaier_sum(w1 - ov)[0]
        if axis + 1 < p.dim:  # only later axes read o_sum
            o_sum *= neumaier_sum(ov)[0]

    axis = _escaped_axis(p.tag_extents, pert)
    if axis is not None:
        raise TagEscape(f"axis {axis}: a base tag left the base/perturbed intersection")
    return PerturbedPartition(p, pert, tuple(pert_widths), t0 + t1)


def perturb(p: Partition, gamma: float, seed: int = 0) -> PerturbedPartition:
    """Jitter interior breakpoints by uniform draws in [-h, +h].

    Per axis, ``h = gamma * min(mesh(P)^2, g_min/2)`` with ``g_min`` the
    smallest segment on that axis, so breakpoints stay strictly increasing
    and the total symmetric difference vanishes as the partition refines.
    Draws are clamped so every base tag stays inside both its base and
    perturbed cell, by ``p.tag_extents`` (one cached pass over the tags, then
    O(sum of counts)); endpoints never move.
    """
    if not 0.0 <= gamma < 1.0:
        raise InvalidParameter(f"gamma must be in [0, 1), got {gamma}")
    rng = np.random.default_rng(seed)
    mesh_sq = p.mesh**2

    new_breaks = []
    for axis, (breaks, widths) in enumerate(zip(p.breakpoints, p.axis_widths)):
        interior = breaks[1:-1]  # empty on a one-cell axis: no draw, no move
        g_min = float(np.min(widths))
        h = gamma * min(mesh_sq, g_min / 2.0)
        shifts = rng.uniform(-h, h, size=len(interior))

        # Slab-wise tag extrema along this axis bound each breakpoint's
        # admissible range; tags live in closed cells, so the range always
        # contains the base breakpoint.
        slab_min, slab_max = p.tag_extents[axis]
        lower = np.maximum(interior - h, slab_max[:-1])
        upper = np.minimum(interior + h, slab_min[1:])
        moved = np.clip(interior + shifts, lower, upper)

        b = breaks.copy()
        b[1:-1] = moved
        if not np.all(np.diff(b) > 0):
            raise TagEscape(
                f"axis {axis}: clamped jitter collapsed adjacent breakpoints"
            )
        new_breaks.append(b)

    return apply_perturbation(p, tuple(new_breaks))


def reflect_partition(p: Partition) -> Partition:
    """Mirror a partition onto the negated box (for path reversal).

    Negation is exact in floating point, so cell bounds, stored widths, and
    tags all map bitwise; cell k of the result is the mirror image of cell
    m-1-k (per axis) of the input.
    """
    box = Box(tuple((-hi, -lo) for lo, hi in p.parent.axes))
    breaks = tuple(-b[::-1] for b in p.breakpoints)
    widths = tuple(w[::-1].copy() for w in p.axis_widths)
    tags = -np.flip(p.tag_grid, axis=tuple(range(p.dim))).reshape(p.m, p.dim)
    return Partition(box, breaks, widths, np.ascontiguousarray(tags), p.is_equal)


def swap_axes_partition(p: Partition) -> Partition:
    """Swap the two axes of a 2D partition (for surface orientation flips).

    Widths and tags are carried over bitwise; cell (i, j) becomes cell
    (j, i) of the result.
    """
    if p.dim != 2:
        raise DegenerateBox("axis swap is defined for 2D partitions")
    box = Box((p.parent.axes[1], p.parent.axes[0]))
    tags = p.tag_grid.transpose(1, 0, 2)[..., ::-1].reshape(p.m, 2)
    return Partition(
        box,
        (p.breakpoints[1], p.breakpoints[0]),
        (p.axis_widths[1], p.axis_widths[0]),
        np.ascontiguousarray(tags),
        p.is_equal,
    )


# --- deletion plans ---------------------------------------------------------


@dataclass(frozen=True)
class FixedK:
    """Delete a fixed number of terms (clause-i schedules)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameter("K must be >= 1")


@dataclass(frozen=True)
class PowerLaw:
    """Delete floor(m^beta) terms, beta in (0,1); K(m)/m -> 0."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise InvalidParameter("beta must be in (0, 1)")


@dataclass(frozen=True)
class Logarithmic:
    """Delete max(1, floor(ln m)) terms; K(m)/m -> 0."""


@dataclass(frozen=True)
class Prefix:
    """Delete the first K indices."""


@dataclass(frozen=True)
class RandomPick:
    """Delete K distinct indices sampled without replacement from a seed."""

    seed: int = 0


@dataclass(frozen=True)
class LargestTerm:
    """Delete the K indices with greatest |term| (ties: lowest index)."""


Schedule = FixedK | PowerLaw | Logarithmic
Selector = Prefix | RandomPick | LargestTerm


def schedule_count(schedule: Schedule, m: int) -> int:
    """Number of deleted terms for a schedule at cell count ``m`` (>= 2)."""
    if m < 2:
        raise TooFewCells("deletion requires at least 2 cells (K < m)")
    if isinstance(schedule, FixedK):
        k = min(schedule.k, m - 1)
    elif isinstance(schedule, PowerLaw):
        k = int(math.floor(m**schedule.beta))
    elif isinstance(schedule, Logarithmic):
        k = max(1, int(math.floor(math.log(m))))
    else:
        raise TypeError(f"unknown schedule {schedule!r}")
    return max(1, min(k, m - 1))


@dataclass(frozen=True)
class DeletionPlan:
    """Which sum terms are dropped: a size schedule plus an index selector.

    ``resolved`` is the 0-based, ascending index set once the plan is bound
    to a concrete partition; it is None for an unbound plan.
    """

    schedule: Schedule
    selector: Selector = Prefix()
    resolved: tuple[int, ...] | None = None


def select_indices(
    schedule: Schedule,
    selector: Selector,
    m: int,
    terms=None,
    is_equal: bool = True,
) -> tuple[int, ...]:
    """Resolve a deleted index set over ``m`` terms (0-based, ascending).

    Vanishing schedules (PowerLaw, Logarithmic) demand ``is_equal``,
    matching the theorems' clause-ii/iii equal-partition hypotheses.
    """
    if not isinstance(schedule, FixedK) and not is_equal:
        raise EqualPartitionRequired(
            "K(m) schedules require an equal partition (all cell measures equal)"
        )
    k = schedule_count(schedule, m)

    if isinstance(selector, Prefix):
        indices = np.arange(k)
    elif isinstance(selector, RandomPick):
        rng = np.random.default_rng(selector.seed)
        indices = np.sort(rng.choice(m, size=k, replace=False))
    elif isinstance(selector, LargestTerm):
        if terms is None:
            raise MissingTerms("LargestTerm selection needs per-cell magnitudes")
        mags = np.abs(np.asarray(terms, dtype=float).ravel())
        if len(mags) != m:
            raise MissingTerms(f"expected {m} magnitudes, got {len(mags)}")
        mags[np.isnan(mags)] = -1.0  # nan ranks last
        kth = np.partition(mags, m - k)[m - k]  # the k-th largest, in O(m)
        above = np.flatnonzero(mags > kth)
        ties = np.flatnonzero(mags == kth)[: k - len(above)]  # lowest indices win
        indices = np.sort(np.concatenate([above, ties]))
    else:
        raise TypeError(f"unknown selector {selector!r}")
    return tuple(indices.tolist())


def bind_deletion(plan: DeletionPlan, p: Partition, terms=None) -> DeletionPlan:
    """Resolve a plan's index set against a concrete partition.

    ``terms`` (per-cell term magnitudes) is required for the LargestTerm
    selector.
    """
    resolved = select_indices(
        plan.schedule, plan.selector, p.m, terms=terms, is_equal=p.is_equal
    )
    return replace(plan, resolved=resolved)
