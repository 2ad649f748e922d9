"""Boxes, tagged tensor-product partitions, mesh perturbation, deletion plans.

This is the combinatorial substrate every sum variant consumes: an
n-dimensional box is split per axis into strictly increasing breakpoints,
cells are the Cartesian products of the axis segments (C-order, axis 0
slowest), and each cell carries one tag point. All per-cell geometry is
per-axis: a cell's bounds are its axis segments, midpoint and corner tags
are one coordinate array per axis, and the tag checks read only
``Partition.tag_extents``, each segment's least and greatest tag coordinate.
No midpoint or corner partition holds a per-cell array: the kernel builds
the tags of each slab where it evaluates them, by the one rule that gives
whole tag arrays. ``Partition.tag_slabs`` cuts every grid into C-order runs
of one length, whole trailing blocks, the last run shorter. A perturbed
partition keeps the same cells-by-index structure but jitters interior
breakpoints, and a deletion plan names the cell indices a sum should drop.

All constructed values are immutable, their arrays read-only, and
deterministic: equal inputs (including seeds, which :func:`check_seed`
checks for every draw) give bit-identical state.
"""

from __future__ import annotations

import math
import numbers
import operator
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


def _cell_measures(axis_widths, start: int, stop: int) -> np.ndarray:
    """``measures[start:stop]`` of the cells the per-axis ``axis_widths``
    span, C-order. Cell (i_1, ..., i_n) measures ((w_1[i_1] * w_2[i_2]) * ...)
    * w_n[i_n], multiplied in that order whatever the bounds, so a run of
    cells has the bits of the same cells of the whole array. The leading
    axes up to j, the first whose trailing block divides both bounds, give
    one factor per block, and ``np.multiply.outer`` adds the trailing axes.
    """
    j, block = 0, math.prod(len(w) for w in axis_widths[1:])
    while start % block or stop % block:
        j += 1
        block //= len(axis_widths[j])
    first, last = start // block, stop // block  # the blocks' indices
    # At j = 0 the blocks are axis 0's own indices, a contiguous run.
    lead = slice(first, last) if j == 0 else np.arange(first, last)
    digits = []
    for w in axis_widths[j:0:-1]:  # axes j down to 1 take their digits
        lead, digit = np.divmod(lead, len(w))
        digits.append(digit)
    out = axis_widths[0][lead]  # the quotient left is axis 0's
    for w, digit in zip(axis_widths[1 : j + 1], reversed(digits)):
        out = out * w[digit]
    for w in axis_widths[j + 1 :]:
        out = np.multiply.outer(out, w)
    return out.ravel()


def _grid_rows(axes, j: int):
    """``rows(start, stop)``: rows of the C-order Cartesian product of the
    per-axis value arrays ``axes``, built column by column by broadcasting in
    a new (stop - start, dim) array. ``start:stop`` must be whole blocks of
    ``prod(counts[j+1:])`` rows; at j = 0, ``rows(0, m)`` is the whole grid.
    """
    counts, dim = tuple(len(c) for c in axes), len(axes)
    block = math.prod(counts[j + 1 :])
    run_shape = (-1,) + (1,) * (dim - 1 - j)
    trailing = [
        (a, axes[a].reshape((-1,) + (1,) * (dim - 1 - a))) for a in range(j + 1, dim)
    ]

    def rows(start: int, stop: int) -> np.ndarray:
        first, last = start // block, stop // block  # the blocks' indices
        # At j = 0 the blocks are axis 0's own indices, a contiguous run.
        lead = slice(first, last) if j == 0 else np.arange(first, last)
        out = np.empty((last - first,) + counts[j + 1 :] + (dim,))
        for a in range(j, 0, -1):  # axes j down to 1 take their digits
            lead, digit = np.divmod(lead, counts[a])
            out[..., a] = axes[a][digit].reshape(run_shape)
        out[..., 0] = axes[0][lead].reshape(run_shape)  # the quotient left is axis 0's
        for a, coords in trailing:
            out[..., a] = coords
        return out.reshape(stop - start, dim)

    return rows


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself is left as it is."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Partition:
    """Tagged tensor-product partition of a box.

    ``breakpoints[i]`` runs from the box lower to upper bound of axis i,
    strictly increasing. ``axis_widths[i]`` are the canonical segment
    measures used in all sums; for uniform constructions they are stored as
    the exact common width so equal partitions have bitwise-equal cell
    measures. Each cell has one tag inside the closed cell, and
    ``tag_source`` holds them in one of two forms. Grid tags (midpoint and
    corner) are a tuple of per-axis coordinate arrays: cell
    ``(i_1, ..., i_n)`` has the tag ``(c_1[i_1], ..., c_n[i_n])``, so they
    cost O(sum of counts) and are their own ``tag_extents``. Random and
    explicit tags are stored as an (m, dim) array, which ``tag_extents``
    reduces per axis in one cached pass. Either way the tag checks then cost
    O(sum of counts), and sums build tags a slab at a time (``tag_slabs``).
    The box ``parent`` and ``is_equal`` (every cell has the same measure) are
    read off the breakpoints and widths, never stored. Every array a
    partition holds is a read-only view, so no write can move a tag out of
    its cell after the checks.
    """

    breakpoints: tuple[np.ndarray, ...]
    axis_widths: tuple[np.ndarray, ...]
    tag_source: np.ndarray | tuple[np.ndarray, ...]

    def __post_init__(self):
        tags = self.tag_source
        tags = tuple(map(_read_only, tags)) if isinstance(tags, tuple) else _read_only(tags)
        object.__setattr__(self, "breakpoints", tuple(map(_read_only, self.breakpoints)))
        object.__setattr__(self, "axis_widths", tuple(map(_read_only, self.axis_widths)))
        object.__setattr__(self, "tag_source", tags)

    @cached_property
    def parent(self) -> Box:
        """The box the breakpoints span, from their first to their last."""
        return Box(tuple((b[0], b[-1]) for b in self.breakpoints))

    @cached_property
    def is_equal(self) -> bool:
        """Every cell has the same measure: on each axis all widths are equal."""
        return all(bool(np.all(w == w[0])) for w in self.axis_widths)

    @property
    def dim(self) -> int:
        return len(self.breakpoints)

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
        return _cell_measures(self.axis_widths, 0, self.m)

    @cached_property
    def mesh(self) -> float:
        """lambda(P): the largest cell diameter."""
        return float(math.sqrt(sum(float(np.max(w)) ** 2 for w in self.axis_widths)))

    @property
    def tag_axes(self) -> tuple[np.ndarray, ...] | None:
        """Grid tags' per-axis coordinates, or None for stored tags."""
        return self.tag_source if isinstance(self.tag_source, tuple) else None

    @property
    def tags(self) -> np.ndarray:
        """The (m, dim) tags, C-order. Stored tags are returned as they are;
        grid tags are materialised on each access, at m * dim * 8 bytes,
        and sums never ask for them."""
        axes = self.tag_axes
        return self.tag_source if axes is None else _grid_rows(axes, 0)(0, self.m)

    @property
    def tag_grid(self) -> np.ndarray:
        """``tags`` on the cell grid: ``tag_grid[i_1, ..., i_n]`` is a tag. It is
        read to reduce, mirror and swap stored tags."""
        return self.tags.reshape(self.counts + (self.dim,))

    def tag_slabs(self, max_rows):
        """``(bounds, rows)``: C-order slabs ``(start, stop)`` covering the cells
        in order, each but the last (which may be shorter) a run of
        ``min(max_rows, m) // block`` whole blocks of ``prod(counts[j+1:])``
        cells, j the first axis whose block fits; a run may cross the axes
        before j. ``rows(start, stop)`` gives ``tags[start:stop]``: stored tags
        are sliced (a view), grid tags are built by :func:`_grid_rows`."""
        counts, m = self.counts, self.m
        j = next(j for j in range(self.dim) if math.prod(counts[j + 1 :]) <= max_rows)
        block = math.prod(counts[j + 1 :])
        step = block * int(min(max_rows, m) // block)
        bounds = [(start, min(start + step, m)) for start in range(0, m, step)]
        axes = self.tag_axes
        if axes is None:
            return bounds, lambda start, stop: self.tag_source[start:stop]
        return bounds, _grid_rows(axes, j)

    @cached_property
    def tag_extents(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis a, ``(lo, hi)``: the least and greatest a-coordinate of
        the tags in each a-segment's slab of cells (nan if a tag is nan).
        Grid tags are their own extents, ``(c_a, c_a)``."""
        axes = self.tag_axes
        if axes is not None:
            return tuple((c, c) for c in axes)
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
        if not (b[1:] > b[:-1]).all():
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


def check_seed(seed) -> int:
    """``seed``, if it is a non-negative integer; anything else (None, a
    negative or fractional number) raises InvalidParameter. Random tags,
    jitter and RandomPick draw from ``default_rng(check_seed(seed))``."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _make_tags(breakpoints, tag_rule: str, seed: int):
    """A partition's ``tag_source``: per-axis coordinates for grid tags."""
    if tag_rule == "midpoint":
        return tuple((b[:-1] + b[1:]) / 2.0 for b in breakpoints)
    if tag_rule == "corner":
        return tuple(b[:-1] for b in breakpoints)
    if tag_rule == "random":
        # lows + draws * widths in place: IEEE addition commutes, so same bits
        m = math.prod(len(b) - 1 for b in breakpoints)
        tags = np.random.default_rng(check_seed(seed)).random((m, len(breakpoints)))
        tags *= _grid_rows([np.diff(b) for b in breakpoints], 0)(0, m)
        tags += _grid_rows([b[:-1] for b in breakpoints], 0)(0, m)
        return tags
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
    if tags is None:
        return Partition(breaks, widths, _make_tags(breaks, tag_rule, seed))
    tags = np.array(tags, dtype=float, order="C")
    if tags.shape != (m, box.dim):
        raise InvalidParameter(f"tags must have shape ({m}, {box.dim})")
    p = Partition(breaks, widths, tags)
    if _escaped_axis(p.tag_extents, breaks) is not None:  # p keeps its extents
        raise InvalidParameter("explicit tags must lie inside their closed cells")
    return p


def make_uniform_partition(
    box: Box, counts, tag_rule: str = "midpoint", seed: int = 0
) -> Partition:
    """Split every axis of ``box`` into equal segments.

    ``counts`` gives the number of segments per axis as integers (one is
    broadcast to all axes), else DegenerateBox. The breakpoints pass
    :func:`make_partition`'s checks, so a box too narrow for its counts in
    floating point is refused. The common cell measure is stored exactly, so
    the result is an equal partition in the bitwise sense.
    """
    try:
        per_axis = (counts,) * box.dim if np.ndim(counts) == 0 else counts
        counts = tuple(map(operator.index, per_axis))
    except (TypeError, ValueError):  # ValueError: a ragged sequence
        raise DegenerateBox(f"counts must be integers, got {counts!r}") from None
    if len(counts) != box.dim:
        raise DegenerateBox("one count per axis required")
    if any(c < 1 for c in counts):
        raise DegenerateBox("counts must be >= 1 on every axis")
    _check_cell_cap(counts)
    breaks = _validate_breakpoints(
        box, [np.linspace(lo, hi, c + 1) for (lo, hi), c in zip(box.axes, counts)]
    )
    widths = tuple(
        np.full(c, (hi - lo) / c) for (lo, hi), c in zip(box.axes, counts)
    )
    return Partition(breaks, widths, _make_tags(breaks, tag_rule, seed))


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

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(map(_read_only, self.breakpoints)))
        object.__setattr__(self, "axis_widths", tuple(map(_read_only, self.axis_widths)))

    @property
    def measures(self) -> np.ndarray:
        """Per-cell perturbed measures m(Ĩ_k), C-order, computed on each access."""
        return _cell_measures(self.axis_widths, 0, self.base.m)


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
    rng = np.random.default_rng(check_seed(seed))
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
    m-1-k (per axis) of the input. Grid tags map per axis, to ``-c[::-1]``.
    """
    breaks = tuple(-b[::-1] for b in p.breakpoints)
    widths = tuple(w[::-1].copy() for w in p.axis_widths)
    axes = p.tag_axes
    if axes is not None:
        tags = tuple(-c[::-1] for c in axes)
    else:
        flipped = -np.flip(p.tag_grid, axis=tuple(range(p.dim))).reshape(p.m, p.dim)
        tags = np.ascontiguousarray(flipped)
    return Partition(breaks, widths, tags)


def swap_axes_partition(p: Partition) -> Partition:
    """Swap the two axes of a 2D partition (for surface orientation flips).

    Widths and tags are carried over bitwise; cell (i, j) becomes cell
    (j, i) of the result. Grid tags swap their two coordinate arrays.
    """
    if p.dim != 2:
        raise DegenerateBox("axis swap is defined for 2D partitions")
    axes = p.tag_axes
    if axes is not None:
        tags = (axes[1], axes[0])
    else:
        swapped = p.tag_grid.transpose(1, 0, 2)[..., ::-1].reshape(p.m, 2)
        tags = np.ascontiguousarray(swapped)
    return Partition(
        (p.breakpoints[1], p.breakpoints[0]), (p.axis_widths[1], p.axis_widths[0]), tags
    )


# --- deletion plans ---------------------------------------------------------


@dataclass(frozen=True)
class FixedK:
    """Delete a fixed number of terms (clause-i schedules): an integer K >= 1."""

    k: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "k", operator.index(self.k))
        except TypeError:
            raise InvalidParameter(f"K must be an integer, got {self.k!r}") from None
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


@dataclass(frozen=True, eq=False)
class DeletionPlan:
    """Which sum terms are dropped: a size schedule plus an index selector.

    ``resolved``, None for an unbound plan, is the 0-based deleted index set: a
    read-only, ascending int64 array, normalised at construction (a hand-built
    set is sorted and its repeats dropped; one not 1-D integers is refused).
    """

    schedule: Schedule
    selector: Selector = Prefix()
    resolved: np.ndarray | None = None

    def __post_init__(self):
        if self.resolved is not None:
            idx = np.asarray(self.resolved)  # () is float64, and passes empty
            if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
                raise InvalidParameter(
                    f"deleted indices must be 1-D integers, got {idx.ndim}-D {idx.dtype}"
                )
            idx = idx.astype(np.int64, copy=False)
            if not np.all(idx[1:] > idx[:-1]):  # a selector's array is taken as it is
                idx = np.sort(idx)  # np.unique would import numpy.ma (1 MB)
                idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
            object.__setattr__(self, "resolved", _read_only(idx))


def _largest(terms: np.ndarray, k: int) -> np.ndarray:
    """Ascending positions of the ``k`` greatest |terms|, ties to the lowest
    position, nan ranked last. The rule is a strict total order, so the ``k``
    picked from the union of runs' own picks are the whole array's ``k``."""
    n = len(terms)
    if k >= n:
        return np.arange(n)
    mags = np.abs(terms)
    mags[np.isnan(mags)] = -1.0  # nan ranks last
    kth = np.partition(mags, n - k)[n - k]  # the k-th largest, in O(n)
    above = np.flatnonzero(mags > kth)
    ties = np.flatnonzero(mags == kth)[: k - len(above)]  # lowest positions win
    return np.sort(np.concatenate([above, ties]))


def select_indices(
    schedule: Schedule,
    selector: Selector,
    m: int,
    terms=None,
    is_equal: bool = True,
    at=None,
) -> np.ndarray:
    """Resolve a deleted index set over ``m`` terms: 0-based, in the read-only,
    ascending int64 array that ``DeletionPlan.resolved`` holds.

    Vanishing schedules (PowerLaw, Logarithmic) demand ``is_equal``,
    matching the theorems' clause-ii/iii equal-partition hypotheses.
    LargestTerm ranks ``terms``: all m of them or, given ``at``, the terms
    at the ascending indices ``at``, which must include the K largest.
    """
    if not isinstance(schedule, FixedK) and not is_equal:
        raise EqualPartitionRequired(
            "K(m) schedules require an equal partition (all cell measures equal)"
        )
    k = schedule_count(schedule, m)

    if isinstance(selector, Prefix):
        indices = np.arange(k)
    elif isinstance(selector, RandomPick):
        rng = np.random.default_rng(check_seed(selector.seed))
        indices = np.sort(rng.choice(m, size=k, replace=False))
    elif isinstance(selector, LargestTerm):
        if terms is None:
            raise MissingTerms("LargestTerm selection needs per-cell magnitudes")
        terms = np.asarray(terms, dtype=float).ravel()
        expected = m if at is None else len(at)
        if len(terms) != expected:
            raise MissingTerms(f"expected {expected} magnitudes, got {len(terms)}")
        indices = _largest(terms, k)
        if at is not None:
            indices = np.asarray(at)[indices]
    else:
        raise TypeError(f"unknown selector {selector!r}")
    return _read_only(indices)


def bind_deletion(plan: DeletionPlan, p: Partition, terms=None) -> DeletionPlan:
    """Resolve a plan's index set against a concrete partition.

    ``terms`` (per-cell term magnitudes) is required for the LargestTerm
    selector. ``resolved`` holds :func:`select_indices`' array as it is.
    """
    resolved = select_indices(
        plan.schedule, plan.selector, p.m, terms=terms, is_equal=p.is_equal
    )
    return replace(plan, resolved=resolved)
