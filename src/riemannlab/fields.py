"""Scalar/vector fields, paths, surfaces, regions, and derivative operators.

Evaluation handles are plain callables written against numpy: they accept a
single point of shape (n,) or a batch of shape (m, n) and return matching
scalars/vectors (use ``p[..., i]`` indexing and ``np.stack(..., axis=-1)``
so both shapes work). Handles must be pure and row-wise: row i of a batch's
result depends only on row i of its input, so evaluating a batch in slabs
gives the same values as evaluating it whole. Every constructed object is
immutable and safe to evaluate from many threads.

The kernel, :func:`riemannlab.quadrature.pieces_sum`, evaluates every sum's
integrand at a partition's tags with :func:`_rowwise`: in C-order slabs, each
built where it is evaluated. The caller times the first slab, of at most
``_SLAB_ROWS`` tags; when it was cheap and many slabs are left, the later
slabs are up to ``_GROW_MAX`` times as long, so their fixed cost per slab is
paid less often. The caller and helper threads that live for that one
evaluation share the later slabs. The kernel's slab function gets a slab's
tags, its bounds and its rows of the output, so it can weight the slab by
its own cell measures straight into one output array. Helpers come from the
process's one pool (:mod:`riemannlab._pool`), which the reductions share: a
sum that finds every slot taken runs its slabs itself, and every helper
runs under its caller's numpy error state. Row-wise results do not depend
on where a slab starts, so the values do not depend on the slab bounds, the
thread count, the first slab's timing or the schedule.

Derivatives fall back to the two-point central difference
``(f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i)`` with per-axis step
``h_i = max(1e-6, 1e-6 * |x_i|)`` when no analytic handle is supplied. At
that step rounding, about ``eps * |f| * sum|w| / h``, limits every stencil
near the unit scale, and this one has the smaller weight sum (1, against
1.5 for the 4th-order stencil on offsets -2, -1, 1, 2), while its
truncation error, ``h**2 |f'''| / 6``, is about 1e-13 there: it is the
closer of the two at half the field calls. Truncation passes rounding
where ``|f'''| / |f| > 3 eps / h**3`` (660 at h = 1e-6, 0.66 at |x_i| = 10),
and even there the error stays near 1e-9 relative. Each axis takes one call
of the field, on the 2 shifted copies of the points stacked into one batch,
so no point is farther than ``h_i`` from its tag. Only the components an
operator keeps are weighted: :func:`divergence` and :func:`plane_curl` keep
one per axis. By the row-wise contract the one call gives the values of 2,
so the results are bit-equal to one copy and one call per offset.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _pool
from .errors import DimensionMismatch
from .geometry import Box, Partition


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Bounded real-valued function on R^dim.

    ``bound_M``, when given, must dominate |f| on the domain of use; the
    bound-inequality test suites only run for fields that declare it.
    """

    dim: int
    fn: Callable
    grad: Callable | None = None
    bound_M: float | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class VectorField:
    """Vector-valued field; components (P, Q) in 2D, (f1, f2, f3) in 3D.

    Optional analytic handles: ``div`` matches :func:`divergence`; ``curl``
    returns the 3-vector curl for ``dim_in == 3`` and the plane scalar
    dQ/dx - dP/dy for ``dim_in == 2``.
    """

    dim_in: int
    dim_out: int
    fn: Callable
    div: Callable | None = None
    curl: Callable | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class Path:
    """C^1 path t -> x(t) on [a, b] with velocity handle x'(t)."""

    domain: tuple[float, float]
    pos: Callable
    vel: Callable
    closed: bool = False

    @property
    def codim(self) -> int:
        """Dimension of the ambient space the path maps into."""
        return int(np.atleast_1d(self.pos(self.domain[0])).shape[-1])


@dataclass(frozen=True, eq=False)
class ParametricSurface:
    """Smooth parametrized surface X(u, v) in R^3 over a 2D box."""

    domain: Box
    pos: Callable
    du: Callable
    dv: Callable

    def normal(self, uv) -> np.ndarray:
        """N(u,v) = dX/du x dX/dv, unnormalized."""
        uv = np.asarray(uv, dtype=float)
        return np.cross(self.du(uv), self.dv(uv))


@dataclass(frozen=True, eq=False)
class ParametricRegion:
    """Image of a parameter box under an orientation-preserving map.

    ``jac_det`` must be the nonnegative Jacobian determinant |det DPhi| on
    the parameter box; area/volume integrals over the region reduce to box
    sums of ``f(mapping(params)) * jac_det(params)``. ``boundary`` holds
    Paths (dim 2, region on the left) or ParametricSurfaces (dim 3, outward
    normals); the declared orientation is verified by probe-field sign
    checks in the theorem drivers.
    """

    dim: int
    param_box: Box
    mapping: Callable
    jac_det: Callable
    boundary: tuple = ()


# --- slab-parallel evaluation ------------------------------------------------

_SLAB_ROWS = 8192  # rows of a first slab: the integrand's temporaries stay cache-sized
# A first slab that took less than _GROW_TARGET_S seconds makes the other
# slabs of its sum up to _GROW_MAX times as long (see _rowwise).
_GROW_TARGET_S = 1e-3
_GROW_MAX = 4


def _rowwise(fn: Callable, p: Partition, out: np.ndarray | None = None) -> np.ndarray:
    """``fn(rows, start, stop, dest)`` of every slab of the partition ``p``,
    joined in C-order into ``out`` (p.m rows), or into a new float array.

    Each slab (``Partition.tag_slabs``) is built where it is evaluated, so no
    (m, dim) tag array is made. ``fn`` gets the slab's tags,
    ``tags[start:stop]``, its bounds, and ``dest``: the output's rows
    ``start:stop``, or None for the first slab of a new output. Its result
    fills ``dest`` (a scalar is broadcast), unless it is ``dest`` itself,
    which ``fn`` may fill in place. The caller evaluates the first slab, of
    at most ``_SLAB_ROWS`` tags, alone and times it. Its result is the whole
    when it is the only slab and no ``out`` is given; a new output takes its
    trailing shape. The rest are cut again into runs of ``s`` times its rows,
    ``s = min(_GROW_MAX, _GROW_TARGET_S / took)`` rounded down, whole blocks
    of the same ``rows`` builder, when ``s`` is 2 or more and the rest holds
    more than ``s`` slabs: a cheap integrand then pays a slab's fixed cost
    less often, and a short sum, whose rest one grown slab would hold, keeps
    its slabs and their memory. Then the caller and one ``riemannlab-slab``
    helper per slot it gets from :func:`riemannlab._pool.start` take the
    other slabs in order. Slots are taken without waiting, at most one per
    slab beyond the caller's next: a sum that finds none free (one nested in
    a handle, a concurrent caller's, any sum with one usable CPU) takes every
    slab itself. Every helper is joined before the result returns, and the
    exception of the lowest failing slab propagates as raised.
    """
    bounds, rows = p.tag_slabs(_SLAB_ROWS)
    first_stop = bounds[0][1]
    dest = None if out is None else out[:first_stop]
    began = time.perf_counter()
    first = fn(rows(0, first_stop), 0, first_stop, dest)
    took = time.perf_counter() - began
    if out is None:
        first = np.asarray(first, dtype=float)
        if len(bounds) == 1:
            return first
        out = np.empty((p.m,) + first.shape[1:])
        dest = out[:first_stop]
    if first is not dest:
        dest[...] = first
    del first, dest
    rest = bounds[1:]
    if not rest:
        return out
    grow = int(min(_GROW_MAX, _GROW_TARGET_S / max(took, 1e-9)))  # 1 ns: the clock's tick
    if len(rest) > grow > 1:  # the rest still makes two or more grown slabs
        step = first_stop * grow  # first_stop is whole blocks: it is not the last slab
        rest = [(start, min(start + step, p.m)) for start in range(first_stop, p.m, step)]
    slabs = iter(rest)
    take = threading.Lock()
    failures = {}  # slab start -> its exception

    def drain() -> None:
        # Slabs are taken in order, so once one has failed every lower slab
        # is already taken, and taking no more keeps the lowest failure.
        while not failures:
            with take:
                slab = next(slabs, None)
            if slab is None:
                return
            start, stop = slab
            dest = out[start:stop]
            try:
                got = fn(rows(start, stop), start, stop, dest)
                if got is not dest:
                    dest[...] = got
            except Exception as exc:
                failures[start] = exc

    joins = []
    while len(joins) < len(rest) - 1:
        join = _pool.start(drain, "riemannlab-slab")
        if join is None:
            break
        joins.append(join)
    drain()
    for join in joins:
        join()
    if failures:
        raise failures[min(failures)]
    return out


# --- finite differences -----------------------------------------------------

_FD_OFFSETS = (-1.0, 1.0)
_FD_WEIGHTS = (-0.5, 0.5)


def _fd_partial(fn, x: np.ndarray, axis: int, component=None):
    """Two-point central difference of ``fn`` along ``axis`` at points x,
    with step ``h = max(1e-6, 1e-6 * |x[..., axis]|)`` (see the module note).

    ``fn`` is called once, on the 2 shifted copies of ``x`` (``x -+ h`` on
    ``axis``) stacked into ``(2 * rows, n)`` rows; by the row-wise contract
    that equals 2 calls.
    With ``component`` only that component of a vector ``fn`` is weighted,
    added in offset order and divided by h, which gives the bits of the
    same component of the whole partial.
    """
    h = np.maximum(1e-6, 1e-6 * np.abs(x[..., axis]))
    shifted = np.empty((len(_FD_OFFSETS),) + x.shape)
    shifted[...] = x
    for copy, off in zip(shifted, _FD_OFFSETS):
        copy[..., axis] += off * h
    flat = shifted.reshape(-1, x.shape[-1])
    vals = np.asarray(fn(flat), dtype=float)
    if vals.ndim == 0:  # a constant fn: one value for every row
        vals = np.broadcast_to(vals, flat.shape[:1])
    vals = vals.reshape(shifted.shape[:-1] + vals.shape[1:])
    if component is not None:
        vals = vals[..., component]
    # ``vals`` may be a view of ``shifted``; neither is written from here on.
    acc = vals[0] * _FD_WEIGHTS[0]
    for val, w in zip(vals[1:], _FD_WEIGHTS[1:]):
        acc += val * w
    acc /= h[..., None] if acc.ndim > h.ndim else h  # per component of a vector fn
    return acc


def gradient(f: ScalarField, x) -> np.ndarray:
    """Gradient of f at x; analytic handle when present, else differences."""
    x = np.asarray(x, dtype=float)
    if f.grad is not None:
        return np.asarray(f.grad(x), dtype=float)
    parts = [_fd_partial(f.fn, x, axis) for axis in range(f.dim)]
    return np.stack(parts, axis=-1)


def divergence(F: VectorField, x):
    """Sum of the diagonal partials of F at x."""
    if F.dim_out != F.dim_in:
        raise DimensionMismatch("divergence requires a square vector field")
    x = np.asarray(x, dtype=float)
    if F.div is not None:
        return np.asarray(F.div(x), dtype=float)
    out = None
    for axis in range(F.dim_in):
        part = _fd_partial(F.fn, x, axis, axis)
        out = part if out is None else out + part
    return out


def curl(F: VectorField, x) -> np.ndarray:
    """Curl of a 3D field at x (the determinant expansion of nabla x F)."""
    if F.dim_in != 3 or F.dim_out != 3:
        raise DimensionMismatch("curl requires a 3D vector field")
    x = np.asarray(x, dtype=float)
    if F.curl is not None:
        return np.asarray(F.curl(x), dtype=float)
    d = [_fd_partial(F.fn, x, axis) for axis in range(3)]  # d[j][..., k] = dF_k/dx_j
    return np.stack(
        [
            d[1][..., 2] - d[2][..., 1],
            d[2][..., 0] - d[0][..., 2],
            d[0][..., 1] - d[1][..., 0],
        ],
        axis=-1,
    )


def plane_curl(F: VectorField, x):
    """dQ/dx - dP/dy of a 2D field (P, Q): the Green's-theorem integrand."""
    if F.dim_in != 2 or F.dim_out != 2:
        raise DimensionMismatch("plane_curl requires a 2D vector field")
    x = np.asarray(x, dtype=float)
    if F.curl is not None:
        return np.asarray(F.curl(x), dtype=float)
    dq_dx = _fd_partial(F.fn, x, 0, 1)
    dp_dy = _fd_partial(F.fn, x, 1, 0)
    return dq_dx - dp_dy


# --- orientation helpers ----------------------------------------------------


def reverse_path(path: Path) -> Path:
    """Traverse a path in the opposite direction.

    The reversed path is parametrized over [-b, -a] by t -> pos(-t), so the
    parameter reflection is exact in floating point and reversed sums negate
    the original term-for-term at matched tags.
    """
    a, b = path.domain
    return Path(
        domain=(-b, -a),
        pos=lambda t: path.pos(-np.asarray(t, dtype=float)),
        vel=lambda t: -np.asarray(path.vel(-np.asarray(t, dtype=float)), dtype=float),
        closed=path.closed,
    )


def swap_surface(surface: ParametricSurface) -> ParametricSurface:
    """Swap the (u, v) parameters, flipping the surface orientation."""
    dom = surface.domain
    return ParametricSurface(
        domain=Box((dom.axes[1], dom.axes[0])),
        pos=lambda uv: surface.pos(np.asarray(uv, dtype=float)[..., ::-1]),
        du=lambda uv: surface.dv(np.asarray(uv, dtype=float)[..., ::-1]),
        dv=lambda uv: surface.du(np.asarray(uv, dtype=float)[..., ::-1]),
    )

