"""Independent naive-loop references for the sum variants, and agreement
checks of analytic field, path and surface handles.

The references recompute terms one cell at a time with plain Python
floats, decode cell indices by hand, and accumulate with math.fsum, so they
share no code path with the vectorized implementations they check. Fields
used with these oracles should be polynomial (arithmetic only), keeping
scalar and vectorized evaluation bit-identical. The agreement checks
compare analytic derivative handles with finite differences of the
handles they differentiate. Earlier library forms are kept as references
for the forms that replaced them: the region pull-back as a field of its
own, the four line and surface integrand builders, the Stokes probe's curl
as a stored field, the reduction in one whole-array pass, and the
4th-order finite-difference stencil.
"""

from __future__ import annotations

import math

import numpy as np

from riemannlab import (
    Box,
    DimensionMismatch,
    ParametricRegion,
    ParametricSurface,
    Path,
    ScalarField,
    VectorField,
)
from riemannlab.fields import _FD_OFFSETS, _FD_WEIGHTS, _fd_partial
from riemannlab.summation import neumaier_sum


def unravel(k: int, counts) -> list[int]:
    idx = [0] * len(counts)
    for axis in range(len(counts) - 1, -1, -1):
        idx[axis] = k % counts[axis]
        k //= counts[axis]
    return idx


def naive_box_terms(f, partition, perturbation=None) -> list[float]:
    counts = partition.counts
    widths = [w.tolist() for w in partition.axis_widths]
    if perturbation is not None:
        widths = [w.tolist() for w in perturbation.axis_widths]
    terms = []
    for k in range(partition.m):
        idx = unravel(k, counts)
        measure = 1.0
        for axis, j in enumerate(idx):
            measure = measure * widths[axis][j]
        value = float(f(partition.tags[k]))
        terms.append(value * measure)
    return terms


def naive_line_terms(field, path, partition, perturbation=None, vector=False):
    widths = partition.measures.tolist()
    if perturbation is not None:
        widths = perturbation.measures.tolist()
    terms = []
    for k in range(partition.m):
        t = float(partition.tags[k, 0])
        pos = np.asarray(path.pos(t), dtype=float)
        vel = np.asarray(path.vel(t), dtype=float)
        if vector:
            fv = np.asarray(field(pos), dtype=float)
            dot = 0.0
            for a, b in zip(fv.tolist(), vel.tolist()):
                dot = dot + a * b
            terms.append(dot * widths[k])
        else:
            speed_sq = 0.0
            for component in vel.tolist():
                speed_sq = speed_sq + component * component
            terms.append(float(field(pos)) * math.sqrt(speed_sq) * widths[k])
    return terms


def naive_surface_terms(field, surface, partition, perturbation=None, vector=False):
    widths = partition.measures.tolist()
    if perturbation is not None:
        widths = perturbation.measures.tolist()
    terms = []
    for k in range(partition.m):
        uv = partition.tags[k]
        pos = np.asarray(surface.pos(uv), dtype=float)
        a = np.asarray(surface.du(uv), dtype=float).tolist()
        b = np.asarray(surface.dv(uv), dtype=float).tolist()
        normal = [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
        if vector:
            fv = np.asarray(field(pos), dtype=float).tolist()
            dot = 0.0
            for fc, nc in zip(fv, normal):
                dot = dot + fc * nc
            terms.append(dot * widths[k])
        else:
            norm_sq = 0.0
            for nc in normal:
                norm_sq = norm_sq + nc * nc
            terms.append(float(field(pos)) * math.sqrt(norm_sq) * widths[k])
    return terms


def naive_symdiff(base, perturbed) -> list[float]:
    """Per-cell m(I_k ^ I~_k) of a perturbation, one cell at a time.

    Cell measures are products of the stored axis widths of each side. On
    each axis the shared length is the overlap of the two segments: all of
    the base width when the segment did not move, else the length of the
    intersection, never more than either width. Then
    m(I ^ I~) = (m(I) - m(I & I~)) + (m(I~) - m(I & I~)).
    """
    breaks0 = [b.tolist() for b in base.breakpoints]
    breaks1 = [b.tolist() for b in perturbed.breakpoints]
    widths0 = [w.tolist() for w in base.axis_widths]
    widths1 = [w.tolist() for w in perturbed.axis_widths]
    out = []
    for k in range(base.m):
        m0 = m1 = shared = 1.0
        for axis, j in enumerate(unravel(k, base.counts)):
            lo0, hi0 = breaks0[axis][j], breaks0[axis][j + 1]
            lo1, hi1 = breaks1[axis][j], breaks1[axis][j + 1]
            w0, w1 = widths0[axis][j], widths1[axis][j]
            if (lo0, hi0) == (lo1, hi1):
                overlap = w0
            else:
                overlap = min(max(min(hi0, hi1) - max(lo0, lo1), 0.0), w0, w1)
            m0 = m0 * w0
            m1 = m1 * w1
            shared = shared * overlap
        out.append((m0 - shared) + (m1 - shared))
    return out


def per_cell_escaped_axis(tags, counts, breakpoints):
    """First axis on which some tag leaves its closed cell, or None, checked
    one cell at a time against that cell's segment on each axis (nan fails
    every comparison, so a nan tag escapes)."""
    breaks = [b.tolist() for b in breakpoints]
    cells = [unravel(k, counts) for k in range(math.prod(counts))]
    rows = np.asarray(tags, dtype=float).tolist()
    for axis, b in enumerate(breaks):
        for idx, tag in zip(cells, rows):
            j = idx[axis]
            if not b[j] <= tag[axis] <= b[j + 1]:
                return axis
    return None


def slab_scan_breakpoints(p, gamma, seed):
    """``perturb``'s jittered breakpoints before its collapse check, with each
    axis's slab tag extrema found by a scan over every cell. The draws and
    the clamp arithmetic are those of ``perturb``."""
    rng = np.random.default_rng(seed)
    mesh_sq = p.mesh**2
    cells = [unravel(k, p.counts) for k in range(p.m)]
    rows = p.tags.tolist()
    out = []
    for axis, (breaks, widths) in enumerate(zip(p.breakpoints, p.axis_widths)):
        count = len(widths)
        if count == 1:
            out.append(breaks.copy())
            continue
        h = gamma * min(mesh_sq, float(np.min(widths)) / 2.0)
        shifts = rng.uniform(-h, h, size=count - 1)
        slab_min, slab_max = [math.inf] * count, [-math.inf] * count
        for idx, tag in zip(cells, rows):
            j = idx[axis]
            slab_min[j] = min(slab_min[j], tag[axis])
            slab_max[j] = max(slab_max[j], tag[axis])
        interior = breaks[1:-1]
        lower = np.maximum(interior - h, np.array(slab_max[:-1]))
        upper = np.minimum(interior + h, np.array(slab_min[1:]))
        b = breaks.copy()
        b[1:-1] = np.clip(interior + shifts, lower, upper)
        out.append(b)
    return tuple(out)


# --- the per-cell tag array that partitions stored before grid tags stayed per axis


def _meshgrid_stack(per_axis) -> np.ndarray:
    """The Cartesian product of per-axis value arrays as one (m, dim) C-order
    array, by meshgrid and stack."""
    grids = np.meshgrid(*per_axis, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def grid_stack_tags(breakpoints, rule: str) -> np.ndarray:
    """Midpoint or corner tags as one (m, dim) C-order array, built by
    meshgrid and stack from the per-axis coordinates."""
    if rule == "midpoint":
        return _meshgrid_stack([(b[:-1] + b[1:]) / 2.0 for b in breakpoints])
    return _meshgrid_stack([b[:-1] for b in breakpoints])


def meshgrid_random_tags(breakpoints, seed: int) -> np.ndarray:
    """Random tags: each cell's low corner plus a uniform draw times its
    widths, the corners and widths built by meshgrid and stack."""
    lows = _meshgrid_stack([b[:-1] for b in breakpoints])
    widths = _meshgrid_stack([np.diff(b) for b in breakpoints])
    return lows + np.random.default_rng(seed).random(lows.shape) * widths


def flip_reflected_tags(tags, counts) -> np.ndarray:
    """The mirrored partition's tags: the tag grid flipped on every axis,
    then negated."""
    grid = tags.reshape(tuple(counts) + (len(counts),))
    flipped = -np.flip(grid, axis=tuple(range(len(counts))))
    return np.ascontiguousarray(flipped.reshape(tags.shape))


def transposed_swap_tags(tags, counts) -> np.ndarray:
    """The axis-swapped 2D partition's tags: the tag grid transposed, and
    each tag's two coordinates swapped."""
    grid = tags.reshape(tuple(counts) + (2,))
    return np.ascontiguousarray(grid.transpose(1, 0, 2)[..., ::-1].reshape(tags.shape))


def grid_scan_extents(tags, counts):
    """Per axis a, ``(lo, hi)``: the least and greatest a-coordinate over
    each a-segment's slab of the tag grid, by a min and max over every tag."""
    dim = len(counts)
    coords = np.moveaxis(tags.reshape(tuple(counts) + (dim,)), -1, 0)
    others = [tuple(j for j in range(dim) if j != a) for a in range(dim)]
    return tuple((c.min(axis=o), c.max(axis=o)) for c, o in zip(coords, others))


def mask_and_copy_sum(terms, deleted) -> tuple[float, float, int]:
    """``(value, residual, deleted_count)`` of a deleted sum the way the
    kernel used to take it: a keep mask drops the ``deleted`` indices, and
    the kept terms are copied out and reduced."""
    keep = np.ones(len(terms), dtype=bool)
    keep[np.asarray(deleted, dtype=int)] = False
    value, residual = neumaier_sum(terms[keep])
    return value, residual, int(len(terms) - keep.sum())


def whole_array_neumaier_sum(values) -> tuple[float, float]:
    """The reduction as it was before it ran in blocks: extraction passes
    over the whole array, then ``math.fsum`` of the pass sums and what is
    left, and the residual over one ``np.cumsum`` of the whole array."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return 0.0, 0.0
    parts = []
    y = x
    while y.size > 1024:
        top = max(y.max(), -y.min())
        if not 0.0 < top < math.inf:
            break
        e = math.frexp(top)[1] + math.frexp(y.size + 2)[1]
        if e > 1023 or e - 53 < -1022:
            break
        sigma = math.ldexp(1.0, e)
        high = (y + sigma) - sigma
        parts.append(float(high.sum()))
        low = y - high
        y = low[low != 0.0]
    try:
        total = math.fsum(parts + y.tolist())
    except (OverflowError, ValueError):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.cumsum(x)[-1]), 0.0
    return total, total - float(np.cumsum(x)[-1])


def naive_total(terms, deleted=()) -> float:
    dropped = set(deleted)
    return math.fsum(t for k, t in enumerate(terms) if k not in dropped)


def naive_magnitude(terms, deleted=()) -> float:
    dropped = set(deleted)
    return math.fsum(abs(t) for k, t in enumerate(terms) if k not in dropped)


def argsort_top_k(terms, k) -> tuple[int, ...]:
    """The LargestTerm rule by a full sort: a stable argsort of -|t| (nan
    last, ties to the lowest index), its first k indices, ascending."""
    order = np.argsort(-np.abs(np.asarray(terms, dtype=float)), kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


# --- random polynomial inputs (bitwise-safe under vectorization) -------------


def random_box(rng, dim):
    axes = []
    for _ in range(dim):
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.2, 2.5))
        axes.append((lo, hi))
    return axes


def random_poly_scalar(rng, dim, box_axes):
    """Quadratic polynomial field with a conservatively declared sup bound."""
    c0 = float(rng.uniform(-2, 2))
    lin = [float(rng.uniform(-2, 2)) for _ in range(dim)]
    quad = [float(rng.uniform(-2, 2)) for _ in range(dim)]

    def fn(p):
        out = np.full(p.shape[:-1], c0)
        for axis in range(dim):
            x = p[..., axis]
            out = out + lin[axis] * x + quad[axis] * (x * x)
        return out

    bound = abs(c0)
    for axis, (lo, hi) in enumerate(box_axes):
        big = max(abs(lo), abs(hi))
        bound += abs(lin[axis]) * big + abs(quad[axis]) * big * big
    return fn, bound


def random_poly_path(rng, dim_out=2):
    """Polynomial path on [0, 1] with exact velocity handle."""
    coeffs = [
        [float(rng.uniform(-1, 1)) for _ in range(3)] for _ in range(dim_out)
    ]

    def pos(t):
        t = np.asarray(t, dtype=float)
        comps = [c[0] + c[1] * t + c[2] * (t * t) for c in coeffs]
        return np.stack(comps, axis=-1)

    def vel(t):
        t = np.asarray(t, dtype=float)
        comps = [c[1] + 2.0 * c[2] * t for c in coeffs]
        return np.stack(np.broadcast_arrays(*comps), axis=-1)

    return pos, vel


def random_poly_surface(rng):
    """Graph surface (u, v, a*u + b*v + c*u*v) with exact partials."""
    a = float(rng.uniform(-1, 1))
    b = float(rng.uniform(-1, 1))
    c = float(rng.uniform(-1, 1))

    def pos(p):
        u, v = p[..., 0], p[..., 1]
        return np.stack([u, v, a * u + b * v + c * (u * v)], axis=-1)

    def du(p):
        u, v = p[..., 0], p[..., 1]
        one = np.ones(p.shape[:-1])
        zero = np.zeros(p.shape[:-1])
        return np.stack([one, zero, a + c * v], axis=-1)

    def dv(p):
        u, v = p[..., 0], p[..., 1]
        one = np.ones(p.shape[:-1])
        zero = np.zeros(p.shape[:-1])
        return np.stack([zero, one, b + c * u], axis=-1)

    return pos, du, dv


# --- earlier forms the library replaced ------------------------------------------


def region_integrand(f: ScalarField, region: ParametricRegion) -> ScalarField:
    """Pull f back to the parameter box: g = f(mapping(params)) * jac_det."""
    if f.dim != region.dim:
        raise DimensionMismatch(f"field dim {f.dim} != region dim {region.dim}")
    return ScalarField(
        dim=region.param_box.dim,
        fn=lambda params: np.asarray(f(region.mapping(params)), dtype=float)
        * np.asarray(region.jac_det(params), dtype=float),
    )


# The four line and surface integrand builders that ``curve_surface.pull_back``
# replaced, each with the partition and input-dim check they shared.


def _check_piece(piece, partition, field_dim: int):
    kind = "path" if isinstance(piece, Path) else "surface"
    domain = Box((piece.domain,)) if kind == "path" else piece.domain
    if partition.parent.axes != domain.axes:
        raise DimensionMismatch(f"partition must cover the {kind} domain")
    codim = piece.codim if kind == "path" else 3
    if field_dim != codim:
        raise DimensionMismatch(f"field dim {field_dim} != {kind} codomain {codim}")


def scalar_line_integrand(f: ScalarField, path: Path, partition):
    """Row-wise f(x(t*_k)) ||x'(t*_k)|| of a slab of tags (no widths applied)."""
    _check_piece(path, partition, f.dim)

    def integrand(tags):
        t = tags[:, 0]
        values = np.asarray(f(path.pos(t)), dtype=float)
        speed = np.sqrt(np.sum(np.asarray(path.vel(t), float) ** 2, axis=-1))
        return values * speed

    return integrand


def line_dots(F: VectorField, path: Path, partition):
    """Row-wise F(x(t*_k)) . x'(t*_k) of a slab of tags (no widths applied)."""
    _check_piece(path, partition, F.dim_in)

    def integrand(tags):
        t = tags[:, 0]
        return np.sum(
            np.asarray(F(path.pos(t)), float) * np.asarray(path.vel(t), float), axis=-1
        )

    return integrand


def scalar_surface_integrand(f: ScalarField, surface: ParametricSurface, partition):
    """Row-wise columns f(X(xi_k)) ||N(xi_k)|| and ||N(xi_k)|| of a slab of tags."""
    _check_piece(surface, partition, f.dim)

    def integrand(xi):
        norms = np.sqrt(np.sum(surface.normal(xi) ** 2, axis=-1))
        values = np.asarray(f(surface.pos(xi)), dtype=float)
        return np.stack([values * norms, norms], axis=-1)

    return integrand


def surface_dots(F: VectorField, surface: ParametricSurface, partition):
    """Row-wise F(X(xi_k)) . N(xi_k) of a slab of tags (no widths applied)."""
    _check_piece(surface, partition, F.dim_in)

    def integrand(xi):
        return np.sum(np.asarray(F(surface.pos(xi)), float) * surface.normal(xi), axis=-1)

    return integrand


# The Stokes orientation probe's curl, (0, 0, 1) everywhere, as a field.
DISK_PROBE_CURL = VectorField(
    3, 3, lambda p: np.broadcast_to(np.array([0.0, 0.0, 1.0]), p.shape).copy()
)


def estimate_bits(est) -> tuple:
    """Every field of a sum estimate, floats as their bytes."""
    floats = (est.value, est.mesh, est.symdiff_total, est.compensation_residual)
    return est.variant, est.m, est.deleted_count, np.array(floats).tobytes()


# --- agreement checks of analytic handles against differences -----------------


def _sample_box(box: Box, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in box.axes])
    highs = np.array([hi for _, hi in box.axes])
    return lows + rng.random((n, box.dim)) * (highs - lows)


def per_offset_fd_partial(fn, x: np.ndarray, axis: int, component=None):
    """The library's central difference one offset at a time: a copy of the
    points and a call of ``fn`` per offset, every component weighted, and
    ``component`` taken from the whole partial."""
    return _offset_fd_partial(fn, x, axis, component, _FD_OFFSETS, _FD_WEIGHTS)


def four_point_fd_partial(fn, x: np.ndarray, axis: int, component=None):
    """The 4th-order central difference the library used before its two-point
    stencil (offsets -2, -1, 1, 2 times the same step h), kept as the
    accuracy reference the two-point stencil must not fall behind."""
    return _offset_fd_partial(
        fn, x, axis, component, (-2.0, -1.0, 1.0, 2.0),
        (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0),
    )


def _offset_fd_partial(fn, x, axis, component, offsets, weights):
    if component is not None:
        return _offset_fd_partial(fn, x, axis, None, offsets, weights)[..., component]
    h = np.maximum(1e-6, 1e-6 * np.abs(x[..., axis]))
    acc = None
    for off, w in zip(offsets, weights):
        shifted = x.copy()
        shifted[..., axis] = x[..., axis] + off * h
        val = np.asarray(fn(shifted), dtype=float) * w
        acc = val if acc is None else acc + val
    if acc.ndim > h.ndim:  # vector-valued fn: divide per component
        return acc / h[..., None]
    return acc / h


def gradient_deviation(f: ScalarField, box: Box, n: int = 1000, seed: int = 0) -> float:
    """Max componentwise |analytic - FD| / (1 + |analytic|) over a sample."""
    pts = _sample_box(box, n, seed)
    analytic = np.asarray(f.grad(pts), dtype=float)
    fd = np.stack([_fd_partial(f.fn, pts, a) for a in range(f.dim)], axis=-1)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))


def path_velocity_deviation(path: Path, n: int = 100, seed: int = 0) -> float:
    """Max |vel - central FD of pos| / (1 + |vel|) at random parameters."""
    a, b = path.domain
    rng = np.random.default_rng(seed)
    h = 1e-6
    t = a + h + rng.random(n) * ((b - a) - 2 * h)
    vel = np.asarray(path.vel(t), dtype=float)
    fd = (np.asarray(path.pos(t + h), float) - np.asarray(path.pos(t - h), float)) / (
        2 * h
    )
    return float(np.max(np.abs(vel - fd) / (1.0 + np.abs(vel))))


def surface_partial_deviation(
    surface: ParametricSurface, n: int = 100, seed: int = 0
) -> float:
    """Max deviation of du/dv handles from central FD of pos."""
    pts = _sample_box(surface.domain, n, seed)
    h = 1e-6
    worst = 0.0
    for axis, handle in ((0, surface.du), (1, surface.dv)):
        hi = pts.copy()
        lo = pts.copy()
        hi[:, axis] += h
        lo[:, axis] -= h
        fd = (
            np.asarray(surface.pos(hi), float) - np.asarray(surface.pos(lo), float)
        ) / (2 * h)
        an = np.asarray(handle(pts), dtype=float)
        worst = max(worst, float(np.max(np.abs(an - fd) / (1.0 + np.abs(an)))))
    return worst


def min_interior_normal(
    surface: ParametricSurface, n: int = 1000, seed: int = 0
) -> float:
    """Smallest ||N|| over a random interior sample (regularity probe)."""
    pts = _sample_box(surface.domain, n, seed)
    norms = np.sqrt(np.sum(surface.normal(pts) ** 2, axis=-1))
    return float(np.min(norms))
