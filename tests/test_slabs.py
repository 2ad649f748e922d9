"""Slab-parallel integrand evaluation gives the bits of one whole-array call.

``fields._rowwise`` splits a partition's cells into slabs, a first one of at
most ``_SLAB_ROWS`` tags and later ones grown when the first was cheap, and
fills one output with helper threads; a partition's grid tags are built slab
by slab. The reference is one call on the whole tag array, ``p.tags``;
setting ``_SLAB_ROWS`` to infinity makes every evaluation one call, which
the slabbed results must match bit for bit.
The theorem checks at the benchmark's resolutions must also match the same
checks with their finite differences taken one offset at a time.
"""

import math
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from riemannlab import (
    Box,
    FixedK,
    LargestTerm,
    Partition,
    RandomPick,
    ScalarField,
    VariantSpec,
    VectorField,
    _pool,
    evaluate_scenario,
    fields,
    gauss_check,
    green_check,
    make_uniform_partition,
    stokes_check,
    summation,
    variant_sum,
)
from riemannlab.fields import _SLAB_ROWS, _rowwise
from riemannlab.scenarios import (
    BALL_REGION,
    CIRCLE_2D,
    CIRCLE_3D,
    CUBE_REGION,
    DISK_REGION,
    HEMISPHERE,
    get_scenario,
    scenario_names,
)
from riemannlab.summation import _BLOCK, neumaier_sum

from oracles import grid_stack_tags, per_offset_fd_partial

SIZES = [_SLAB_ROWS - 1, _SLAB_ROWS, _SLAB_ROWS + 1, 3 * _SLAB_ROWS + 5]


def _scalar(p):
    return np.sin(p[..., 0]) * np.exp(p[..., 1])


def _vector(p):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([np.sin(y) + x * np.cos(z), np.exp(0.5 * z) * y, np.sin(x * y)], axis=-1)


def _slabbed(fn, p):
    """``fn`` of every tag of ``p``, a slab at a time."""
    return _rowwise(lambda rows, start, stop, dest: fn(rows), p)


def _random_tags(n, dim, seed=0, lo=-2.0, hi=2.0):
    """A partition of n cells in a row along axis 0, with random tags."""
    counts = (n,) + (1,) * (dim - 1)
    return make_uniform_partition(Box(((lo, hi),) * dim), counts, "random", seed)


CASES = {
    "scalar": (_scalar, 2),
    "vector": (_vector, 3),
    "path-parameter": (lambda t: CIRCLE_2D.pos(t[..., 0]), 1),  # (n, 2) output
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_slabs_match_one_whole_array_call(case, n):
    fn, dim = CASES[case]
    p = _random_tags(n, dim, seed=n)
    whole = np.asarray(fn(p.tags), dtype=float)
    slabbed = _slabbed(fn, p)
    assert slabbed.shape == whole.shape
    assert slabbed.tobytes() == whole.tobytes()


def test_a_float_for_a_partition_is_broadcast():
    p = _random_tags(3 * _SLAB_ROWS + 5, 2)
    out = _slabbed(lambda q: 2.5, p)
    assert out.shape == (p.m,) and np.all(out == 2.5)
    p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), 100)  # 10^4 cells
    assert variant_sum(ScalarField(2, lambda q: 2.5), p).value == math.fsum(
        (2.5 * p.measures).tolist()
    )


# counts -> the slab sizes: equal runs of whole trailing blocks, which may
# cross the leading indices, and a shorter last run. The trailing block of
# the slab axis lies below, at or above a slab.
GRID_SLABS = {
    (4, 7, 300): [3 * 2100, 2100],  # runs of whole 2100-cell blocks along axis 0
    (3, _SLAB_ROWS): [_SLAB_ROWS] * 3,  # one block is one slab
    (3, 10000): [_SLAB_ROWS] * 3 + [30000 - 3 * _SLAB_ROWS],  # blocks of one cell
    (2, 5, 9000): [_SLAB_ROWS] * 10 + [90000 - 10 * _SLAB_ROWS],
    (96, 96, 96): [85 * 96] * 108 + [96**3 - 108 * 85 * 96],  # 109 slabs, not 192
}


@pytest.mark.parametrize("rule", ["midpoint", "corner"])
@pytest.mark.parametrize("counts", sorted(GRID_SLABS), ids=str)
def test_grid_tag_slabs_match_one_whole_array_call(counts, rule):
    box = Box(tuple((-1.0, 0.5 + a) for a in range(len(counts))))
    p = make_uniform_partition(box, counts, rule)
    bounds, _ = p.tag_slabs(_SLAB_ROWS)
    assert [b - a for a, b in bounds] == GRID_SLABS[counts]
    fn = _scalar if len(counts) == 2 else _vector
    whole = np.asarray(fn(grid_stack_tags(p.breakpoints, rule)), dtype=float)
    assert _slabbed(fn, p).tobytes() == whole.tobytes()


def test_sums_never_materialise_grid_tags(monkeypatch):
    stored_tags = Partition.tags.fget

    def tags(p):
        assert p.tag_axes is None, "a grid partition's tag array was built"
        return stored_tags(p)

    monkeypatch.setattr(Partition, "tags", property(tags))
    specs = [VariantSpec(), VariantSpec("combined", FixedK(2), LargestTerm(), 0.5, 3)]
    for name in scenario_names():
        for spec in specs:
            evaluate_scenario(get_scenario(name), 12, spec)
    p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), (3 * _SLAB_ROWS + 5, 2))
    variant_sum(ScalarField(2, _scalar), p)


# A sum's peak above its one m-term array: the reduction's blocks and the
# slabs in flight (a slab's tags, its values, measures and temporaries).
BLOCK_BYTES = 2**21
SLAB_BYTES = 8 * 8 * _SLAB_ROWS


def test_a_full_sum_holds_one_cell_array_at_its_peak():
    """The terms, plus the reduction's blocks and the slabs in flight; the
    2^20 grid tags (16 MiB) are never built."""
    tracemalloc.start()
    try:
        p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), 1024)
        variant_sum(ScalarField(2, _scalar), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p.m + BLOCK_BYTES + _pool.usable_cpus() * SLAB_BYTES


BOX_SPECS = {  # the benchmark's six variant/selector mixes
    "full": VariantSpec(),
    "deleted-random": VariantSpec("deleted", FixedK(8), RandomPick(3)),
    "deleted-largest": VariantSpec("deleted", FixedK(8), LargestTerm()),
    "perturbed": VariantSpec("perturbed", gamma=0.5, seed=3),
    "combined-random": VariantSpec("combined", FixedK(8), RandomPick(3), 0.5, 3),
    "combined-largest": VariantSpec("combined", FixedK(8), LargestTerm(), 0.5, 3),
}


@pytest.mark.parametrize("counts", [(1024, 1024), (96, 96, 96)], ids=["1024^2", "96^3"])
@pytest.mark.parametrize("mix", sorted(BOX_SPECS))
def test_a_deleted_sum_holds_no_more_than_a_full_sum(mix, counts):
    """Every variant holds one m-term array: measures are built per slab,
    deleted terms are overwritten in place, and LargestTerm ranks each
    slab's base terms as it is evaluated. The sum runs once untraced first,
    so that one-time imports (``numpy.random``) do not count."""
    p = make_uniform_partition(Box(((0.0, 1.0),) * len(counts)), counts)
    f = ScalarField(len(counts), _scalar if len(counts) == 2 else lambda q: _vector(q)[:, 0])
    variant_sum(f, p, BOX_SPECS[mix])
    tracemalloc.start()
    try:
        variant_sum(f, p, BOX_SPECS[mix])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p.m + BLOCK_BYTES + _pool.usable_cpus() * SLAB_BYTES


class SlabFailure(Exception):
    pass


@pytest.mark.parametrize("first_bad", [0, 2])
def test_lowest_failing_slab_propagates_as_raised(first_bad, monkeypatch):
    # Cell k of a unit-width row has its random tag in [k, k + 1). Grown,
    # the second slab holds blocks 1 to 4 of 8192 rows.
    p = _random_tags(6 * _SLAB_ROWS, 1, lo=0.0, hi=6.0 * _SLAB_ROWS)

    def fn(q):  # row-wise: any row of a block from first_bad on fails
        blocks = q[:, 0] // _SLAB_ROWS
        bad = blocks[blocks >= first_bad]
        if bad.size:
            raise SlabFailure(f"block {int(bad.min())}")
        return q[:, 0]

    for target in (math.inf, 0.0):  # later slabs grown, or 8192 rows as the first
        monkeypatch.setattr(fields, "_GROW_TARGET_S", target)
        with pytest.raises(SlabFailure, match=f"^block {first_bad}$"):
            _slabbed(fn, p)


HELPERS = ("riemannlab-slab", "riemannlab-sum")  # slab and reduction helpers


def _helpers_at_work(*fns):
    """``fns`` wrapped, and a list whose one entry becomes the most helper
    threads (``HELPERS``) seen inside any of them at once. A wrapped call
    sleeps 1 ms, so helpers that run at the same time overlap there."""
    lock = threading.Lock()
    depth = {}  # helper thread -> how many wrapped calls it is inside
    most = [0]

    def wrap(fn):
        def counted(q):
            me = threading.current_thread()
            if me.name not in HELPERS:
                return fn(q)
            with lock:
                depth[me] = depth.get(me, 0) + 1
                most[0] = max(most[0], len(depth))
            try:
                time.sleep(1e-3)
                return fn(q)
            finally:
                with lock:
                    depth[me] -= 1
                    if not depth[me]:
                        del depth[me]

        return counted

    return [wrap(fn) for fn in fns], most


def _helper_starts(monkeypatch):
    """A list of every helper thread (``HELPERS``) started, with slab growth
    off, so that inputs of a few ``_SLAB_ROWS`` keep their slabs and their
    helpers."""
    monkeypatch.setattr(fields, "_GROW_TARGET_S", 0.0)
    started = []
    start = threading.Thread.start

    def counted(thread):
        if thread.name in HELPERS:
            started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _free_slots() -> int:
    taken = 0
    while taken < _pool.usable_cpus() and _pool._slots.acquire(blocking=False):
        taken += 1
    for _ in range(taken):
        _pool._slots.release()
    return taken


def test_concurrent_callers_never_run_more_helpers_than_spare_cpus(monkeypatch):
    started = _helper_starts(monkeypatch)
    (counted, plain_sum), most = _helpers_at_work(_scalar, summation._plain_sum)
    monkeypatch.setattr(summation, "_plain_sum", plain_sum)
    # more callers than cores, each evaluating and then reducing above two blocks
    inputs = [_random_tags(2 * _BLOCK + 1 + i, 2, seed=i)
              for i in range(2 * _pool.usable_cpus() + 2)]
    results = [None] * len(inputs)

    def call(i):
        values = _slabbed(counted, inputs[i])
        results[i] = values, neumaier_sum(values)[0]

    callers = [
        threading.Thread(target=call, args=(i,), daemon=True) for i in range(len(inputs))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert most[0] <= _pool.usable_cpus() - 1
    assert {t.name for t in started} == set(HELPERS) or _pool.usable_cpus() < 2
    for p, (got, total) in zip(inputs, results):
        assert got.tobytes() == _scalar(p.tags).tobytes()
        assert total == math.fsum(got.tolist())
    assert _free_slots() == _pool.usable_cpus() - 1


def test_a_handle_that_sums_in_a_helper_thread_returns(monkeypatch):
    started = _helper_starts(monkeypatch)
    inner_p = make_uniform_partition(Box(((0.0, 1.0),)), 3 * _SLAB_ROWS + 1)  # 4 slabs

    def handle(p):  # every outer slab runs a slabbed sum of its own
        return p[..., 0] * variant_sum(inner_f, inner_p).value

    (inner_fn, outer_fn), most = _helpers_at_work(lambda t: np.cos(t[..., 0]), handle)
    inner_f = ScalarField(1, inner_fn)
    # More outer slabs than spare CPUs, so every helper nests.
    outer = make_uniform_partition(Box(((0.0, 1.0),)), (_pool.usable_cpus() + 2) * _SLAB_ROWS)
    result = []
    runner = threading.Thread(
        target=lambda: result.append(variant_sum(ScalarField(1, outer_fn), outer)),
        daemon=True,
    )
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "nested slab evaluation deadlocked"
    assert most[0] <= _pool.usable_cpus() - 1
    assert started or _pool.usable_cpus() < 2
    inner = variant_sum(inner_f, inner_p).value
    expected = math.fsum((outer.tags[:, 0] * inner * outer.measures).tolist())
    assert result[0].value == expected


def test_no_helper_thread_outlives_its_sum(monkeypatch):
    started = _helper_starts(monkeypatch)
    f = ScalarField(2, _scalar)
    # 17 slabs, and terms above two blocks: slab and reduction helpers
    p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), (512, 257))
    value = variant_sum(f, p).value
    assert {t.name for t in started} == set(HELPERS) or _pool.usable_cpus() < 2
    assert not [t for t in threading.enumerate() if t.name in HELPERS]
    assert _free_slots() == _pool.usable_cpus() - 1

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    # A helper that cannot start gives its slot back, and the caller drains
    # and reduces alone.
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert variant_sum(f, p).value == value
    assert _free_slots() == _pool.usable_cpus() - 1


@pytest.mark.parametrize("rows", [_SLAB_ROWS, 1000])
@pytest.mark.parametrize("helpers", [True, False], ids=["slots-free", "slots-taken"])
def test_helpers_divide_under_the_callers_numpy_error_state(helpers, rows, monkeypatch):
    """numpy 2 keeps its error state in a context variable, which a new
    thread does not inherit. A zero divisor in a late slab must raise under
    ``np.errstate(divide="raise")`` whichever thread evaluates that slab."""
    started = _helper_starts(monkeypatch)
    monkeypatch.setattr(fields, "_SLAB_ROWS", rows)
    if not helpers:
        monkeypatch.setattr(_pool, "_slots", threading.BoundedSemaphore(0))
    p = make_uniform_partition(Box(((0.0, 1.0),)), 200_000, "corner")
    c = float(p.tags[150_000, 0])
    states = set()

    def f(t):
        states.add(np.geterr()["divide"])
        time.sleep(1e-4)  # so that a helper takes slabs before the caller meets c
        return 1.0 / (t[..., 0] - c)

    for _ in range(5):
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide"):
            variant_sum(ScalarField(1, f), p)
    assert states == {"raise"}
    assert bool(started) == (helpers and _pool.usable_cpus() > 1)


def _send_child_sum(conn, f, p, started):
    before = len(started)
    value = variant_sum(f, p).value.hex()
    conn.send((_free_slots(), value, len(started) - before))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_a_forked_child_sums_the_same_with_every_slot_free(monkeypatch):
    started = _helper_starts(monkeypatch)
    f = ScalarField(2, _scalar)
    p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), 256)  # 8 slabs
    value = variant_sum(f, p).value.hex()
    held = _pool.usable_cpus() - 1  # every slot is taken while the process forks
    for _ in range(held):
        assert _pool._slots.acquire(blocking=False)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    try:
        child = ctx.Process(target=_send_child_sum, args=(send, f, p, started), daemon=True)
        child.start()
    finally:
        for _ in range(held):
            _pool._slots.release()
    send.close()
    try:
        assert receive.poll(60), "the forked child sent nothing within 60 s"
        child_slots, child_value, child_helpers = receive.recv()
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert child_slots == _pool.usable_cpus() - 1, "the child kept the parent's taken slots"
    assert child_value == value
    assert child_helpers or _pool.usable_cpus() < 2


# --- the theorem checks at the benchmark's resolutions ---------------------------


def _green_field(p):
    x, y = p[..., 0], p[..., 1]
    return np.stack([-np.sin(y) * np.exp(0.5 * x), x * np.cos(y) + np.sin(x * y)], axis=-1)


def _stokes_field(p):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([-y * np.exp(0.5 * z), x * np.cos(z), np.sin(x * y)], axis=-1)


LHS = VariantSpec("combined", FixedK(4), LargestTerm(), 0.5, 11)
RHS = VariantSpec("combined", FixedK(4), RandomPick(5), 0.5, 12)


def _green():
    bps = [make_uniform_partition(Box((c.domain,)), 8192) for c in DISK_REGION.boundary]
    interior = make_uniform_partition(DISK_REGION.param_box, 512)
    return green_check(VectorField(2, 2, _green_field), DISK_REGION, interior, bps, LHS, RHS)


def _gauss(solid):
    def run():
        interior = make_uniform_partition(solid.param_box, 64)
        bps = [make_uniform_partition(s.domain, 128) for s in solid.boundary]
        return gauss_check(VectorField(3, 3, _vector), solid, interior, bps, LHS, RHS)

    return run


def _stokes():
    surface_p = make_uniform_partition(HEMISPHERE.domain, 256)
    bp = make_uniform_partition(Box((CIRCLE_3D.domain,)), 4096)
    field = VectorField(3, 3, _stokes_field)
    return stokes_check(field, HEMISPHERE, surface_p, CIRCLE_3D, bp, LHS, RHS)


def _fingerprint(report) -> list[str]:
    return [
        float(v).hex()
        for side in (report.lhs, report.rhs)
        for v in (side.value, side.compensation_residual, side.symdiff_total, side.mesh,
                  side.m, side.deleted_count)
    ] + [report.lhs_variant, report.rhs_variant, float(report.gap).hex()]


@pytest.mark.parametrize(
    "check",
    [_green, _gauss(BALL_REGION), _gauss(CUBE_REGION), _stokes],
    ids=["green", "gauss-ball", "gauss-cube", "stokes"],
)
def test_theorem_reports_do_not_depend_on_slabs(check, monkeypatch):
    slabbed = _fingerprint(check())
    with monkeypatch.context() as patch:  # one copy and call per FD offset
        patch.setattr(fields, "_fd_partial", per_offset_fd_partial)
        assert _fingerprint(check()) == slabbed
    monkeypatch.setattr(fields, "_SLAB_ROWS", math.inf)
    assert _fingerprint(check()) == slabbed
