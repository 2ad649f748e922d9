"""Slab-parallel integrand evaluation gives the bits of one whole-array call.

``fields._rowwise`` splits a batch into fixed slabs of ``_SLAB_ROWS`` rows
and fills one output from a thread pool. Setting ``_SLAB_ROWS`` to infinity
makes every evaluation one call, the reference the slabbed results must
match bit for bit.
"""

import math
import os
import sys
import threading

import numpy as np
import pytest

from riemannlab import (
    Box,
    FixedK,
    LargestTerm,
    RandomPick,
    ScalarField,
    VariantSpec,
    VectorField,
    fields,
    gauss_check,
    green_check,
    make_uniform_partition,
    stokes_check,
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
)

SIZES = [_SLAB_ROWS - 1, _SLAB_ROWS, _SLAB_ROWS + 1, 3 * _SLAB_ROWS + 5]


def _scalar(p):
    return np.sin(p[..., 0]) * np.exp(p[..., 1])


def _vector(p):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([np.sin(y) + x * np.cos(z), np.exp(0.5 * z) * y, np.sin(x * y)], axis=-1)


CASES = {
    "scalar": (_scalar, 2),
    "vector": (_vector, 3),
    "path-parameter": (CIRCLE_2D.pos, None),  # 1-D input, (n, 2) output
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_slabs_match_one_whole_array_call(case, n):
    fn, dim = CASES[case]
    rng = np.random.default_rng(n)
    points = rng.uniform(-2.0, 2.0, (n,) if dim is None else (n, dim))
    whole = np.asarray(fn(points), dtype=float)
    slabbed = _rowwise(fn, points)
    assert slabbed.shape == whole.shape
    assert slabbed.tobytes() == whole.tobytes()


def test_a_float_for_a_batch_is_broadcast():
    points = np.zeros((3 * _SLAB_ROWS + 5, 2))
    out = _rowwise(lambda p: 2.5, points)
    assert out.shape == (len(points),) and np.all(out == 2.5)
    p = make_uniform_partition(Box(((0.0, 1.0), (0.0, 2.0))), 100)  # 10^4 cells
    assert variant_sum(ScalarField(2, lambda q: 2.5), p).value == math.fsum(
        (2.5 * p.measures).tolist()
    )


class SlabFailure(Exception):
    pass


@pytest.mark.parametrize("first_bad", [0, 2])
def test_lowest_failing_slab_propagates_as_raised(first_bad):
    points = np.arange(5 * _SLAB_ROWS, dtype=float)

    def fn(p):
        slab = int(p[0]) // _SLAB_ROWS
        if slab >= first_bad:
            raise SlabFailure(f"slab {slab}")
        return p

    with pytest.raises(SlabFailure, match=f"^slab {first_bad}$"):
        _rowwise(fn, points)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def test_concurrent_callers_share_one_lazily_made_pool(monkeypatch):
    made = []

    class CountingPool(fields.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(fields, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(fields, "_pool", None)
    inputs = [np.random.default_rng(i).uniform(-2.0, 2.0, (3 * _SLAB_ROWS + i, 2))
              for i in range(2 * _cpus() + 2)]  # more callers than cores
    results = [None] * len(inputs)

    def call(i):
        results[i] = _rowwise(_scalar, inputs[i])

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
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert len(made) == (1 if _cpus() > 1 else 0)
    for x, got in zip(inputs, results):
        assert got.tobytes() == _scalar(x).tobytes()


def test_a_handle_that_sums_in_a_pool_thread_returns():
    inner_p = make_uniform_partition(Box(((0.0, 1.0),)), _SLAB_ROWS + 1)
    inner_f = ScalarField(1, lambda t: np.cos(t[..., 0]))

    def handle(p):  # every outer slab runs a slabbed sum of its own
        return p[..., 0] * variant_sum(inner_f, inner_p).value

    # More outer slabs than pool threads, so every pool thread nests.
    outer = make_uniform_partition(Box(((0.0, 1.0),)), (_cpus() + 2) * _SLAB_ROWS)
    result = []
    runner = threading.Thread(
        target=lambda: result.append(variant_sum(ScalarField(1, handle), outer)),
        daemon=True,
    )
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "nested slab evaluation deadlocked"
    inner = variant_sum(inner_f, inner_p).value
    expected = math.fsum((outer.tags[:, 0] * inner * outer.measures).tolist())
    assert result[0].value == expected


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
    monkeypatch.setattr(fields, "_SLAB_ROWS", math.inf)
    assert _fingerprint(check()) == slabbed
