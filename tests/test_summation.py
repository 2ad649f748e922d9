import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riemannlab import (
    NonFiniteSum,
    SumEstimate,
    _pool,
    get_scenario,
    make_uniform_partition,
    summation,
)
from riemannlab.summation import _BLOCK, _FSUM_FLOOR, neumaier_sum

from oracles import whole_array_neumaier_sum


class TestNeumaier:
    def test_empty(self):
        assert neumaier_sum([]) == (0.0, 0.0)

    def test_cancellation_case(self):
        # naive left-to-right summation loses the 1.0 here
        values = [1e16, 1.0, -1e16]
        total, residual = neumaier_sum(values)
        assert total == 1.0
        assert residual != 0.0

    def test_matches_fsum_on_random_data(self):
        rng = np.random.default_rng(0)
        for scale in (1.0, 1e8, 1e-8):
            values = rng.standard_normal(10_000) * scale
            total, _ = neumaier_sum(values)
            assert abs(total - math.fsum(values)) <= 4 * np.finfo(float).eps * np.sum(
                np.abs(values)
            )

    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_close_to_exact(self, values):
        total, _ = neumaier_sum(values)
        exact = math.fsum(values)
        scale = math.fsum(abs(v) for v in values)
        assert abs(total - exact) <= 4 * np.finfo(float).eps * max(scale, 1.0)

    def test_equal_calls_are_bit_identical(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        a = neumaier_sum(values)
        b = neumaier_sum(values)
        assert a == b  # bitwise reproducible, residual included

    @given(
        st.lists(
            st.floats(-1e300, 1e300, allow_nan=False), max_size=200
        ).flatmap(lambda v: st.tuples(st.just(v), st.permutations(v)))
    )
    @example(([8629323275487076.0, 2241961246255065.0, 1.2090499913545907e-17],) * 2)
    @settings(max_examples=200, deadline=None)
    def test_total_is_fsum_in_any_order(self, values_and_permutation):
        values, permuted = values_and_permutation
        exact = math.fsum(values)
        assert neumaier_sum(values)[0].hex() == exact.hex()
        assert neumaier_sum(permuted)[0].hex() == exact.hex()

    def test_residual_is_the_correction_over_the_plain_ascending_sum(self):
        values = [1e16, 1.0, -1e16]
        plain = (1e16 + 1.0) + -1e16  # 0.0: the 1.0 is lost
        total, residual = neumaier_sum(values)
        assert residual == total - plain == 1.0


def sinprod_terms(m_axis: int = 1024) -> np.ndarray:
    """The box.sinprod.2d terms f(tag) * m(I_k) at m_axis**2 cells."""
    sc = get_scenario("box.sinprod.2d")
    p = make_uniform_partition(sc.box, m_axis)
    return np.asarray(sc.field(p.tags), dtype=float) * p.measures


PINNED = ["wide_range", "cancellation", "near_overflow", "subnormal"]


def pinned_terms(name: str, n: int = 50_000) -> np.ndarray:
    """A pinned hard case of ``n`` terms, or ``2 * n`` for the pairs."""
    rng = np.random.default_rng(8)
    if name == "wide_range":
        return rng.standard_normal(n) * np.exp(rng.uniform(-200, 200, n))
    if name == "cancellation":
        return np.concatenate([np.tile([1e10, -1e10], n // 2), np.full(n, 1e-5)])
    if name == "near_overflow":  # sigma would overflow, but fsum finds a finite sum
        return np.ravel([[v, -v * (1 + 2.0**-52)] for v in 8e307 * (1 + rng.random(n))])
    return rng.standard_normal(n) * 5e-321  # subnormal


@pytest.fixture(params=["slot-free", "slots-taken"])
def slots(request, monkeypatch):
    """Sums with a helper slot free, or with every slot taken; gives the
    ``riemannlab-sum`` helpers started, and whether one may start."""
    if request.param == "slots-taken":
        monkeypatch.setattr(_pool, "_slots", threading.BoundedSemaphore(0))
    started = []
    start = threading.Thread.start

    def counted(thread):
        if thread.name == "riemannlab-sum":
            started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started, request.param == "slot-free" and _pool.usable_cpus() > 1


def assert_helper_ran_if_free(slots, *sums):
    """Each sum above two blocks took a helper exactly when a slot was free."""
    started, free = slots
    assert len(started) == free * sum(x.size > 2 * _BLOCK for x in sums)
    assert not [t for t in started if t.is_alive()]


class TestExtraction:
    """Above ``_FSUM_FLOOR`` terms the sum is extracted in numpy passes; its
    bits must still be those of ``math.fsum`` over the terms."""

    @staticmethod
    def assert_is_fsum(x):
        assert neumaier_sum(x)[0].hex() == math.fsum(x.tolist()).hex()

    @given(
        arrays(
            np.float64,
            st.integers(_FSUM_FLOOR + 1, 20_000),
            elements=st.floats(-1e300, 1e300, allow_nan=False),
        )
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_drawn_arrays_sum_to_fsum(self, x):
        self.assert_is_fsum(x)

    @given(
        st.integers(_FSUM_FLOOR + 1, 20_000),
        st.integers(0, 2**32 - 1),
        st.integers(0, 700),
        st.integers(-700, 600),  # up to 2**950: no partial sum overflows
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dynamic_ranges_sum_to_fsum(self, n, seed, spread, centre):
        rng = np.random.default_rng(seed)
        exponents = centre + rng.uniform(-spread, spread, n) / 2
        self.assert_is_fsum(rng.standard_normal(n) * np.exp2(exponents))

    def test_box_terms_sum_to_fsum(self):
        self.assert_is_fsum(sinprod_terms())

    @pytest.mark.parametrize("name", PINNED + ["floor_edges"])
    def test_pinned_cases_sum_to_fsum(self, name):
        x = np.full(_FSUM_FLOOR + 1, 0.1) if name == "floor_edges" else pinned_terms(name)
        self.assert_is_fsum(x)

    def test_negative_zeros_keep_fsums_sign(self):
        x = np.full(_FSUM_FLOOR * 4, -0.0)
        total, residual = neumaier_sum(x)
        assert total.hex() == math.fsum(x.tolist()).hex()
        assert residual == 0.0

    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"]
    )
    def test_non_finite_terms_end_in_non_finite_sum(self, bad):
        x = np.ones(_FSUM_FLOOR * 4)
        x[1234] = bad
        total, _ = neumaier_sum(x)
        assert not math.isfinite(total)
        with pytest.raises(NonFiniteSum, match="not finite"):
            SumEstimate(total, x.size, 1.0, 0, 0.0, "full", 0.0)

    def test_overflowing_sum_ends_in_non_finite_sum(self):
        x = np.full(_FSUM_FLOOR * 4, 1e308)
        total, residual = neumaier_sum(x)
        assert (total, residual) == (math.inf, 0.0)
        with pytest.raises(NonFiniteSum, match="not finite"):
            SumEstimate(total, x.size, 1.0, 0, 0.0, "full", 0.0)

    def test_peak_memory_stays_near_the_input(self):
        """The passes and the plain sum hold a few blocks' temporaries, and
        nothing the size of the input."""
        x = sinprod_terms()
        neumaier_sum(x)  # warm numpy's first-call allocations
        tracemalloc.start()
        try:
            neumaier_sum(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * _BLOCK


SPECIAL_TERMS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, -1.0,
]


def _bits(pair) -> list[str]:
    return [v.hex() for v in pair]


def _near_overflow_after_cancelling() -> np.ndarray:
    """Two blocks: the first cancels +-1.7e308, the second adds up to about
    3e307 and extracts on its own. In index order no partial sum overflows,
    so the total is fsum's, not the plain sum; with the second block's pass
    sum first, 3e307 + 1.7e308 would overflow."""
    x = np.zeros(2 * _BLOCK)
    x[:2] = 1.7e308, -1.7e308
    x[_BLOCK:] = 2.0**1005 * (1.0 + np.random.default_rng(3).random(_BLOCK))
    return x


def _with(x: np.ndarray, index: int, value: float) -> np.ndarray:
    x[index] = value
    return x


def _random_terms(n: int) -> np.ndarray:
    return np.random.default_rng(n).standard_normal(n)


# name -> a maker of hard cases at the block edges; those above two blocks
# run their plain sum on a helper when a slot is free.
PINNED_BLOCKS = {
    "cancelled-overflow": _near_overflow_after_cancelling,
    "cancelled-overflow-and-one": lambda: np.append(_near_overflow_after_cancelling(), 1.0),
    # every block extracts; the sum overflows
    "overflow": lambda: np.full(2 * _BLOCK + 1025, 2.0**1005),
    "negative-zeros": lambda: np.full(3 * _BLOCK, -0.0),
    "negative-zeros-over-two-blocks": lambda: np.full(2 * _BLOCK + 1, -0.0),
    "trailing-negative-zeros": lambda: np.concatenate([[1.0, -1.0], np.full(2 * _BLOCK, -0.0)]),
    "exact-zero": lambda: np.concatenate([np.full(_BLOCK, -0.0), [1.0, -1.0]]),
    "subnormal-block": lambda: np.concatenate([np.full(_BLOCK, 5e-324), np.full(_BLOCK, 1.0)]),
    "two-blocks": lambda: _random_terms(2 * _BLOCK),
    "two-blocks-and-one": lambda: _random_terms(2 * _BLOCK + 1),
    "sinprod": sinprod_terms,
    **{
        f"{bad}-{half}-half": (
            lambda bad=bad, at=at: _with(_random_terms(2 * _BLOCK + 5), at, float(bad))
        )
        for bad in ("inf", "-inf", "nan")
        for half, at in (("first", 3), ("second", -3))
    },
    "inf-minus-inf": lambda: _with(_with(_random_terms(2 * _BLOCK + 5), 3, math.inf), -3, -math.inf),
    **{f"{name}-over-two-blocks": (lambda name=name: pinned_terms(name, 2 * _BLOCK + 1))
       for name in PINNED},
}


class TestBlocks:
    """The passes run per block of ``_BLOCK`` terms and once more over the
    blocks' remainders, and the plain sum carries from block to block: total
    and residual keep the bits of one whole-array pass (the oracle)."""

    EDGES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1025]

    @given(
        st.sampled_from(EDGES),
        st.sampled_from([(-60, 60), (-1070, 1020), (-1074, -990), (990, 1020), (1000, 1006)]),
        st.lists(st.sampled_from(SPECIAL_TERMS), max_size=4),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_blocks_keep_the_bits_of_one_whole_array_pass(
        self, n, exponents, specials, zero_share, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * np.exp2(rng.uniform(*exponents, n))
        x[rng.random(n) < zero_share] = rng.choice([0.0, -0.0])
        edges = [e for e in (0, _BLOCK - 1, _BLOCK, n - 1) if e < n]  # the block edges
        for value in specials:
            x[rng.choice(edges + [int(rng.integers(n))])] = value
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = neumaier_sum(x), whole_array_neumaier_sum(x)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("name", sorted(PINNED_BLOCKS))
    def test_pinned_blocks_keep_the_bits_of_one_whole_array_pass(self, name, slots):
        x = PINNED_BLOCKS[name]()
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(neumaier_sum(x)) == _bits(whole_array_neumaier_sum(x))
        assert_helper_ran_if_free(slots, x)


class TestNegativeZeroFill:
    """Overwriting terms with -0.0 reduces to the bits of dropping them: for
    every float x, x + (-0.0) == x, and the exact sum only gains zeros."""

    @given(
        st.sampled_from([2, 8, _FSUM_FLOOR, _FSUM_FLOOR + 2, 2**16 + 4]),
        st.lists(
            st.sampled_from(SPECIAL_TERMS) | st.floats(allow_nan=True, allow_infinity=True),
            min_size=1,
            max_size=6,
        ),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_filled_terms_sum_like_the_kept_terms(self, n, pool, special_share, seed):
        rng = np.random.default_rng(seed)
        drawn = rng.standard_normal(n) * np.exp2(rng.uniform(-1070, 1020, n))
        x = np.where(rng.random(n) < special_share, rng.choice(np.array(pool), n), drawn)
        deleted = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        keep = np.ones(n, dtype=bool)
        keep[deleted] = False
        filled = x.copy()
        filled[deleted] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = neumaier_sum(filled), neumaier_sum(x[keep])
        assert [v.hex() for v in got] == [v.hex() for v in want]



def index_order_sum(x: np.ndarray) -> float:
    """The plain float sum of a nonempty ``x``, one term at a time in index
    order, in Python floats (they overflow to inf and give nan for inf - inf
    without raising)."""
    values = x.tolist()
    total = values[0]
    for v in values[1:]:
        total += v
    return total


class TestAscendingSum:
    """The residual is the total minus the plain sum in index order; when the
    exact sum overflows or meets ``inf - inf``, that plain sum is returned
    with a 0.0 residual. The bits are checked against a Python loop."""

    @staticmethod
    def assert_residual_is_over_index_order_sum(x):
        plain = index_order_sum(x)
        with np.errstate(over="ignore", invalid="ignore"):
            total, residual = neumaier_sum(x)
        try:
            exact = math.fsum(x.tolist())
        except (OverflowError, ValueError):
            assert (total.hex(), residual.hex()) == (plain.hex(), (0.0).hex())
        else:
            assert total.hex() == exact.hex()
            assert residual.hex() == (total - plain).hex()

    @given(
        arrays(
            np.float64,
            st.integers(1, 3 * _FSUM_FLOOR),
            elements=st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
        )
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_drawn_arrays_residual_is_over_the_index_order_sum(self, x):
        self.assert_residual_is_over_index_order_sum(x)

    @pytest.mark.parametrize(
        "n", [1, _FSUM_FLOOR, _FSUM_FLOOR + 1, 2**16 + 1, 3 * 2**16 + 5]
    )
    def test_wide_range_residual_is_over_the_index_order_sum(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * np.exp2(rng.uniform(-60, 60, n))
        self.assert_residual_is_over_index_order_sum(x)

    @pytest.mark.parametrize(
        "before, special",
        [(-0.0, -0.0), (0.5, math.inf), (0.5, -math.inf), (0.5, math.nan), (1e304, 1e308)],
        ids=["-0.0", "inf", "-inf", "nan", "overflow"],
    )
    def test_special_values_in_a_long_sum_keep_the_index_order_sum(self, before, special, slots):
        x = np.full(2 * 2**16 + 3, before)
        x[2**16] = special
        self.assert_residual_is_over_index_order_sum(x)
        assert_helper_ran_if_free(slots, x)


class Boom(Exception):
    pass


def free_slots() -> int:
    taken = 0
    while taken < _pool.usable_cpus() and _pool._slots.acquire(blocking=False):
        taken += 1
    for _ in range(taken):
        _pool._slots.release()
    return taken


class TestPlainSumHelper:
    """Above two blocks the plain sum runs on a ``riemannlab-sum`` helper when
    a slot is free. The helper is joined before the sum returns or raises,
    its slot comes back, and it reports overflow as the caller's numpy error
    state says."""

    def test_a_failing_plain_sum_reaches_the_caller_as_raised(self, monkeypatch):
        raised = []

        def fail(x):
            raised.append((threading.current_thread().name, Boom()))
            raise raised[-1][1]

        monkeypatch.setattr(summation, "_plain_sum", fail)
        with pytest.raises(Boom) as info:
            neumaier_sum(_random_terms(2 * _BLOCK + 1))
        (thread, exc), = raised
        assert info.value is exc
        assert thread == ("riemannlab-sum" if _pool.usable_cpus() > 1 else "MainThread")
        assert free_slots() == _pool.usable_cpus() - 1

    def test_a_failing_extraction_still_joins_the_helper(self, monkeypatch):
        finished = []
        plain_sum = summation._plain_sum

        def slow(x):  # still running when the extraction fails
            time.sleep(0.05)
            finished.append(plain_sum(x))
            return finished[-1]

        def fail(*args):
            raise Boom

        monkeypatch.setattr(summation, "_plain_sum", slow)
        monkeypatch.setattr(summation, "_extract", fail)
        with pytest.raises(Boom):
            neumaier_sum(_random_terms(2 * _BLOCK + 1))
        assert len(finished) == (_pool.usable_cpus() > 1)
        assert not [t for t in threading.enumerate() if t.name == "riemannlab-sum"]
        assert free_slots() == _pool.usable_cpus() - 1

    @pytest.mark.parametrize("state", ["raise", "warn", "ignore"])
    def test_overflow_reports_under_the_callers_error_state(self, state, slots):
        """A plain sum that overflows beside a finite total reports as the
        caller's state says; a sum whose exact value overflows returns its
        plain sum without a report, as it always has."""
        overflowing = np.full(2 * _BLOCK + 1, 1e308)
        # Each t rounds the plain sum up a unit in the last place: past the
        # largest float it overflows, while the exact sum rounds to that float.
        top, t = np.finfo(float).max, math.ldexp(1 + 2**-52, 970)
        x = np.zeros(2 * _BLOCK + 1)
        x[:3] = top - math.ldexp(1.0, 971), t, t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over=state):
                assert neumaier_sum(overflowing) == (math.inf, 0.0)
                if state == "ignore":
                    assert neumaier_sum(x) == (top, -math.inf)
                else:
                    expected = FloatingPointError if state == "raise" else RuntimeWarning
                    with pytest.raises(expected, match="overflow"):
                        neumaier_sum(x)
        assert_helper_ran_if_free(slots, overflowing, x)
