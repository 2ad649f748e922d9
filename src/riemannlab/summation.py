"""Correctly rounded accumulation.

Every sum the package reports is the exact sum of its terms rounded once,
bit for bit the value ``math.fsum`` returns, so it does not depend on the
order of the terms and equal inputs give bit-identical results.

Long inputs first go through error-free extraction passes (Rump, Ogita &
Oishi, "Accurate floating-point summation part I", SIAM J. Sci. Comput.
31(1), 2008, Lemma 3.3). A pass splits every term exactly into a high part
on a grid so coarse that numpy adds all high parts without rounding, in any
order, and a low remainder that keeps only the terms' lower bits. Passes
stop once ``_FSUM_FLOOR`` or fewer nonzero remainders are left.

The passes run on blocks of ``_BLOCK`` terms, so that their temporaries
stay cache-sized, and then once more on the blocks' remainders joined.
Each pass is exact, so the pass sums and what is left still add up to the
exact sum of the terms, and ``math.fsum`` rounds it once (Zhu & Hayes,
ACM TOMS 37(3), 2010; Demmel & Nguyen, IEEE Trans. Computers 64(7), 2015).
Where one pass over the whole input could not run (a term is inf or nan,
or the terms are so large that a partial sum may overflow, all zero or
tiny), ``math.fsum`` takes the terms as they are, in index order.

The residual's plain sum is one chain in index order, independent of the
passes. Above two blocks it runs on a helper thread from the process's
one pool (:mod:`riemannlab._pool`) while the caller runs the passes, and
serves both the residual and the overflow fall-back; a sum that finds no
slot free runs both in turn.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _pool

# Below this many terms math.fsum is faster than another extraction pass.
_FSUM_FLOOR = 1024
# Terms per block: 512 KiB, so a pass's temporaries fit in a core's L2.
_BLOCK = 2**16
# Terms per chunk of the plain sum: its two temporaries (512 KiB) beside a
# pass's keep a sum's peak within a few blocks.
_CHAIN = 2**15


def _sigma(top: float, n: int) -> float | None:
    """The scale of a pass over ``n`` terms of largest magnitude ``top``, or
    None where no pass can run: all zeros, inf or nan (``math.fsum``'s
    rules), a scale that overflows, or a grid that is subnormal."""
    if not 0.0 < top < math.inf:
        return None
    # The high parts are multiples of sigma * 2**-53, each at most
    # sigma / (n + 2) in magnitude, so every partial sum of them is a float:
    # numpy's sum of them is exact.
    e = math.frexp(top)[1] + math.frexp(n + 2)[1]
    if e > 1023 or e - 53 < -1022:
        return None
    return math.ldexp(1.0, e)


def _magnitude(y: np.ndarray) -> float:
    """The largest |y|, nan if y holds a nan."""
    return max(y.max(), -y.min())


def _extract(y: np.ndarray, top: float, parts: list) -> np.ndarray:
    """Run passes over ``y`` (largest magnitude ``top``) while more than
    ``_FSUM_FLOOR`` terms are left, appending each pass's exact sum to
    ``parts``; returns the terms left, which add up with those sums to the
    exact sum of ``y``."""
    while y.size > _FSUM_FLOOR:
        sigma = _sigma(top, y.size)
        if sigma is None:
            break
        high = y + sigma
        high -= sigma
        parts.append(float(high.sum()))
        low = np.subtract(y, high, out=high)
        nonzero = low != 0.0
        y = low if nonzero.all() else low[nonzero]
        del high, low, nonzero  # freed before the next pass allocates
        if y.size > _FSUM_FLOOR:
            top = _magnitude(y)
    return y


def _plain_sum(x: np.ndarray) -> float:
    """The last entry of ``np.cumsum(x)``, taken ``_CHAIN`` terms at a time:
    the sum so far is the first entry of the next chunk's cumsum, which adds
    in index order, so the bits are those of one cumsum. The first chunk
    takes no carry, so a lone -0.0 stays -0.0. Each cumsum writes a new
    array: one that overwrites its own input (``out=``) kept a helper thread
    from running beside the caller's passes."""
    plain = float(np.cumsum(x[:_CHAIN])[-1])
    for start in range(_CHAIN, x.size, _CHAIN):
        plain = float(np.cumsum(np.concatenate(([plain], x[start : start + _CHAIN])))[-1])
    return plain


def _quiet_plain_sum(x: np.ndarray) -> float:
    """``_plain_sum(x)`` with overflow and ``inf - inf`` left unreported."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _plain_sum(x)


def _exact_sum(x: np.ndarray) -> float | None:
    """``math.fsum`` of the nonempty ``x``, or None where it overflows or
    meets ``inf - inf``."""
    parts, rest = [], x
    if x.size > _FSUM_FLOOR:
        lows, tops = [], []
        for start in range(0, x.size, _BLOCK):
            block = x[start : start + _BLOCK]
            tops.append(_magnitude(block))
            lows.append(_extract(block, tops[-1], parts))
        if len(lows) == 1:
            rest = lows[0]
        elif _sigma(float(np.max(tops)), x.size) is None:  # no whole-array pass runs
            parts = []
        else:  # some term is not zero, so zeros move neither the sum nor its sign
            rest = np.concatenate([low[low != 0.0] for low in lows])
            if rest.size:
                rest = _extract(rest, _magnitude(rest), parts)
    try:
        return math.fsum(parts + rest.tolist())
    except (OverflowError, ValueError):  # the exact sum overflows, or inf - inf
        return None


def neumaier_sum(values) -> tuple[float, float]:
    """``(total, residual)``: ``math.fsum`` of ``values``, and ``total`` minus
    the plain float sum in ascending order, the last entry of ``np.cumsum``,
    which adds one term at a time in index order (``np.sum`` adds pairwise).
    A sum that overflows or meets ``inf - inf`` returns that plain sum,
    which is not finite, and 0.0.

    Above two blocks, the plain sum runs on a ``riemannlab-sum`` helper
    (:func:`riemannlab._pool.start`) while the caller runs the extraction
    passes and ``math.fsum``, when a slot is free; otherwise the caller runs
    both in turn. The helper is joined before the sum returns or raises.
    It reports no overflow: where ``math.fsum`` finds a total but the plain
    sum is not finite, the caller adds again under its own numpy error
    state, which may warn or raise. So the bits, the warnings and the
    errors do not depend on whether a slot was free.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return 0.0, 0.0
    join = None
    if x.size > 2 * _BLOCK:
        join = _pool.start(functools.partial(_quiet_plain_sum, x), "riemannlab-sum")
    try:
        total = _exact_sum(x)
    finally:
        plain = None if join is None else join()
    if total is None:
        return (_quiet_plain_sum(x) if plain is None else plain), 0.0
    if plain is None or not math.isfinite(plain):
        plain = _plain_sum(x)
    return total, total - plain
