"""Correctly rounded accumulation.

Every sum the package reports is the exact sum of its terms rounded once,
bit for bit the value ``math.fsum`` returns, so it does not depend on the
order of the terms and equal inputs give bit-identical results.

Long inputs first go through error-free extraction passes (Rump, Ogita &
Oishi, "Accurate floating-point summation part I", SIAM J. Sci. Comput.
31(1), 2008, Lemma 3.3). A pass splits every term exactly into a high part
on a grid so coarse that numpy adds all high parts without rounding, in any
order, and a low remainder that keeps only the terms' lower bits. Passes
stop once ``_FSUM_FLOOR`` or fewer nonzero remainders are left; the exact
pass sums and the remainders then go to ``math.fsum``, which rounds their
exact sum, the exact sum of the original terms, once.
"""

from __future__ import annotations

import math

import numpy as np

# Below this many terms math.fsum is faster than another extraction pass.
_FSUM_FLOOR = 1024


def neumaier_sum(values) -> tuple[float, float]:
    """``(total, residual)``: ``math.fsum`` of ``values``, and ``total`` minus
    the plain float sum in ascending order, the last entry of ``np.cumsum``,
    which adds one term at a time in index order (``np.sum`` adds pairwise).
    A sum that overflows or meets ``inf - inf`` returns that plain sum,
    which is not finite, and 0.0.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return 0.0, 0.0
    parts = []
    y = x
    while y.size > _FSUM_FLOOR:
        top = max(y.max(), -y.min())
        if not 0.0 < top < math.inf:  # all zeros, inf or nan: math.fsum's rules
            break
        # The high parts are multiples of sigma * 2**-53, each at most
        # sigma / (len(y) + 2) in magnitude, so every partial sum of them
        # is a float: numpy's sum of them is exact.
        e = math.frexp(top)[1] + math.frexp(y.size + 2)[1]
        if e > 1023 or e - 53 < -1022:  # sigma overflows, or its grid is subnormal
            break
        sigma = math.ldexp(1.0, e)
        high = y + sigma
        high -= sigma
        parts.append(float(high.sum()))
        low = np.subtract(y, high, out=high)
        nonzero = low != 0.0
        y = low if nonzero.all() else low[nonzero]
        del high, low, nonzero  # freed before the next pass allocates
    try:
        total = math.fsum(parts + y.tolist())
    except (OverflowError, ValueError):  # the exact sum overflows, or inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.cumsum(x)[-1]), 0.0
    return total, total - float(np.cumsum(x)[-1])

