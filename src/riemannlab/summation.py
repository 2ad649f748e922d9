"""Correctly rounded accumulation.

Every sum the package reports is ``math.fsum`` of its terms, the exact sum
rounded once, so it does not depend on the order of the terms and equal
inputs give bit-identical results.
"""

from __future__ import annotations

import math

import numpy as np


def neumaier_sum(values) -> tuple[float, float]:
    """``(total, residual)``: ``math.fsum`` of ``values``, and ``total`` minus
    the plain float sum in ascending order. A sum that overflows or meets
    ``inf - inf`` returns that plain sum, which is not finite, and 0.0.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return 0.0, 0.0
    try:
        total = math.fsum(x.tolist())
    except (OverflowError, ValueError):  # the exact sum overflows, or inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.cumsum(x)[-1]), 0.0
    # cumsum adds one value at a time in index order on every machine.
    return total, total - float(np.cumsum(x)[-1])
