"""Deterministic compensated accumulation.

Every sum the package reports is accumulated in ascending index order with
Neumaier's variant of Kahan summation, so results are reproducible bit for
bit regardless of how the terms were produced.
"""

from __future__ import annotations

import numpy as np


def neumaier_sum(values) -> tuple[float, float]:
    """Sum ``values`` in order with Neumaier compensation.

    Returns ``(total, residual)`` where ``total = s + c`` is the compensated
    sum and ``residual = c`` is the accumulated low-order correction.
    """
    s = 0.0
    c = 0.0
    # Iterating over a plain float list is ~4x faster than over np.float64
    # scalars; the loop order (ascending index) is part of the contract.
    for x in np.asarray(values, dtype=float).ravel().tolist():
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c, c
