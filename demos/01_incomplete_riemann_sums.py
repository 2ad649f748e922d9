"""Incomplete Riemann sums: drop terms, keep the limit.

A Riemann sum over a box still converges to the integral after deleting a
fixed number K of its terms, or even K(m) terms as long as K(m)/m -> 0 on
equal partitions. This script shows both regimes on f(x, y) = sin x sin y.
"""

import math

import numpy as np

from riemannlab import (
    Box,
    DeletionPlan,
    FixedK,
    LargestTerm,
    PowerLaw,
    Prefix,
    RandomPick,
    ScalarField,
    bind_deletion,
    make_uniform_partition,
    variant_sum,
)

f = ScalarField(
    2,
    lambda p: np.sin(p[..., 0]) * np.sin(p[..., 1]),
    bound_M=math.sin(1.0) ** 2,
)
box = Box(((0.0, 1.0), (0.0, 1.0)))
exact = (1.0 - math.cos(1.0)) ** 2

print("exact integral:", exact)
print()

print("fixed K = 16, three index selectors, refining the mesh:")
print(f"{'m':>10} {'full error':>12} {'prefix':>12} {'random':>12} {'largest':>12}")
for m_axis in (16, 32, 64, 128, 256):
    p = make_uniform_partition(box, m_axis)
    full = variant_sum(f, p)
    row = [abs(full.value - exact)]
    terms = np.abs(f(p.tags) * p.measures)
    for selector in (Prefix(), RandomPick(7), LargestTerm()):
        plan = bind_deletion(DeletionPlan(FixedK(16), selector), p, terms=terms)
        row.append(abs(variant_sum(f, p, plan=plan).value - exact))
    print(f"{p.m:>10} " + " ".join(f"{e:12.3e}" for e in row))

print()
print("the deletion bound K * M * max m(I_k) always dominates the change:")
p = make_uniform_partition(box, 64)
terms = np.abs(f(p.tags) * p.measures)
plan = bind_deletion(DeletionPlan(FixedK(16), LargestTerm()), p, terms=terms)
change = abs(variant_sum(f, p, plan=plan).value - variant_sum(f, p).value)
limit = 16 * f.bound_M * float(np.max(p.measures))
print(f"  |deleted - full| = {change:.3e} <= {limit:.3e}")

print()
print("vanishing-fraction schedule K(m) = floor(sqrt(m)) (equal partitions):")
print(f"{'m':>10} {'K(m)':>8} {'K/m':>10} {'error':>12}")
for m_axis in (16, 64, 256):
    p = make_uniform_partition(box, m_axis)
    plan = bind_deletion(DeletionPlan(PowerLaw(0.5), Prefix()), p)
    err = abs(variant_sum(f, p, plan=plan).value - exact)
    k = len(plan.resolved)
    print(f"{p.m:>10} {k:>8} {k / p.m:>10.2e} {err:>12.3e}")
