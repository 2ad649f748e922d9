"""Perturbed-mesh (non-Riemann) sums.

Jitter the interior breakpoints of a partition, keep the original tags, and
weight them by the distorted cell measures. As long as the total symmetric
difference sum m(I_k ^ I~_k) vanishes, these non-Riemann sums share the
classical limit, and M * symdiff_total bounds the damage at any resolution.
"""

import math

import numpy as np

from riemannlab import (
    Box,
    ScalarField,
    apply_perturbation,
    make_uniform_partition,
    perturb,
    variant_sum,
)

f = ScalarField(1, lambda p: np.sin(p[..., 0]), bound_M=math.sin(1.0))
box = Box(((0.0, 1.0),))
exact = 1.0 - math.cos(1.0)

print("a forced 2-cell distortion, worked by hand:")
p2 = make_uniform_partition(box, 2)
pp2 = apply_perturbation(p2, [np.array([0.0, 0.55, 1.0])])
print("  base measures     ", p2.measures)
print("  perturbed measures", pp2.measures)
print("  symdiff_total     ", pp2.symdiff_total)

print()
print("random jitter at amplitude gamma = 0.5, refining the mesh:")
print(f"{'m':>8} {'symdiff_total':>14} {'|pert-full|':>12} {'M*symdiff':>12} {'error':>12}")
for m in (10, 100, 1000, 10000):
    p = make_uniform_partition(box, m)
    pp = perturb(p, 0.5, seed=m)
    full = variant_sum(f, p)
    pert = variant_sum(f, p, perturbation=pp)
    gap = abs(pert.value - full.value)
    print(
        f"{m:>8} {pp.symdiff_total:>14.3e} {gap:>12.3e} "
        f"{f.bound_M * pp.symdiff_total:>12.3e} {abs(pert.value - exact):>12.3e}"
    )

print()
print("tags never leave the base/perturbed intersection; gamma = 0 is exact:")
pp0 = perturb(make_uniform_partition(box, 64), 0.0, seed=1)
print("  symdiff_total at gamma=0:", pp0.symdiff_total)
