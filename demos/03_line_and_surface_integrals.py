"""Line and surface integrals as parameter-domain sums.

Scalar line sums weight f by ||x'(t*)|| dt, vector line sums by x'(t*) dt;
surface sums use the normal N = X_u x X_v of the parametrization. All four
variants (full / deleted / perturbed / combined) apply unchanged because
everything reduces to sums over a 1D or 2D parameter partition.
"""

import math

from riemannlab import (
    Box,
    FixedK,
    RandomPick,
    VariantSpec,
    line_sum,
    make_uniform_partition,
    reflect_partition,
    reverse_path,
    surface_sum,
)
from riemannlab.scenarios import (
    CIRCLE_2D,
    IDENTITY_3D,
    ROTATION_2D,
    SPHERE,
    TWO_PI,
    UNIT_DENSITY_3D,
    UNIT_SPEED_2D,
)

circle_box = Box(((0.0, TWO_PI),))

print("arc length of the unit circle (scalar line sum, f = 1):")
for m in (16, 64, 256):
    p = make_uniform_partition(circle_box, m)
    est = line_sum(UNIT_SPEED_2D, CIRCLE_2D, p)
    print(f"  m={m:>4}  value={est.value:.12f}  (2*pi = {TWO_PI:.12f})")

print()
print("circulation of F = (-y, x) around the circle, with variants:")
p = make_uniform_partition(circle_box, 256)
for spec in (
    VariantSpec(),
    VariantSpec("deleted", FixedK(4), RandomPick(3)),
    VariantSpec("perturbed", gamma=0.5, seed=3),
    VariantSpec("combined", FixedK(4), RandomPick(3), gamma=0.5, seed=3),
):
    est = line_sum(ROTATION_2D, CIRCLE_2D, p, spec)
    print(f"  {est.variant:>9}: value={est.value:.8f} error={abs(est.value - TWO_PI):.2e}")

print()
print("reversing the path negates the circulation term-for-term:")
fwd = line_sum(ROTATION_2D, CIRCLE_2D, p)
bwd = line_sum(ROTATION_2D, reverse_path(CIRCLE_2D), reflect_partition(p))
print(f"  forward {fwd.value:+.12f}   reversed {bwd.value:+.12f}")

print()
print("unit sphere via its (u, v) parametrization:")
sp = make_uniform_partition(SPHERE.domain, (128, 128))
area = surface_sum(UNIT_DENSITY_3D, SPHERE, sp)
flux = surface_sum(IDENTITY_3D, SPHERE, sp)
print(f"  area  = {area.value:.8f}   (4*pi = {4 * math.pi:.8f})")
print(f"  flux of (x,y,z) = {flux.value:.8f} (F.n = 1 on the sphere)")

deleted = surface_sum(
    IDENTITY_3D, SPHERE, sp, VariantSpec("deleted", FixedK(50), RandomPick(0))
)
print(f"  flux with 50 random terms deleted = {deleted.value:.8f}")
