"""Halfspace distance, normalization, and how well cells stand in for points."""

import math
import random

from halfspace import HPoint, distortion_report, hyperbolic_distance, normalize
from halfspace.hyperbolic import deviation_window_points_d1, embedding_displacement_bound
from halfspace.tiling import center

# The closed form: 2 * arsinh(||p - q|| / (2 sqrt(z_p z_q))).
p, q = HPoint((0.0,), 1.0), HPoint((3.0,), 2.0)
print("distance:", hyperbolic_distance(p, q))
print("vertical special case ln(4):", hyperbolic_distance(HPoint((0.0,), 1.0), HPoint((0.0,), 4.0)))

# Mapping a point to its cell center moves it by less than ln(D).
for dim in (2, 3, 6):
    print(f"D={dim}: displacement bound", round(embedding_displacement_bound(dim), 4), "< ln D =", round(math.log(dim), 4))

rng = random.Random(0)
pts = [HPoint((rng.uniform(-20, 20),), rng.uniform(0.05, 12.0)) for _ in range(80)]

# Normalization squeezes any input into the root cell's shadow without
# changing a single pairwise distance.
transform, moved = normalize(pts)
print("\nscale:", transform.scale)
print("max |distance drift|:", max(
    abs(hyperbolic_distance(pts[i], pts[j]) - hyperbolic_distance(moved[i], moved[j]))
    for i in range(10) for j in range(i)
))

# Scaled by ln 2, the discrete distance between mapped cells tracks the
# true distance within an explicit additive window.
rep = distortion_report(pts, samples=5000, seed=1)
lo, hi = deviation_window_points_d1(2)
print("\nwindow:", (round(lo, 3), round(hi, 3)))
print("observed deviation range:", (round(rep.d1_min, 3), round(rep.d1_max, 3)))
print("violations:", rep.violations)
