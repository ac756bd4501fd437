"""Bubble extraction on a synthetic concentrating map.

Plants a small sphere bubble at the disk center over a hemisphere at the
boundary point z = 1, adds smooth noise, and runs the extraction loop: the
weighted-gradient statistic picks each concentration point, the reciprocal
gradient sets its scale, the rescaled distance to the rim classifies plane
vs half-plane, and a damped Gauss-Newton fit recovers the bubble.

Run:  python demos/extraction_demo.py
"""

import numpy as np

from cmclab import bubbles as bub
from cmclab import extraction as ex

sphere = bub.sphere_bubble(center=0.0, scale=0.05)
hemi = bub.bubble_from_dict({"preset": "hemisphere", "boundary_angle": 0.0, "scale": 0.1})
seq = bub.SyntheticSequence(bubbles=(sphere, hemi), noise_amp=1e-3, seed=1)
u = bub.synth_sequence(seq, eps=1.0, n_r=256, n_theta=256)

print("planted ground truth:")
for t in u.meta["ground_truth"]:
    print(f"  {t['kind']:<10} center {t['center']:.4f}  scale {t['scale']:.4f}")

value, z_at = ex.weighted_sup_statistic(u, [])
print(f"\ninitial statistic sup = {value:.2f} at z = {z_at:.4f} "
      f"(a simple bubble of scale s peaks at 2*sqrt(2)/s)")

dec = ex.extract(u, ex.ExtractionConfig(seed=5))
print(f"\nrecovered {len(dec.bubbles)} bubble(s), hemisphere count l = {dec.hemisphere_count}")
for fb, t in zip(dec.bubbles, u.meta["ground_truth"]):
    print(f"  {fb.kind:<10} center err {abs(fb.center - t['center']):.2e}"
          f"  scale err {abs(fb.scale - t['scale']) / t['scale']:.2%}"
          f"  family energy/pi {fb.family_energy / np.pi:.4f}"
          f"  fit residual {fb.fit_residual:.2e}")
print(f"pairwise separation statistic: {dec.pairwise_separation[0, 1]:.2f}")
print(f"residual energy {dec.residual_energy:.4g} of initial {dec.initial_energy:.4g}")
print(f"image coverage gap: {dec.coverage_gap:.3g}")

resid = ex.residual_map(u, [fb.bubble for fb in dec.bubbles])
print("\nconcentration function of the final residual (nondecreasing):")
for t in (0.1, 0.5, 2.0):
    value = ex.concentration_function(resid, t)
    print(f"  C({t}) = {value:.4g}")
