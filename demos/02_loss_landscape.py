#!/usr/bin/env python3
"""Binary loss landscapes: where each unsupervised loss pushes a prediction.

For one two-class pixel with learnable distribution (p, 1-p) we trace the
Shannon entropy, the square-sharpening baseline, and the unsupervised focal
loss (estimate fixed at p_hat = 0.6, gamma = 2), then locate each global
minimum.  Shannon and the square loss drive predictions to the 0/1 corners
and go flat at p = 0.5, which is exactly why hard pixels stall under them;
the focal loss keeps a nonzero gradient at 0.5 and bottoms out strictly
inside (0.5, 1).
"""

from segadapt import curve, emit_csv, find_global_min
from segadapt.gradcurves import KINDS, REFERENCE_FOCAL_MIN

curves = {kind: curve(kind, p_hat=0.6, gamma=2.0) for kind in KINDS}

print(f"{'loss':<10} {'L(0.5)':>9} {'dL/dp(0.5)':>11} {'dL/dp(0.55)':>12} {'dL/dp(0.95)':>12}")
for kind, c in curves.items():
    at = {round(p, 4): i for i, p in enumerate(c.p.tolist())}  # grid index of each p
    print(f"{kind:<10} {c.loss[at[0.5]]:>9.4f} {c.grad[at[0.5]]:>11.4f} "
          f"{c.grad[at[0.55]]:>12.4f} {c.grad[at[0.95]]:>12.4f}")

print()
for kind, c in curves.items():
    p_star = find_global_min(c)
    note = f"  (reference value {REFERENCE_FOCAL_MIN})" if kind == "focal" else ""
    print(f"{kind}: global minimum at p = {p_star:.4f}{note}")

emit_csv(list(curves.values()), "curves.csv")
print("\nwrote curves.csv (loss_kind,p,loss,grad) for plotting")
