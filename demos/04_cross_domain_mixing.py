#!/usr/bin/env python3
"""Cross-domain image mixing, step by step, with file previews.

Builds the per-class donor database from source scenes, pastes a
threshold-favored class into a source sample, splices half of its classes
onto a target scene, and derives the boundary-doubled loss weights.
Writes mix_image.ppm / mix_labels.pgm / mix_weights.pgm for inspection.
"""

import numpy as np

from segadapt import (
    ThresholdState,
    TrainConfig,
    build_category_db,
    long_tail_paste,
    make_mix_mask,
    mix,
)
from segadapt.netpbm import write_pgm, write_ppm
from segadapt.train import build_datasets

cfg = TrainConfig(source_scenes=20, target_scenes=20)
source, target, _ = build_datasets(cfg)
rng = np.random.default_rng(3)

db = build_category_db(source, cfg.num_classes)
print("donor scenes per class:", [len(m) for m in db.members])

# thresholds after some training would favor hard classes; mimic that here
alpha = ThresholdState.initial(cfg.num_classes).alpha.copy()
alpha[cfg.rare_class] = 0.5
pasted_img, pasted_lab = long_tail_paste(*source[0], db, alpha, rng, count=2)
before = sorted(int(c) for c in np.unique(source[0][1]))
after = sorted(int(c) for c in np.unique(pasted_lab))
print("classes present before paste:", before)
print("classes present after paste :", after,
      f"(new: {sorted(set(after) - set(before)) or 'none, donors overlapped'})")

mask = make_mix_mask(pasted_lab, rng)
result = mix(pasted_img, pasted_lab, target[0][0], target[0][1], mask)
print(f"mix mask keeps {mask.mean():.1%} of the source sample")
print(f"boundary-doubled pixels: {(result.weights == 2).mean():.1%}")

# the composition is pixel-exact by construction
assert np.array_equal(result.image[:, mask], pasted_img[:, mask])
assert np.array_equal(result.image[:, ~mask], target[0][0][:, ~mask])
print("composition check: exact")

write_ppm("mix_image.ppm", result.image)
write_pgm("mix_labels.pgm", result.labels)
write_pgm("mix_weights.pgm", result.weights)
print("wrote mix_image.ppm, mix_labels.pgm, mix_weights.pgm")
