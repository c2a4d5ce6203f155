#!/usr/bin/env python3
"""End-to-end two-stage adaptation on a reduced synthetic task (~15 s).

Source scenes carry exact labels; target scenes are photometric variants
without labels.  Stage one trains with source cross entropy plus the
threshold-adaptive focal loss on perturbed target pairs.  Stage two restarts
from the source-pretrained weights and adds the mixed-sample loss, with the
frozen stage-one model providing pseudo labels.  The full-size experiment
lives in tests/test_acceptance.py.
"""

import tempfile

import numpy as np

from segadapt import TrainConfig, run_pipeline

cfg = TrainConfig(
    source_scenes=40, target_scenes=40,
    pretrain_steps=250, stage1_steps=700, stage2_steps=700,
    eval_every=0,
)
with tempfile.TemporaryDirectory() as run_dir:  # the run's models and CSVs, not kept
    summary = run_pipeline(cfg, run_dir)

rows = [
    ("source-only baseline", summary["baseline_target_miou"],
     summary["baseline_target_iou"]),
    ("stage one (threshold-adaptive focal)", summary["stage1_target_miou"],
     summary["stage1_target_iou"]),
    ("stage two (+ cross-domain mixing)", summary["stage2_target_miou"],
     summary["stage2_target_iou"]),
]

print(f"\ntarget-domain results (rare class = {cfg.rare_class}):")
print(f"{'model':<38} {'mIoU':>7} {'rare IoU':>9}")
for name, miou, iou in rows:
    print(f"{name:<38} {miou:>7.4f} {iou[cfg.rare_class]:>9.4f}")

gain1 = summary["stage1_target_miou"] - summary["baseline_target_miou"]
gain2 = summary["stage2_target_miou"] - summary["stage1_target_miou"]
print(f"\nstage one adds {100 * gain1:+.1f} mIoU points over the baseline")
print(f"stage two adds {100 * gain2:+.1f} more, mostly on rare-class pixels")

alpha = np.array([a for _, c, a in summary["stage1_log"].thresholds
                  if c == cfg.rare_class])
print(f"\nrare-class threshold during stage one: start {alpha[0]:.3f}, "
      f"min {alpha.min():.3f}, final {alpha[-1]:.3f}")
print("(the bar drops so the hard class keeps contributing to the loss)")
