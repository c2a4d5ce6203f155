"""Entropy-based two-stage unsupervised domain adaptation toolkit.

Self-contained numpy/scipy library: a minimal reverse-mode autodiff engine,
the entropy/focal loss family with class-level adaptive thresholds,
cross-domain image mixing, a synthetic two-domain segmentation pipeline,
and a binary gradient-landscape analyzer.
"""

from segadapt.autodiff import Tensor, ShapeMismatchError, tensor, concat, linear, take_cols
from segadapt.config import TrainConfig, make_config, parse_config_file
from segadapt.data import SceneSpec, generate_domain, perturb, pixel_features, scene_spec
from segadapt.gradcurves import curve, emit_csv, find_global_min
from segadapt.losses import (
    IGNORE_LABEL,
    LossConfig,
    adjusted_kl_loss,
    focal_decomposition_check,
    maximum_square_loss,
    mixed_ce_loss,
    shannon_entropy_loss,
    stage1_loss,
    stage2_loss,
    supervised_ce_loss,
    supervised_focal_loss,
    unsupervised_focal_loss,
)
from segadapt.metrics import evaluate_miou
from segadapt.mixing import (
    CategoryDatabase,
    MixResult,
    boundary_weights,
    build_category_db,
    long_tail_paste,
    make_mix_mask,
    mix,
    pseudo_labels,
)
from segadapt.model import PixelModel, load_model, save_model
from segadapt.threshold import (
    ThresholdState,
    adaptive_mask,
    class_selection_distribution,
    confidence_and_argmax,
    ema_update,
    fixed_mask,
    per_sample_threshold,
)
from segadapt.train import pretrain_source, run_pipeline, train_stage1, train_stage2

__version__ = "0.1.0"
