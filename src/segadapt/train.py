"""Two-stage adaptation training on the synthetic two-domain task.

Stage one optimizes source cross entropy plus the threshold-adaptive
unsupervised focal loss on perturbed target pairs, updating the per-class
threshold state once per target batch.  Stage two restarts from the
source-pretrained weights, keeps the stage-one model frozen as pseudo-labeler,
and adds the weighted cross entropy on cross-domain mixed samples.

All randomness is drawn from named substreams of the config seed, so a full
run is reproducible bit for bit, including the CSV logs and saved models.
``run_pipeline`` is the one writer of a run directory: it writes ``config.txt``
first and then each phase's model and CSVs as that phase ends, so a run that
diverges keeps the files of the phases it finished beside a ``failed.txt``
that says where it stopped.

Every phase takes one checked SGD step, ``_descend``.  Both stages repeat one
step: ``_step`` is its math (the three maps, the threshold update and mask,
stage two's mixed pair, the stage loss); ``_adaptation_loop`` draws the picks,
reads the perturbed branch, descends, logs each step in one place and runs
the periodic eval.  The perturbed branch depends on the stage's pick and
perturb streams only, so a child of ``metrics.forked`` builds it from its own
copies of them once the stage has ``MIN_SHARE`` pixels; either way the loop
reads the same planes, as arrays shaped like a target scene's features.

Training runs in the parameters' dtype: ``pretrain_source`` builds a float32
model, the stages clone it, and every loop casts its features to the model's
dtype.  The loss scalars are float64 (see ``segadapt.autodiff``).  Pseudo
labels come from the float64 forward (``PixelModel.predict_probs``), and
evaluation labels are the float64 labels, screened in float32
(``PixelModel.predict_labels``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from segadapt.config import TrainConfig, format_config
from segadapt.data import generate_domain, perturb, pixel_features
from segadapt.losses import StageLosses, stage1_loss, stage2_loss, supervised_ce_loss
from segadapt.metrics import evaluate_miou, forked
from segadapt.mixing import build_category_db, long_tail_paste, make_mix_mask, mix, pseudo_labels
from segadapt.model import PARAM_NAMES, PixelModel, save_model
from segadapt.netpbm import write_csv
from segadapt.threshold import ThresholdState, adaptive_mask, confidence_and_argmax, update

__all__ = [
    "TrainingDiverged",
    "TrainLog",
    "build_datasets",
    "pretrain_source",
    "train_stage1",
    "train_stage2",
    "mixed_pair",
    "run_pipeline",
    "write_metrics_csv",
    "write_thresholds_csv",
    "write_iou_csv",
]

# named rng substreams of the config seed
_STREAM_SOURCE_DATA = 0
_STREAM_TARGET_DATA = 1
_STREAM_MODEL_INIT = 2
_STREAM_PRETRAIN = 3
_STREAM_STAGE1 = 4
_STREAM_STAGE1_PERTURB = 5
_STREAM_STAGE2 = 6
_STREAM_STAGE2_PERTURB = 7
_STREAM_PASTE = 8
_STREAM_MIX = 9


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss, gradient or update.

    ``step`` is the step that diverged.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass
class TrainLog:
    """Per-step loss components, threshold trajectory, periodic evaluations."""

    metrics: list = field(default_factory=list)     # (step, l_s, l_u, l_m, total)
    thresholds: list = field(default_factory=list)  # (step, class_id, alpha)
    evals: list = field(default_factory=list)       # (step, target_miou)


def _rng(cfg: TrainConfig, stream: int) -> np.random.Generator:
    return np.random.default_rng((cfg.seed, stream))


def _threshold_state(cfg: TrainConfig) -> ThresholdState:
    return ThresholdState.initial(cfg.num_classes, a=cfg.threshold_a,
                                  b=cfg.threshold_b, d=cfg.threshold_d,
                                  t0=cfg.threshold_t0)


def build_datasets(cfg: TrainConfig):
    """Source and target scene lists plus the config that generated them."""
    source = generate_domain(cfg, "source", cfg.source_scenes, (cfg.seed, _STREAM_SOURCE_DATA))
    target = generate_domain(cfg, "target", cfg.target_scenes, (cfg.seed, _STREAM_TARGET_DATA))
    return source, target, cfg


def _descend(model: PixelModel, parts: StageLosses, lr: float, step: int, stage: str) -> tuple:
    """Check and take one SGD step on ``parts.total``; return the metrics row.

    The row is ``(step, l_s, l_u, l_m, total)``, an absent part reading 0.0.  A
    non-finite total, gradient or update raises ``TrainingDiverged``: every
    gradient is checked before any parameter moves, and each update after it,
    since a finite gradient times a rate too large for the dtype writes inf or nan.
    """
    detail = {name: None if part is None else part.item()
              for name, part in (("l_s", parts.l_s), ("l_u", parts.l_u), ("l_m", parts.l_m))}
    total = parts.total.item()
    if not np.isfinite(total):
        raise TrainingDiverged(f"non-finite {stage} loss at step {step}: {detail}", step)
    parts.total.backward()
    for name, p in zip(PARAM_NAMES, model.params):
        if not np.all(np.isfinite(p.grad)):
            raise TrainingDiverged(f"non-finite {stage} gradient of {name} at step {step}",
                                   step)
    for name, p in zip(PARAM_NAMES, model.params):
        p.data = p.data - p.data.dtype.type(lr) * p.grad
        p.zero_grad()
        if not np.all(np.isfinite(p.data)):
            raise TrainingDiverged(f"non-finite {stage} update of {name} at step {step}", step)
    return (step, *(0.0 if v is None else v for v in detail.values()), total)


def _features(model: PixelModel, image) -> np.ndarray:
    """``pixel_features`` in the model's parameter dtype."""
    return pixel_features(image).astype(model.dtype, copy=False)


def pretrain_source(cfg: TrainConfig, source) -> PixelModel:
    """Source-only supervised training, in float32 to halve the per-pixel arithmetic's cost."""
    model = PixelModel(cfg.num_classes, cfg.hidden_units, rng=_rng(cfg, _STREAM_MODEL_INIT),
                       dtype=np.float32)
    feats = [_features(model, img) for img, _ in source]
    flat_labels = [labels.ravel() for _, labels in source]
    rng = _rng(cfg, _STREAM_PRETRAIN)
    for step in range(cfg.pretrain_steps):
        i = int(rng.integers(len(source)))
        loss = supervised_ce_loss(model.prob_map(feats[i]), flat_labels[i])
        _descend(model, StageLosses(total=loss, l_s=loss), cfg.learning_rate, step, "pretraining")
    return model


def _picks(rng_pick, n_source, n_target, steps, stage2):
    """Each step's source and target scene indices, then stage two's mixed pair's, in draw order."""
    for _ in range(steps):
        pick = int(rng_pick.integers(n_source)), int(rng_pick.integers(n_target))
        if stage2:
            pick += int(rng_pick.integers(n_source)), int(rng_pick.integers(n_target))
        yield pick


def _perturbed_branch(cfg, target, picks, rng_perturb, dtype):
    """Each step's perturbed target image's features in ``dtype``."""
    for _, t_idx, *_ in picks:
        x_star = perturb(target[t_idx][0], rng_perturb, noise=cfg.perturb_noise,
                         brightness=cfg.perturb_brightness, contrast=cfg.perturb_contrast)
        # the retired horizontal-flip coin (a flip only reorders a per-pixel classifier's
        # pixels); its draw stays so that every later noise draw and seed 0's bytes do
        rng_perturb.random()
        yield pixel_features(x_star).astype(dtype, copy=False)


def mixed_pair(cfg: TrainConfig, db, source_pair, alpha, target_image, target_labels,
               rng_paste, rng_mix):
    """Long-tail paste into ``source_pair``, then splice it onto the target image."""
    pasted_img, pasted_lab = long_tail_paste(*source_pair, db, alpha, rng_paste, cfg.paste_count)
    return mix(pasted_img, pasted_lab, target_image, target_labels,
               make_mix_mask(pasted_lab, rng_mix))


def train_stage1(cfg: TrainConfig, datasets, init_model: PixelModel):
    """Stage-one adaptation from a copy of ``init_model``; returns the model and its log."""
    return _adaptation_loop(cfg, init_model.clone(), datasets, "stage1", cfg.stage1_steps,
                            cfg.stage1_lr, _STREAM_STAGE1, _STREAM_STAGE1_PERTURB)


def train_stage2(cfg: TrainConfig, stage1_model: PixelModel, datasets,
                 source_model: PixelModel):
    """Stage-two adaptation with mixed samples; returns model and log.

    The optimized model restarts from the source-pretrained weights while the
    frozen stage-one model labels every target scene once, before the loop.
    """
    return _adaptation_loop(cfg, source_model.clone(), datasets, "stage2", cfg.stage2_steps,
                            cfg.stage2_lr, _STREAM_STAGE2, _STREAM_STAGE2_PERTURB,
                            pseudo_model=stage1_model)


def _step(cfg, model, state, feats_s, y_s, feats_t, feats_star, mixing=None):
    """One step's ``StageLosses`` and the ``alpha`` it leaves in ``state``.

    ``mixing`` is stage two's ``(db, source_pair, target_image, target_labels,
    rng_paste, rng_mix)``; its pair is drawn from the updated ``alpha``.
    """
    p_s = model.prob_map(feats_s)
    p_hat = model.prob_map(feats_t)
    p_star = model.prob_map(feats_star)

    confidence, arg_labels = confidence_and_argmax(p_hat.data)
    update(state, confidence, arg_labels)
    mask = adaptive_mask(confidence, arg_labels, state.alpha)
    if mixing is None:
        return stage1_loss(p_s, y_s, p_hat, p_star, mask, cfg), state.alpha

    db, source_pair, target_image, target_labels, rng_paste, rng_mix = mixing
    mixed = mixed_pair(cfg, db, source_pair, state.alpha, target_image, target_labels,
                       rng_paste, rng_mix)
    p_m = model.prob_map(_features(model, mixed.image))
    return stage2_loss(p_s, y_s, p_hat, p_star, mask, p_m, mixed.labels.ravel(),
                       mixed.weights.ravel(), cfg), state.alpha


def _adaptation_loop(cfg, model, datasets, stage, steps, lr, pick_stream, perturb_stream,
                     pseudo_model=None):
    """Drive ``_step`` over a stage's picks; a ``pseudo_model`` adds stage two's mixed pair.

    ``pick_stream`` and ``perturb_stream`` name the stage's rng substreams.
    """
    source, target = datasets
    state = _threshold_state(cfg)
    log = TrainLog()

    feats_s = [_features(model, img) for img, _ in source]
    labels_s = [labels.ravel() for _, labels in source]
    feats_t = [_features(model, img) for img, _ in target]

    if pseudo_model is not None:
        rng_paste = _rng(cfg, _STREAM_PASTE)
        rng_mix = _rng(cfg, _STREAM_MIX)
        db = build_category_db(source, cfg.num_classes)
        pseudo = [pseudo_labels(img, pseudo_model) for img, _ in target]

    def picks():
        return _picks(_rng(cfg, pick_stream), len(source), len(target), steps,
                      pseudo_model is not None)

    plane = feats_t[0]
    branch = _perturbed_branch(cfg, target, picks(), _rng(cfg, perturb_stream), model.dtype)
    with forked(branch, steps, plane, steps * plane.shape[1]) as perturbed:
        for step, (feats_star, (s_idx, t_idx, *mixed_idx)) in enumerate(zip(perturbed, picks())):
            mixing = None
            if mixed_idx:
                d_idx, m_idx = mixed_idx
                mixing = (db, source[d_idx], target[m_idx][0], pseudo[m_idx], rng_paste, rng_mix)
            parts, alpha = _step(cfg, model, state, feats_s[s_idx], labels_s[s_idx],
                                 feats_t[t_idx], feats_star, mixing)

            log.metrics.append(_descend(model, parts, lr, step, stage))
            log.thresholds.extend((step, c, a) for c, a in enumerate(alpha))
            if cfg.eval_every > 0 and (step + 1) % cfg.eval_every == 0:
                _, miou = evaluate_miou(model, target, cfg.num_classes)
                log.evals.append((step, miou))

    return model, log


# ----------------------------------------------------------------- CSV output


def write_metrics_csv(path, rows) -> None:
    write_csv(path, "step,L_s,L_u,L_m,total", zip(*rows))


def write_thresholds_csv(path, rows) -> None:
    write_csv(path, "step,class_id,alpha", zip(*rows))


def write_iou_csv(path, iou: np.ndarray, miou: float) -> None:
    write_csv(path, "class_id,iou", [[*range(len(iou)), "mean"], [*iou, miou]])


# the names run_pipeline writes into a run directory besides config.txt; a run removes
# them there before it starts, so one directory never mixes two runs
_RUN_FILES = ("failed.txt", "baseline_model.npz", "baseline_ious.csv",
              *(f"{stage}_{kind}" for stage in ("stage1", "stage2") for kind in
                ("model.npz", "ious.csv", "metrics.csv", "thresholds.csv", "evals.csv")))


def run_pipeline(cfg: TrainConfig, out_dir) -> dict:
    """Source-only baseline, stage one, stage two, with full evaluation.

    Returns a summary dict.  The files an earlier run left in ``out_dir``
    under this function's own names are removed, and ``config.txt`` (the
    config in the format ``make_config`` reads) is written first.  As each
    phase (``baseline``, ``stage1``, ``stage2``) ends, its model is saved as
    ``<phase>_model.npz`` and, once evaluated, its IoU CSV is written, and for
    a stage its metrics and threshold CSVs, plus its periodic evaluations when
    ``eval_every > 0``.  The bytes are deterministic under a fixed seed.  A
    run that raises keeps the files of the phases it finished; on
    ``TrainingDiverged`` it also writes ``failed.txt``, which names the phase,
    the step and the message, and then re-raises.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _RUN_FILES:
        (out / name).unlink(missing_ok=True)
    (out / "config.txt").write_text(format_config(cfg), encoding="utf-8")
    source, target, _ = build_datasets(cfg)
    datasets = (source, target)
    summary = {}

    def finish(run, model, log=None, source_miou=True):
        """Save phase ``run``'s model, evaluate it, add its summary keys and write its CSVs."""
        save_model(out / f"{run}_model.npz", model)
        iou, miou = evaluate_miou(model, target, cfg.num_classes)
        summary.update({f"{run}_model": model, f"{run}_target_miou": miou,
                        f"{run}_target_iou": iou})
        if source_miou:
            summary[f"{run}_source_miou"] = evaluate_miou(model, source, cfg.num_classes)[1]
        write_iou_csv(out / f"{run}_ious.csv", iou, miou)
        if log is not None:
            summary[f"{run}_log"] = log
            write_metrics_csv(out / f"{run}_metrics.csv", log.metrics)
            write_thresholds_csv(out / f"{run}_thresholds.csv", log.thresholds)
            if cfg.eval_every > 0:
                write_csv(out / f"{run}_evals.csv", "step,target_miou", zip(*log.evals))

    try:
        baseline = pretrain_source(cfg, source)
        finish("baseline", baseline)
        stage1_model, log1 = train_stage1(cfg, datasets=datasets, init_model=baseline)
        finish("stage1", stage1_model, log1)
        finish("stage2", *train_stage2(cfg, stage1_model, datasets=datasets,
                                       source_model=baseline), source_miou=False)
    except TrainingDiverged as err:
        phase = next(run for run in ("baseline", "stage1", "stage2")
                     if f"{run}_model" not in summary)
        (out / "failed.txt").write_text(f"phase = {phase}\nstep = {err.step}\nmessage = {err}\n",
                                        encoding="utf-8")
        raise
    return summary
