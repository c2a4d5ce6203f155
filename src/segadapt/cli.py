"""Command-line interface.

Subcommands: ``gen-data``, ``train``, ``eval``, ``mix-preview``,
``gradcurves``.  ``train`` runs :func:`segadapt.train.run_pipeline` (source
pretraining, stage one, stage two), which writes each phase's model and CSVs
into the run directory as that phase ends.  All but ``gradcurves`` read a
line-oriented ``key = value`` config file; every TrainConfig field is also
exposed as a ``--field-name`` flag that overrides the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from segadapt.config import TrainConfig, make_config
from segadapt.gradcurves import (GRID_POINTS, KINDS, REFERENCE_FOCAL_MIN, curve, emit_csv,
                                 find_global_min)
from segadapt.metrics import evaluate_miou
from segadapt.mixing import build_category_db, pseudo_labels
from segadapt.model import PixelModel, load_model
from segadapt.netpbm import write_pgm, write_ppm
from segadapt.threshold import ThresholdState
from segadapt.train import build_datasets, mixed_pair, run_pipeline, write_iou_csv


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value config file")
    group = parser.add_argument_group("config overrides")
    for field in dataclasses.fields(TrainConfig):
        group.add_argument(f"--{field.name.replace('_', '-')}", dest=field.name,
                           default=None, metavar="V",
                           help=f"override {field.name} (default {field.default})")


def _config_from(args: argparse.Namespace) -> TrainConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
                 if getattr(args, f.name, None) is not None}
    return make_config(args.config, overrides)


def _cmd_gen_data(args) -> int:
    cfg = _config_from(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source, target, _ = build_datasets(cfg)
    for domain, scenes in (("source", source), ("target", target)):
        if args.domain not in (domain, "both"):
            continue
        for i, (image, labels) in enumerate(scenes):
            write_ppm(out / f"{domain}_{i:04d}.ppm", image)
            write_pgm(out / f"{domain}_{i:04d}_labels.pgm", labels)
        print(f"wrote {len(scenes)} {domain} scenes to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _config_from(args)
    out = Path(args.out)
    summary = run_pipeline(cfg, out)
    print(f"source-only target mIoU: {summary['baseline_target_miou']:.4f}")
    print(f"stage-one target mIoU: {summary['stage1_target_miou']:.4f}")
    print(f"stage-two target mIoU: {summary['stage2_target_miou']:.4f}")
    print(f"artifacts in {out}")
    return 0


def _load_model_for(cfg: TrainConfig, path) -> PixelModel:
    """The saved model at ``path``, checked against the class count of ``cfg``."""
    model = load_model(path)
    if model.num_classes != cfg.num_classes:
        raise ValueError(f"num_classes differs: the model at {path} has {model.num_classes} "
                         f"classes, the config has num_classes = {cfg.num_classes}")
    return model


def _cmd_eval(args) -> int:
    cfg = _config_from(args)
    model = _load_model_for(cfg, args.model)
    source, target, _ = build_datasets(cfg)
    dataset = target if args.domain == "target" else source
    iou, miou = evaluate_miou(model, dataset, cfg.num_classes)
    for c, value in enumerate(iou):
        print(f"class {c}: IoU {'n/a' if np.isnan(value) else f'{value:.4f}'}")
    print(f"mIoU: {miou:.4f}")
    if args.out:
        write_iou_csv(args.out, iou, miou)
        print(f"wrote {args.out}")
    return 0


def _cmd_mix_preview(args) -> int:
    if args.preview_seed is not None and args.preview_seed < 0:
        raise ValueError(f"--preview-seed must be a non-negative int, got {args.preview_seed}")
    cfg = _config_from(args)
    model = _load_model_for(cfg, args.model) if args.model else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source, target, _ = build_datasets(cfg)
    rng = np.random.default_rng(cfg.seed if args.preview_seed is None else args.preview_seed)
    db = build_category_db(source, cfg.num_classes)
    alpha = ThresholdState.initial(cfg.num_classes, t0=cfg.threshold_t0).alpha
    source_pair = source[int(rng.integers(len(source)))]
    t_img, t_lab = target[int(rng.integers(len(target)))]
    # without a trained model, preview with the generated labels
    labels_t = t_lab if model is None else pseudo_labels(t_img, model)
    result = mixed_pair(cfg, db, source_pair, alpha, t_img, labels_t, rng, rng)
    write_ppm(out / "mix_image.ppm", result.image)
    write_pgm(out / "mix_labels.pgm", result.labels)
    write_pgm(out / "mix_weights.pgm", result.weights)
    print(f"wrote mix_image.ppm, mix_labels.pgm, mix_weights.pgm to {out}")
    return 0


def _cmd_gradcurves(args) -> int:
    kinds = KINDS if args.kind == "all" else (args.kind,)
    curves = [curve(kind, p_hat=args.p_hat, gamma=args.gamma, grid=args.grid)
              for kind in kinds]
    emit_csv(curves, args.out)
    for curve_obj in curves:
        p_star = find_global_min(curve_obj)
        note = ""
        if curve_obj.kind == "focal":
            note = f" (reference value {REFERENCE_FOCAL_MIN})"
        print(f"{curve_obj.kind}: global minimum at p = {p_star:.4f}{note}")
    print(f"wrote {args.out}")
    return 0


@functools.cache  # built once per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segadapt",
        description="Two-stage entropy-based domain adaptation on a synthetic task")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write generated scenes as PPM/PGM files")
    _add_config_arguments(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--domain", choices=("source", "target", "both"), default="both")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="source pretraining, stage one and stage two")
    _add_config_arguments(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="per-class IoU and mIoU of a saved model")
    _add_config_arguments(p)
    p.add_argument("--model", required=True, help="model .npz")
    p.add_argument("--domain", choices=("source", "target"), default="target")
    p.add_argument("--out", default=None, help="optional IoU CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("mix-preview", help="write one mixed sample as PPM/PGM")
    _add_config_arguments(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", default=None, help="pseudo-labeling model .npz")
    p.add_argument("--preview-seed", type=int, default=None)
    p.set_defaults(func=_cmd_mix_preview)

    p = sub.add_parser("gradcurves", help="loss/gradient curves for the binary case")
    p.add_argument("--kind", choices=KINDS + ("all",), default="all")
    p.add_argument("--p-hat", dest="p_hat", type=float, default=0.6)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--grid", type=int, default=GRID_POINTS)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gradcurves)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
