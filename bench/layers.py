"""Which segadapt callables the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/segadapt``.  ``config`` and ``netpbm`` do no
material work in any workload and are not wrapped.  Every per-layer metric
is reported on every workload; a layer that does not run there reads 0.
"""

from __future__ import annotations

import importlib

from tracer import Tracer, graph_nodes

# "module:attribute" in the namespace where the caller looks the name up -> span name
_TARGETS = [
    ("segadapt.autodiff:Tensor.backward", "autodiff.backward"),
    ("segadapt.model:PixelModel.prob_map", "model.prob_map"),
    ("segadapt.train:pixel_features", "data.pixel_features"),
    ("segadapt.model:pixel_features", "data.pixel_features"),    # PixelModel.predict_probs
    ("segadapt.train:perturb", "data.perturb"),
    ("segadapt.train:generate_domain", "data.generate_domain"),  # build_datasets
    ("segadapt.train:stage1_loss", "losses.stage1_loss"),
    ("segadapt.train:stage2_loss", "losses.stage2_loss"),
    ("segadapt.train:supervised_ce_loss", "losses.supervised_ce_loss"),   # pretrain_source
    ("segadapt.losses:supervised_ce_loss", "losses.supervised_ce_loss"),  # stage losses
    ("segadapt.losses:unsupervised_focal_loss", "losses.unsupervised_focal_loss"),
    ("segadapt.losses:shannon_entropy_loss", "losses.shannon_entropy_loss"),
    ("segadapt.gradcurves:shannon_entropy_loss", "losses.shannon_entropy_loss"),
    ("segadapt.gradcurves:maximum_square_loss", "losses.maximum_square_loss"),
    ("segadapt.gradcurves:unsupervised_focal_loss", "losses.unsupervised_focal_loss"),
    ("segadapt.train:confidence_and_argmax", "threshold.confidence_and_argmax"),
    ("segadapt.mixing:confidence_and_argmax", "threshold.confidence_and_argmax"),  # pseudo_labels
    ("segadapt.train:update", "threshold.update"),
    ("segadapt.train:adaptive_mask", "threshold.adaptive_mask"),
    ("segadapt.train:build_category_db", "mixing.build_category_db"),
    ("segadapt.train:long_tail_paste", "mixing.long_tail_paste"),
    ("segadapt.train:make_mix_mask", "mixing.make_mix_mask"),
    ("segadapt.train:mix", "mixing.mix"),
    ("segadapt.train:pseudo_labels", "mixing.pseudo_labels"),
    ("segadapt.train:evaluate_miou", "metrics.evaluate_miou"),
    ("segadapt.metrics:evaluate_miou", "metrics.evaluate_miou"),  # the inference workload
    ("segadapt.metrics:confusion_matrix", "metrics.confusion_matrix"),
    ("segadapt.cli:curve", "gradcurves.curve"),
    ("segadapt.cli:find_global_min", "gradcurves.find_global_min"),
    ("segadapt.cli:emit_csv", "gradcurves.emit_csv"),
    ("segadapt.train:run_pipeline", "train.run_pipeline"),
    ("segadapt.train:build_datasets", "train.build_datasets"),
    ("segadapt.train:pretrain_source", "train.pretrain_source"),
    ("segadapt.train:train_stage1", "train.train_stage1"),
    ("segadapt.train:train_stage2", "train.train_stage2"),
    ("segadapt.train:write_metrics_csv", "train.write_metrics_csv"),
    ("segadapt.train:write_thresholds_csv", "train.write_thresholds_csv"),
    ("segadapt.train:write_iou_csv", "train.write_iou_csv"),
    ("segadapt.cli:main", "cli.main"),
]

# span names whose self time is the training functions' own work: the SGD
# update, take_cols, the loop body and logging
_TRAIN_LOOP = ("train.pretrain_source", "train.train_stage1", "train.train_stage2")
_CSV_WRITERS = ("train.write_metrics_csv", "train.write_thresholds_csv", "train.write_iou_csv")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "autodiff.backward.calls": ("count", "lower"),
    "autodiff.backward.self_s": ("s", "lower"),
    "autodiff.backward.nodes": ("count", "lower"),
    "model.prob_map.calls": ("count", "lower"),
    "model.prob_map.self_s": ("s", "lower"),
    "losses.stage1_loss.self_s": ("s", "lower"),
    "losses.stage2_loss.self_s": ("s", "lower"),
    "losses.supervised_ce_loss.self_s": ("s", "lower"),
    "losses.shannon_entropy_loss.self_s": ("s", "lower"),
    "losses.maximum_square_loss.self_s": ("s", "lower"),
    "losses.unsupervised_focal_loss.self_s": ("s", "lower"),
    "data.pixel_features.calls": ("count", "lower"),
    "data.pixel_features.self_s": ("s", "lower"),
    "data.perturb.self_s": ("s", "lower"),
    "data.generate_domain.self_s": ("s", "lower"),
    "threshold.confidence_and_argmax.self_s": ("s", "lower"),
    "threshold.update.self_s": ("s", "lower"),
    "threshold.adaptive_mask.self_s": ("s", "lower"),
    "threshold.kept_frac": ("ratio", "higher"),
    "mixing.long_tail_paste.self_s": ("s", "lower"),
    "mixing.make_mix_mask.self_s": ("s", "lower"),
    "mixing.mix.self_s": ("s", "lower"),
    "mixing.pseudo_labels.calls": ("count", "lower"),
    "mixing.pseudo_cache_hit_ratio": ("ratio", "higher"),
    "metrics.evaluate_miou.calls": ("count", "lower"),
    "metrics.evaluate_miou.self_s": ("s", "lower"),
    "metrics.confusion_matrix.self_s": ("s", "lower"),
    "gradcurves.curve.self_s": ("s", "lower"),
    "gradcurves.find_global_min.self_s": ("s", "lower"),
    "gradcurves.emit_csv.self_s": ("s", "lower"),
    "train.build_datasets.s": ("s", "lower"),
    "train.pretrain_source.s": ("s", "lower"),
    "train.train_stage1.s": ("s", "lower"),
    "train.train_stage2.s": ("s", "lower"),
    "train.loop.self_s": ("s", "lower"),
    "train.write_csv.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary; ``tracer.restore()`` undoes it."""
    def count_nodes(root):
        tracer.count("backward.nodes", graph_nodes(root))

    def count_mask(mask, *_):
        tracer.count("mask.kept", int(mask.sum()))
        tracer.count("mask.scored", int(mask.size))

    hooks = {"autodiff.backward": {"before": count_nodes},
             "threshold.adaptive_mask": {"after": count_mask}}
    for target, name in _TARGETS:
        module, _, path = target.partition(":")
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, **hooks.get(name, {}))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``, which needs an untraced run."""
    spans = tracer.summary()

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {}
    for metric in PER_LAYER:
        span, _, key = metric.rpartition(".")
        if key == "calls":
            out[metric] = get(span, "calls")
        elif key == "self_s":
            out[metric] = get(span, "self_s")
        elif key == "s":
            out[metric] = get(span, "total_s")
    out["autodiff.backward.nodes"] = tracer.counts.get("backward.nodes", 0)
    scored = tracer.counts.get("mask.scored", 0)
    out["threshold.kept_frac"] = tracer.counts.get("mask.kept", 0) / scored if scored else 0.0
    stage2_steps = get("losses.stage2_loss", "calls")
    out["mixing.pseudo_cache_hit_ratio"] = (
        1.0 - get("mixing.pseudo_labels", "calls") / stage2_steps if stage2_steps else 0.0)
    out["train.loop.self_s"] = sum(get(name, "self_s") for name in _TRAIN_LOOP)
    out["train.write_csv.self_s"] = sum(get(name, "self_s") for name in _CSV_WRITERS)
    return out
