import csv
import dataclasses
import itertools
import math
import multiprocessing
import os
import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segadapt.autodiff import Tensor
from segadapt.config import TrainConfig, format_config, make_config, parse_config_file
from segadapt.data import NUM_FEATURES, perturb, pixel_features
from segadapt.losses import (
    StageLosses,
    adjusted_kl_loss,
    shannon_entropy_loss,
    stage1_loss,
    stage2_loss,
    supervised_ce_loss,
)
import segadapt.metrics as metrics_module
from segadapt.metrics import evaluate_miou
from segadapt.model import PARAM_NAMES, PixelModel, load_model, save_model
from segadapt.threshold import adaptive_mask, confidence_and_argmax, fixed_mask
import segadapt.train as train_module
from segadapt.train import (
    TrainingDiverged,
    build_datasets,
    pretrain_source,
    run_pipeline,
    train_stage1,
    train_stage2,
    write_iou_csv,
)

from _fd import rel_error

SMALL = dict(height=32, width=32, source_scenes=30, target_scenes=30,
             pretrain_steps=150, stage1_steps=400, stage2_steps=400, eval_every=0)


@pytest.fixture(scope="module")
def small_run():
    cfg = TrainConfig(**SMALL)
    source, target, _ = build_datasets(cfg)
    base = pretrain_source(cfg, source)
    stage1_model, log1 = train_stage1(cfg, datasets=(source, target), init_model=base)
    return cfg, source, target, base, stage1_model, log1


# -------------------------------------------------------------------- config

def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 3\nlambda_u = 0.1  # inline note\n"
                    "gamma = 0.5\n\n")
    values = parse_config_file(path)
    assert values == {"seed": 3, "lambda_u": 0.1, "gamma": 0.5}
    cfg = make_config(path, {"lambda_u": "0.2"})
    assert cfg.seed == 3
    assert cfg.lambda_u == 0.2  # flag overrides file
    assert cfg.gamma == 0.5


def test_make_config_refuses_a_typed_override_naming_the_key():
    # overrides are text, as flags give them; typed values go to TrainConfig or replace
    with pytest.raises(TypeError, match=r"^gamma must be given as text, got 0\.5$"):
        make_config(overrides={"gamma": 0.5})


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 3\nnot_a_field = 1\n")
    with pytest.raises(KeyError, match=re.escape(f"{path}:2: unknown config key: 'not_a_field'")):
        parse_config_file(path)


def test_config_rejects_a_run_directory_written_with_the_flip_knob(tmp_path):
    # a config.txt written while the perturbed branch still had a horizontal flip
    path = tmp_path / "config.txt"
    text = format_config(TrainConfig())
    text = text.replace("perturb_contrast = 0.08\n", "perturb_contrast = 0.08\nflip_prob = 0.5\n")
    path.write_text(text)
    lineno = text.splitlines().index("flip_prob = 0.5") + 1
    message = f"{path}:{lineno}: unknown config key: 'flip_prob'"
    with pytest.raises(KeyError, match=re.escape(message)):
        make_config(path)


def test_config_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    message = f"{path}:2: duplicate key 'seed' (first set on line 1)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        parse_config_file(path)


@pytest.mark.parametrize("field, raw, kind", [
    ("gamma", "abc", "a number"),
    ("gamma", "", "a number"),
    ("seed", "0.5", "an int"),
    ("stage1_steps", "1e3", "an int"),
], ids=["number_abc", "number_empty", "int_half", "int_exponent"])
def test_config_names_the_field_of_a_malformed_value(tmp_path, field, raw, kind):
    message = f"{field} must be {kind}, got {raw!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make_config(overrides={field: raw})
    path = tmp_path / "bad.cfg"
    path.write_text(f"# a comment line\n{field} = {raw}\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: {message}") + "$"):
        parse_config_file(path)


# a wrong-typed value fails on its type row, before a range row or a later use
# (``range(2.5)``, ``default_rng(True)``) meets it with a message that names no field
@pytest.mark.parametrize("field, value, got", [
    ("pretrain_steps", 2.5, "an int, got 2.5"),
    ("height", 32.0, "an int, got 32.0"),
    ("hidden_units", 4.0, "an int, got 4.0"),
    ("source_scenes", 2.0, "an int, got 2.0"),
    ("paste_count", 1.5, "an int, got 1.5"),
    ("eval_every", 2.5, "an int, got 2.5"),
    ("seed", True, "an int, got True"),
    ("seed", np.bool_(True), "an int, got True"),
    ("gamma", "2", "a number, got 2"),
    ("lambda_u", False, "a number, got False"),
    ("threshold_a", None, "a number, got None"),
], ids=["steps_float", "height_float", "hidden_float", "scenes_float", "paste_float",
        "eval_every_float", "seed_bool", "seed_numpy_bool", "gamma_str", "lambda_u_bool",
        "threshold_a_none"])
def test_config_checks_each_fields_type_first_naming_the_field(field, value, got):
    message = f"^{field} must be {re.escape(got)}$"
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(TrainConfig(), **{field: value})


def test_config_takes_numpy_integers_and_any_real_number_for_a_float_field():
    cfg = TrainConfig(height=np.int64(32), seed=np.uint8(3), hidden_units=np.int32(4),
                      gamma=2, lambda_u=np.float32(0.5), threshold_d=np.int16(8))
    assert (cfg.height, cfg.seed, cfg.hidden_units) == (32, 3, 4)
    assert (cfg.gamma, cfg.lambda_u, cfg.threshold_d) == (2.0, 0.5, 8.0)


def test_config_round_trip_through_format(tmp_path):
    cfg = TrainConfig(seed=9, gamma=3.0)
    path = tmp_path / "dump.cfg"
    path.write_text(format_config(cfg))
    assert make_config(path) == cfg


# the loss fields' edges: epsilon in (0, 1); gamma, lambda_u and lambda_m finite and >= 0
_TINY = 5e-324  # the smallest positive double


@pytest.mark.parametrize("field, value, ok", [
    ("epsilon", _TINY, True),
    ("epsilon", float(np.nextafter(1.0, 0.0)), True),
    ("epsilon", 0.0, False),
    ("epsilon", 1.0, False),
    ("epsilon", float("nan"), False),
    ("gamma", 0.0, True),
    ("gamma", -_TINY, False),
    ("gamma", float("nan"), False),
    ("lambda_u", 0.0, True),
    ("lambda_u", -_TINY, False),
    ("lambda_m", 0.0, True),
    ("lambda_m", -_TINY, False),
    # an infinite gamma gives NaN focal terms; an infinite weight, an infinite loss
    ("gamma", float("inf"), False),
    ("lambda_u", float("inf"), False),
    ("lambda_u", float("nan"), False),
    ("lambda_m", float("inf"), False),
    ("lambda_m", float("nan"), False),
])
def test_config_checks_the_loss_fields_naming_the_field(field, value, ok):
    for build in (lambda: TrainConfig(**{field: value}),
                  lambda: make_config(overrides={field: repr(value)})):
        if ok:
            assert getattr(build(), field) == value
        else:
            with pytest.raises(ValueError, match=f"^{field} must"):
                build()


# the threshold EMA's edges: a in [0, 1], b in (0, 1], d finite and >= 0, t0 in (0, 1]
_BELOW_ONE, _ABOVE_ONE = float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0))


@pytest.mark.parametrize("field, inside, outside", [
    ("threshold_a", [0.0, _BELOW_ONE, 1.0], [-_TINY, _ABOVE_ONE, float("nan")]),
    ("threshold_b", [_TINY, 1.0], [0.0, _ABOVE_ONE, float("nan")]),
    ("threshold_d", [0.0], [-_TINY, float("nan"), float("inf")]),
    ("threshold_t0", [_TINY, 1.0], [0.0, _ABOVE_ONE, float("nan")]),
], ids=["threshold_a", "threshold_b", "threshold_d", "threshold_t0"])
def test_config_checks_the_threshold_fields_naming_the_field(field, inside, outside):
    _assert_range(field, inside, outside)


def _assert_range(field, inside, outside):
    """Each inside value builds, each outside value fails naming ``field``, both ways."""
    for value in inside:
        assert getattr(TrainConfig(**{field: value}), field) == value
        assert getattr(make_config(overrides={field: repr(value)}), field) == value
    for value in outside:
        for build in (lambda: TrainConfig(**{field: value}),
                      lambda: make_config(overrides={field: repr(value)})):
            with pytest.raises(ValueError, match=f"^{field} must"):
                build()


# scene counts >= 1, seed >= 0, fill_prob in [0, 1], hidden_units >= 1: outside these
# numpy fails without naming the field (high <= 0, a negative seed), a NaN fill_prob fills
# every cell, and 0 hidden units leave the model no hidden layer; learning rates finite
# and > 0, step counts and paste_count >= 0, perturbation magnitudes finite and >= 0,
# eval_every >= 0 (a negative one would evaluate nothing without a word)
_NAN, _INF = float("nan"), float("inf")
_COUNT_AND_PROBABILITY_RANGES = [
    ("source_scenes", [1], [0]),
    ("target_scenes", [1], [0]),
    ("seed", [0], [-1]),
    ("fill_prob", [0.0, 1.0], [float("nan"), -_TINY, 1.5]),
    ("hidden_units", [1], [0]),
    ("learning_rate", [_TINY], [0.0, -1.0, _NAN, _INF]),
    ("stage1_lr", [_TINY], [0.0, _NAN, _INF]),
    ("stage2_lr", [_TINY], [0.0, -1.0, _NAN]),
    ("pretrain_steps", [0], [-1, -5]),
    ("stage1_steps", [0], [-1]),
    ("stage2_steps", [0], [-1]),
    ("paste_count", [0], [-1]),
    ("perturb_noise", [0.0], [-_TINY, -0.1, _INF]),
    ("perturb_brightness", [0.0, 1.0], [-_TINY, _ABOVE_ONE, _INF, _NAN]),
    ("perturb_contrast", [0.0, 1.0], [-_TINY, -0.2, _ABOVE_ONE, _INF]),
    ("eval_every", [0, 1], [-1]),
]


@pytest.mark.parametrize("field, inside, outside", _COUNT_AND_PROBABILITY_RANGES,
                         ids=[row[0] for row in _COUNT_AND_PROBABILITY_RANGES])
def test_config_checks_the_count_and_probability_fields_naming_the_field(field, inside,
                                                                          outside):
    _assert_range(field, inside, outside)


# the target domain's photometric shift: a finite hue offset (NaN gives an all-NaN image),
# a finite brightness factor > 0 (-1 gives a near-black image), a noise scale that is
# finite and >= 0 (a negative or NaN scale skipped the noise without a word)
_MAX = float(np.finfo(np.float64).max)
_SHIFT_RANGES = [
    ("shift_hue", [-_MAX, -0.5, 0.0, _MAX], [_NAN, _INF, -_INF]),
    ("shift_brightness", [_TINY, _MAX], [0.0, -_TINY, -1.0, _NAN, _INF]),
    ("shift_noise", [0.0, _TINY], [-0.0, -_TINY, -0.5, _NAN, _INF]),
]


@pytest.mark.parametrize("field, inside, outside", _SHIFT_RANGES,
                         ids=[row[0] for row in _SHIFT_RANGES])
def test_config_checks_the_shift_fields_naming_the_field(field, inside, outside):
    _assert_range(field, inside, outside)


# values just inside and just outside each field's range, as a tiny pipeline meets them,
# wrong-typed values and numpy integers or ints that a field takes; huge finite
# magnitudes are no edge and are left out (a learning rate of 1e308 diverges)
_EDGES = {
    "num_classes": [1, 2, 5, 6], "source_scenes": [0, 1, 2.0], "target_scenes": [0, 1],
    "seed": [-1, 0, True], "cell": [5, 6, 8, 32],
    "height": [-16, 0, 15, 16, 48, 32.0, np.int64(32)], "width": [-16, 0, 15, 16, 48],
    "fill_prob": [-_TINY, 0.0, 1.0, _ABOVE_ONE, _NAN],
    "rare_class": [-1, 0, 1, 4, 5], "rare_weight": [-0.0, 0.0, _TINY, _NAN, _INF],
    "color_noise": [-0.0, 0.0, _TINY, _NAN, _INF], "shift_hue": [-_MAX, _MAX, _NAN, -_INF],
    "shift_brightness": [0.0, _TINY, _MAX, _NAN, _INF],
    "shift_noise": [-0.0, 0.0, _TINY, _NAN, _INF], "hidden_units": [0, 1, 4.0, np.int32(4)],
    "learning_rate": [0.0, _TINY, _NAN, _INF], "stage1_lr": [0.0, _TINY, _NAN, _INF],
    "stage2_lr": [0.0, _TINY, _NAN, _INF], "pretrain_steps": [-1, 0, 2.5],
    "stage1_steps": [-1, 0], "stage2_steps": [-1, 0], "paste_count": [-1, 0, 5, 1.5],
    "epsilon": [0.0, _TINY, _BELOW_ONE, 1.0, _NAN],
    "gamma": [-_TINY, 0.0, _TINY, _NAN, _INF, 2, "2"],
    "lambda_u": [-_TINY, 0.0, _NAN, _INF, False], "lambda_m": [-_TINY, 0.0, _NAN, _INF],
    "threshold_a": [-_TINY, 0.0, _BELOW_ONE, 1.0, _ABOVE_ONE, _NAN],
    "threshold_b": [0.0, _TINY, 1.0, _ABOVE_ONE, _NAN],
    "threshold_d": [-_TINY, 0.0, _NAN, _INF],
    "threshold_t0": [0.0, _TINY, 1.0, _ABOVE_ONE, _NAN],
    "perturb_noise": [-0.0, 0.0, _TINY, _NAN, _INF],
    "perturb_brightness": [-0.0, 0.0, _TINY, 1.0, _ABOVE_ONE, _NAN, _INF],
    "perturb_contrast": [-0.0, 0.0, _TINY, 1.0, _ABOVE_ONE, _NAN, _INF],
    "eval_every": [-1, 0, 1, 2.5],
}
_NAMES_A_FIELD = re.compile(rf"^({'|'.join(f.name for f in dataclasses.fields(TrainConfig))}) must")
# 32x32 scenes, cell 16, 4 scenes per domain, 3 steps per phase: about 20 ms a pipeline
_TINY_RUN = dict(height=32, width=32, cell=16, source_scenes=4, target_scenes=4,
                 pretrain_steps=3, stage1_steps=3, stage2_steps=3, eval_every=0)


def test_config_edges_cover_every_field():
    assert set(_EDGES) == {f.name for f in dataclasses.fields(TrainConfig)}


@settings(max_examples=100, deadline=None)  # about 1 s: one draw in five trains
@given(st.lists(st.sampled_from([(f, v) for f, values in _EDGES.items() for v in values]),
                min_size=1, max_size=3))
def test_config_edges_fail_naming_a_field_or_train_to_finite_metrics(edits):
    with tempfile.TemporaryDirectory() as out:
        try:
            run_pipeline(TrainConfig(**{**_TINY_RUN, **dict(edits)}), out)
        except ValueError as exc:
            assert _NAMES_A_FIELD.match(str(exc)), exc
            return
        for stage in ("stage1", "stage2"):
            with open(Path(out) / f"{stage}_metrics.csv", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row), (stage, rows)


# --------------------------------------------------------------------- model

def test_model_prob_map_is_valid_distribution():
    rng = np.random.default_rng(0)
    model = PixelModel(num_classes=5, hidden=8, rng=rng)
    feats = rng.random((NUM_FEATURES, 40))  # (F, N) feature planes
    probs = model.prob_map(feats)
    assert probs.shape == (5, 40)
    assert np.allclose(probs.data.sum(axis=0), 1.0, atol=1e-10)
    assert np.all(probs.data > 0.0)


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    model = PixelModel(num_classes=4, hidden=6, rng=rng)
    path = tmp_path / "model.npz"
    save_model(path, model)
    twin = load_model(path)
    image = rng.random((3, 8, 8))
    assert np.array_equal(model.predict_labels(image), twin.predict_labels(image))


def test_load_model_reads_file_with_num_features_key(tmp_path):
    # files saved before the feature count became a constant carry this key
    model = PixelModel(num_classes=3, hidden=5, rng=np.random.default_rng(7))
    path = tmp_path / "old.npz"
    np.savez(path, num_classes=3, hidden=5, num_features=NUM_FEATURES, **model.state_dict())
    twin = load_model(path)
    for name, values in model.state_dict().items():
        assert np.array_equal(twin.state_dict()[name], values)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_load_and_clone_keep_the_parameter_dtype(tmp_path, dtype):
    model = PixelModel(num_classes=3, hidden=4, rng=np.random.default_rng(8), dtype=dtype)
    path = tmp_path / "model.npz"
    save_model(path, model)
    for twin in (load_model(path), model.clone()):
        assert twin.dtype == dtype
        for name, values in model.state_dict().items():
            got = twin.state_dict()[name]
            assert got.dtype == dtype and np.array_equal(got, values)


def test_predict_probs_is_float64_for_either_parameter_dtype():
    image = np.random.default_rng(9).random((3, 8, 8))
    for dtype in (np.float32, np.float64):
        model = PixelModel(num_classes=4, hidden=6, rng=np.random.default_rng(4), dtype=dtype)
        probs = model.predict_probs(image)
        assert probs.dtype == np.float64 and probs.shape == (4, 8, 8)
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)


def test_model_clone_is_independent():
    model = PixelModel(num_classes=3, hidden=4, rng=np.random.default_rng(2))
    twin = model.clone()
    twin.w1.data[0, 0] += 1.0
    assert model.w1.data[0, 0] != twin.w1.data[0, 0]


# ------------------------------------------------------------- training loops

def test_optimizer_gradients_spot_finite_difference():
    # The exact loss assembled by a stage-one step, checked against central
    # differences on 10 parameters.  Perturbation, mask, AND the detached
    # pseudo-label snapshot are frozen: the optimizer descends the objective
    # in which the soft pseudo label is a constant, so that is the function
    # the oracle must differentiate.
    cfg = TrainConfig(**SMALL)
    source, target, _ = build_datasets(cfg)
    model = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(3))
    feats_s = pixel_features(source[0][0])
    y_s = source[0][1].ravel()
    feats_t = pixel_features(target[0][0])
    x_star = perturb(target[0][0], np.random.default_rng(4))
    feats_star = pixel_features(x_star)
    loss_cfg = TrainConfig()
    snapshot = Tensor(model.prob_map(feats_t).data.copy())

    def loss_value(mask):
        p_hat_live = model.prob_map(feats_t)
        l_s = supervised_ce_loss(model.prob_map(feats_s), y_s, loss_cfg.epsilon)
        l_u = (shannon_entropy_loss(p_hat_live, mask, loss_cfg.epsilon)
               + adjusted_kl_loss(snapshot, model.prob_map(feats_star), mask,
                                  loss_cfg.gamma, loss_cfg.epsilon))
        return l_s + loss_cfg.lambda_u * l_u

    conf, labs = confidence_and_argmax(snapshot.data)
    mask = adaptive_mask(conf, labs, np.full(cfg.num_classes, np.median(conf)))
    assert mask.any() and not mask.all()

    total_tensor = loss_value(mask)
    # identical to the training-loop objective at the snapshot point
    training = stage1_loss(model.prob_map(feats_s), y_s, model.prob_map(feats_t),
                           model.prob_map(feats_star), mask, loss_cfg)
    assert total_tensor.item() == pytest.approx(training.total.item(), abs=1e-12)
    total_tensor.backward()

    rng = np.random.default_rng(5)
    picks = [(p, i) for p in model.params
             for i in rng.choice(p.data.size, size=3, replace=False)]
    rng.shuffle(picks)
    picks = picks[:10]
    eps = 1e-5
    ad, fd = [], []
    for param, flat_index in picks:
        ad.append(param.grad.reshape(-1)[flat_index])
        original = param.data.copy()
        param.data = original.copy()
        param.data.reshape(-1)[flat_index] += eps
        hi = loss_value(mask).item()
        param.data = original.copy()
        param.data.reshape(-1)[flat_index] -= eps
        lo = loss_value(mask).item()
        param.data = original
        fd.append((hi - lo) / (2 * eps))
    assert rel_error(np.array(ad), np.array(fd)) < 1e-4


def test_stage1_logs_and_decomposition(small_run):
    cfg, _, _, _, _, log1 = small_run
    assert len(log1.metrics) == cfg.stage1_steps
    assert len(log1.thresholds) == cfg.stage1_steps * cfg.num_classes
    for step, l_s, l_u, l_m, total in log1.metrics[::37]:
        assert np.isfinite(total)
        assert abs(total - (l_s + cfg.lambda_u * l_u + cfg.lambda_m * l_m)) < 1e-12
    alphas = np.array([a for _, _, a in log1.thresholds])
    assert np.all((alphas >= 0.0) & (alphas <= 1.0))


def test_step_reproduces_stage_one_first_logged_steps(small_run):
    # stage one's first two steps, rebuilt serially from the stage's own streams and fed
    # to _step and _descend, give the run's metrics rows and thresholds bit for bit
    cfg, source, target, base, _, log1 = small_run
    model, state, rng = base.clone(), train_module._threshold_state(cfg), train_module._rng
    picks = list(train_module._picks(rng(cfg, train_module._STREAM_STAGE1), len(source),
                                     len(target), 2, False))
    items = list(train_module._perturbed_branch(
        cfg, target, picks, rng(cfg, train_module._STREAM_STAGE1_PERTURB), model.dtype))
    for step, ((s_idx, t_idx), item) in enumerate(zip(picks, items)):
        (s_img, s_labels), (t_img, _) = source[s_idx], target[t_idx]
        feats_t = train_module._features(model, t_img)
        assert np.asarray(item).nbytes == feats_t.nbytes  # the planes alone
        feats_star = np.frombuffer(item, feats_t.dtype).reshape(feats_t.shape)
        parts, alpha = train_module._step(
            cfg, model, state, train_module._features(model, s_img), s_labels.ravel(),
            feats_t, feats_star)
        row = train_module._descend(model, parts, cfg.stage1_lr, step, "stage1")
        assert np.array(row).tobytes() == np.array(log1.metrics[step]).tobytes()
        logged = [a for at, _, a in log1.thresholds if at == step]
        assert alpha.tobytes() == np.array(logged).tobytes()


def test_stage1_with_full_threshold_memory_masks_at_the_fixed_cutoff(small_run, monkeypatch):
    # at threshold_a = 1 the EMA keeps no part of a candidate, so every alpha stays t0
    # and the adaptive mask is the fixed-cutoff mask at t0: a fixed-threshold run
    cfg, source, target, base, _, _ = small_run
    cfg1 = dataclasses.replace(cfg, threshold_a=1.0)
    masked = []

    def checked_mask(confidence, labels, alpha):
        mask = adaptive_mask(confidence, labels, alpha)
        assert np.array_equal(mask, fixed_mask(confidence, cfg1.threshold_t0))
        masked.append(mask.mean())
        return mask

    monkeypatch.setattr(train_module, "adaptive_mask", checked_mask)
    _, log = train_stage1(cfg1, datasets=(source, target), init_model=base)
    assert len(masked) == cfg1.stage1_steps and 0.0 < np.mean(masked) < 1.0
    assert all(a == cfg1.threshold_t0 for _, _, a in log.thresholds)
    assert len(log.thresholds) == cfg1.stage1_steps * cfg1.num_classes


def test_stage1_alpha_leaves_t0(small_run):
    # the per-step threshold update is what moves alpha off its start value
    cfg, _, _, _, _, log1 = small_run
    alphas = np.array([a for _, _, a in log1.thresholds])
    assert np.any(alphas != cfg.threshold_t0)


def test_stage1_improves_target_miou(small_run):
    cfg, source, target, base, stage1_model, _ = small_run
    _, base_miou = evaluate_miou(base, target, cfg.num_classes)
    _, s1_miou = evaluate_miou(stage1_model, target, cfg.num_classes)
    assert s1_miou > base_miou


def test_stage1_does_not_forget_source(small_run):
    cfg, source, target, base, stage1_model, _ = small_run
    _, base_src = evaluate_miou(base, source, cfg.num_classes)
    _, s1_src = evaluate_miou(stage1_model, source, cfg.num_classes)
    assert s1_src >= base_src - 0.05


def test_lambda_u_zero_matches_source_only_training(small_run):
    # With the unsupervised weight off, stage one is source-only training with
    # a different sampling order; the outcomes agree statistically.
    cfg, source, target, base, stage1_model, _ = small_run
    cfg0 = dataclasses.replace(cfg, lambda_u=0.0)
    m0, log0 = train_stage1(cfg0, datasets=(source, target), init_model=base)
    _, miou0 = evaluate_miou(m0, target, cfg.num_classes)
    # stage one needs L_u: the twin without it adapts less (0.5286 against 0.5435 at seed 0)
    _, miou1 = evaluate_miou(stage1_model, target, cfg.num_classes)
    assert miou1 > miou0
    long_cfg = dataclasses.replace(cfg, pretrain_steps=cfg.pretrain_steps + cfg.stage1_steps)
    m_long = pretrain_source(long_cfg, source)
    _, miou_long = evaluate_miou(m_long, target, cfg.num_classes)
    assert abs(miou0 - miou_long) < 0.12
    # and the unsupervised branch contributed exactly nothing to the objective
    for _, l_s, l_u, _, total in log0.metrics[::53]:
        assert total == pytest.approx(l_s, abs=1e-15)


def test_stage2_runs_and_recomposes(small_run):
    cfg, source, target, base, stage1_model, _ = small_run
    model2, log2 = train_stage2(cfg, stage1_model, datasets=(source, target),
                                source_model=base)
    assert len(log2.metrics) == cfg.stage2_steps
    for step, l_s, l_u, l_m, total in log2.metrics[::41]:
        assert np.isfinite(total)
        assert abs(total - (l_s + cfg.lambda_u * l_u + cfg.lambda_m * l_m)) < 1e-12
    _, s2_miou = evaluate_miou(model2, target, cfg.num_classes)
    assert np.isfinite(s2_miou)


def test_float32_stage1_step_keeps_float32():
    cfg = TrainConfig(**{**SMALL, "source_scenes": 4, "target_scenes": 4, "stage1_steps": 1})
    source, target, _ = build_datasets(cfg)
    model = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(3),
                       dtype=np.float32)
    feats = [pixel_features(img).astype(np.float32) for img in
             (source[0][0], target[0][0], perturb(target[0][0], np.random.default_rng(4)))]
    p_hat = model.prob_map(feats[1])
    conf, labs = confidence_and_argmax(p_hat.data)
    mask = adaptive_mask(conf, labs, np.full(cfg.num_classes, np.median(conf)))
    parts = stage1_loss(model.prob_map(feats[0]), source[0][1].ravel(), p_hat,
                        model.prob_map(feats[2]), mask, cfg)
    assert parts.total.data.dtype == np.float64
    parts.total.backward()
    for p in model.params:
        assert p.grad.dtype == np.float32 and np.all(np.isfinite(p.grad))

    stepped, log = train_stage1(cfg, datasets=(source, target), init_model=model)
    assert stepped.dtype == np.float32 and len(log.metrics) == 1
    for p, q in zip(stepped.params, model.params):
        assert p.data.dtype == p.grad.dtype == np.float32
        assert not np.array_equal(p.data, q.data)


def test_float32_stage1_with_saturated_probabilities_stays_finite():
    # Large logits make float32 probabilities exactly 1 (and 0); with
    # gamma < 1 the focal factor (1 - p)**gamma has an infinite slope there.
    cfg = TrainConfig(**{**SMALL, "source_scenes": 4, "target_scenes": 4,
                         "stage1_steps": 20, "gamma": 0.5})
    source, target, _ = build_datasets(cfg)
    model = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(6),
                       dtype=np.float32)
    model.w2.data *= 100.0
    saturated = sum(int((model.prob_map(pixel_features(img).astype(np.float32)).data == 1.0).sum())
                    for img, _ in target)
    assert saturated > 0
    trained, log = train_stage1(cfg, datasets=(source, target), init_model=model)
    assert all(np.isfinite(row[4]) for row in log.metrics)
    assert all(p.data.dtype == np.float32 and np.all(np.isfinite(p.data))
               for p in trained.params)


def test_pretrain_source_trains_in_float32():
    cfg = TrainConfig(**{**SMALL, "source_scenes": 4, "pretrain_steps": 3})
    assert pretrain_source(cfg, build_datasets(cfg)[0]).dtype == np.float32


def test_divergence_detection_raises():
    cfg = TrainConfig(**{**SMALL, "stage1_steps": 3})
    source, target, _ = build_datasets(cfg)
    broken = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(6))
    broken.w1.data[0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="^non-finite stage1 loss at step 0: "):
        train_stage1(cfg, datasets=(source, target), init_model=broken)


def test_non_finite_pretraining_loss_names_its_step_and_parts(monkeypatch):
    calls = 0

    def nan_on_third_call(*args):
        nonlocal calls
        calls += 1
        loss = supervised_ce_loss(*args)
        return loss * np.nan if calls == 3 else loss

    cfg = TrainConfig(**{**SMALL, "source_scenes": 4, "pretrain_steps": 5})
    monkeypatch.setattr(train_module, "supervised_ce_loss", nan_on_third_call)
    message = "non-finite pretraining loss at step 2: {'l_s': nan, 'l_u': None, 'l_m': None}"
    with pytest.raises(TrainingDiverged, match="^" + re.escape(message) + "$"):
        pretrain_source(cfg, build_datasets(cfg)[0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_failed_step_checks_every_gradient_before_it_updates_any_parameter():
    # w1's gradient is finite and comes first; b2's is nan (see _poison_gradient), so a
    # step that updated w1 before checking b2 would leave w1 moved
    model = PixelModel(3, 4, rng=np.random.default_rng(0))
    loss = (model.w1 * 1.0).sum() + ((model.b2 - model.b2) ** 0.5).sum()
    before = [p.data.copy() for p in model.params]
    with pytest.raises(TrainingDiverged, match="^non-finite stage1 gradient of b2 at step 0$"):
        train_module._descend(model, StageLosses(total=loss, l_s=loss), 0.1, 0, "stage1")
    for p, data in zip(model.params, before):
        assert p.data.tobytes() == data.tobytes()


def _poison_gradient(loss_fn, bad_call):
    """Wrap a loss so its ``bad_call``-th call keeps a finite value but gets a nan gradient.

    ``(p - p) ** 0.5`` is 0 in value; its derivative at 0 is infinite, and the
    two branches of ``p - p`` meet as inf - inf = nan.
    """
    calls = 0

    def wrapped(p, *args):
        nonlocal calls
        out = loss_fn(p, *args)
        calls += 1
        if calls == bad_call:
            poison = ((p - p) ** 0.5).sum()
            if isinstance(out, StageLosses):
                return StageLosses(total=out.total + poison, l_s=out.l_s, l_u=out.l_u)
            return out + poison
        return out

    return wrapped


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_gradient_of_finite_loss_names_its_step(monkeypatch):
    cfg = TrainConfig(**{**SMALL, "source_scenes": 4, "target_scenes": 4,
                         "pretrain_steps": 5, "stage1_steps": 5})
    monkeypatch.setattr(train_module, "supervised_ce_loss",
                        _poison_gradient(supervised_ce_loss, bad_call=3))
    with pytest.raises(TrainingDiverged, match="pretraining gradient of w1 at step 2"):
        pretrain_source(cfg, build_datasets(cfg)[0])
    monkeypatch.undo()

    source, target, _ = build_datasets(cfg)
    base = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(6))
    monkeypatch.setattr(train_module, "stage1_loss", _poison_gradient(stage1_loss, bad_call=4))
    with pytest.raises(TrainingDiverged, match="stage1 gradient of w1 at step 3"):
        train_stage1(cfg, datasets=(source, target), init_model=base)


# the files a run keeps when the phase after them diverges, with eval_every = 1, and
# the phase that failed.txt names
_FINISHED = {"pretraining": ("baseline", ["config.txt", "failed.txt"]),
             "stage1": ("stage1", ["baseline_ious.csv", "baseline_model.npz", "config.txt",
                                   "failed.txt"]),
             "stage2": ("stage2", ["baseline_ious.csv", "baseline_model.npz", "config.txt",
                                   "failed.txt", "stage1_evals.csv", "stage1_ious.csv",
                                   "stage1_metrics.csv", "stage1_model.npz",
                                   "stage1_thresholds.csv"])}


def _assert_same_model(a: PixelModel, b: PixelModel, label: str) -> None:
    """Equal array for array, in the same dtype."""
    assert a.dtype == b.dtype, label
    for name, x, y in zip(PARAM_NAMES, a.params, b.params):
        np.testing.assert_array_equal(x.data, y.data, err_msg=f"{label}: {name}")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("stage", _FINISHED)
def test_a_rate_that_overflows_the_update_names_its_stage_and_step(tmp_path, stage):
    # float32(1.8e308) is inf: the first step writes inf and nan parameters, which
    # stage two's long-tail paste met as numpy's "Probabilities contain NaN"
    finished = TrainConfig(**{**_TINY_RUN, "eval_every": 1})
    rate = "learning_rate" if stage == "pretraining" else f"{stage}_lr"
    cfg = dataclasses.replace(finished, **{rate: _MAX})
    message = f"non-finite {stage} update of w1 at step 0"
    with pytest.raises(TrainingDiverged, match=rf"^{message}$"):
        run_pipeline(cfg, tmp_path / "diverged")
    # the phases before the diverged one kept their files, with a successful run's bytes
    run_pipeline(finished, tmp_path / "finished")
    out = tmp_path / "diverged"
    phase, names = _FINISHED[stage]
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        if name.endswith(".csv"):
            assert (out / name).read_bytes() == (tmp_path / "finished" / name).read_bytes(), name
        elif name.endswith(".npz"):
            _assert_same_model(load_model(out / name),
                               load_model(tmp_path / "finished" / name), name)
    assert make_config(out / "config.txt") == cfg
    assert (out / "failed.txt").read_text(encoding="utf-8") == (
        f"phase = {phase}\nstep = 0\nmessage = {message}\n")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_run_removes_only_the_files_an_earlier_run_wrote(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    # names run_pipeline never writes, one of them beside its own prefixes
    kept = {"notes.txt": b"mine", "stage2_notes.csv": b"mine too"}
    for name, data in kept.items():
        (out / name).write_bytes(data)
    finished = TrainConfig(**{**_TINY_RUN, "eval_every": 1})
    run_pipeline(finished, out)
    assert (out / "stage2_model.npz").exists() and (out / "stage2_evals.csv").exists()
    # a run that diverges in stage one leaves nothing of the earlier run's later phases
    with pytest.raises(TrainingDiverged):
        run_pipeline(dataclasses.replace(finished, stage1_lr=_MAX), out)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["baseline_ious.csv", "baseline_model.npz", "config.txt", "failed.txt", *kept])
    # a successful rerun leaves no failed.txt behind
    run_pipeline(finished, out)
    assert not (out / "failed.txt").exists()
    assert (out / "stage2_model.npz").exists()
    for name, data in kept.items():
        assert (out / name).read_bytes() == data, name
    assert make_config(out / "config.txt") == finished


def test_pipeline_outputs_and_determinism(tmp_path):
    cfg = TrainConfig(**{**SMALL, "pretrain_steps": 60, "stage1_steps": 80,
                         "stage2_steps": 80, "source_scenes": 10, "target_scenes": 10})
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    summary = run_pipeline(cfg, out_dir=a_dir)
    run_pipeline(cfg, out_dir=b_dir)
    files = sorted(p.name for p in a_dir.iterdir())
    assert "stage1_metrics.csv" in files and "stage2_metrics.csv" in files
    assert "stage1_thresholds.csv" in files and "stage1_ious.csv" in files
    for name in files:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    assert make_config(a_dir / "config.txt") == cfg
    # each phase's saved model is the one the summary returns
    for run in ("baseline", "stage1", "stage2"):
        _assert_same_model(load_model(a_dir / f"{run}_model.npz"), summary[f"{run}_model"], run)


@pytest.mark.parametrize("eval_every, steps", [(0, None), (1, [0, 1, 2]), (2, [1]), (4, [])])
def test_pipeline_writes_the_periodic_evaluations_when_asked(tmp_path, eval_every, steps):
    cfg = TrainConfig(**{**_TINY_RUN, "eval_every": eval_every})
    res = run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    for stage in ("stage1", "stage2"):
        path = tmp_path / "a" / f"{stage}_evals.csv"
        if steps is None:
            assert not path.exists()
            continue
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
        header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
        assert header == ["step", "target_miou"]
        assert [int(step) for step, _ in rows] == steps
        assert [float(miou) for _, miou in rows] == [m for _, m in res[f"{stage}_log"].evals]
        if eval_every == 1:  # the last evaluation scores the stage's final model
            assert float(rows[-1][1]) == res[f"{stage}_target_miou"]


def test_write_iou_csv_writes_nan_for_a_class_without_pixels(tmp_path):
    path = tmp_path / "ious.csv"
    write_iou_csv(path, np.array([0.5, np.nan, 0.25]), 0.375)
    assert path.read_text() == "class_id,iou\n0,0.5\n1,nan\n2,0.25\nmean,0.375\n"


# ------------------------------------------------ the perturbed branch's producer

_BaseProcess = multiprocessing.process.BaseProcess


@pytest.fixture
def started(monkeypatch):
    """Allow two CPUs; returns the processes started."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    processes, start = [], _BaseProcess.start

    def counted_start(self):
        processes.append(self)
        start(self)

    monkeypatch.setattr(_BaseProcess, "start", counted_start)
    return processes


def _forks_from(monkeypatch, steps):
    """Make ``steps`` the shortest SMALL stage (32x32 scenes) that forks a producer."""
    monkeypatch.setattr(metrics_module, "MIN_SHARE", steps * 32 * 32)


@pytest.fixture
def producer(started, monkeypatch):
    """``started``, with a producer for a SMALL stage of 31 steps or more.

    A SMALL evaluation (30 scenes of 32x32) stays under one share, so it forks no worker.
    """
    _forks_from(monkeypatch, SMALL["target_scenes"] + 1)
    return started


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _logs(res):
    return [(log.metrics, log.thresholds) for log in (res["stage1_log"], res["stage2_log"])]


def _param_bytes(res):
    return [p.data.tobytes() for name in ("stage1_model", "stage2_model")
            for p in res[name].params]


def test_the_producer_gives_the_serial_logs_parameters_and_csvs_bit_for_bit(
        producer, monkeypatch, tmp_path):
    cfg = TrainConfig(**{**SMALL, "pretrain_steps": 60, "stage1_steps": 200,
                         "stage2_steps": 200})
    produced = run_pipeline(cfg, tmp_path / "produced")
    assert len(producer) == 2  # one per stage
    _assert_no_child_left()
    _forks_from(monkeypatch, cfg.stage1_steps + 1)
    serial = run_pipeline(cfg, tmp_path / "serial")
    assert len(producer) == 2
    assert _logs(produced) == _logs(serial)
    assert _param_bytes(produced) == _param_bytes(serial)
    csvs = {side: {p.name: p.read_bytes() for p in (tmp_path / side).glob("*.csv")}
            for side in ("produced", "serial")}
    assert len(csvs["serial"]) == 7 and csvs["produced"] == csvs["serial"]


# SMALL-sized scenes, six per domain, and a 40-step stage one
_FAULT_RUN = {**SMALL, "source_scenes": 6, "target_scenes": 6, "stage1_steps": 40}


@pytest.fixture(scope="module")
def serial_stage1():
    """The inputs of a ``_FAULT_RUN`` stage one and its serial log metrics."""
    cfg = TrainConfig(**_FAULT_RUN)
    source, target, _ = build_datasets(cfg)
    base = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(6),
                      dtype=np.float32)
    with pytest.MonkeyPatch.context() as patch:
        _forks_from(patch, cfg.stage1_steps + 1)
        _, log = train_stage1(cfg, datasets=(source, target), init_model=base)
    return cfg, (source, target), base, log.metrics


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("stage", ["stage1", "stage2"])
def test_no_producer_outlives_a_divergence_mid_stage(producer, monkeypatch, stage):
    # by step 30 the producer has filled the 1 MiB pipe with 36 KiB planes and waits on it
    cfg = TrainConfig(**{**SMALL, "source_scenes": 6, "target_scenes": 6,
                         f"{stage}_steps": 200})
    source, target, _ = build_datasets(cfg)
    base = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(6),
                      dtype=np.float32)
    loss = {"stage1": stage1_loss, "stage2": stage2_loss}[stage]
    monkeypatch.setattr(train_module, f"{stage}_loss", _poison_gradient(loss, bad_call=31))
    with pytest.raises(TrainingDiverged) as diverged:
        if stage == "stage1":
            train_stage1(cfg, datasets=(source, target), init_model=base)
        else:
            train_stage2(cfg, base, datasets=(source, target), source_model=base)
    # the held traceback keeps the loop's frame alive: its reaping may not wait for that
    _assert_no_child_left()
    assert str(diverged.value) == f"non-finite {stage} gradient of w1 at step 30"
    assert len(producer) == 1


def _stopping_producer(planes, then=None):
    """A producer that sends ``planes`` planes, then the bytes ``then`` if given, and exits 0."""
    send = metrics_module._send

    def stopping(stream, reader, writer):
        send(itertools.islice(stream, planes), reader, writer)
        if then is not None:
            writer.send_bytes(then)

    return stopping


def _failing_pin(pid, cpus):
    raise OSError(22, "Invalid argument")


@pytest.mark.parametrize("fault", ["stops_at_once", "stops_after_5", "cut_plane", "pin_fails"])
def test_a_producer_that_stops_early_still_gives_the_serial_log(producer, monkeypatch, capfd,
                                                               serial_stage1, fault):
    cfg, datasets, base, want = serial_stage1
    if fault == "pin_fails":
        monkeypatch.setattr(os, "sched_setaffinity", _failing_pin)
    else:
        planes, then = {"stops_at_once": (0, None), "stops_after_5": (5, None),
                        "cut_plane": (5, b"cut")}[fault]
        monkeypatch.setattr(metrics_module, "_send", _stopping_producer(planes, then))
    _, log = train_stage1(cfg, datasets=datasets, init_model=base)
    assert len(producer) == 1
    assert log.metrics == want
    assert capfd.readouterr().err == ""
    _assert_no_child_left()


def test_the_loop_perturbs_nothing_when_the_producer_sends_every_plane(
        producer, monkeypatch, serial_stage1):
    cfg, datasets, base, want = serial_stage1
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)  # a host of one CPU too
    perturbed_here = []

    def counted_perturb(*args, **kwargs):
        perturbed_here.append(os.getpid())  # a child appends to its own copy
        return perturb(*args, **kwargs)

    monkeypatch.setattr(train_module, "perturb", counted_perturb)
    _, log = train_stage1(cfg, datasets=datasets, init_model=base)
    assert len(producer) == 1
    assert perturbed_here == []
    assert log.metrics == want
    _assert_no_child_left()


@pytest.mark.parametrize("case", ["one_cpu", "thread", "short_stage", "no_setaffinity"])
def test_the_serial_cases_start_no_producer(producer, monkeypatch, serial_stage1, case):
    cfg, datasets, base, want = serial_stage1
    monkeypatch.setattr(_BaseProcess, "start", lambda self: pytest.fail("a producer started"))
    if case == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif case == "short_stage":
        _forks_from(monkeypatch, cfg.stage1_steps + 1)
    elif case == "no_setaffinity":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if case == "thread":
        waiter.start()
    try:
        _, log = train_stage1(cfg, datasets=datasets, init_model=base)
    finally:
        release.set()
        if case == "thread":
            waiter.join(timeout=10.0)
    assert not waiter.is_alive()
    assert log.metrics == want


@pytest.mark.parametrize("steps, producers", [(metrics_module.MIN_SHARE // 1024, 1),
                                               (metrics_module.MIN_SHARE // 1024 - 1, 0)])
def test_a_small_stage_forks_its_producer_from_min_share_pixels(started, steps, producers):
    # at SMALL's 32x32 scenes, a stage's MIN_SHARE pixels are MIN_SHARE // 1024 steps
    cfg = TrainConfig(**{**_FAULT_RUN, "stage1_steps": steps})
    source, target, _ = build_datasets(cfg)
    base = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(6),
                      dtype=np.float32)
    _, log = train_stage1(cfg, datasets=(source, target), init_model=base)
    assert len(log.metrics) == steps and len(started) == producers
    _assert_no_child_left()


def _stage1_in_a_daemon(cfg, datasets, base, pipe):
    _BaseProcess.start = lambda self: pytest.fail("a producer started")
    _, log = train_stage1(cfg, datasets=datasets, init_model=base)
    pipe.send(log.metrics)


def test_a_daemonic_process_starts_no_producer(producer, serial_stage1):
    # multiprocessing lets no daemonic process start children of its own
    cfg, datasets, base, want = serial_stage1
    fork = multiprocessing.get_context("fork")
    pipe, child_end = fork.Pipe(duplex=False)
    daemon = fork.Process(target=_stage1_in_a_daemon, args=(cfg, datasets, base, child_end),
                          daemon=True)
    daemon.start()
    child_end.close()
    try:
        got = pipe.recv()
    finally:
        pipe.close()
        daemon.join(timeout=60.0)
    assert daemon.exitcode == 0 and len(producer) == 1  # the daemon itself
    assert got == want
    _assert_no_child_left()
