"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines live.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import segadapt
from segadapt.autodiff import Tensor
from segadapt.config import TrainConfig
from segadapt.data import pixel_features
from segadapt.gradcurves import KINDS, curve, find_global_min
from segadapt.losses import (
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
from segadapt.mixing import boundary_weights, mix
import segadapt.model as model_module
from segadapt.model import _tau, save_model
from segadapt.threshold import (
    ThresholdState,
    adaptive_mask,
    confidence_and_argmax,
    ema_update,
    fixed_mask,
    per_sample_threshold,
    update,
)
from segadapt.train import build_datasets, run_pipeline

from _fd import fd_gradient, rel_error
from _kernels import numeric_kernels
from _netpbm import csv_by_rows


def _report(number: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number}: {status}{suffix}")
    return ok


# --------------------------------------------------------------- criterion 1

def _random_probs(rng, c, n, requires_grad=False):
    z = Tensor(rng.normal(size=(c, n)), requires_grad=requires_grad)
    return z, z.softmax(axis=0)


def _fd_against(build, z0, tol=1e-4):
    """build(values) -> (leaf, loss); compare autodiff grad with central FD."""
    leaf, loss = build(z0)
    loss.backward()
    fd = fd_gradient(lambda flat: build(flat.reshape(z0.shape))[1].item(),
                     z0.ravel(), eps=1e-5)
    return rel_error(leaf.grad, fd.reshape(z0.shape)) < tol


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    cfg = TrainConfig()
    failures = []

    def draw(c=None):
        c = c if c is not None else int(rng.choice([2, 5]))
        n = int(rng.integers(1, 17))
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True
        labels = rng.integers(0, c, size=n)
        weights = rng.choice([1.0, 2.0], size=n)
        aux = rng.normal(size=(c, n))
        return c, n, mask, labels, weights, aux

    single_kinds = ["shannon", "adjusted_kl", "unsup_focal", "supervised_ce",
                    "supervised_focal", "maximum_square", "mixed_ce"]
    for kind in single_kinds:
        for _ in range(20):
            c, n, mask, labels, weights, aux = draw()
            gamma = float(rng.choice([1.0, 2.0, 3.0]))
            z0 = rng.normal(size=(c, n))
            p_aux = Tensor(aux).softmax(axis=0)

            def build(values, kind=kind, mask=mask, labels=labels,
                      weights=weights, p_aux=p_aux, gamma=gamma):
                z = Tensor(values, requires_grad=True)
                p = z.softmax(axis=0)
                if kind == "shannon":
                    return z, shannon_entropy_loss(p, mask)
                if kind == "adjusted_kl":
                    return z, adjusted_kl_loss(p_aux, p, mask, gamma)
                if kind == "unsup_focal":
                    # differentiable path: the perturbed branch
                    return z, unsupervised_focal_loss(p_aux, p, mask, gamma)
                if kind == "supervised_ce":
                    return z, supervised_ce_loss(p, labels)
                if kind == "supervised_focal":
                    return z, supervised_focal_loss(p, labels, gamma)
                if kind == "maximum_square":
                    return z, maximum_square_loss(p, mask)
                return z, mixed_ce_loss(p, labels, weights)

            if not _fd_against(build, z0):
                failures.append(kind)

    # weak-branch gradient of the focal loss: FD of the objective in which
    # the soft pseudo label is the frozen snapshot the optimizer sees
    for _ in range(20):
        c, n, mask, labels, weights, aux = draw()
        gamma = float(rng.choice([1.0, 2.0, 3.0]))
        z0 = rng.normal(size=(c, n))
        snapshot = Tensor(Tensor(z0).softmax(axis=0).data.copy())
        star = Tensor(aux).softmax(axis=0)

        def build_weak(values, mask=mask, snapshot=snapshot, star=star, gamma=gamma):
            z = Tensor(values, requires_grad=True)
            p = z.softmax(axis=0)
            loss = (shannon_entropy_loss(p, mask)
                    + adjusted_kl_loss(snapshot, star, mask, gamma))
            return z, loss

        zc = Tensor(z0, requires_grad=True)
        unsupervised_focal_loss(zc.softmax(axis=0), star, mask, gamma).backward()
        leaf, loss = build_weak(z0)
        loss.backward()
        same_grad = np.allclose(zc.grad, leaf.grad, atol=1e-14)
        if not (same_grad and _fd_against(build_weak, z0)):
            failures.append("unsup_focal_weak_branch")

    # composite stage losses, differentiated through each live branch
    for _ in range(20):
        c, n, mask, labels, weights, aux = draw()
        y_m = rng.integers(0, c, size=n)
        p_hat = Tensor(rng.normal(size=(c, n))).softmax(axis=0)
        anchor = {"p_s": rng.normal(size=(c, n)),
                  "p_star": rng.normal(size=(c, n)),
                  "p_m": rng.normal(size=(c, n))}
        for branch in ("p_s", "p_star", "p_m"):
            def build_composite(values, branch=branch, mask=mask, labels=labels,
                                weights=weights, y_m=y_m, p_hat=p_hat):
                maps = {k: Tensor(v) for k, v in anchor.items()}
                leaf = Tensor(values, requires_grad=True)
                maps[branch] = leaf
                probs = {k: t.softmax(axis=0) for k, t in maps.items()}
                parts = stage2_loss(probs["p_s"], labels, p_hat, probs["p_star"],
                                    mask, probs["p_m"], y_m, weights, cfg)
                return leaf, parts.total
            if not _fd_against(build_composite, anchor[branch]):
                failures.append(f"stage2_{branch}")
        def build_stage1(values, mask=mask, labels=labels, p_hat=p_hat):
            leaf = Tensor(values, requires_grad=True)
            parts = stage1_loss(leaf.softmax(axis=0), labels, p_hat,
                                Tensor(anchor["p_star"]).softmax(axis=0), mask, cfg)
            return leaf, parts.total
        if not _fd_against(build_stage1, anchor["p_s"]):
            failures.append("stage1_p_s")

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    assert _report("1 (gradient correctness)", ok,
                   f"{elapsed:.1f}s, failures: {sorted(set(failures)) or 'none'}")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_focal_decomposition_identity():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 17))
        _, p = _random_probs(rng, c, n)
        labels = rng.integers(0, c, size=n)
        onehot = np.zeros((c, n))
        onehot[labels, np.arange(n)] = 1.0
        gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
        direct, decomposed = focal_decomposition_check(onehot, p, gamma)
        worst = max(worst, abs(direct - decomposed))
    ok = worst < 1e-12
    assert _report("2 (decomposition identity)", ok, f"max |delta| = {worst:.2e}")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_focal_value_identity_and_gradient_flow():
    rng = np.random.default_rng(300)
    worst = 0.0
    flow_ok = True
    for _ in range(100):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 17))
        z_hat, p_hat = _random_probs(rng, c, n, requires_grad=True)
        z_star, p_star = _random_probs(rng, c, n, requires_grad=True)
        mask = rng.random(n) < 0.7
        gamma = float(rng.choice([0.5, 1.0, 2.0]))

        loss = unsupervised_focal_loss(p_hat, p_star, mask, gamma)
        explicit = -(p_hat.data * (1.0 - p_star.data) ** gamma
                     * np.log(p_star.data)).sum(axis=0)
        expected = explicit[mask].mean() if mask.any() else 0.0
        worst = max(worst, abs(loss.item() - expected))

        loss.backward()
        z_hat2 = Tensor(z_hat.data, requires_grad=True)
        shannon_entropy_loss(z_hat2.softmax(axis=0), mask).backward()
        z_star2 = Tensor(z_star.data, requires_grad=True)
        adjusted_kl_loss(Tensor(p_hat.data), z_star2.softmax(axis=0), mask,
                         gamma).backward()
        flow_ok &= np.allclose(z_hat.grad, z_hat2.grad, atol=1e-14)
        flow_ok &= np.allclose(z_star.grad, z_star2.grad, atol=1e-14)
    ok = worst < 1e-12 and flow_ok
    assert _report("3 (focal value identity + gradient flow)", ok,
                   f"max |delta| = {worst:.2e}, branch contract {'held' if flow_ok else 'violated'}")


# --------------------------------------------------------------- criterion 4

@pytest.fixture(scope="module")
def binary_curves():
    started = time.perf_counter()
    curves = {kind: curve(kind, p_hat=0.6, gamma=2.0) for kind in KINDS}
    return curves, time.perf_counter() - started


def _grad_at(curve_obj, p):
    hits = np.flatnonzero(np.abs(curve_obj.p - p) < 1e-12)
    if not hits.size:
        raise AssertionError(f"grid point {p} missing")
    return curve_obj.grad[hits[0]]


def test_criterion_4a_shannon_saddle_and_boundary_minima(binary_curves):
    curves, _ = binary_curves
    c = curves["shannon"]
    grad_zero = abs(_grad_at(c, 0.5)) < 1e-12
    edge_min = int(np.argmin(c.loss)) in (0, c.loss.size - 1)
    assert _report("4a (Shannon saddle + boundary minima)", grad_zero and edge_min)


def test_criterion_4b_maxsquare_zero_gradient_at_half(binary_curves):
    curves, _ = binary_curves
    g = abs(_grad_at(curves["maxsquare"], 0.5))
    assert _report("4b (square loss gradient at 0.5)", g < 1e-10, f"|grad| = {g:.2e}")


def test_criterion_4c_focal_interior_minimum(binary_curves):
    curves, elapsed = binary_curves
    p_star = find_global_min(curves["focal"])
    g_half = abs(_grad_at(curves["focal"], 0.5))
    ok = 0.5 < p_star < 1.0 and g_half > 0.0 and elapsed < 5.0
    assert _report("4c (focal interior minimum)", ok,
                   f"argmin = {p_star:.4f}, |grad(0.5)| = {g_half:.3f}, curves in {elapsed:.1f}s")


def test_criterion_4d_focal_gradient_ratio_below_shannon(binary_curves):
    # Easy/hard gradient-magnitude ratio, |grad(0.95)| / |grad(0.55)|, of the
    # perturbed-branch focal gradient: the `grad` column of a focal curve,
    # d(adjusted KL)/dp into the perturbed prediction with the weak-branch
    # estimate detached. README's method section credits this term with the
    # hard-pixel gradient; PAPER.md (abstract only) does not fix the reading.
    # Each pixel is scored against its own estimate, p_hat = p. The other
    # readings do not pass (see README): the weak branch alone gets exactly
    # Shannon's gradient (criterion 3), both branches summed give ~1318, and
    # the fixture's p_hat = 0.6 curve (~124) describes one pixel with one
    # estimate, whose 0.55 lies beside that curve's minimum.
    # The hard-pixel guard only rules out a lost focal factor: with gamma = 0
    # the term is cross entropy at its own minimum and both gradients are 0.
    # Each point is its own 3-point curve starting at p, so the fixture, and
    # 4c's timing of its three curves, stay as they are.
    curves, _ = binary_curves
    shannon = curves["shannon"]
    easy, hard = 0.95, 0.55
    perturbed = {p: abs(_grad_at(curve("focal", p_hat=p, gamma=2.0, grid=3, lo=p), p))
                 for p in (easy, hard)}
    ratios = {
        "shannon": abs(_grad_at(shannon, easy)) / abs(_grad_at(shannon, hard)),
        "focal": perturbed[easy] / perturbed[hard] if perturbed[hard] else math.inf,
    }
    ok = perturbed[hard] > 1e-3 and ratios["focal"] < ratios["shannon"]
    assert _report("4d (perturbed-branch focal easy/hard ratio below Shannon's)", ok,
                   f"perturbed-branch focal {ratios['focal']:.1f} vs shannon "
                   f"{ratios['shannon']:.1f}, hard |grad| = {perturbed[hard]:.3f}")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_threshold_mechanics():
    ema_state = ThresholdState.initial(2)
    new = ema_update(ema_state, np.array([0.7, 0.9]))
    ema_exact = np.allclose(new, [0.79, 0.81], atol=1e-15)

    index = math.floor(0.8 * math.exp(-1.6) * 10)
    index_exact = index == 1
    conf = np.array([0.91, 0.55, 0.87, 0.42, 0.73, 0.66, 0.95, 0.31, 0.58, 0.80])
    state = ThresholdState.initial(1)
    picked = per_sample_threshold(conf, np.zeros(10, dtype=int), state)[0]
    index_exact &= picked == np.sort(conf)[::-1][1]

    rng = np.random.default_rng(500)
    bounded_state = ThresholdState.initial(4)
    bounded = True
    for _ in range(10_000):
        n = int(rng.integers(1, 40))
        update(bounded_state, rng.random(n), rng.integers(0, 4, size=n))
        if not (np.all(bounded_state.alpha >= 0.0) and np.all(bounded_state.alpha <= 1.0)):
            bounded = False
            break

    low_conf = np.linspace(0.3, 0.799, 10_000)
    labels = np.zeros(low_conf.size, dtype=int)
    relief_state = ThresholdState.initial(1)
    none_fixed = not fixed_mask(low_conf, relief_state.alpha[0]).any()  # alpha starts at t0
    update(relief_state, low_conf, labels)
    some_adaptive = adaptive_mask(low_conf, labels, relief_state.alpha).sum() > 0

    ok = ema_exact and index_exact and bounded and none_fixed and some_adaptive
    assert _report("5 (threshold mechanics)", ok,
                   f"ema {ema_exact}, index {index_exact}, bounded {bounded}, "
                   f"relief {none_fixed and some_adaptive}")


# --------------------------------------------------------------- criterion 6

def _oracle_weights(mask):
    """Padding-and-shift realization of the boundary rule and its dilation."""
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    padded = np.pad(m, 1, mode="edge")
    boundary = np.zeros_like(m)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        boundary |= m != padded[1 + di:1 + di + h, 1 + dj:1 + dj + w]
    wide = np.pad(boundary, 3, mode="constant")
    band = np.zeros_like(m)
    for di in range(7):
        for dj in range(7):
            band |= wide[di:di + h, dj:dj + w]
    return np.where(band, 2.0, 1.0)


def test_criterion_6_mixing_exactness():
    rng = np.random.default_rng(600)
    composition_ok = True
    for _ in range(20):
        xs = rng.random((3, 64, 64))
        xt = rng.random((3, 64, 64))
        ys = rng.integers(0, 5, size=(64, 64))
        yt = rng.integers(0, 5, size=(64, 64))
        mask = rng.random((64, 64)) < rng.uniform(0.2, 0.8)
        result = mix(xs, ys, xt, yt, mask)
        composition_ok &= np.array_equal(result.image[:, mask], xs[:, mask])
        composition_ok &= np.array_equal(result.image[:, ~mask], xt[:, ~mask])
        composition_ok &= np.array_equal(result.labels[mask], ys[mask])
        composition_ok &= np.array_equal(result.labels[~mask], yt[~mask])

    mismatches = 0
    values_ok = True
    for _ in range(50):
        mask = rng.random((64, 64)) < rng.uniform(0.1, 0.9)
        weights = boundary_weights(mask)
        values_ok &= set(np.unique(weights)).issubset({1.0, 2.0})
        mismatches += int(np.sum(weights != _oracle_weights(mask)))
    ok = composition_ok and values_ok and mismatches == 0
    assert _report("6 (mixing exactness)", ok,
                   f"composition {composition_ok}, weight mismatches {mismatches}")


# --------------------------------------------------------------- criterion 7

ACCEPTANCE_CONFIG = TrainConfig(seed=0, eval_every=0)


SECOND_RUN_TIMEOUT_S = 600.0
_SECOND_RUN = ("import json, sys; from segadapt.config import TrainConfig; "
               "from segadapt.train import run_pipeline; "
               "run_pipeline(TrainConfig(**json.loads(sys.argv[1])), out_dir=sys.argv[2])")


@pytest.fixture(scope="module")
def second_pipeline_run(tmp_path_factory):
    """Criterion 8's second run of the acceptance config, in a fresh interpreter.

    It starts before criterion 7's in-process run and runs alongside it, so
    the two runs overlap, and the byte comparison also spans two processes.
    It runs in a session of its own, outside the suite's per-test check for
    child processes (tests/conftest.py).
    Yields the process, its output directory and the file holding its stderr.
    """
    out = tmp_path_factory.mktemp("pipeline_b")
    stderr_path = tmp_path_factory.mktemp("pipeline_b_log") / "stderr.txt"
    env = dict(os.environ)
    src = str(Path(segadapt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open(stderr_path, "w") as stderr:
        child = subprocess.Popen(
            [sys.executable, "-c", _SECOND_RUN,
             json.dumps(dataclasses.asdict(ACCEPTANCE_CONFIG)), str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True)
    try:
        yield child, out, stderr_path
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, second_pipeline_run):
    out = tmp_path_factory.mktemp("pipeline_a")
    started = time.perf_counter()
    summary = run_pipeline(ACCEPTANCE_CONFIG, out_dir=out)
    return summary, out, time.perf_counter() - started


def test_criterion_7_desk_scale_adaptation(pipeline_run):
    summary, _, elapsed = pipeline_run
    cfg = ACCEPTANCE_CONFIG
    base = summary["baseline_target_miou"]
    s1 = summary["stage1_target_miou"]
    s2 = summary["stage2_target_miou"]
    rare1 = summary["stage1_target_iou"][cfg.rare_class]
    rare2 = summary["stage2_target_iou"][cfg.rare_class]
    gain_ok = s1 >= base + 0.05
    non_inferior = s2 >= s1 - 0.01
    rare_ok = rare2 > rare1
    runtime_ok = elapsed < 600.0
    ok = gain_ok and non_inferior and rare_ok and runtime_ok
    assert _report("7 (desk-scale adaptation)", ok,
                   f"target mIoU {base:.3f} -> {s1:.3f} -> {s2:.3f}, "
                   f"rare IoU {rare1:.3f} -> {rare2:.3f}, {elapsed:.0f}s")


def test_criterion_8_determinism(pipeline_run, second_pipeline_run):
    _, first_dir, _ = pipeline_run
    child, second_dir, stderr_path = second_pipeline_run
    try:
        code = child.wait(timeout=SECOND_RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = f"no exit after {SECOND_RUN_TIMEOUT_S:.0f} s"
    assert code == 0, f"second run: {code}\n{stderr_path.read_text()}"
    names = sorted(p.name for p in first_dir.iterdir() if p.suffix == ".csv")
    identical = all((first_dir / n).read_bytes() == (second_dir / n).read_bytes()
                    for n in names)
    assert _report("8 (determinism)", identical and bool(names),
                   f"{len(names)} CSVs byte-compared")


# ------------------------------------------------- supporting pipeline checks

def test_supporting_rare_class_threshold_drops(pipeline_run):
    summary, _, _ = pipeline_run
    cfg = ACCEPTANCE_CONFIG
    rare_alpha = np.array([a for _, c, a in summary["stage1_log"].thresholds
                           if c == cfg.rare_class])
    assert (rare_alpha < cfg.threshold_t0).any()
    all_alpha = np.array([a for _, _, a in summary["stage1_log"].thresholds])
    assert np.all((all_alpha >= 0.0) & (all_alpha <= 1.0))


def test_supporting_no_catastrophic_forgetting(pipeline_run):
    summary, _, _ = pipeline_run
    assert summary["stage1_source_miou"] >= summary["baseline_source_miou"] - 0.05


def test_supporting_pseudo_labels_beat_source_only(pipeline_run):
    summary, _, _ = pipeline_run
    cfg = ACCEPTANCE_CONFIG
    from segadapt.train import build_datasets

    _, target, _ = build_datasets(cfg)

    def pixel_accuracy(model):
        hit = total = 0
        for image, labels in target:
            hit += int((model.predict_labels(image) == labels).sum())
            total += labels.size
        return hit / total

    source_only = pixel_accuracy(summary["baseline_model"])
    pseudo = pixel_accuracy(summary["stage1_model"])
    assert pseudo > source_only - 1e-9


def test_supporting_screened_labels_are_the_float64_labels(pipeline_run, monkeypatch):
    # predict_labels screens in float32 and falls back per scene to a float64
    # prob_map, one more mlp_softmax call; a screen that always fell back would fail the count
    summary, _, _ = pipeline_run
    source, target, _ = build_datasets(ACCEPTANCE_CONFIG)
    images = [image for image, _ in target + source]
    forward, fallbacks = model_module.mlp_softmax, []
    monkeypatch.setattr(model_module, "mlp_softmax", lambda x, *params: (
        fallbacks.append(np.asarray(x).dtype == np.float64) or forward(x, *params)))
    for name in ("baseline_model", "stage1_model", "stage2_model"):
        model = summary[name]
        expected = [confidence_and_argmax(model.predict_probs(image))[1] for image in images]
        fallbacks.clear()
        for image, labels in zip(images, expected):
            got = model.predict_labels(image)
            assert got.dtype == labels.dtype and np.array_equal(got, labels), name
        assert len(fallbacks) == len(images) + sum(fallbacks)  # one float32 forward each
        assert sum(fallbacks) <= 0.2 * len(images), f"{name}: {sum(fallbacks)} fallbacks"
        taus = [_tau(model.params, pixel_features(image).astype(np.float32)) for image in images]
        assert np.all(np.isfinite(taus)) and max(taus) < 1e-2, name


# Run in a fresh interpreter whose numeric kernels the environment picks: the
# screened labels of a saved model against its float64 labels, and the float32
# map against the float64 one within tau / 2, on every scene of the file.
_KERNEL_CHECK = """
import json, sys
import numpy as np
from _kernels import numeric_kernels
from segadapt.autodiff import mlp_softmax
from segadapt.data import pixel_features
from segadapt.model import _tau, load_model
from segadapt.threshold import confidence_and_argmax

model = load_model(sys.argv[1])
images = np.load(sys.argv[2])
mismatched = over_bound = 0
for image in images:
    feats = pixel_features(image)
    cast = feats.astype(np.float32)
    gap = np.abs(mlp_softmax(cast, *model.params).data - mlp_softmax(feats, *model.params).data)
    over_bound += int(not np.all(gap <= _tau(model.params, cast) / 2))
    mismatched += int(not np.array_equal(model.predict_labels(image),
                                         confidence_and_argmax(model.predict_probs(image))[1]))
core, level = numeric_kernels()
print(json.dumps({"scenes": len(images), "mismatched": mismatched, "over_bound": over_bound,
                  "core": core, "level": level}))
"""


def test_supporting_screened_labels_hold_on_other_numeric_kernels(pipeline_run, tmp_path):
    # OpenBLAS's Haswell kernel, and numpy without its AVX2 and AVX-512 loops, round the
    # float32 forward otherwise than this host's default kernels (ROADMAP item 16)
    summary, _, _ = pipeline_run
    save_model(tmp_path / "model.npz", summary["stage2_model"])
    _, target, _ = build_datasets(ACCEPTANCE_CONFIG)
    np.save(tmp_path / "images.npy", np.stack([image for image, _ in target[:50]]))
    settings = {"OPENBLAS_CORETYPE": "Haswell",
                "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4,X86_V3"}
    # src for segadapt, tests/ for the shared kernel reader
    paths = [str(Path(segadapt.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    children = []
    for name, value in settings.items():
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env[name] = value
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
        children.append(subprocess.Popen(
            [sys.executable, "-c", _KERNEL_CHECK, str(tmp_path / "model.npz"),
             str(tmp_path / "images.npy")], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True))
    results = [child.communicate(timeout=120) for child in children]
    for name, child, (out, err) in zip(settings, children, results):
        assert child.returncode == 0, f"{name}: {err}"
        got = json.loads(out.strip().splitlines()[-1])
        assert got["scenes"] == 50 and got["mismatched"] == 0 and got["over_bound"] == 0, got
        if name == "OPENBLAS_CORETYPE":
            assert got["core"] in ("unknown", "Haswell"), got
        else:
            assert got["level"] not in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"), got


def test_supporting_loss_decomposition_recomposes(pipeline_run):
    summary, _, _ = pipeline_run
    cfg = ACCEPTANCE_CONFIG
    for log in (summary["stage1_log"], summary["stage2_log"]):
        for step, l_s, l_u, l_m, total in log.metrics[::97]:
            assert abs(total - (l_s + cfg.lambda_u * l_u + cfg.lambda_m * l_m)) < 1e-12


# sha256 of the seven seed-0 CSVs since the perturbed branch lost its flip (CHANGES.md);
# criterion 8 compares two runs of the same code, so only these pin the bytes themselves
SEED0_SHA256 = {
    "baseline_ious.csv": "0586da8dea1be47a628f8f5b9918652a8e9ee2ae3a4097684f142a29e951b6b7",
    "stage1_ious.csv": "18f9ee6b7f0b299f7489a389b44407161702dcc1e9c54e180beeb30c3943470e",
    "stage1_metrics.csv": "2f6c04c4cc663316ac5c26249cea57a7e20a5840f1f9e8fa21582895c9a3024e",
    "stage1_thresholds.csv": "8f09e5cc81a9872a78351a9a8741ff8c3b147667f790ba522dcc39955116e5d4",
    "stage2_ious.csv": "2acb2cda0255a57bb55b43f8e35c46ae89db3ee0bf3b578cd701c47e6d01f66e",
    "stage2_metrics.csv": "38a0675f21b5c774bf07f8bedab1b46a6794c2ded0d7ef4715789c89fb41e90c",
    "stage2_thresholds.csv": "2ccb3c5f3f7732442bafeeedbe4a71e8f9b67000d5074fccb0100c5003aeff7e",
}


def test_supporting_seed0_csvs_keep_their_recorded_sha256(pipeline_run):
    _, out, _ = pipeline_run
    changed = [name for name, digest in SEED0_SHA256.items()
               if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest]
    assert not changed, ("seed-0 bytes changed in {} (OpenBLAS core {}, numpy dispatch {}); "
                         "a change that alters them must say why in CHANGES.md and record "
                         "the new sha256 values".format(changed, *numeric_kernels()))


def test_supporting_pipeline_csvs_keep_the_row_by_row_bytes(pipeline_run):
    # the column-wise CSV writer prints each logged value as the per-value rule does
    summary, out, _ = pipeline_run
    expected = {}
    for run in ("baseline", "stage1", "stage2"):
        rows = [*enumerate(summary[f"{run}_target_iou"]), ("mean", summary[f"{run}_target_miou"])]
        expected[f"{run}_ious.csv"] = ("class_id,iou", rows)
    for stage in ("stage1", "stage2"):
        log = summary[f"{stage}_log"]
        expected[f"{stage}_metrics.csv"] = ("step,L_s,L_u,L_m,total", log.metrics)
        expected[f"{stage}_thresholds.csv"] = ("step,class_id,alpha", log.thresholds)
    assert sorted(expected) == sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    for name, (header, rows) in expected.items():
        assert (out / name).read_bytes() == csv_by_rows(header, rows), name
