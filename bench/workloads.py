"""The segadapt benchmark workloads; each measurement runs in a process of its own.

``run.py`` starts this file as a child process:

    python3 bench/workloads.py WORKLOAD --seed S --seconds N --spawned-at T [--trace] [--setup-only]

The child sets the workload up from the seed, times whole passes until at
least N seconds are measured, checks the outputs and prints one JSON object
as its last line.  Set-up time runs from T, the parent's ``time.monotonic()``
just before the spawn (one clock for every process on Linux), to the moment
the inputs are ready, so it includes interpreter start and imports.

All workloads are closed loops with a single caller: the next operation
starts when the previous one returns.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import layers
from segadapt import autodiff, cli, data, metrics, train
from segadapt.config import TrainConfig, format_config
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


@dataclass
class Pass:
    """One timed pass over a workload's operations."""

    attempted: int
    seconds: float = 0.0    # wall time of the workload's calls
    ref_units: float = 0.0  # the same, in reference-kernel units (see RefClock)
    failed: int = 0
    checks: dict = field(default_factory=dict)  # check name -> passed
    info: dict = field(default_factory=dict)


def _failure(res: Pass, failed: int) -> None:
    """Count ``failed`` operations and keep the traceback of the exception being handled."""
    res.failed += failed
    res.checks["no_exception"] = False
    res.info.setdefault("errors", []).append(traceback.format_exc())
    traceback.print_exc(file=sys.stderr)


class _Node:
    """A node of the reference kernel's hand-rolled graph."""

    __slots__ = ("value", "parents", "vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value, self.parents, self.vjps = value, parents, vjps


def _tiny_graph(p: float) -> float:
    """Entropy of (p, 1-p) and its gradient, through a graph of one-pixel arrays."""
    x = _Node(np.array([[p]]))
    q = _Node(np.concatenate([x.value, 1.0 - x.value]), (x,), (lambda g: g[:1] - g[1:],))
    lg = _Node(np.log(np.clip(q.value, 1e-8, 1.0)), (q,), (lambda g: g / q.value,))
    prod = _Node(q.value * lg.value, (q, lg), (lambda g: g * lg.value, lambda g: g * q.value))
    out = _Node(-prod.value.sum(), (prod,), (lambda g: -np.ones_like(prod.value) * g,))
    order, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            order.append(node)
            stack.extend(node.parents)
    flows = {id(out): np.ones_like(out.value)}
    for node in order:
        g = flows.pop(id(node), None)
        for parent, vjp in zip(node.parents, node.vjps):
            flows[id(parent)] = flows.get(id(parent), 0.0) + vjp(g)
    return float(out.value)


def reference_kernel(layers: int = 0, small_ops: int = 0, graphs: int = 0) -> float:
    """Fixed work of the kinds the workloads do, for ``RefClock``.

    ``layers`` two-layer forwards over 4,096 pixels (pipeline, inference),
    ``small_ops`` 64x64 matmul-and-tanh ops, and ``graphs`` graphs of
    one-pixel arrays built and walked in Python (landscape, pipeline).  A
    workload's mix is the unit of its ``wall_ref``: changing the kernel or
    the mix breaks every comparison with earlier measurements.

    Each workload's mix holds the kinds of work its traced run spends most
    time in, and its counts make one sample take 10-25 ms, so the samples
    of a pass cost 1.5-4% of the pass.  Pipeline: 4,096-pixel forwards
    (``prob_map``), small-array numpy ops (the per-op cost of ``backward``
    and the losses) and one-pixel graphs (Python per-node cost).  Landscape:
    small ops and one-pixel graphs; it has no 4,096-pixel arrays.  Inference:
    4,096-pixel forwards only; it builds no graphs.
    """
    rng = np.random.default_rng(0)
    x, w1, w2 = rng.random((4096, 9)), rng.random((9, 16)) * 0.1, rng.random((16, 5)) * 0.1
    a, w = np.linspace(-1.0, 1.0, 4096).reshape(64, 64), np.full((64, 16), 0.01)
    acc = 0.0
    for i in range(layers):
        p = np.exp(np.tanh(x @ w1 + i * 1e-3) @ w2)
        acc += float((p / p.sum(axis=1, keepdims=True)).sum())
    for k in range(small_ops):
        acc += float(np.tanh(a @ w + k * 1e-3).sum())
    for q in np.linspace(0.01, 0.99, graphs):
        acc += _tiny_graph(q)
    return acc


class RefClock:
    """Wall time of a workload, in seconds and in reference-kernel units.

    The host is shared and its speed drifts by tens of percent over tens of
    seconds.  The drift slows the workload and a kernel doing the same kinds
    of work alike, so their ratio is steadier than either.  The workload
    calls ``checkpoint()`` at regular points of its work; each samples the
    kernel, whose time is not counted as workload time.  ``units`` is the
    workload time divided by the mean kernel sample.  Without a kernel mix
    (traced runs) nothing is sampled and units are seconds.
    """

    def __init__(self, mix: dict | None):
        self.mix = mix
        self.seconds = 0.0
        self.samples: list[float] = []
        self._started = None
        self.checkpoint()

    @property
    def units(self) -> float:
        return self.seconds / statistics.fmean(self.samples) if self.samples else self.seconds

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.seconds += time.perf_counter() - self._started
        self._started = None

    def checkpoint(self) -> None:
        if self.mix is None:
            return
        running = self._started is not None
        if running:
            self.stop()
        start = time.perf_counter()
        reference_kernel(**self.mix)
        self.samples.append(time.perf_counter() - start)
        if running:
            self.start()


class _CallHook:
    """Counts calls of ``owner.attr`` while active and runs ``action`` after every n-th."""

    def __init__(self, owner, attr, every: int, action):
        self.owner, self.attr, self.every, self.action = owner, attr, every, action
        self.calls = 0

    def __enter__(self):
        self.original = original = getattr(self.owner, self.attr)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            self.calls += 1
            if self.calls % self.every == 0:
                self.action()
            return result

        setattr(self.owner, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


# ------------------------------------------------------------------ pipeline

# criterion 7 of the acceptance suite, at seed 0, to 3 decimals
SEED0_QUALITY = {"baseline_target_miou": 0.554, "stage1_target_miou": 0.688,
                 "stage2_target_miou": 0.763, "stage2_rare_iou": 0.877}
PIPELINE_CSVS = {"baseline_ious.csv", "stage1_metrics.csv", "stage1_thresholds.csv",
                 "stage1_ious.csv", "stage2_metrics.csv", "stage2_thresholds.csv",
                 "stage2_ious.csv"}


class Pipeline:
    """``run_pipeline`` on the acceptance-suite config: the paper's experiment."""

    unit = "optimizer steps"
    kernel = {"layers": 8, "small_ops": 800, "graphs": 200}

    def __init__(self, seed, op, **overrides):
        self.cfg = TrainConfig(seed=seed, eval_every=0, **overrides)
        self.acceptance = seed == 0 and not overrides
        self.op = op
        self.configs = [format_config(self.cfg)]

    def run_pass(self, clock: RefClock) -> Pass:
        cfg = self.cfg
        res = Pass(attempted=cfg.pretrain_steps + cfg.stage1_steps + cfg.stage2_steps)
        # one backward pass per optimizer step, so the count says how far a failed run got
        with tempfile.TemporaryDirectory(dir=OUT) as tmp, \
                _CallHook(autodiff.Tensor, "backward", 100, clock.checkpoint) as steps:
            clock.start()
            try:
                summary = self.op(train.run_pipeline, cfg, out_dir=tmp)
            except Exception:
                clock.stop()
                _failure(res, res.attempted - min(steps.calls, res.attempted))
                return res
            clock.stop()
            hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(Path(tmp).glob("*.csv"))}

        quality = {
            "baseline_target_miou": summary["baseline_target_miou"],
            "stage1_target_miou": summary["stage1_target_miou"],
            "stage2_target_miou": summary["stage2_target_miou"],
            "stage2_rare_iou": float(summary["stage2_target_iou"][cfg.rare_class]),
        }
        logs = (summary["stage1_log"].metrics, summary["stage2_log"].metrics)
        res.info.update(quality=quality, csv_sha256=hashes)
        res.checks["losses_finite"] = all(
            math.isfinite(v) for log in logs for row in log for v in row[1:])
        res.checks["steps_logged"] = (len(logs[0]) == cfg.stage1_steps
                                      and len(logs[1]) == cfg.stage2_steps)
        res.checks["quality_in_unit_range"] = all(0.0 <= v <= 1.0 for v in quality.values())
        res.checks["csv_files_written"] = set(hashes) == PIPELINE_CSVS
        if self.acceptance:
            res.checks["seed0_quality"] = all(
                round(quality[k], 3) == v for k, v in SEED0_QUALITY.items())
        return res

    def finish(self, passes) -> dict:
        return {}


# ----------------------------------------------------------------- landscape

P_HATS = (0.55, 0.6, 0.7, 0.8, 0.9)
GAMMAS = (0.5, 1.0, 2.0, 4.0)  # 0.5 covers gamma in [0, 1)
GRID = 1999
KINDS = ("shannon", "maxsquare", "focal")
_FOCAL_MIN = re.compile(r"^focal: global minimum at p = ([0-9.eE+-]+)", re.MULTILINE)


def check_curves(path, printed: str, grid: int) -> tuple[int, dict]:
    """Finite points in one ``gradcurves --kind all`` CSV and criteria 4a-4c on them."""
    rows: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        for line in fh:
            kind, *values = line.rstrip("\n").split(",")
            rows.setdefault(kind, []).append([float(v) for v in values])
    checks = {"csv_header": header == "loss_kind,p,loss,grad",
              "points_per_curve": sorted(rows) == sorted(KINDS)
              and all(len(rows[k]) == grid for k in KINDS)}
    good = 0
    finite_all = True
    for kind in KINDS:
        arr = np.array(rows.get(kind, []), dtype=np.float64).reshape(-1, 3)
        finite = np.isfinite(arr).all(axis=1)
        good += min(int(finite.sum()), grid)
        finite_all &= bool(finite.all())
        if arr.shape[0] < 3:
            continue
        p, loss, grad = arr.T
        half = np.flatnonzero(np.abs(p - 0.5) < 1e-12)
        argmin = int(np.argmin(loss))
        if kind == "shannon":  # 4a: saddle at 0.5, minima at the grid edges
            checks["shannon_edge_minimum"] = argmin in (0, len(p) - 1)
            checks["shannon_saddle_at_half"] = half.size == 1 and abs(grad[half[0]]) < 1e-12
        elif kind == "maxsquare":  # 4b
            checks["maxsquare_zero_grad_at_half"] = half.size == 1 and abs(grad[half[0]]) < 1e-10
        else:  # 4c: interior minimum above 0.5, found by find_global_min near the grid argmin
            found = _FOCAL_MIN.search(printed)
            p_star = float(found.group(1)) if found else math.nan
            step = (p[-1] - p[0]) / (len(p) - 1)
            checks["focal_interior_minimum"] = 0 < argmin < len(p) - 1 and 0.5 < p_star < 1.0
            checks["focal_refined_minimum"] = abs(p_star - p[argmin]) <= 2 * step
            checks["focal_grad_at_half_nonzero"] = half.size == 1 and abs(grad[half[0]]) > 0.0
    checks["points_finite"] = finite_all
    return good, checks


class Landscape:
    """The ``gradcurves`` CLI over a (p_hat, gamma) grid: tiny one-pixel graphs."""

    unit = "curve points"
    kernel = {"small_ops": 800, "graphs": 300}

    def __init__(self, seed, op, p_hats=P_HATS, gammas=GAMMAS, grid=GRID):
        settings = [(p, g) for p in p_hats for g in gammas]
        order = np.random.default_rng(seed).permutation(len(settings))  # same work, seeded order
        self.settings = [settings[i] for i in order]
        self.grid = grid
        self.op = op
        self.configs = [f"gradcurves --kind all --p-hat {p!r} --gamma {g!r} --grid {grid}"
                        for p, g in self.settings]
        self._dir = tempfile.TemporaryDirectory(dir=OUT)

    def run_pass(self, clock: RefClock) -> Pass:
        per_call = len(KINDS) * self.grid
        res = Pass(attempted=per_call * len(self.settings))
        for i, (p_hat, gamma) in enumerate(self.settings):
            path = Path(self._dir.name) / f"curves_{i}.csv"
            argv = ["gradcurves", "--kind", "all", "--p-hat", repr(p_hat),
                    "--gamma", repr(gamma), "--grid", str(self.grid), "--out", str(path)]
            printed = io.StringIO()
            clock.start()
            try:
                with contextlib.redirect_stdout(printed):
                    code = self.op(cli.main, argv)
            except Exception:
                clock.stop()
                _failure(res, per_call)
                continue
            clock.stop()
            clock.checkpoint()
            good, checks = check_curves(path, printed.getvalue(), self.grid)
            checks["exit_code"] = code == 0
            res.failed += per_call - good
            for name, ok in checks.items():
                res.checks[name] = res.checks.get(name, True) and ok
        return res

    def finish(self, passes) -> dict:
        self._dir.cleanup()
        return {}


# ----------------------------------------------------------------- inference

TARGET_STREAM = 1  # build_datasets' target stream: the first scenes are the pipeline's target set


def reference_logits(state: dict, images: np.ndarray) -> np.ndarray:
    """Plain-numpy PixelModel forward on (B, 3, H, W) images; returns (B, H*W, C)."""
    b, _, h, w = images.shape
    padded = np.pad(images, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
    windows = [padded[:, :, dy:dy + h, dx:dx + w] for dy in range(3) for dx in range(3)]
    mean = sum(windows) / 9.0
    var = np.maximum(sum(x * x for x in windows) / 9.0 - mean * mean, 0.0)
    feats = np.concatenate([images, mean, var], axis=1).transpose(0, 2, 3, 1)
    hidden = np.tanh(feats.reshape(b * h * w, -1) @ state["w1"] + state["b1"])
    return (hidden @ state["w2"] + state["b2"]).reshape(b, h * w, -1)


def _near_tie(logits: np.ndarray) -> np.ndarray:
    """Pixels whose two largest logits are within rounding of each other."""
    top = np.sort(logits, axis=-1)
    return top[..., -1] - top[..., -2] < 1e-9


class Inference:
    """Forward-only ``evaluate_miou`` of a source-pretrained model on many target scenes."""

    unit = "scenes"
    kernel = {"layers": 25}

    def __init__(self, seed, op, scenes=3000, sample=16, **overrides):
        cfg = TrainConfig(seed=seed, eval_every=0, **overrides)
        source, self._target, spec = train.build_datasets(cfg)
        self.model = train.pretrain_source(cfg, source)
        self.scenes = data.generate_domain(spec, "target", scenes, (seed, TARGET_STREAM))
        self.num_classes = cfg.num_classes
        self.seed, self.sample, self.op = seed, sample, op
        self.configs = [format_config(cfg) + f"# evaluated target scenes = {scenes}\n"]

    def run_pass(self, clock: RefClock) -> Pass:
        res = Pass(attempted=len(self.scenes))
        # evaluate_miou takes one confusion matrix per scene
        with _CallHook(metrics, "confusion_matrix", 250, clock.checkpoint):
            clock.start()
            try:
                iou, miou = self.op(metrics.evaluate_miou, self.model, self.scenes,
                                    self.num_classes)
            except Exception:
                clock.stop()
                _failure(res, res.attempted)
                return res
            clock.stop()
        res.info.update(miou=miou, iou=[float(v) for v in iou])
        return res

    def _reference_iou(self, state, chunk=25):
        c = self.num_classes
        confusion = np.zeros(c * c, dtype=np.int64)
        for lo in range(0, len(self.scenes), chunk):
            part = self.scenes[lo:lo + chunk]
            pred = reference_logits(state, np.stack([img for img, _ in part])).argmax(axis=-1)
            truth = np.stack([labels.ravel() for _, labels in part])
            confusion += np.bincount((truth * c + pred).ravel(), minlength=c * c)
        confusion = confusion.reshape(c, c)
        tp = np.diag(confusion).astype(np.float64)
        union = confusion.sum(axis=0) + confusion.sum(axis=1) - tp
        iou = np.full(c, np.nan)
        iou[union > 0] = tp[union > 0] / union[union > 0]
        return iou, float(np.nanmean(iou))

    def finish(self, passes) -> dict:
        state = self.model.state_dict()
        checks = {"prefix_is_pipeline_target_set": all(
            np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            for a, b in zip(self.scenes, self._target))}
        ref_iou, ref_miou = self._reference_iou(state)
        done = [p.info for p in passes if "miou" in p.info]
        checks["miou_matches_reference"] = all(
            abs(d["miou"] - ref_miou) <= 1e-9
            and np.allclose(d["iou"], ref_iou, rtol=0.0, atol=1e-9, equal_nan=True)
            for d in done)
        picks = np.random.default_rng((self.seed, 7)).choice(
            len(self.scenes), size=min(self.sample, len(self.scenes)), replace=False)
        agree = True
        for i in picks:
            image = self.scenes[i][0]
            logits = reference_logits(state, image[None])[0]
            labels = self.model.predict_labels(image).ravel()
            agree &= bool(np.all((labels == logits.argmax(axis=-1)) | _near_tie(logits)))
        checks["sample_labels_match_reference"] = agree
        return checks


WORKLOADS = {"pipeline": Pipeline, "landscape": Landscape, "inference": Inference}


# ---------------------------------------------------------------- measuring


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(workload: str, seed: int, seconds: float, spawned_at: float,
        trace: bool = False, setup_only: bool = False, **sizes) -> dict:
    """Set up, time passes for at least ``seconds`` (one if traced), check; return the record.

    ``sizes`` shrink a workload (config fields, grid, scene counts) for tests.
    """
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None

    def op(fn, *args, **kwargs):  # one operation; its spans share a run id
        if tracer is None:
            return fn(*args, **kwargs)
        tracer.run += 1
        return tracer.span("bench.op", fn, *args, **kwargs)

    wl = WORKLOADS[workload](seed, op, **sizes)
    result = {"workload": workload, "seed": seed, "setup_s": time.monotonic() - spawned_at}
    if setup_only:
        return result
    if tracer is not None:  # only the timed part is traced
        layers.instrument(tracer)
    try:
        passes, kernel_s = [], []
        # a traced run makes one pass, so its counts repeat exactly
        while not passes or (tracer is None and sum(p.seconds for p in passes) < seconds):
            clock = RefClock(wl.kernel if tracer is None else None)
            res = wl.run_pass(clock)
            clock.checkpoint()
            res.seconds, res.ref_units = clock.seconds, clock.units
            passes.append(res)
            kernel_s += clock.samples
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.restore()

    checks: dict = {}
    for p in passes:
        for name, ok in p.checks.items():
            checks[name] = checks.get(name, True) and bool(ok)
    checks.update({name: bool(ok) for name, ok in wl.finish(passes).items()})
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall_s = statistics.median(p.seconds for p in passes)
    result.update(
        wall_s=wall_s, wall_ref=statistics.median(p.ref_units for p in passes),
        pass_s=[p.seconds for p in passes], pass_ref=[p.ref_units for p in passes],
        kernel_s=kernel_s, unit=wl.unit,
        ops_per_s=(attempted - failed) / len(passes) / wall_s if wall_s > 0 else 0.0,
        attempted=attempted, failed=failed,
        correct=bool(checks) and all(checks.values()), checks=checks,
        peak_rss_mb=peak_rss_mb, info=[p.info for p in passes],
        host=host_record(), configs=wl.configs)
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer)
        tracer.write(OUT / f"{workload}-seed{seed}-spans.npz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.spawned_at,
                 trace=args.trace, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
