"""Run a workload of the segadapt benchmark and print its metrics.

From the repository root:

    python3 bench/run.py --workload pipeline --seed 0 --seconds 5 --trace 0
    python3 bench/run.py --workload all --seed 0 --trace 0

Workloads (BENCHMARK.json says why each is there):

    pipeline   run_pipeline(TrainConfig(seed=S, eval_every=0)), the paper's experiment
    landscape  segadapt gradcurves --kind all, over 5 p_hat x 4 gamma values
    inference  evaluate_miou of a source-pretrained model on 3,000 target scenes

``--trace 0`` measures the end-to-end metrics:

    setup_s      process start to inputs ready in five fresh processes, each
                 divided by the start-up time of a bare interpreter importing
                 numpy and scipy spawned just before it (REFERENCE_START); the
                 median ratio, in seconds at a nominal start-up speed
    wall_ref     time of one pass over the workload (median of the passes made
                 in --seconds), in units of a fixed kernel doing the same kinds
                 of work, timed alongside it (bench/workloads.py, RefClock): the
                 shared host's speed drifts by tens of percent, the ratio less
    peak_rss_mb  peak resident memory of the measured process

The report lines also give the raw wall time and operations per second.
``--trace 1`` runs the workload untraced and, side by side, with every layer
wrapped (bench/layers.py) and reports the per-layer metrics plus the tracing
overhead.  Every measurement is a fresh child process (bench/workloads.py)
with the BLAS thread count fixed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Records of the host, configs, checks and output
hashes, and the spans of traced runs, are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("pipeline", "landscape", "inference")
SETUP_SAMPLES = 5
DEADLINE_S = 175.0
# one BLAS thread: the matrices are small, and over 5 short runs on a shared
# 2-core host 1 thread took 12.2-14.5 s against 10.2-14.8 s for 2 threads;
# the narrower spread matters more here than the best case
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter importing the libraries segadapt imports: the part of
# set-up every workload shares.  The host's start-up speed drifts by tens of
# percent within a run and between runs; set-up time divided by that of this
# reference, started just before it, drifts less.  HOST_REFERENCE_START_S is
# the reference's median time on the 2-core x86-64 host the bounds were set
# on, so setup_s reads as seconds on that host.
REFERENCE_START = "import time, numpy, scipy.ndimage; print(time.monotonic())"
HOST_REFERENCE_START_S = 0.48

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}  # name -> unit


class BenchError(RuntimeError):
    """A measurement could not be made; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({name: threads for name in BLAS_VARS})
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _start(workload: str, seed: int, seconds: float, *flags: str) -> subprocess.Popen:
    """Start one measurement in a fresh process."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--spawned-at", repr(time.monotonic()), *flags]
    return subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _finish(procs: list, deadline: float) -> list[dict]:
    """Wait for every process and return their result records; none outlives this call."""
    outputs = []
    try:
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{' '.join(proc.args[2:4])} ran past the deadline") from exc
            sys.stderr.write(err)
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{' '.join(proc.args[2:4])} exited with code {proc.returncode}")
            outputs.append(json.loads(lines[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return outputs


def _child(workload: str, seed: int, seconds: float, deadline: float, *flags: str) -> dict:
    """Run one measurement in a fresh process and return its result record."""
    return _finish([_start(workload, seed, seconds, *flags)], deadline)[0]


def _reference_start(deadline: float) -> float:
    """Seconds from spawning a ``REFERENCE_START`` interpreter to its imports being done."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-c", REFERENCE_START], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the reference start-up ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"the reference start-up exited with code {proc.returncode}")
    return float(proc.stdout) - spawned_at


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def check_outputs_repeat(first: dict, second: dict) -> None:
    """Two runs of one commit on one seed must write byte-identical CSV files.

    Compares the runs' ``csv_sha256`` records, where the workload writes
    files, and records the result as a check of ``second``.
    """
    hashes = [run["info"][-1].get("csv_sha256") for run in (first, second)]
    if hashes[0] is None and hashes[1] is None:
        return
    same = hashes[0] == hashes[1]
    second["checks"]["csv_bytes_repeat"] = same
    second["correct"] = second["correct"] and same


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Metrics plus the child records of one workload."""
    if trace:
        # side by side, so both see the same host speed and the pair takes one run's time
        plain, traced = _finish([_start(workload, seed, seconds),
                                 _start(workload, seed, seconds, "--trace")], deadline)
        check_outputs_repeat(plain, traced)
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        return values, [plain, traced], []
    setups, starts = [], []
    for _ in range(SETUP_SAMPLES - 1):
        starts.append(_reference_start(deadline))
        setups.append(_child(workload, seed, seconds, deadline, "--setup-only")["setup_s"])
    starts.append(_reference_start(deadline))
    main = _child(workload, seed, seconds, deadline)
    setups.append(main["setup_s"])
    main["reference_start_s"] = starts
    ratio = statistics.median(setup / start for setup, start in zip(setups, starts))
    values = {"setup_s": ratio * HOST_REFERENCE_START_S, "wall_ref": main["wall_ref"],
              "peak_rss_mb": main["peak_rss_mb"]}
    return values, [main], setups


def _report(workload: str, seed: int, values: dict, units: dict, runs: list, setups: list):
    main = runs[-1]
    state = "outputs correct" if all(r["correct"] for r in runs) else "OUTPUTS WRONG"
    print(f"{workload} seed {seed}: {sum(r['attempted'] for r in runs)} {main['unit']} "
          f"attempted, {sum(r['failed'] for r in runs)} failed, {state}")
    for r in runs:
        bad = sorted(name for name, ok in r["checks"].items() if not ok)
        if bad:
            print(f"  failed checks: {', '.join(bad)}")
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "wall_ref": f"median of {len(main['pass_s'])} pass(es)"}
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    if setups:
        start = statistics.median(main["reference_start_s"])
        print(f"  {'(raw) setup_s':<40} {statistics.median(setups):>14.6g} s      "
              f"reference start-up {start:.3f} s")
    kernel = (f"reference kernel {statistics.median(main['kernel_s']) * 1e3:.2f} ms"
              if main["kernel_s"] else "traced")
    print(f"  {'(raw) wall_s':<40} {main['wall_s']:>14.6g} s      {kernel}")
    print(f"  {'(raw) ops_per_s':<40} {main['ops_per_s']:>14.6g} 1/s    {main['unit']} per second")
    for name, value in main["info"][-1].get("quality", {}).items():
        print(f"  {name:<40} {value:>14.6g} IoU")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum measured time; whole passes are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "segadapt" / "__init__.py").is_file():
        print(f"error: no segadapt source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        from layers import PER_LAYER
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        units = END_TO_END

    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in chosen:
            values, runs, setups = measure(workload, args.seed, args.seconds,
                                           bool(args.trace), deadline)
            _report(workload, args.seed, values, units, runs, setups)
            record = {"argv": sys.argv, "git_commit": _git_commit(), "metrics": values,
                      "setup_samples_s": setups, "runs": runs}
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            prefix = f"{workload}." if len(chosen) > 1 else ""
            summary["correct"] &= all(r["correct"] for r in runs)
            summary["attempted"] += sum(r["attempted"] for r in runs)
            summary["failed"] += sum(r["failed"] for r in runs)
            summary["metrics"].update({prefix + k: {"value": v, "unit": units[k]}
                                       for k, v in values.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
