"""Segmentation evaluation: per-class intersection-over-union and its mean.

``evaluate_miou`` forks when a dataset is large: with at least ``MIN_SHARE``
label pixels per worker and more than one allowed CPU, the scenes are split
into contiguous slices, one per worker.  The calling process counts the first
slice and each forked child counts one other, and the parent adds the (C, C)
matrices.  Counts are integers, so the sum is exactly the serial matrix and
the IoU bytes are the serial ones.  It runs serially with one worker, where
``os.fork`` is missing, and while another thread runs, since forking a
threaded process is unsafe.  A child that fails or sends short data has its
slice counted again by the parent, so a caller meets the serial code's error.
A traced benchmark run sees the spans of the calling process only: on
``inference``, traced ``model.prob_map.calls`` and ``data.pixel_features.calls``
read about half the scene count.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np

from segadapt.losses import IGNORE_LABEL

__all__ = ["confusion_matrix", "iou_from_confusion", "evaluate_miou"]

# Label pixels per worker at which a fork-join breaks even.  On a 2-core x86-64
# host a fork-join cost 5 ms from a 117 MB process (the pipeline) and 14 ms
# from a 374 MB one (the benchmark's inference over 3,000 scenes), and two
# workers saved about 0.39 ms per 64x64 scene: 14 ms / 0.39 ms is 36 scenes, so
# about 2**17 pixels (32 scenes of 64x64) per worker at the larger process.
MIN_SHARE = 1 << 17


def confusion_matrix(predicted, truth, num_classes: int) -> np.ndarray:
    """(C, C) counts with rows = truth, columns = prediction; IGNORE truth skipped.

    The bin index is computed in intp, so uint8 label maps do not wrap.  A
    label outside [0, C) would be counted in another row, so it raises.
    """
    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    keep = truth != IGNORE_LABEL
    truth, predicted = truth[keep], predicted[keep]
    if truth.size and not (truth.max() < num_classes and truth.min() >= 0
                           and predicted.max() < num_classes and predicted.min() >= 0):
        bad = {name: np.unique(labels[(labels < 0) | (labels >= num_classes)]).tolist()
               for name, labels in (("truth", truth), ("predicted", predicted))}
        raise ValueError(f"labels outside [0, {num_classes}): "
                         + ", ".join(f"{name} {v}" for name, v in bad.items() if v))
    index = truth.astype(np.intp) * num_classes + predicted
    counts = np.bincount(index, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def iou_from_confusion(confusion: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-class IoU (nan for zero-union classes, excluded from the mean)."""
    tp = np.diag(confusion).astype(np.float64)
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - tp
    with np.errstate(invalid="ignore"):
        iou = np.where(union > 0, tp / union, np.nan)
    present = ~np.isnan(iou)
    miou = float(iou[present].mean()) if present.any() else float("nan")
    return iou, miou


def _confusion(model, scenes, num_classes: int) -> np.ndarray:
    """The serial loop: int64 confusion summed over ``scenes`` in order."""
    total = np.zeros((num_classes, num_classes), dtype=np.int64)
    for image, labels in scenes:
        total += confusion_matrix(model.predict_labels(image), labels, num_classes)
    return total


def _workers(scenes) -> int:
    """Processes to count ``scenes`` with: one per allowed CPU, each with ``MIN_SHARE`` pixels."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    pixels = sum(np.size(labels) for _, labels in scenes)
    return max(1, min(cpus, pixels // MIN_SHARE, len(scenes)))


def _fork(model, scenes, num_classes: int):
    """Start a child that writes the int64 counts of ``scenes`` to a pipe; (pid, pipe)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child never returns into the caller's code
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_confusion(model, scenes, num_classes).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def evaluate_miou(model, dataset, num_classes: int) -> tuple[np.ndarray, float]:
    """Accumulate pixel confusion over a labelled dataset and reduce to IoU.

    A large dataset is counted by forked workers (see the module docstring);
    an empty one raises ``ValueError``.
    """
    scenes = list(dataset)
    if not scenes:
        raise ValueError("dataset is empty: there are no scenes to evaluate")
    workers = _workers(scenes)
    cuts = [len(scenes) * k // workers for k in range(workers + 1)]
    own, *parts = [scenes[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    children = {}  # pid -> (pipe, slice) of every child not yet reaped
    try:
        for part in parts:
            pid, pipe = _fork(model, part, num_classes)
            children[pid] = (pipe, part)
        total = _confusion(model, own, num_classes)
        for pid, (pipe, part) in list(children.items()):
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if os.waitstatus_to_exitcode(status) == 0 and len(data) == total.nbytes:
                total += np.frombuffer(data, dtype=np.int64).reshape(total.shape)
            else:
                total += _confusion(model, part, num_classes)
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return iou_from_confusion(total)
