"""Segmentation evaluation: per-class intersection-over-union and its mean.

``evaluate_miou`` splits a large dataset (``MIN_SHARE`` label pixels per
worker, more than one allowed CPU) into contiguous scene slices.  The caller
counts the first; a child from ``multiprocessing``'s fork context counts each
other one and sends its int64 matrix through a pipe.  Counts are integers, so
the sum is the serial matrix and the IoU bytes are the serial ones.  It runs
serially with one worker, where the platform cannot fork, inside a daemonic
process and while another thread runs.  The caller recounts the slice of a
child that fails or sends short data, so errors read as serially, and every
child is reaped on every path.  A traced benchmark run sees the caller's spans
only.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
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

    The bin index is computed in intp, so uint8 label maps do not wrap.  Maps
    of different shapes would be counted misaligned, and a label outside
    [0, C) in another row, so both raise.
    """
    predicted, truth = np.asarray(predicted), np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError(f"predicted shape {predicted.shape} differs from truth shape "
                         f"{truth.shape}")
    predicted, truth = predicted.ravel(), truth.ravel()
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
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    pixels = sum(np.size(labels) for _, labels in scenes)
    return max(1, min(cpus, pixels // MIN_SHARE, len(scenes)))


def _send_counts(model, scenes, num_classes: int, pipe) -> None:
    """A child's target: send the int64 counts of ``scenes``, or exit 1 without a traceback."""
    try:
        pipe.send_bytes(_confusion(model, scenes, num_classes))
    except Exception:
        sys.exit(1)


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
    children = []  # (process, read end, slice) of every started child
    try:
        for part in parts:
            fork = multiprocessing.get_context("fork")
            pipe, child_end = fork.Pipe(duplex=False)
            child = fork.Process(target=_send_counts, args=(model, part, num_classes, child_end))
            child.start()
            children.append((child, pipe, part))
            child_end.close()
        total = _confusion(model, own, num_classes)
        for child, pipe, part in children:
            try:
                data = pipe.recv_bytes()
            except (EOFError, OSError):  # no message, or a cut one
                data = b""
            child.join()
            if child.exitcode == 0 and len(data) == total.nbytes:
                total += np.frombuffer(data, dtype=np.int64).reshape(total.shape)
            else:
                total += _confusion(model, part, num_classes)
    finally:
        for child, pipe, _ in children:
            pipe.close()
            if child.exitcode is None:  # polls, so an exited child is reaped here
                child.kill()
                child.join()
    return iou_from_confusion(total)
