"""Segmentation evaluation: per-class intersection-over-union and its mean.

``forked(stream, count, nbytes)`` is the one fork path of the package.  Where
``fork_cpus`` allows more than one CPU, it starts a child from
``multiprocessing``'s fork context that pins itself to an allowed CPU other
than the one the caller last ran on and sends each byte string of ``stream``
through a one-way 1 MiB pipe; the caller reads them in place of building them.
What the child leaves unsent (no message, a short or cut one, a failed pin, an
error, which it exits 1 on without a traceback) is replayed from the caller's
own unstarted ``stream``, so the items and their errors are the serial ones.
On exit the child is killed if it still runs, and reaped on every path.

``evaluate_miou`` splits a large dataset (``MIN_SHARE`` label pixels per
worker) into contiguous scene slices, counts the first itself and reads each
other one's int64 matrix from a ``forked`` one-item stream.  Counts are
integers, so the sum is the serial matrix and the IoU bytes are the serial
ones.  A traced benchmark run sees the caller's spans only.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import sys
import threading

import numpy as np

from segadapt.losses import IGNORE_LABEL

__all__ = ["confusion_matrix", "iou_from_confusion", "evaluate_miou", "fork_cpus", "forked"]

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


def fork_cpus() -> int:
    """The allowed CPUs a fork may use; 1 where this process may not fork and pin a child.

    It may not without ``os.fork``, ``os.sched_getaffinity`` or
    ``os.sched_setaffinity``, while another thread runs (a forked child gets a
    copy of every lock that thread holds), or in a daemonic process
    (multiprocessing lets a daemon start no children).
    """
    if (not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "sched_setaffinity"))
            or threading.active_count() > 1 or multiprocessing.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _send(stream, reader, writer) -> None:
    """A child's target: send each byte string of ``stream``, or exit 1 without a traceback.

    Linux would wake it on the reading caller's CPU, so it pins itself away from
    the CPU the caller last ran on (field 39 of ``/proc/<pid>/stat``).  A 1 MiB
    pipe holds seven 64x64 feature planes.
    """
    import fcntl  # POSIX only, as is the fork

    reader.close()  # once the caller closes its end, a write fails instead of waiting
    try:
        with open(f"/proc/{os.getppid()}/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
        with contextlib.suppress(OSError):
            fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
        for data in stream:
            writer.send_bytes(data)
    except Exception:
        sys.exit(1)


@contextlib.contextmanager
def forked(stream, count: int, nbytes: int):
    """Yield the ``count`` byte strings of ``stream``, each ``nbytes`` long, built by a child.

    Serial (``stream`` itself) where ``fork_cpus`` allows one CPU; see the
    module docstring for the child, the replay and the reaping.
    """
    if fork_cpus() < 2:
        yield stream
        return
    fork = multiprocessing.get_context("fork")
    reader, writer = fork.Pipe(duplex=False)
    child = fork.Process(target=_send, args=(stream, reader, writer))
    child.start()
    writer.close()

    def items():
        received = 0
        try:
            while received < count:
                data = reader.recv_bytes()
                if len(data) != nbytes:
                    break
                received += 1
                yield data
        except (EOFError, OSError):  # no message, or a cut one
            pass
        if received < count:  # skipping the received items rebuilds them
            yield from itertools.islice(stream, received, None)

    try:
        yield items()
    finally:
        reader.close()
        if child.exitcode is None:  # polls, so an exited child is reaped here
            child.kill()
        child.join()


def _workers(scenes) -> int:
    """Processes to count ``scenes`` with: one per allowed CPU, each with ``MIN_SHARE`` pixels."""
    pixels = sum(np.size(labels) for _, labels in scenes)
    return max(1, min(fork_cpus(), pixels // MIN_SHARE, len(scenes)))


def _counts(model, scenes, num_classes: int):
    """A one-item stream: the int64 confusion of ``scenes`` as bytes."""
    yield _confusion(model, scenes, num_classes).tobytes()


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
    with contextlib.ExitStack() as children:
        streams = [children.enter_context(forked(_counts(model, part, num_classes), 1,
                                                 8 * num_classes * num_classes))
                   for part in parts]
        total = _confusion(model, own, num_classes)
        for data in itertools.chain.from_iterable(streams):
            total += np.frombuffer(data, dtype=np.int64).reshape(total.shape)
    return iou_from_confusion(total)
