import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from segadapt.losses import IGNORE_LABEL
import segadapt.metrics as metrics_module
from segadapt.metrics import (
    MIN_SHARE,
    confusion_matrix,
    evaluate_miou,
    forked,
    iou_from_confusion,
)


class _ConstantModel:
    def __init__(self, labels):
        self._labels = labels

    def predict_labels(self, image):
        return self._labels


def test_perfect_prediction_gives_unit_iou():
    truth = np.random.default_rng(0).integers(0, 4, size=(8, 8))
    iou, miou = iou_from_confusion(confusion_matrix(truth, truth, 4))
    assert np.allclose(iou[~np.isnan(iou)], 1.0)
    assert miou == pytest.approx(1.0)


def test_disjoint_prediction_gives_zero_iou():
    truth = np.zeros((4, 4), dtype=int)
    pred = np.ones((4, 4), dtype=int)
    iou, _ = iou_from_confusion(confusion_matrix(pred, truth, 3))
    assert iou[0] == 0.0 and iou[1] == 0.0
    assert np.isnan(iou[2])  # never predicted, never true: excluded


def test_ignore_pixels_are_skipped():
    truth = np.array([[0, IGNORE_LABEL], [1, 1]])
    pred = np.array([[0, 1], [1, 0]])
    confusion = confusion_matrix(pred, truth, 2)
    assert confusion.sum() == 3


def test_random_instance_matches_brute_force():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 5, size=(8, 8))
    pred = rng.integers(0, 5, size=(8, 8))
    iou, miou = iou_from_confusion(confusion_matrix(pred, truth, 5))
    for c in range(5):
        tp = int(np.sum((pred == c) & (truth == c)))
        fp = int(np.sum((pred == c) & (truth != c)))
        fn = int(np.sum((pred != c) & (truth == c)))
        if tp + fp + fn == 0:
            assert np.isnan(iou[c])
        else:
            assert iou[c] == pytest.approx(tp / (tp + fp + fn))
    manual = [v for v in iou if not np.isnan(v)]
    assert miou == pytest.approx(float(np.mean(manual)))


@pytest.mark.parametrize("num_classes", [5, 17])
def test_uint8_truth_counts_as_int64_truth_does(num_classes):
    # uint8 truth times num_classes must not wrap: 16 * 17 + 16 = 288 > 255
    rng = np.random.default_rng(num_classes)
    truth = rng.integers(0, num_classes, size=(9, 11))
    truth[rng.random(truth.shape) < 0.2] = IGNORE_LABEL
    truth[0, 0] = num_classes - 1
    pred = rng.integers(0, num_classes, size=truth.shape)
    pred[0, 0] = num_classes - 1
    brute = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(truth.ravel(), pred.ravel()):
        if t != IGNORE_LABEL:
            brute[t, p] += 1
    assert np.array_equal(confusion_matrix(pred, truth, num_classes), brute)
    assert np.array_equal(confusion_matrix(pred, truth.astype(np.uint8), num_classes), brute)


def test_out_of_range_labels_raise_naming_them():
    # at C=3 a prediction of 3 with truth 0 has bin index 3, the cell (1, 0)
    truth = np.zeros(3, dtype=np.uint8)
    with pytest.raises(ValueError, match=r"^labels outside \[0, 3\): predicted \[3, 4\]$"):
        confusion_matrix(np.array([3, 4, 0]), truth, 3)
    with pytest.raises(ValueError, match=r"predicted \[-1\]$"):
        confusion_matrix(np.array([-1, 0, 0]), truth, 3)
    with pytest.raises(ValueError, match=r": truth \[9\], predicted \[7\]$"):
        confusion_matrix(np.array([7, 0, 0]), np.array([9, 0, 0]), 3)
    # IGNORE truth stays allowed, and so does any prediction at its pixels
    ignored = np.array([IGNORE_LABEL, 0, 2], dtype=np.uint8)
    assert confusion_matrix(np.array([200, 0, 2]), ignored, 3).tolist() == [
        [1, 0, 0], [0, 0, 0], [0, 0, 1]]


# of the same size, raveled maps would be paired misaligned ((5, 4) against (4, 5) as
# [[20, 0], [0, 0]]); of different sizes, numpy's boolean index would not match
@pytest.mark.parametrize("pred_shape, truth_shape", [((5, 4), (4, 5)), ((4, 4), (4, 5))],
                         ids=["same_size", "different_size"])
def test_maps_of_different_shapes_raise_naming_both(pred_shape, truth_shape):
    message = f"predicted shape {pred_shape} differs from truth shape {truth_shape}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        confusion_matrix(np.zeros(pred_shape, dtype=np.uint8),
                         np.zeros(truth_shape, dtype=np.uint8), 2)


def test_evaluate_miou_accumulates_over_scenes():
    labels = np.zeros((4, 4), dtype=int)
    labels[:2] = 1
    model = _ConstantModel(labels)
    dataset = [(None, labels), (None, 1 - labels)]
    iou, miou = evaluate_miou(model, dataset, 2)
    # half of each class is predicted correctly across the two scenes:
    # per class TP=16, FP=16, FN=16 -> IoU = 1/3
    assert np.allclose(iou, 1.0 / 3.0)
    assert miou == pytest.approx(1.0 / 3.0)


def test_an_empty_dataset_raises():
    with pytest.raises(ValueError, match="^dataset is empty"):
        evaluate_miou(_ConstantModel(np.zeros((4, 4), dtype=int)), [], 2)


# ------------------------------------------------------- forked evaluation

class _EchoModel:
    """Predicts the label map stored as the scene's image."""

    def predict_labels(self, image):
        return image


def _shares(seed, scenes=2 * MIN_SHARE // 1024 + 1, num_classes=5):
    """32x32 scenes of random predictions and truth, 10% IGNORE; by default just
    over two workers' worth of label pixels."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, num_classes, size=(scenes, 32, 32), dtype=np.uint8)
    truth[rng.random(truth.shape) < 0.1] = IGNORE_LABEL
    pred = rng.integers(0, num_classes, size=truth.shape, dtype=np.uint8)
    return list(zip(pred, truth))


def _serial_sum(dataset, num_classes=5):
    total = np.zeros((num_classes, num_classes), dtype=np.int64)
    for pred, truth in dataset:
        total += confusion_matrix(pred, truth, num_classes)
    return iou_from_confusion(total)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Allow two CPUs; returns the list of children forked by this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


def test_forked_evaluation_equals_the_serial_sum_bit_for_bit(two_cpus):
    dataset = _shares(0)
    iou, miou = evaluate_miou(_EchoModel(), dataset, 5)
    assert len(two_cpus) == 1
    want_iou, want_miou = _serial_sum(dataset)
    assert iou.tobytes() == want_iou.tobytes()
    assert miou == want_miou
    _assert_no_child_left()


@pytest.mark.parametrize("scene", [0, -1], ids=["callers_slice", "childs_slice"])
def test_a_bad_label_raises_the_serial_error_and_leaves_no_child(two_cpus, scene):
    dataset = _shares(1)
    dataset[scene][1][5, 7] = 5
    with pytest.raises(ValueError) as serial:
        _serial_sum(dataset)
    with pytest.raises(ValueError) as forked:
        evaluate_miou(_EchoModel(), dataset, 5)
    assert str(forked.value) == str(serial.value) == "labels outside [0, 5): truth [5]"
    assert len(two_cpus) == 1
    _assert_no_child_left()


class _SilentChildModel(_EchoModel):
    """Leaves any forked child at its first scene, with exit code 0 and no counts sent."""

    def __init__(self):
        self.pid = os.getpid()

    def predict_labels(self, image):
        if os.getpid() != self.pid:
            os._exit(0)
        return image


def test_a_child_that_sends_no_counts_has_its_slice_counted_by_the_caller(two_cpus):
    dataset = _shares(2)
    iou, miou = evaluate_miou(_SilentChildModel(), dataset, 5)
    assert len(two_cpus) == 1
    want_iou, want_miou = _serial_sum(dataset)
    assert iou.tobytes() == want_iou.tobytes() and miou == want_miou
    _assert_no_child_left()


@pytest.mark.parametrize("case", ["one_cpu", "no_setaffinity", "thread", "under_two_shares"])
def test_the_serial_fallback_never_forks(monkeypatch, case):
    dataset = _shares(3, scenes=2 * MIN_SHARE // 1024 - 1 if case == "under_two_shares"
                      else 2 * MIN_SHARE // 1024 + 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("evaluate_miou forked"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if case == "one_cpu" else {0, 1},
                        raising=False)
    if case == "no_setaffinity":  # a child could not be pinned away from the caller
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if case == "thread":
        waiter.start()
    try:
        iou, miou = evaluate_miou(_EchoModel(), dataset, 5)
    finally:
        release.set()
        if case == "thread":
            waiter.join(timeout=10.0)
    assert not waiter.is_alive()
    want_iou, want_miou = _serial_sum(dataset)
    assert iou.tobytes() == want_iou.tobytes() and miou == want_miou


class _CountingModel(_EchoModel):
    """Records the label maps it predicts in the process that built it."""

    def __init__(self):
        self.pid, self.predicted = os.getpid(), []

    def predict_labels(self, image):
        if os.getpid() == self.pid:
            self.predicted.append(image)
        return image


def test_the_caller_counts_only_its_own_slice_when_the_child_sends(two_cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)  # a host of one CPU too
    dataset = _shares(8)
    model = _CountingModel()
    iou, miou = evaluate_miou(model, dataset, 5)
    assert len(two_cpus) == 1
    own = len(dataset) // 2
    assert len(model.predicted) == own
    assert all(got is pred for got, (pred, _) in zip(model.predicted, dataset[:own]))
    want_iou, want_miou = _serial_sum(dataset)
    assert iou.tobytes() == want_iou.tobytes() and miou == want_miou
    _assert_no_child_left()


@pytest.fixture
def four_cpus(two_cpus, monkeypatch):
    """Allow four CPUs; returns the list of children forked by this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    return two_cpus


def test_four_cpus_fork_three_children_and_give_the_serial_sum_bit_for_bit(four_cpus):
    dataset = _shares(6, scenes=4 * MIN_SHARE // 1024 + 1)
    iou, miou = evaluate_miou(_EchoModel(), dataset, 5)
    assert len(four_cpus) == 3
    want_iou, want_miou = _serial_sum(dataset)
    assert iou.tobytes() == want_iou.tobytes() and miou == want_miou
    _assert_no_child_left()


def test_a_bad_label_in_the_callers_slice_reaps_all_three_children(four_cpus):
    dataset = _shares(7, scenes=4 * MIN_SHARE // 1024 + 1)
    dataset[3][1][2, 9] = 6
    with pytest.raises(ValueError) as serial:
        _serial_sum(dataset)
    with pytest.raises(ValueError) as forked:
        evaluate_miou(_EchoModel(), dataset, 5)
    assert str(forked.value) == str(serial.value) == "labels outside [0, 5): truth [6]"
    assert len(four_cpus) == 3
    _assert_no_child_left()


def _slow_stream():
    """A one-item stream whose int64 item takes 20 s to build."""
    time.sleep(20.0)
    yield np.zeros(1, dtype=np.int64)


def test_a_caller_that_leaves_early_kills_the_child_still_building(two_cpus):
    start = time.monotonic()
    with forked(_slow_stream(), 1, np.zeros(1, dtype=np.int64), MIN_SHARE):
        pass
    assert time.monotonic() - start < 10.0
    assert len(two_cpus) == 1
    _assert_no_child_left()


def _planes(count=12):
    """A stream of float32 (9, 32*32) planes, as the perturbed branch yields them."""
    rng = np.random.default_rng(9)
    for _ in range(count):
        yield rng.random((9, 32 * 32), dtype=np.float32)


def _cut_after(planes):
    """A child's target that sends ``planes`` planes, then a cut one, and exits 0."""
    send = metrics_module._send

    def cut(stream, reader, writer):
        send(itertools.islice(stream, planes), reader, writer)
        writer.send_bytes(b"cut")

    return cut


@pytest.mark.parametrize("case", ["forked", "serial", "replayed"])
def test_a_stream_of_float32_arrays_reads_back_as_the_serial_bytes(two_cpus, monkeypatch, case):
    want = list(_planes())
    if case == "replayed":
        monkeypatch.setattr(metrics_module, "_send", _cut_after(5))
    pixels = MIN_SHARE - 1 if case == "serial" else MIN_SHARE  # the child's pixels
    with forked(_planes(), len(want), want[0], pixels) as items:
        got = list(items)
    assert all(isinstance(item, np.ndarray) and (item.dtype, item.shape) == (np.float32, (9, 1024))
               for item in got)
    assert [item.tobytes() for item in got] == [plane.tobytes() for plane in want]
    assert len(two_cpus) == (0 if case == "serial" else 1)
    _assert_no_child_left()


def _evaluate_in_a_daemon(dataset, forked, pipe):
    iou, miou = evaluate_miou(_EchoModel(), dataset, 5)
    pipe.send((iou.tobytes(), miou, len(forked)))


def test_a_daemonic_process_evaluates_serially(two_cpus):
    # multiprocessing lets no daemonic process start children of its own
    dataset = _shares(4)
    fork = multiprocessing.get_context("fork")
    pipe, child_end = fork.Pipe(duplex=False)
    daemon = fork.Process(target=_evaluate_in_a_daemon, args=(dataset, two_cpus, child_end),
                          daemon=True)
    daemon.start()
    child_end.close()
    try:
        got_iou, got_miou, forks_in_daemon = pipe.recv()
    finally:
        pipe.close()
        daemon.join(timeout=60.0)
    assert daemon.exitcode == 0 and forks_in_daemon == 0
    assert len(two_cpus) == 1  # the daemon itself
    want_iou, want_miou = _serial_sum(dataset)
    assert got_iou == want_iou.tobytes() and got_miou == want_miou
    _assert_no_child_left()


def test_a_failing_child_exits_without_writing_to_stderr(two_cpus, capfd):
    dataset = _shares(5)
    dataset[-1][1][3, 2] = 7
    with pytest.raises(ValueError, match=r"^labels outside \[0, 5\): truth \[7\]$"):
        evaluate_miou(_EchoModel(), dataset, 5)
    assert len(two_cpus) == 1
    assert capfd.readouterr().err == ""
    _assert_no_child_left()


_FORKED_FIRST_USE = """
import json
import os
import sys

import numpy as np

from segadapt import metrics
from segadapt.config import TrainConfig
from segadapt.data import generate_domain
from segadapt.model import PixelModel

os.sched_getaffinity = lambda pid: {0, 1}
os.sched_setaffinity = lambda pid, cpus: None  # a host of one CPU too
PID, fork, loaded_at_fork, caller_scenes = os.getpid(), os.fork, [], []


def counted_fork():
    loaded_at_fork.append("scipy.ndimage" in sys.modules)
    return fork()


class CountingModel(PixelModel):
    def predict_labels(self, image):
        if os.getpid() == PID:
            caller_scenes.append(image)
        return super().predict_labels(image)


os.fork = counted_fork
cfg = TrainConfig()
scenes = generate_domain(cfg, "target", 2 * metrics.MIN_SHARE // (cfg.height * cfg.width) + 1, 0)
model = CountingModel(cfg.num_classes)
iou, miou = metrics.evaluate_miou(model, scenes, cfg.num_classes)
counted = len(caller_scenes)
want_iou, want_miou = metrics.iou_from_confusion(
    metrics._confusion(model, scenes, cfg.num_classes))
try:
    os.waitpid(-1, os.WNOHANG)
    left = True  # a child, running or unreaped
except ChildProcessError:
    left = False
print(json.dumps({"loaded_at_fork": loaded_at_fork, "scenes": len(scenes),
                  "caller_scenes": counted, "same_bits": iou.tobytes() == want_iou.tobytes()
                  and miou == want_miou, "child_left": left}))
"""


def test_workers_forked_before_the_first_pixel_features_give_the_serial_bits():
    # segadapt eval reaches evaluate_miou in a fresh process, before any
    # pixel_features call, so the forked worker loads scipy.ndimage itself
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _FORKED_FIRST_USE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["loaded_at_fork"] == [False]
    assert got["caller_scenes"] == got["scenes"] // 2  # the child sent its slice's counts
    assert got["same_bits"]
    assert not got["child_left"]
