import os
import threading

import numpy as np
import pytest

from segadapt.losses import IGNORE_LABEL
from segadapt.metrics import MIN_SHARE, confusion_matrix, evaluate_miou, iou_from_confusion


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


@pytest.mark.parametrize("case", ["one_cpu", "one_cpu_counted", "thread", "under_two_shares"])
def test_the_serial_fallback_never_forks(monkeypatch, case):
    dataset = _shares(3, scenes=2 * MIN_SHARE // 1024 - 1 if case == "under_two_shares"
                      else 2 * MIN_SHARE // 1024 + 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("evaluate_miou forked"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if case == "one_cpu" else {0, 1},
                        raising=False)
    if case == "one_cpu_counted":  # no affinity call: the CPU count decides
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
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
