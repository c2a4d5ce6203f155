import numpy as np
import pytest

from segadapt.losses import IGNORE_LABEL
from segadapt.metrics import confusion_matrix, evaluate_miou, iou_from_confusion


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
