"""Segmentation evaluation: per-class intersection-over-union and its mean."""

from __future__ import annotations

import numpy as np

from segadapt.losses import IGNORE_LABEL

__all__ = ["confusion_matrix", "iou_from_confusion", "evaluate_miou"]


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


def evaluate_miou(model, dataset, num_classes: int) -> tuple[np.ndarray, float]:
    """Accumulate pixel confusion over a labelled dataset and reduce to IoU."""
    total = np.zeros((num_classes, num_classes), dtype=np.int64)
    for image, labels in dataset:
        total += confusion_matrix(model.predict_labels(image), labels, num_classes)
    return iou_from_confusion(total)
