"""Class-level dynamic confidence thresholds for the unsupervised loss mask.

Each class keeps its own threshold ``alpha[c]``.  For every target sample the
per-class candidate threshold is read off the descending-sorted confidence
list of that class at index ``floor(b * exp(d * (alpha[c] - 1)) * len)``, then
folded into ``alpha`` by an exponential moving average.  Classes the model is
unsure about therefore end up with lower bars and keep contributing pixels to
the loss, instead of being filtered away by one global cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ThresholdState",
    "confidence_and_argmax",
    "per_sample_threshold",
    "ema_update",
    "update",
    "adaptive_mask",
    "fixed_mask",
    "class_selection_distribution",
]


@dataclass
class ThresholdState:
    """Per-class thresholds plus the EMA parameters driving their updates.

    ``a`` is the historical memory, ``b`` the global kept proportion, ``d``
    the regularization exponent; ``initial`` starts every class at ``t0``.

    One updater at a time (the training loop) mutates ``alpha``; readers may
    snapshot it between steps.
    """

    alpha: np.ndarray
    a: float
    b: float
    d: float

    @classmethod
    def initial(cls, num_classes: int, a: float = 0.9, b: float = 0.8,
                d: float = 8.0, t0: float = 0.8) -> "ThresholdState":
        return cls(alpha=np.full(num_classes, t0, dtype=np.float64), a=a, b=b, d=d)

    @property
    def num_classes(self) -> int:
        return self.alpha.size


def confidence_and_argmax(probs) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel max (as float64) of a class-major array and its class; ties go to the lowest.

    The labels equal ``values.argmax(axis=0)``, the first NaN included, but
    come from a scan of the class rows against the max: on a class-major
    map that is a few row compares, where ``argmax`` walks a strided axis.
    """
    values = np.asarray(probs)
    top = values.max(axis=0)
    labels = np.full(top.shape, values.shape[0] - 1, dtype=np.intp)
    for c in range(values.shape[0] - 2, -1, -1):
        labels[(values[c] == top) | np.isnan(values[c])] = c
    return top.astype(np.float64, copy=False), labels


def per_sample_threshold(confidence: np.ndarray, labels: np.ndarray,
                         state: ThresholdState) -> np.ndarray:
    """Candidate per-class thresholds from one sample's confidence lists.

    A class with no pixels keeps its previous threshold; otherwise the index
    is floored and clamped into the valid range of the sorted list.
    """
    confidence = np.asarray(confidence, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    alpha_prime = state.alpha.copy()
    for c in range(state.num_classes):
        conf = confidence[labels == c]
        if conf.size == 0:
            continue
        order = np.sort(conf)[::-1]
        factor = state.b * np.exp((state.alpha[c] - 1.0) * state.d)
        index = int(np.floor(factor * conf.size))
        index = min(max(index, 0), conf.size - 1)
        alpha_prime[c] = order[index]
    return alpha_prime


def ema_update(state: ThresholdState, alpha_prime: np.ndarray) -> np.ndarray:
    """Fold candidate thresholds into the state: ``a*alpha + (1-a)*alpha'``."""
    alpha_prime = np.asarray(alpha_prime, dtype=np.float64)
    if alpha_prime.shape != state.alpha.shape:
        raise ValueError(
            f"alpha' length {alpha_prime.shape} does not match state {state.alpha.shape}")
    state.alpha = state.a * state.alpha + (1.0 - state.a) * alpha_prime
    return state.alpha.copy()


def update(state: ThresholdState, confidence: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One full threshold step: per-sample extraction followed by the EMA."""
    return ema_update(state, per_sample_threshold(confidence, labels, state))


def adaptive_mask(confidence: np.ndarray, labels: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Pixels whose confidence strictly exceeds their argmax class threshold."""
    confidence = np.asarray(confidence, dtype=np.float64)
    labels = np.asarray(labels)
    alpha = np.asarray(alpha, dtype=np.float64)
    if confidence.shape != labels.shape:
        raise ValueError(f"confidence {confidence.shape} and labels {labels.shape} disagree")
    return confidence > alpha[labels]


def fixed_mask(confidence: np.ndarray, t: float) -> np.ndarray:
    """Pixels whose confidence strictly exceeds one global threshold."""
    return np.asarray(confidence, dtype=np.float64) > t


def class_selection_distribution(alpha: np.ndarray) -> np.ndarray:
    """Softmax of the negated thresholds: low-threshold classes are favored."""
    alpha = np.asarray(alpha, dtype=np.float64)
    z = -alpha
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()
