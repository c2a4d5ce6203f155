"""Objective functions for entropy-based two-domain adaptation.

Every loss consumes class-major probability maps (Tensor of shape ``(C, N)``
or ``(C, H, W)``) rather than logits; softmax belongs to the model.  Masks are
plain boolean arrays over the pixel axes.  Probabilities entering a logarithm
are clamped to ``[epsilon, 1]`` first, so hard pixels near 0 stay finite.
The per-pixel terms run in the map's dtype (float64 or float32); each loss
reduces them to a float64 scalar.

The unsupervised focal loss couples two branches of the same model: the
weak-branch distribution drives a masked Shannon entropy term, and its
detached copy serves as the soft target of an adjusted KL divergence whose
``(1 - p)**gamma`` factor damps well-classified pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segadapt.autodiff import Tensor
from segadapt.config import TrainConfig

IGNORE_LABEL = 255

__all__ = [
    "IGNORE_LABEL",
    "StageLosses",
    "shannon_entropy_loss",
    "adjusted_kl_loss",
    "unsupervised_focal_loss",
    "supervised_ce_loss",
    "supervised_focal_loss",
    "focal_decomposition_check",
    "maximum_square_loss",
    "mixed_ce_loss",
    "stage1_loss",
    "stage2_loss",
]


@dataclass
class StageLosses:
    """Composite training loss with its logged components."""

    total: Tensor
    l_s: Tensor
    l_u: Tensor
    l_m: Tensor | None = None


def _clamped_log(p: Tensor, epsilon: float) -> Tensor:
    return p.clamp(epsilon, 1.0).log()


def _check_probmap(p: Tensor) -> None:
    if p.data.ndim < 2:
        raise ValueError(f"probability map needs a class axis plus pixel axes, got shape {p.shape}")


def _check_pair(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"probability maps disagree in shape: {a.shape} vs {b.shape}")


def _one_hot(labels: np.ndarray, num_classes: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """One-hot encoding (C, *pixels) in ``dtype`` plus the valid-pixel mask.

    IGNORE_LABEL rows are all-zero and excluded from the valid mask; any other
    out-of-range label is an error.
    """
    labels = np.asarray(labels)
    valid = labels != IGNORE_LABEL
    bad = valid & ((labels < 0) | (labels >= num_classes))
    if np.any(bad):
        raise ValueError(
            f"labels outside [0, {num_classes}) and not IGNORE: {np.unique(labels[bad])}")
    onehot = np.zeros((num_classes,) + labels.shape, dtype=dtype)
    safe = np.where(valid, labels, 0)
    np.put_along_axis(onehot, safe[None], np.where(valid, 1.0, 0.0)[None], axis=0)
    return onehot, valid


def shannon_entropy_loss(p: Tensor, mask, epsilon: float = 1e-8) -> Tensor:
    """Masked mean over pixels of the per-pixel Shannon entropy of ``p``."""
    _check_probmap(p)
    per_pixel = -(p * _clamped_log(p, epsilon)).sum(axis=0)
    return per_pixel.masked_mean(mask)


def adjusted_kl_loss(p_hat: Tensor, p_star: Tensor, mask, gamma: float,
                     epsilon: float = 1e-8) -> Tensor:
    """Masked mean of ``sum_c p_hat (log p_hat - (1 - p_star)**gamma log p_star)``.

    ``p_hat`` is the soft pseudo label and must be detached: gradient flows
    only into ``p_star``.
    """
    _check_probmap(p_hat)
    _check_pair(p_hat, p_star)
    if p_hat.requires_grad:
        raise ValueError("p_hat must be detached: it serves as the soft pseudo label")
    weighted_log = ((1.0 - p_star) ** gamma) * _clamped_log(p_star, epsilon)
    per_pixel = (p_hat * (_clamped_log(p_hat, epsilon) - weighted_log)).sum(axis=0)
    return per_pixel.masked_mean(mask)


def unsupervised_focal_loss(p_hat: Tensor, p_star: Tensor, mask, gamma: float,
                            epsilon: float = 1e-8) -> Tensor:
    """Shannon entropy of the weak branch plus the adjusted KL divergence.

    The Shannon term backpropagates into ``p_hat``; the KL term sees ``p_hat``
    detached and backpropagates into ``p_star`` only.  In value the log-p_hat
    terms cancel, leaving the masked mean of
    ``-sum_c p_hat (1 - p_star)**gamma log p_star``.
    """
    return (shannon_entropy_loss(p_hat, mask, epsilon)
            + adjusted_kl_loss(p_hat.detach(), p_star, mask, gamma, epsilon))


def supervised_ce_loss(p: Tensor, labels, epsilon: float = 1e-8) -> Tensor:
    """Mean over non-IGNORE pixels of ``-log p[label]``."""
    _check_probmap(p)
    onehot, valid = _one_hot(labels, p.shape[0], p.data.dtype)
    per_pixel = -(Tensor(onehot) * _clamped_log(p, epsilon)).sum(axis=0)
    return per_pixel.masked_mean(valid)


def supervised_focal_loss(p: Tensor, labels, gamma: float, epsilon: float = 1e-8) -> Tensor:
    """Mean over non-IGNORE pixels of ``-(1 - p[label])**gamma log p[label]``."""
    _check_probmap(p)
    onehot, valid = _one_hot(labels, p.shape[0], p.data.dtype)
    weighted_log = ((1.0 - p) ** gamma) * _clamped_log(p, epsilon)
    per_pixel = -(Tensor(onehot) * weighted_log).sum(axis=0)
    return per_pixel.masked_mean(valid)


def focal_decomposition_check(y_onehot, p: Tensor, gamma: float,
                              epsilon: float = 1e-8) -> tuple[float, float]:
    """Evaluate the focal loss two ways for an exactly one-hot label map.

    Returns ``(supervised focal value, shannon(y) + adjusted KL(y, p) value)``.
    The pair must agree because the entropy of a one-hot distribution is zero.
    """
    y = np.asarray(y_onehot.data if isinstance(y_onehot, Tensor) else y_onehot,
                   dtype=np.float64)
    if not (np.all((y == 0.0) | (y == 1.0)) and np.allclose(y.sum(axis=0), 1.0)):
        raise ValueError("y must be an exactly one-hot probability map")
    labels = np.argmax(y, axis=0)
    full = np.ones(labels.shape, dtype=bool)
    direct = supervised_focal_loss(p, labels, gamma, epsilon).item()
    y_t = Tensor(y)
    decomposed = (shannon_entropy_loss(y_t, full, epsilon)
                  + adjusted_kl_loss(y_t, p, full, gamma, epsilon)).item()
    return direct, decomposed


def maximum_square_loss(p: Tensor, mask) -> Tensor:
    """Masked mean of ``-sum_c p**2 / 2`` (square-sharpening baseline)."""
    _check_probmap(p)
    per_pixel = -(p * p).sum(axis=0) * 0.5
    return per_pixel.masked_mean(mask)


def mixed_ce_loss(p: Tensor, labels, weights, epsilon: float = 1e-8) -> Tensor:
    """Pixel-weighted cross entropy: ``sum w * (-log p[label]) / sum w``.

    Weight 2 marks pixels near mix-mask boundaries, 1 elsewhere; IGNORE pixels
    drop out of both sums.  An all-IGNORE map yields a constant 0.
    """
    _check_probmap(p)
    onehot, valid = _one_hot(labels, p.shape[0], p.data.dtype)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != valid.shape:
        raise ValueError(f"weight map shape {w.shape} does not match labels {valid.shape}")
    w = np.where(valid, w, 0.0)
    total = w.sum()
    if total == 0.0:
        return Tensor(0.0)
    per_pixel = -(Tensor(onehot) * _clamped_log(p, epsilon)).sum(axis=0)
    return (per_pixel * Tensor((w / total).astype(p.data.dtype, copy=False))).sum()


def stage1_loss(p_s: Tensor, y_s, p_hat_t: Tensor, p_star_t: Tensor, target_mask,
                cfg: TrainConfig) -> StageLosses:
    """Source cross entropy plus ``lambda_u`` times the unsupervised focal loss."""
    l_s = supervised_ce_loss(p_s, y_s, cfg.epsilon)
    l_u = unsupervised_focal_loss(p_hat_t, p_star_t, target_mask, cfg.gamma, cfg.epsilon)
    total = l_s + cfg.lambda_u * l_u
    return StageLosses(total=total, l_s=l_s, l_u=l_u)


def stage2_loss(p_s: Tensor, y_s, p_hat_t: Tensor, p_star_t: Tensor, target_mask,
                p_m: Tensor, y_m, w_m, cfg: TrainConfig) -> StageLosses:
    """Stage-one composite plus ``lambda_m`` times the weighted mixed-pair cross entropy."""
    stage1 = stage1_loss(p_s, y_s, p_hat_t, p_star_t, target_mask, cfg)
    l_m = mixed_ce_loss(p_m, y_m, w_m, cfg.epsilon)
    return StageLosses(total=stage1.total + cfg.lambda_m * l_m, l_s=stage1.l_s,
                       l_u=stage1.l_u, l_m=l_m)
