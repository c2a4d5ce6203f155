"""Objective functions for entropy-based two-domain adaptation.

Every loss consumes class-major probability maps (Tensor of shape ``(C, N)``
or ``(C, H, W)``) rather than logits; softmax belongs to the model.  Masks are
plain boolean arrays over the pixel axes.  Probabilities entering a logarithm
are clamped to ``[EPSILON, 1]`` first, so hard pixels near 0 stay finite; no
parameter sets that floor.
Each loss is a per-pixel term (the private ``_*_terms`` helpers) and its
reduction, mostly ``masked_mean``.  The terms run in the map's dtype
(float64 or float32); each loss reduces them to a float64 scalar.

Each term is one autodiff node with one VJP, built with
``autodiff.make_node``, where a chain of engine ops (clamp, log, pow,
multiply, subtract, negate, class sum) would take five to eleven.  Its
forward computes the per-pixel values from the map's array at once; its VJP
runs that chain's numpy expressions in the chain's order and returns the
map's contribution, so values and gradients equal the chain's bit for bit.
``supervised_focal_loss`` stays a chain of engine ops on purpose:
``focal_decomposition_check`` compares it with Shannon entropy plus adjusted
KL, and the check means something only while the two are computed
independently.

The unsupervised focal loss couples two branches of the same model: the
weak-branch distribution drives a masked Shannon entropy term, and its
detached copy serves as the soft target of an adjusted KL divergence whose
``(1 - p)**gamma`` factor damps well-classified pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from segadapt.autodiff import Tensor, make_node
from segadapt.config import TrainConfig

IGNORE_LABEL = 255
# the clamp floor of every probability that enters a logarithm; a Python float,
# so a float32 map stays float32
EPSILON = 1e-8

__all__ = [
    "IGNORE_LABEL",
    "EPSILON",
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
    """Training loss and its logged parts; pretraining has ``l_s`` only, stage one no ``l_m``."""

    total: Tensor
    l_s: Tensor
    l_u: Tensor | None = None
    l_m: Tensor | None = None


def _clamped_log(a: np.ndarray):
    """``a`` clamped to ``[EPSILON, 1]``, where the clamp passes gradient, and the clamp's log.

    The values of ``Tensor.clamp`` followed by ``Tensor.log``: a maximum then
    a minimum give ``np.clip``'s values, NaN included, without its call
    overhead, which dominates on one-pixel maps.
    """
    clamped = np.minimum(np.maximum(a, EPSILON), 1.0)
    return clamped, (a > EPSILON) & (a < 1.0), np.log(clamped)


def _entropy_terms(p: Tensor) -> Tensor:
    """``-sum_c p log p`` per pixel."""
    a = p.data
    clamped, inside, log = _clamped_log(a)

    def vjp(g):
        g = -g
        return (g * log + g * a / clamped * inside,)

    return make_node(-(a * log).sum(axis=0), (p,), vjp)


def _adjusted_kl_terms(p_hat: Tensor, p_star: Tensor, gamma: float) -> Tensor:
    """``sum_c p_hat (log p_hat - (1 - p_star)**gamma log p_star)`` per pixel.

    ``p_hat`` is a constant: gradient flows into ``p_star`` only.
    """
    h, a = p_hat.data, p_star.data
    log_h = _clamped_log(h)[2]
    clamped, inside, log = _clamped_log(a)
    gamma = float(gamma)
    if gamma == 0.0:
        # (1 - p)**0 is the constant 1 with no gradient, as in Tensor.__pow__,
        # and 1 * log p is log p to the bit
        base = damp = None
        focal_log = log
    else:
        base = 1.0 - a
        with np.errstate(divide="ignore", invalid="ignore"):
            damp = base ** gamma
        focal_log = damp * log

    def vjp(g):
        g_focal = -(g * h)
        if damp is None:
            return (g_focal / clamped * inside,)
        g_damp = g_focal * log
        with np.errstate(divide="ignore", invalid="ignore"):
            # the pow VJP: a zero flow stays zero where base**(gamma - 1) is infinite
            g_base = np.where(g_damp == 0.0, g_damp, g_damp * gamma * base ** (gamma - 1.0))
        return (-g_base + g_focal * damp / clamped * inside,)

    return make_node((h * (log_h - focal_log)).sum(axis=0), (p_star,), vjp)


def _cross_entropy_terms(p: Tensor, onehot: np.ndarray) -> Tensor:
    """``-sum_c onehot log p`` per pixel."""
    clamped, inside, log = _clamped_log(p.data)
    return make_node(-(onehot * log).sum(axis=0), (p,),
                     lambda g: (-g * onehot / clamped * inside,))


def _max_square_terms(p: Tensor) -> Tensor:
    """``-sum_c p**2 / 2`` per pixel."""
    a = p.data

    def vjp(g):
        g_a = -(g * 0.5) * a
        return (g_a + g_a,)  # p * p has p as both factors

    return make_node(-(a * a).sum(axis=0) * 0.5, (p,), vjp)


def _check_probmap(p: Tensor, gamma: float = 0.0) -> None:
    """A class axis plus pixel axes, and a ``gamma`` outside which the terms give NaN."""
    if p.data.ndim < 2:
        raise ValueError(f"probability map needs a class axis plus pixel axes, got shape {p.shape}")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")


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
    classes = np.arange(num_classes).reshape((num_classes,) + (1,) * labels.ndim)
    return ((labels == classes) & valid).astype(dtype), valid


def shannon_entropy_loss(p: Tensor, mask) -> Tensor:
    """Masked mean over pixels of the per-pixel Shannon entropy of ``p``."""
    _check_probmap(p)
    return _entropy_terms(p).masked_mean(mask)


def adjusted_kl_loss(p_hat: Tensor, p_star: Tensor, mask, gamma: float) -> Tensor:
    """Masked mean of ``sum_c p_hat (log p_hat - (1 - p_star)**gamma log p_star)``.

    ``p_hat`` is the soft pseudo label and must be detached: gradient flows
    only into ``p_star``.
    """
    _check_probmap(p_hat, gamma)
    _check_pair(p_hat, p_star)
    if p_hat.requires_grad:
        raise ValueError("p_hat must be detached: it serves as the soft pseudo label")
    return _adjusted_kl_terms(p_hat, p_star, gamma).masked_mean(mask)


def unsupervised_focal_loss(p_hat: Tensor, p_star: Tensor, mask, gamma: float) -> Tensor:
    """Shannon entropy of the weak branch plus the adjusted KL divergence.

    The Shannon term backpropagates into ``p_hat``; the KL term sees ``p_hat``
    detached and backpropagates into ``p_star`` only.  In value the log-p_hat
    terms cancel, leaving the masked mean of
    ``-sum_c p_hat (1 - p_star)**gamma log p_star``.
    """
    return shannon_entropy_loss(p_hat, mask) + adjusted_kl_loss(p_hat.detach(), p_star, mask, gamma)


def supervised_ce_loss(p: Tensor, labels) -> Tensor:
    """Mean over non-IGNORE pixels of ``-log p[label]``."""
    _check_probmap(p)
    onehot, valid = _one_hot(labels, p.shape[0], p.data.dtype)
    return _cross_entropy_terms(p, onehot).masked_mean(valid)


def supervised_focal_loss(p: Tensor, labels, gamma: float) -> Tensor:
    """Mean over non-IGNORE pixels of ``-(1 - p[label])**gamma log p[label]``."""
    _check_probmap(p, gamma)
    onehot, valid = _one_hot(labels, p.shape[0], p.data.dtype)
    focal_log = ((1.0 - p) ** gamma) * p.clamp(EPSILON, 1.0).log()
    return (-(Tensor(onehot) * focal_log).sum(axis=0)).masked_mean(valid)


def focal_decomposition_check(y_onehot: np.ndarray, p: Tensor, gamma: float) -> tuple[float, float]:
    """Evaluate the focal loss two ways for an exactly one-hot label map.

    Returns ``(supervised focal value, shannon(y) + adjusted KL(y, p) value)``.
    The pair must agree because the entropy of a one-hot distribution is zero.
    """
    y = np.asarray(y_onehot, dtype=np.float64)
    if not (np.all((y == 0.0) | (y == 1.0)) and np.allclose(y.sum(axis=0), 1.0)):
        raise ValueError("y must be an exactly one-hot probability map")
    labels = np.argmax(y, axis=0)
    full = np.ones(labels.shape, dtype=bool)
    direct = supervised_focal_loss(p, labels, gamma).item()
    y_t = Tensor(y)
    decomposed = (shannon_entropy_loss(y_t, full) + adjusted_kl_loss(y_t, p, full, gamma)).item()
    return direct, decomposed


def maximum_square_loss(p: Tensor, mask) -> Tensor:
    """Masked mean of ``-sum_c p**2 / 2`` (square-sharpening baseline)."""
    _check_probmap(p)
    return _max_square_terms(p).masked_mean(mask)


def mixed_ce_loss(p: Tensor, labels, weights) -> Tensor:
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
    share = Tensor((w / total).astype(p.data.dtype, copy=False))
    return (_cross_entropy_terms(p, onehot) * share).sum()


def stage1_loss(p_s: Tensor, y_s, p_hat_t: Tensor, p_star_t: Tensor, target_mask,
                cfg: TrainConfig) -> StageLosses:
    """Source cross entropy plus ``lambda_u`` times the unsupervised focal loss."""
    l_s = supervised_ce_loss(p_s, y_s)
    l_u = unsupervised_focal_loss(p_hat_t, p_star_t, target_mask, cfg.gamma)
    total = l_s + cfg.lambda_u * l_u
    return StageLosses(total=total, l_s=l_s, l_u=l_u)


def stage2_loss(p_s: Tensor, y_s, p_hat_t: Tensor, p_star_t: Tensor, target_mask,
                p_m: Tensor, y_m, w_m, cfg: TrainConfig) -> StageLosses:
    """Stage-one composite plus ``lambda_m`` times the weighted mixed-pair cross entropy."""
    stage1 = stage1_loss(p_s, y_s, p_hat_t, p_star_t, target_mask, cfg)
    l_m = mixed_ce_loss(p_m, y_m, w_m)
    return StageLosses(total=stage1.total + cfg.lambda_m * l_m, l_s=stage1.l_s,
                       l_u=stage1.l_u, l_m=l_m)
