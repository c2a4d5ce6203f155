"""Binary gradient-landscape analysis of the entropy-family losses.

For a two-class pixel with learnable distribution ``(p, 1-p)`` and, where
applicable, a fixed estimate ``(p_hat, 1-p_hat)``, this module evaluates each
loss on a grid over ``p`` and differentiates it through the autodiff engine.
It exposes where each loss drives predictions (boundary versus interior
minima) and how gradient magnitude is distributed between easy pixels
(``p`` near 1) and hard ones (``p`` near 0.5).

A curve at a fixed ``p_hat`` describes one pixel whose weak-branch estimate is
``p_hat`` while its perturbed prediction ``p`` varies. For the focal loss,
``grad`` is the gradient into that perturbed branch only, and points far from
``p_hat`` show the pull back toward the estimate. A fixed-``p_hat`` curve
therefore does not compare easy with hard pixels; for that, take each pixel's
gradient from the curve whose ``p_hat`` equals that pixel's ``p``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from segadapt.autodiff import Tensor, concat
from segadapt.losses import _adjusted_kl_terms, _check_probmap, _entropy_terms, _max_square_terms
# bench/layers.py wraps these three by name in this module and raises on a missing one
from segadapt.losses import (maximum_square_loss, shannon_entropy_loss,  # noqa: F401
                             unsupervised_focal_loss)
from segadapt.netpbm import write_csv

__all__ = [
    "KINDS",
    "REFERENCE_FOCAL_MIN",
    "Curve",
    "curve",
    "find_global_min",
    "emit_csv",
]

KINDS = ("shannon", "maxsquare", "focal")

# reported mid-range location of the focal minimum, printed for comparison
# next to the computed value, never asserted
REFERENCE_FOCAL_MIN = 0.67

GRID_POINTS = 1999
GRID_LO = 0.0005
GRID_HI = 0.9995
# find_global_min's golden-section search stops once its bracket is this narrow
TOL = 1e-4


@dataclass
class Curve:
    """One loss sampled at the grid ``p``: ``loss`` and ``grad`` (d loss / dp), all float64."""

    kind: str
    p_hat: float
    gamma: float
    p: np.ndarray
    loss: np.ndarray
    grad: np.ndarray


def _points(kind: str, leaf: Tensor, p_hat: float, gamma: float):
    """Per-point terms (the graph to differentiate) and loss values at each ``p`` of a (1, n) leaf.

    Bits match one-pixel graphs: ``sum()`` sends each point 1, a one-pixel mean is ``0.0 + term``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown loss kind: {kind!r} (choose from {KINDS})")
    dist = concat([leaf, 1.0 - leaf], axis=0)  # learnable (p, 1-p), one column per point
    if kind == "focal":
        estimate = Tensor(np.repeat([[p_hat], [1.0 - p_hat]], leaf.size, axis=1))
        _check_probmap(estimate, gamma)
        terms = _adjusted_kl_terms(estimate, dist, gamma)
        loss = (0.0 + _entropy_terms(estimate).data.astype(np.float64)
                + (0.0 + terms.data.astype(np.float64)))
    else:
        terms = _entropy_terms(dist) if kind == "shannon" else _max_square_terms(dist)
        loss = 0.0 + terms.data  # the -0.0 entropy at p = 0 or 1 reads 0.0, as in a mean
    return terms, loss


def curve(kind: str, p_hat: float = 0.6, gamma: float = 2.0,
          grid: int = GRID_POINTS, lo: float = GRID_LO, hi: float = GRID_HI) -> Curve:
    """Sample one loss and its gradient over a grid of learnable probabilities: one backward."""
    if not isinstance(grid, numbers.Integral) or isinstance(grid, bool):
        raise ValueError(f"grid must be an int, got {grid}")
    if grid < 3:
        raise ValueError("grid needs at least 3 points")
    if not 0.0 < p_hat < 1.0:
        raise ValueError("p_hat must lie strictly inside (0, 1)")
    if not 0.0 <= lo < 1.0:
        raise ValueError(f"lo must lie in [0, 1), got {lo}")
    if not lo < hi <= 1.0:
        raise ValueError(f"hi must lie in (lo, 1], got {hi} with lo = {lo}")
    ps = np.linspace(lo, hi, grid)
    leaf = Tensor(ps[None, :], requires_grad=True)
    terms, loss = _points(kind, leaf, p_hat, gamma)
    terms.sum().backward()
    return Curve(kind=kind, p_hat=p_hat, gamma=gamma, p=ps, loss=loss, grad=leaf.grad[0])


def find_global_min(curve_obj: Curve) -> float:
    """Grid argmin refined by golden-section search between its neighbors, on loss values only."""
    if not curve_obj.p.size:
        raise ValueError("curve is empty")
    ps = curve_obj.p
    i = int(np.argmin(curve_obj.loss))
    lo = float(ps[max(i - 1, 0)])
    hi = float(ps[min(i + 1, ps.size - 1)])

    def value(p):
        # a leaf without requires_grad: the same forward, no graph kept, nothing to backpropagate
        return _points(curve_obj.kind, Tensor([[p]]), curve_obj.p_hat, curve_obj.gamma)[1][0]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = value(c), value(d)
    while b - a > TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = value(d)
    return float((a + b) / 2.0)


def emit_csv(curves, path) -> None:
    """Write curves as ``loss_kind,p,loss,grad`` rows, 17 significant digits.

    A grid shared by several curves is formatted once, keyed by its bytes:
    float equality would take ``-0.0`` for ``0.0``.
    """
    curves = list(curves)
    texts: dict[bytes, list[str]] = {}
    kinds, grids = [], []
    for c in curves:
        key = c.p.tobytes()
        if key not in texts:
            texts[key] = list(map("{:.17g}".format, c.p.tolist()))
        kinds += [c.kind] * c.p.size
        grids += texts[key]
    columns = [kinds, grids]
    if curves:
        columns += [np.concatenate([c.loss for c in curves], dtype=np.float64),
                    np.concatenate([c.grad for c in curves], dtype=np.float64)]
    write_csv(path, "loss_kind,p,loss,grad", columns)
