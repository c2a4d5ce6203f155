"""Per-pixel dense classifier: a small tanh MLP over local color statistics.

The whole forward, (F, N) feature planes to class-major (C, N) probabilities,
is one fused autodiff node (``autodiff.mlp_softmax``) that works in place.
Every evaluation, pseudo-label map and training step runs it on thousands of
pixels, and at these sizes a fresh array costs about as much as the
arithmetic that fills it.

A float32 model's labels are the argmax of its float64 forward, screened in
float32: ``PixelModel.predict_labels`` runs the float32 forward and keeps its
argmax where every pixel's top two probabilities lie more than ``tau`` apart,
``tau`` being twice a bound on how far either forward can lie from the exact
one (``_tau``, ``_prob_error``).  There the float64 argmax is the same class
and unique, so the labels are the float64 labels bit for bit; any other scene
is labelled by the float64 forward itself.
"""

from __future__ import annotations

import numpy as np

from segadapt.autodiff import Tensor, mlp_softmax
from segadapt.data import NUM_FEATURES, pixel_features
from segadapt.threshold import confidence_and_argmax

__all__ = ["PARAM_NAMES", "PixelModel", "save_model", "load_model"]

# the parameters' names, in the order of ``PixelModel.params``
PARAM_NAMES = ("w1", "b1", "w2", "b2")


class PixelModel:
    """Two-layer MLP mapping (F, N) feature planes to class-major prob maps (C, N).

    The parameters are stored in ``dtype`` (float64 or float32), and so is
    the training graph when the features are cast to it.  The initial
    weights are drawn in float64 and rounded, so a float32 model starts
    from the float64 model's weights.
    """

    def __init__(self, num_classes: int, hidden: int = 16, rng=None, dtype=np.float64):
        rng = rng or np.random.default_rng(0)
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        self.num_classes = num_classes
        self.hidden = hidden
        w1 = rng.normal(0.0, 1.0 / np.sqrt(NUM_FEATURES), size=(NUM_FEATURES, hidden))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, num_classes))
        self.w1 = Tensor(w1.astype(dtype), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        self.w2 = Tensor(w2.astype(dtype), requires_grad=True)
        self.b2 = Tensor(np.zeros(num_classes, dtype=dtype), requires_grad=True)

    @property
    def params(self) -> tuple[Tensor, ...]:
        return (self.w1, self.b1, self.w2, self.b2)

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype."""
        return self.w1.data.dtype

    def prob_map(self, features) -> Tensor:
        """Class-major probability map (C, N), differentiable.

        One ``mlp_softmax`` node, whose forward runs in place, serves
        training and inference alike.
        """
        return mlp_softmax(features, *self.params)

    def predict_probs(self, image: np.ndarray) -> np.ndarray:
        """(C, H, W) float64 probabilities for a (3, H, W) image, values only.

        The float64 features promote float32 parameters, so the map is the
        float64 forward's whatever the training precision; its argmax is
        what ``predict_labels`` returns.
        """
        h, w = image.shape[1:]
        probs = self.prob_map(pixel_features(image))
        return probs.data.reshape(self.num_classes, h, w)

    def predict_labels(self, image: np.ndarray) -> np.ndarray:
        """(H, W) labels of the float64 forward, by the argmax that training and pseudo labels use.

        The scene's float64 features are computed once.  A float32 model makes
        one ``prob_map`` call, in float32 on the features cast as training
        casts them, and returns that map's argmax when every pixel's top-two
        gap exceeds ``tau`` (see the module docstring).  A scene with a smaller
        gap, or a map or ``tau`` that is not finite, is labelled from a second,
        float64 ``prob_map`` of the same features, as a float64 model's always
        is.  The float32 gaps are rounded by at most 2**-24 relative and
        ``tau``'s own float64 arithmetic by far less, so the test pads ``tau``
        by 2**-20 relative: it rounds only towards falling back.
        """
        feats = pixel_features(image)
        if self.dtype == np.float32:
            with np.errstate(all="ignore"):  # an overflowing cast or a nan falls back below
                cast = feats.astype(np.float32)
                probs = self.prob_map(cast).data
                top, gap = _top_and_gap(probs)
                tau = _tau(self.params, cast)
            if gap > tau * (1.0 + 2.0**-20):  # false for a nan
                # each column's top entry is unique, so its one match is the argmax
                classes = np.arange(self.num_classes, dtype=np.float32)
                return (classes @ (probs == top)).astype(np.intp).reshape(image.shape[1:])
        return confidence_and_argmax(self.prob_map(feats).data)[1].reshape(image.shape[1:])

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in zip(PARAM_NAMES, self.params)}

    def load_state_dict(self, state: dict) -> None:
        """Copy ``state`` into the parameters, in the parameters' dtype."""
        for name, param in zip(PARAM_NAMES, self.params):
            values = np.asarray(state[name], dtype=param.data.dtype)
            if values.shape != param.data.shape:
                raise ValueError(f"{name}: shape {values.shape} != {param.data.shape}")
            param.data = values.copy()
            param.zero_grad()

    def clone(self) -> "PixelModel":
        twin = PixelModel(self.num_classes, self.hidden, dtype=self.dtype)
        twin.load_state_dict(self.state_dict())
        return twin


def _top_and_gap(probs: np.ndarray) -> tuple[np.ndarray, float]:
    """Each column's top entry of a (C, N) map and the least gap between a column's top two.

    A tie gives a gap of 0, a nan a nan gap, and a single class an infinite one.
    """
    top = probs[0].copy()
    second = np.full_like(top, -np.inf)
    lower = np.empty_like(top)
    for row in probs[1:]:
        np.maximum(second, np.minimum(top, row, out=lower), out=second)
        np.maximum(top, row, out=top)
    return top, float(np.subtract(top, second, out=second).min())


# the float32 forward's unit roundoff and smallest subnormal, and numpy's float32 tanh
# and exp errors in ULPs (numpy/_core/tests/data/umath-validation-set-{tanh,exp}.csv)
_U, _TINY, _TANH_ULPS, _EXP_ULPS = 2.0**-24, 2.0**-149, 2, 3


def _tau(params, cast: np.ndarray) -> float:
    """Twice a bound on |p32 - p64|, entry by entry, for float32 features ``cast`` of float64 x.

    |x| <= (|x_hat| + tiny) / (1 - u) bounds x's rows by the cast's, which are
    infinite where the cast overflows.  The float64 forward obeys
    ``_prob_error``'s bound with u = 2**-53, tiny = 2**-1074 and no more ULPs
    (numpy's float64 tanh and exp: 2 and 1).  Scaling u and tiny by some
    lambda <= 1 scales each of the bound's terms by at most lambda, so that
    bound is at most 2**-29 times the float32 one: the slack below.
    """
    rows = np.abs(cast).max(axis=1).astype(np.float64) * (1.0 + 2.0**-23) + 2.0**-148
    return 2.0 * (1.0 + 2.0**-29) * _prob_error(params, rows)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error of an n-term dot product."""
    return n * _U / (1.0 - n * _U)


def _prob_error(params, rows: np.ndarray) -> float:
    """Bound on |p32 - p|, entry by entry, where p is the exact map of the float64 features x.

    p = softmax(W2^T tanh(W1^T x + b1) + b2); X = ``rows`` bounds the rows of
    |x|; u = 2**-24, and a rounding that underflows adds at most tiny = 2**-149.
    F, H and C count features, hidden units and classes.  Each term, with its
    source (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.:
    the rounding model of section 2.2 and the dot-product bound of section 3.1,
    which holds for any summation order, with or without FMA):
      cast:    |x_hat - x| <= u X + tiny, so |x_hat| <= (1 + u) X + tiny        (2.2)
      layer 1: |a_hat - a| <= |W1|^T (u X + tiny) + gamma_{F+1} (|W1|^T |x_hat| + |b1|)
               + (F + 1) tiny = E1, the bias being the (F + 1)-th term         (3.1)
      tanh:    |h_hat - tanh(a)| <= E1 + (2 tanh_ulps + 1) u = D: tanh is 1-Lipschitz, and
               within tanh_ulps of the rounded value, spaced at most 2u near [-1, 1],
               |h_hat| <= 1 + (2 tanh_ulps + 1) u                               (numpy's ULPs)
      layer 2: |z_hat - z| <= |W2|^T D + gamma_{H+1} (|W2|^T |h_hat| + |b2|) + (H + 1) tiny
               = E2, and |z_hat| <= |W2|^T |h_hat| + |b2| + E2 <= Z             (3.1)
      logits:  p moves by max E2 / 2: softmax is 1/2-Lipschitz in the max norm, its
               Jacobian's rows summing to 2 p (1 - p) in absolute value
      shift:   s_hat = z_hat - max z_hat is rounded by u |s| <= 2 u Z, so p moves by u Z  (2.2)
      exp:     e_hat within exp_ulps of the rounded exp(s_hat), itself within half an ULP;
               an ULP of y is at most 2u |y| and at most doubles over the steps, so
               eps = (4 exp_ulps + 2) u relative, plus (exp_ulps + 1) C tiny over a
               sum that is at least exp(0) = 1                                  (numpy's ULPs)
      sum, divide: gamma_{C-1} over C positive terms, then u, so p moves by
               rho = (1 + eps)(1 + u) / ((1 - eps)(1 - gamma_{C-1})) - 1, plus tiny  (3.1, 2.2)
    The bound sums the moves of p: max E2 / 2 + u Z + rho + tiny.
    """
    w1, b1, w2, b2 = (np.abs(p.data, dtype=np.float64) for p in params)
    f, h = w1.shape
    c = w2.shape[1]
    g1, g2 = _gamma(f + 1), _gamma(h + 1)
    e1 = ((_U + g1 * (1.0 + _U)) * rows + (1.0 + g1) * _TINY) @ w1 + g1 * b1 + (f + 1) * _TINY
    tanh_error = (2 * _TANH_ULPS + 1) * _U
    hmax = 1.0 + tanh_error
    e2 = (e1 + tanh_error + g2 * hmax) @ w2 + g2 * b2 + (h + 1) * _TINY
    zmax = float((hmax * w2.sum(axis=0) + b2 + e2).max())
    eps = (4 * _EXP_ULPS + 2) * _U + (_EXP_ULPS + 1) * c * _TINY
    rho = (1.0 + eps) * (1.0 + _U) / ((1.0 - eps) * (1.0 - _gamma(c - 1))) - 1.0
    return 0.5 * float(e2.max()) + _U * zmax + rho + _TINY


def save_model(path, model: PixelModel) -> None:
    np.savez(path, num_classes=model.num_classes, hidden=model.hidden, **model.state_dict())


def load_model(path) -> PixelModel:
    with np.load(path) as data:
        model = PixelModel(int(data["num_classes"]), int(data["hidden"]), dtype=data["w1"].dtype)
        model.load_state_dict({k: data[k] for k in PARAM_NAMES})
    return model
