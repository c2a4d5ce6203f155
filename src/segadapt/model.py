"""Per-pixel dense classifier: a small tanh MLP over local color statistics.

The whole forward, (F, N) feature planes to class-major (C, N) probabilities,
is one fused autodiff node (``autodiff.mlp_softmax``) that works in place.
Every evaluation, pseudo-label map and training step runs it on thousands of
pixels, and at these sizes a fresh array costs about as much as the
arithmetic that fills it.
"""

from __future__ import annotations

import numpy as np

from segadapt.autodiff import Tensor, mlp_softmax
from segadapt.data import NUM_FEATURES, pixel_features
from segadapt.threshold import confidence_and_argmax

__all__ = ["PixelModel", "save_model", "load_model"]


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

        The float64 features promote float32 parameters, so evaluation runs
        in double precision whatever the training precision.
        """
        h, w = image.shape[1:]
        probs = self.prob_map(pixel_features(image))
        return probs.data.reshape(self.num_classes, h, w)

    def predict_labels(self, image: np.ndarray) -> np.ndarray:
        """(H, W) argmax labels, by the argmax that training and pseudo labels use."""
        return confidence_and_argmax(self.predict_probs(image))[1]

    def state_dict(self) -> dict:
        return {"w1": self.w1.data.copy(), "b1": self.b1.data.copy(),
                "w2": self.w2.data.copy(), "b2": self.b2.data.copy()}

    def load_state_dict(self, state: dict) -> None:
        """Copy ``state`` into the parameters, in the parameters' dtype."""
        for name in ("w1", "b1", "w2", "b2"):
            param = getattr(self, name)
            values = np.asarray(state[name], dtype=param.data.dtype)
            if values.shape != param.data.shape:
                raise ValueError(f"{name}: shape {values.shape} != {param.data.shape}")
            param.data = values.copy()
            param.zero_grad()

    def clone(self) -> "PixelModel":
        twin = PixelModel(self.num_classes, self.hidden, dtype=self.dtype)
        twin.load_state_dict(self.state_dict())
        return twin


def save_model(path, model: PixelModel) -> None:
    np.savez(path, num_classes=model.num_classes, hidden=model.hidden, **model.state_dict())


def load_model(path) -> PixelModel:
    with np.load(path) as data:
        model = PixelModel(int(data["num_classes"]), int(data["hidden"]), dtype=data["w1"].dtype)
        model.load_state_dict({k: data[k] for k in ("w1", "b1", "w2", "b2")})
    return model
