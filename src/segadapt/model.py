"""Per-pixel dense classifier: a small tanh MLP over local color statistics."""

from __future__ import annotations

import numpy as np

from segadapt.autodiff import Tensor, linear
from segadapt.data import NUM_FEATURES, pixel_features

__all__ = ["PixelModel", "save_model", "load_model"]


class PixelModel:
    """Two-layer MLP mapping feature rows (N, F) to class-major prob maps (C, N)."""

    def __init__(self, num_classes: int, hidden: int = 16, rng=None):
        rng = rng or np.random.default_rng(0)
        self.num_classes = num_classes
        self.hidden = hidden
        self.w1 = Tensor(rng.normal(0.0, 1.0 / np.sqrt(NUM_FEATURES),
                                    size=(NUM_FEATURES, hidden)), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0.0, 1.0 / np.sqrt(hidden),
                                    size=(hidden, num_classes)), requires_grad=True)
        self.b2 = Tensor(np.zeros(num_classes), requires_grad=True)

    @property
    def params(self) -> tuple[Tensor, ...]:
        return (self.w1, self.b1, self.w2, self.b2)

    def logits(self, features) -> Tensor:
        x = features if isinstance(features, Tensor) else Tensor(features)
        hidden = linear(x, self.w1, self.b1).tanh()
        return linear(hidden, self.w2, self.b2)

    def prob_map(self, features) -> Tensor:
        """Class-major probability map (C, N), differentiable."""
        return self.logits(features).transpose().softmax(axis=0)

    def predict_probs(self, image: np.ndarray) -> np.ndarray:
        """(C, H, W) probabilities for a (3, H, W) image, values only."""
        h, w = image.shape[1:]
        probs = self.prob_map(pixel_features(image))
        return probs.data.reshape(self.num_classes, h, w)

    def predict_labels(self, image: np.ndarray) -> np.ndarray:
        return self.predict_probs(image).argmax(axis=0)

    def state_dict(self) -> dict:
        return {"w1": self.w1.data.copy(), "b1": self.b1.data.copy(),
                "w2": self.w2.data.copy(), "b2": self.b2.data.copy()}

    def load_state_dict(self, state: dict) -> None:
        for name in ("w1", "b1", "w2", "b2"):
            param = getattr(self, name)
            values = np.asarray(state[name], dtype=np.float64)
            if values.shape != param.data.shape:
                raise ValueError(f"{name}: shape {values.shape} != {param.data.shape}")
            param.data = values.copy()
            param.zero_grad()

    def clone(self) -> "PixelModel":
        twin = PixelModel(self.num_classes, self.hidden)
        twin.load_state_dict(self.state_dict())
        return twin


def save_model(path, model: PixelModel) -> None:
    np.savez(path, num_classes=model.num_classes, hidden=model.hidden, **model.state_dict())


def load_model(path) -> PixelModel:
    with np.load(path) as data:
        model = PixelModel(int(data["num_classes"]), int(data["hidden"]))
        model.load_state_dict({k: data[k] for k in ("w1", "b1", "w2", "b2")})
    return model
