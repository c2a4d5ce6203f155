"""PixelModel.predict_labels: float32-screened labels equal the float64 labels bit for bit."""

import numpy as np
import pytest

from segadapt.autodiff import mlp_softmax
from segadapt.data import pixel_features
import segadapt.model as model_module
from segadapt.model import PixelModel, _top_and_gap, _tau
from segadapt.threshold import confidence_and_argmax


@pytest.fixture
def forwards(monkeypatch):
    """The dtypes of the features of every ``mlp_softmax`` call that ``segadapt.model`` makes."""
    seen = []
    forward = model_module.mlp_softmax

    def counting(x, *params):
        seen.append(np.asarray(x).dtype)
        return forward(x, *params)

    monkeypatch.setattr(model_module, "mlp_softmax", counting)
    return seen


def _float64_labels(model, image):
    return confidence_and_argmax(model.predict_probs(image))[1]


def _model(scale, seed, classes=5, hidden=16):
    rng = np.random.default_rng(seed)
    model = PixelModel(classes, hidden, rng=rng, dtype=np.float32)
    for p in model.params:
        p.data = (rng.normal(size=p.data.shape) * scale).astype(np.float32)
    return model


def _labels_and_fallbacks(model, image, forwards):
    expected = _float64_labels(model, image)
    forwards.clear()
    got = model.predict_labels(image)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert forwards.count(np.float32) == (model.dtype == np.float32)  # one screening forward
    return got, forwards.count(np.float64)


def test_top_and_gap_reads_ties_nans_and_a_single_class():
    probs = np.array([[0.5, 0.2, 0.1], [0.5, 0.7, np.nan], [0.0, 0.1, 0.9]], dtype=np.float32)
    top, gap = _top_and_gap(probs[:, :2])
    assert np.array_equal(top, probs[:, :2].max(axis=0)) and gap == 0.0
    assert _top_and_gap(probs[:, 1:2])[1] == np.float32(0.7) - np.float32(0.2)
    assert np.isnan(_top_and_gap(probs)[1])
    assert _top_and_gap(probs[:1, :2])[1] == np.inf


@pytest.mark.parametrize("seed", range(24))
def test_float32_and_float64_maps_lie_within_half_tau(seed):
    # weight scales 0.1-5, log-spaced; every other image reaches outside [0, 1]
    scale = 0.1 * 50.0 ** (seed / 23)
    model = _model(scale, seed)
    rng = np.random.default_rng(100 + seed)
    image = rng.random((3, 24, 24)) * (3.0 if seed % 2 else 1.0) - (1.0 if seed % 2 else 0.0)
    feats = pixel_features(image)
    cast = feats.astype(np.float32)
    p32 = model.prob_map(cast).data
    p64 = mlp_softmax(feats, *model.params).data
    tau = _tau(model.params, cast)
    assert np.isfinite(tau) and np.all(np.abs(p32.astype(np.float64) - p64) <= tau / 2)
    assert np.array_equal(model.predict_labels(image), _float64_labels(model, image))


def test_exact_ties_fall_back_to_the_lowest_class(forwards):
    model = _model(0.5, 1)
    model.w2.data[:, 3] = model.w2.data[:, 1]
    model.b2.data[[1, 3]] = 8.0  # classes 1 and 3 lead everywhere, with equal probabilities
    image = np.random.default_rng(2).random((3, 16, 16))
    labels, fell_back = _labels_and_fallbacks(model, image, forwards)
    assert fell_back == 1 and np.all(labels == 1)


def test_weights_scaled_by_50_keep_the_float64_labels(forwards):
    model = _model(1.0, 3)
    for p in model.params:
        p.data *= np.float32(50.0)
    for seed in range(3):
        _labels_and_fallbacks(model, np.random.default_rng(seed).random((3, 16, 16)), forwards)


def test_a_nan_weight_falls_back(forwards):
    model = _model(1.0, 4)
    model.w1.data[2, 5] = np.nan
    labels, fell_back = _labels_and_fallbacks(model, np.random.default_rng(5).random((3, 8, 8)),
                                              forwards)
    assert fell_back == 1 and np.all(labels == 0)  # the first nan class, as argmax gives


@pytest.mark.parametrize("span", [4.0, 1e30])
def test_images_outside_the_unit_range_keep_the_float64_labels(forwards, span):
    # at 1e30 the squared colours overflow the float32 cast, which must fall back
    model = _model(0.5, 6)
    image = (np.random.default_rng(7).random((3, 16, 16)) - 0.25) * span
    _, fell_back = _labels_and_fallbacks(model, image, forwards)
    assert fell_back == (span > 1e20)


def test_a_cast_that_overflows_falls_back_even_where_the_map_is_finite(forwards):
    # the variances (about 8e38) overflow the float32 cast, and the smallest subnormal
    # weight turns each inf into a saturated, finite tanh, where float64 reads about 1e-6
    model = _model(0.5, 12)
    model.w1.data[:6] *= np.float32(1e-20)
    model.w1.data[6:] = np.float32(2.0**-149)
    image = np.random.default_rng(13).random((3, 16, 16)) * 1e20
    with np.errstate(over="ignore"):
        cast = pixel_features(image).astype(np.float32)
    assert np.isinf(cast).any() and np.isfinite(model.prob_map(cast).data).all()
    _, fell_back = _labels_and_fallbacks(model, image, forwards)
    assert fell_back == 1


def test_a_16_by_48_image_keeps_its_shape_and_labels(forwards):
    model = _model(0.5, 8)
    labels, _ = _labels_and_fallbacks(model, np.random.default_rng(9).random((3, 16, 48)),
                                      forwards)
    assert labels.shape == (16, 48)


def test_a_float64_model_runs_the_float64_forward_only(forwards):
    model = PixelModel(4, 6, rng=np.random.default_rng(10))
    _, float64_calls = _labels_and_fallbacks(model, np.random.default_rng(11).random((3, 8, 8)),
                                             forwards)
    assert float64_calls == 1
