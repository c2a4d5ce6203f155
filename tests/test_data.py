import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import uniform_filter

from segadapt.config import TrainConfig, make_config
from segadapt.data import (
    _BASE_COLORS,
    _HUE_DIRECTION,
    _scene_tables,
    generate_domain,
    perturb,
    pixel_features,
)
from segadapt.model import PixelModel
from segadapt.train import build_datasets


_TINY = 5e-324  # the smallest positive float


def expected_class_fraction(cfg: TrainConfig) -> np.ndarray:
    """Closed-form expected pixel fraction per class, the oracle for the generator.

    Cells are disjoint, each is filled with probability ``fill_prob`` by one
    class c with its normalised weight carrying a rectangle whose integer
    sides are uniform on its side range (see ``data._scene_tables``).
    """
    cdf, size_ranges, _ = _scene_tables(cfg)
    weights = np.diff(cdf, prepend=0.0)
    cells = (cfg.height // cfg.cell) * (cfg.width // cfg.cell)
    mean_side = np.array([(lo + hi) / 2.0 for lo, hi in size_ranges])
    frac = cells * cfg.fill_prob * weights * mean_side ** 2 / (cfg.height * cfg.width)
    frac[0] = 1.0 - frac[1:].sum()
    return frac


def test_zero_shift_makes_domains_identical():
    cfg = TrainConfig(shift_hue=0.0, shift_brightness=1.0, shift_noise=0.0)
    a = generate_domain(cfg, "source", 1, 5)[0]
    b = generate_domain(cfg, "target", 1, 5)[0]
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_same_seed_same_dataset():
    cfg = TrainConfig()
    a = generate_domain(cfg, "target", 3, 42)
    b = generate_domain(cfg, "target", 3, 42)
    for (ia, la), (ib, lb) in zip(a, b):
        assert np.array_equal(ia, ib)
        assert np.array_equal(la, lb)


def test_labels_in_range_and_images_clipped():
    cfg = TrainConfig()
    image, labels = generate_domain(cfg, "target", 1, 0)[0]
    assert labels.min() >= 0 and labels.max() < cfg.num_classes
    assert image.min() >= 0.0 and image.max() <= 1.0
    assert image.shape == (3, cfg.height, cfg.width)


def test_class_pixel_frequency_matches_expectation():
    # Monte-Carlo pixel fractions against the closed-form expectation,
    # within 3 standard errors over 100 scenes.
    cfg = TrainConfig()
    scenes = generate_domain(cfg, "source", 100, 7)
    expected = expected_class_fraction(cfg)
    per_scene = np.stack([
        np.bincount(labels.ravel(), minlength=cfg.num_classes) / labels.size
        for _, labels in scenes])
    mean = per_scene.mean(axis=0)
    stderr = per_scene.std(axis=0, ddof=1) / np.sqrt(len(scenes))
    assert np.all(np.abs(mean - expected) < 3 * stderr + 1e-9)
    rare = TrainConfig().rare_class
    assert expected[rare] < 0.01  # the designated class is genuinely rare


def test_pixel_features_shape_and_local_stats():
    image = np.zeros((3, 8, 8))
    image[0] = 1.0
    feats = pixel_features(image)
    assert feats.shape == (9, 64)
    assert np.allclose(feats[0], 1.0)   # red channel
    assert np.allclose(feats[3], 1.0)   # local mean of a constant plane
    assert np.allclose(feats[6:], 0.0)  # variance of a constant image


def test_pixel_features_are_c_contiguous_feature_planes():
    # (F, N): one row per feature, the pixels in row-major order along each row
    image = np.random.default_rng(4).random((3, 5, 7))
    feats = pixel_features(image)
    assert feats.shape == (9, 35) and feats.dtype == np.float64
    assert feats.flags.c_contiguous
    assert np.array_equal(feats[:3], image.reshape(3, 35))


def _allocating_pixel_features(image):
    """The allocating expression ``pixel_features`` replaced, kept as the reference."""
    image = np.asarray(image, dtype=np.float64)
    mean = uniform_filter(image, size=(1, 3, 3), mode="nearest")
    mean_sq = uniform_filter(image * image, size=(1, 3, 3), mode="nearest")
    var = np.maximum(mean_sq - mean * mean, 0.0)
    feats = np.concatenate([image, mean, var], axis=0)
    return feats.reshape(feats.shape[0], -1)


@settings(max_examples=150, deadline=None)
@given(height=st.integers(1, 70), width=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.float64, np.float32]), snap=st.sampled_from([0.0, 0.2, 1.0]))
def test_pixel_features_is_byte_identical_to_the_allocating_expression(height, width, seed,
                                                                       dtype, snap):
    # sides are mostly not multiples of cell; ``snap`` of the values are
    # exactly 0 or 1, as clipping leaves them in generated scenes
    rng = np.random.default_rng(seed)
    image = rng.random((3, height, width))
    snapped = rng.random(image.shape) < snap
    image[snapped] = rng.random(int(snapped.sum())) < 0.5
    image = image.astype(dtype)
    feats = pixel_features(image)
    assert feats.shape == (9, height * width) and feats.flags.c_contiguous
    assert feats.tobytes() == _allocating_pixel_features(image).tobytes()


def test_perturb_zero_magnitude_is_identity():
    rng = np.random.default_rng(1)
    image = np.random.default_rng(2).random((3, 6, 6))
    out = perturb(image, rng, noise=0.0, brightness=0.0, contrast=0.0)
    assert np.array_equal(out, image)


def test_a_flipped_scene_gives_the_flipped_prob_map():
    # a per-pixel model over edge-replicated 3x3 statistics maps a flipped scene to the
    # flipped map, so flipping the perturbed branch would only reorder the pixels the
    # losses average over; a spatial feature or model that breaks this needs the flip back
    cfg = TrainConfig(source_scenes=1, target_scenes=6)  # seed 0's first target scenes
    _, target, _ = build_datasets(cfg)
    model = PixelModel(cfg.num_classes, cfg.hidden_units, rng=np.random.default_rng(0),
                       dtype=np.float32)
    rng = np.random.default_rng(0)

    def prob_map(image):
        return model.prob_map(pixel_features(image).astype(np.float32)).data.reshape(
            cfg.num_classes, cfg.height, cfg.width)

    for image, _ in target:
        x_star = perturb(image, rng)
        assert np.allclose(prob_map(x_star[:, :, ::-1]), prob_map(x_star)[:, :, ::-1],
                           rtol=0.0, atol=1e-6)


def test_generate_scene_rejects_unknown_domain():
    for n in (1, 0):  # checked once per call, before any scene is drawn
        with pytest.raises(ValueError, match="^domain must be"):
            generate_domain(TrainConfig(), "other", n, 0)


# every scene check is a row of TrainConfig's table, so the config fails when it is built,
# by hand, from a file or flags (make_config) or by dataclasses.replace
@pytest.mark.parametrize("field, overrides", [
    ("num_classes", dict(num_classes=6)),
    ("num_classes", dict(num_classes=1)),
    ("rare_class", dict(rare_class=5)),
    ("rare_class", dict(num_classes=3, rare_class=-1)),
    ("height", dict(height=40)),
    ("width", dict(width=70, cell=8)),
    ("cell", dict(cell=0)),  # named before height % cell could divide by zero
    ("cell", dict(cell=4)),
    ("cell", dict(cell=5)),
    ("cell", dict(cell=-16)),
    ("height", dict(height=0)),
    ("width", dict(width=-16)),
    # numpy's draws rejected these before the config did, without naming the field
    ("rare_weight", dict(rare_weight=-_TINY)),
    ("rare_weight", dict(rare_weight=float("nan"))),
    ("rare_weight", dict(rare_weight=float("inf"))),
    ("rare_weight", dict(num_classes=2, rare_class=1, rare_weight=0.0)),
    ("color_noise", dict(color_noise=-_TINY)),
    ("color_noise", dict(color_noise=-0.0)),
    ("color_noise", dict(color_noise=float("inf"))),
    # a NaN color_noise gave NaN images without any error
    ("color_noise", dict(color_noise=float("nan"))),
])
def test_scene_spec_rejects_bad_config_naming_the_field(field, overrides):
    text = {key: repr(value) for key, value in overrides.items()}
    for build in (lambda: TrainConfig(**overrides), lambda: make_config(overrides=text)):
        with pytest.raises(ValueError, match=f"^{field} must"):
            build()


@pytest.mark.parametrize("overrides", [
    dict(rare_weight=0.0),
    dict(num_classes=2, rare_class=1, rare_weight=_TINY),
    dict(color_noise=0.0),
], ids=["rare_weight_zero", "rare_weight_tiny_only_foreground", "color_noise_zero"])
def test_scene_spec_accepts_the_edges_of_its_ranges(overrides):
    # the just-inside twins of the rejected rare_weight and color_noise rows
    text = {key: repr(value) for key, value in overrides.items()}
    for cfg in (TrainConfig(**overrides), make_config(overrides=text)):
        for domain in ("source", "target"):
            image, labels = generate_domain(cfg, domain, 1, 0)[0]
            assert np.all(np.isfinite(image)) and labels.max() < cfg.num_classes


@pytest.mark.parametrize("value", [-_TINY, -0.0, float("nan"), float("inf")],
                         ids=["noise_negative_tiny", "noise_negative_zero", "noise_nan",
                              "noise_inf"])
def test_scene_spec_checks_its_fields_when_replaced(value):
    # dataclasses.replace runs __post_init__, so a replaced config fails before any draw
    with pytest.raises(ValueError, match="^color_noise must"):
        dataclasses.replace(TrainConfig(), color_noise=value)


@pytest.mark.parametrize("overrides", [dict(color_noise=_TINY)], ids=["noise_tiny"])
def test_scene_spec_accepts_the_edges_of_its_field_checks(overrides):
    # the just-inside twin of the rows above
    cfg = dataclasses.replace(TrainConfig(), **overrides)
    image, labels = generate_domain(cfg, "source", 1, 0)[0]
    assert np.all(np.isfinite(image)) and labels.max() < cfg.num_classes


def test_generated_scene_takes_a_float64_image_and_a_uint8_label_map():
    cfg = TrainConfig()
    image, labels = generate_domain(cfg, "target", 1, 0)[0]
    h, w = cfg.height, cfg.width
    assert labels.dtype == np.uint8 and labels.shape == (h, w)
    assert image.nbytes + labels.nbytes == 3 * h * w * 8 + h * w


def test_smallest_cell_generates_scenes():
    cfg = TrainConfig(cell=6, height=36, width=36)
    scenes = generate_domain(cfg, "source", 5, 0)
    assert all(image.shape == (3, 36, 36) for image, _ in scenes)
    assert any(labels.any() for _, labels in scenes)


def _generate_scene_by_choice_and_normal(cfg, domain, rng):
    """One scene of ``generate_domain`` through ``rng.choice`` and ``rng.normal``, its reference."""
    c = cfg.num_classes
    weights = np.ones(c)
    weights[0] = 0.0  # background is never placed explicitly
    weights[cfg.rare_class] = cfg.rare_weight
    lo, hi = max(4, cfg.cell // 3), cfg.cell - 2
    rare_sides = (lo, max(lo + 1, cfg.cell // 2))  # rare shapes are also small
    size_ranges = [rare_sides if k == cfg.rare_class else (lo, hi) for k in range(c)]
    labels = np.zeros((cfg.height, cfg.width), dtype=np.int64)
    for top in range(0, cfg.height - cfg.cell + 1, cfg.cell):
        for left in range(0, cfg.width - cfg.cell + 1, cfg.cell):
            if rng.random() >= cfg.fill_prob:
                continue
            k = int(rng.choice(np.arange(c), p=weights / weights.sum()))
            side_lo, side_hi = size_ranges[k]
            rh = int(rng.integers(side_lo, side_hi + 1))
            rw = int(rng.integers(side_lo, side_hi + 1))
            dy = int(rng.integers(0, cfg.cell - rh + 1))
            dx = int(rng.integers(0, cfg.cell - rw + 1))
            labels[top + dy:top + dy + rh, left + dx:left + dx + rw] = k
    image = _BASE_COLORS[:c][labels].transpose(2, 0, 1).astype(np.float64)
    image = image + rng.normal(0.0, cfg.color_noise, size=image.shape)
    if domain == "target":
        image = image * cfg.shift_brightness
        image = image + (cfg.shift_hue * _HUE_DIRECTION)[:, None, None]
        if cfg.shift_noise > 0.0:
            image = image + rng.normal(0.0, cfg.shift_noise, size=image.shape)
    return np.clip(image, 0.0, 1.0), labels


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(num_classes=2, rare_class=1),
    dict(shift_noise=0.0),
    dict(color_noise=0.0),
    dict(cell=6, height=36, width=36),
], ids=["default", "two_classes", "no_shift_noise", "no_color_noise", "cell_6"])
@pytest.mark.parametrize("domain", ["source", "target"])
def test_generate_scene_keeps_the_bytes_of_choice_and_normal(overrides, domain):
    cfg = TrainConfig(**overrides)
    for seed in (0, 1):
        got = generate_domain(cfg, domain, 8, seed)
        rng = np.random.default_rng(seed)
        for image, labels in got:
            ref_image, ref_labels = _generate_scene_by_choice_and_normal(cfg, domain, rng)
            assert image.dtype == np.float64 and image.flags.c_contiguous
            assert image.tobytes() == ref_image.tobytes()
            # the reference keeps int64 labels; the generator stores them as uint8
            assert labels.dtype == np.uint8 and np.array_equal(labels, ref_labels)
