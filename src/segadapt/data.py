"""Synthetic two-domain segmentation scenes, (F, N) feature planes, perturbation.

Scenes are built on a cell grid: each cell independently hosts at most one
axis-aligned rectangle of a foreground class, so per-class pixel fractions
have a closed form.  Source and target share geometry statistics and differ
only photometrically (channel offset, brightness scale, extra noise).  One
foreground class is deliberately rare: it fills few cells (``rare_weight``)
with small shapes, and its color differs from every other class's by at
least 0.40 in some channel.  Scarcity, not confusability, makes it the hard,
low-confidence class of the task.

The generator takes ``rng.choice``'s and ``rng.normal``'s draws in their
order, so every scene keeps the bytes those calls gave, without their
per-draw checks: ``TrainConfig`` makes those checks once, when it is built,
naming the field.

Label maps are uint8, as the 8-bit label images of real segmentation
datasets are, with ``losses.IGNORE_LABEL`` = 255 as the ignore value: a
64x64 map takes 4 KiB instead of int64's 32 KiB, and a scene is the
float64 image plus that map.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # segadapt.config reads _BASE_COLORS from here
    from segadapt.config import TrainConfig

__all__ = [
    "generate_domain",
    "pixel_features",
    "NUM_FEATURES",
    "perturb",
]

# base colors: background gray, three well-separated hues, and a rare class at least
# 0.40 from every other color in some channel: scarcity, not confusability, makes it hard
_BASE_COLORS = np.array([
    [0.30, 0.30, 0.30],
    [0.75, 0.30, 0.25],
    [0.25, 0.70, 0.30],
    [0.25, 0.35, 0.75],
    [0.70, 0.22, 0.70],
])

# additive direction of the hue offset (scaled by shift_hue); hits the green
# channel hardest, which the common classes depend on, while largely sparing
# the rare class's red/blue signature
_HUE_DIRECTION = np.array([0.9, -1.0, 0.25])

NUM_FEATURES = 9  # color (3) + local 3x3 mean (3) + local 3x3 variance (3)


def _scene_tables(cfg: TrainConfig):
    """The class CDF, per-class (lo, hi) side ranges and (3, C) colour table of cfg's scenes.

    Cells are filled by a foreground class with equal weights, the rare class
    with ``rare_weight``; background is never placed explicitly.
    """
    c = cfg.num_classes
    weights = np.ones(c)
    weights[0] = 0.0
    weights[cfg.rare_class] = cfg.rare_weight
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    lo = max(4, cfg.cell // 3)
    hi = cfg.cell - 2
    rare_hi = max(lo + 1, cfg.cell // 2)  # rare shapes are also small
    size_ranges = [(lo, rare_hi) if cls == cfg.rare_class else (lo, hi) for cls in range(c)]
    return cdf, size_ranges, np.ascontiguousarray(_BASE_COLORS[:c].T)


def generate_domain(cfg: TrainConfig, domain: str, n: int, seed) -> list:
    """Deterministic list of ``n`` scenes for one domain, all drawn from one rng.

    A scene is a float64 image (3, H, W) and its exact uint8 labels (H, W).
    """
    if domain not in ("source", "target"):
        raise ValueError(f"domain must be 'source' or 'target', got {domain!r}")
    rng = np.random.default_rng(seed)
    tables = _scene_tables(cfg)  # once per domain, not once per scene
    return [_draw_scene(cfg, domain, rng, *tables) for _ in range(n)]


def _draw_scene(cfg: TrainConfig, domain: str, rng: np.random.Generator, cdf, size_ranges,
                colors):
    """One scene with the draws of ``rng.choice(classes, p=weights)`` and ``rng.normal``.

    The draws come in their order, without the wrappers: the class is
    numpy's own table lookup, and ``0 + s*z`` has the bits of ``s*z``.
    """
    cell = cfg.cell
    labels = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
    for top in range(0, cfg.height - cell + 1, cell):
        for left in range(0, cfg.width - cell + 1, cell):
            if rng.random() >= cfg.fill_prob:
                continue
            c = int(cdf.searchsorted(rng.random(), side="right"))
            lo, hi = size_ranges[c]
            rh = int(rng.integers(lo, hi + 1))
            rw = int(rng.integers(lo, hi + 1))
            dy = int(rng.integers(0, cell - rh + 1))
            dx = int(rng.integers(0, cell - rw + 1))
            labels[top + dy:top + dy + rh, left + dx:left + dx + rw] = c

    image = np.take(colors, labels, axis=1)  # C-contiguous (3, H, W)
    noise = rng.standard_normal(image.shape)  # drawn even at color_noise 0
    noise *= cfg.color_noise
    image += noise
    if domain == "target":
        image *= cfg.shift_brightness
        image += (cfg.shift_hue * _HUE_DIRECTION)[:, None, None]
        if cfg.shift_noise > 0.0:
            rng.standard_normal(out=noise)
            noise *= cfg.shift_noise
            image += noise
    return np.clip(image, 0.0, 1.0, out=image), labels


def pixel_features(image: np.ndarray) -> np.ndarray:
    """(F, N) feature planes, F = 9: color plus local 3x3 mean and variance.

    Every scene of every step goes through here, so the planes are written
    in place into one (9, H, W) buffer, returned as is, C-contiguous (9, H*W):
    on these sizes a fresh array costs about as much as the arithmetic.
    """
    from scipy.ndimage import uniform_filter  # on first use: 0.2-0.3 s and 26 MB to load

    image = np.asarray(image, dtype=np.float64)
    c = image.shape[0]
    feats = np.empty((3 * c,) + image.shape[1:])
    feats[:c] = feats[c:2 * c] = image
    mean, var = feats[c:2 * c], feats[2 * c:]
    np.multiply(image, image, out=var)  # one filter gives the mean and the mean square
    uniform_filter(feats[c:], size=(1, 3, 3), output=feats[c:], mode="nearest")
    var -= mean * mean
    np.maximum(var, 0.0, out=var)
    return feats.reshape(3 * c, -1)


def perturb(image: np.ndarray, rng: np.random.Generator, noise: float = 0.04,
            brightness: float = 0.06, contrast: float = 0.08) -> np.ndarray:
    """Photometric jitter: a contrast scale, a brightness offset, then pixel noise.

    Returns the perturbed image, clipped to [0, 1]; zero magnitudes return the
    input exactly.
    """
    out = np.asarray(image, dtype=np.float64)
    scale = 1.0 + rng.uniform(-contrast, contrast) if contrast > 0.0 else 1.0
    offset = rng.uniform(-brightness, brightness) if brightness > 0.0 else 0.0
    out = (out - 0.5) * scale + 0.5 + offset
    if noise > 0.0:
        out = out + rng.normal(0.0, noise, size=out.shape)
    return np.clip(out, 0.0, 1.0)
