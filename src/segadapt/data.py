"""Synthetic two-domain segmentation scenes, (F, N) feature planes, perturbation.

Scenes are built on a cell grid: each cell independently hosts at most one
axis-aligned rectangle of a foreground class, so per-class pixel fractions
have a closed form.  Source and target share geometry statistics and differ
only photometrically (channel offset, brightness scale, extra noise).  One
foreground class is deliberately rare and colored close to another class,
which makes it the hard, low-confidence class of the task.

The generator takes ``rng.choice``'s and ``rng.normal``'s draws in their
order, so every scene keeps the bytes those calls gave, without their
per-draw checks: ``SceneSpec`` makes those checks once, when it is built,
naming the field.

Label maps are uint8, as the 8-bit label images of real segmentation
datasets are, with ``losses.IGNORE_LABEL`` = 255 as the ignore value: a
64x64 map takes 4 KiB instead of int64's 32 KiB, and a scene is the
float64 image plus that map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import uniform_filter

from segadapt.config import TrainConfig

__all__ = [
    "SceneSpec",
    "scene_spec",
    "generate_scene",
    "generate_domain",
    "expected_class_fraction",
    "pixel_features",
    "NUM_FEATURES",
    "perturb",
    "flip_permutation",
]

# base colors: background gray, three well-separated hues, and a distinctive
# rare class whose difficulty comes from scarcity rather than confusability
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


def _check_nonnegative(name: str, value: float) -> None:
    """Finite and >= 0 by the sign bit, as numpy's own scale check reads it: -0.0 fails too."""
    if not math.isfinite(value) or math.copysign(1.0, value) < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class SceneSpec:
    """The scene recipe; a bad field raises ValueError naming it.

    ``__post_init__``, which ``dataclasses.replace`` runs too, makes once the
    checks numpy's per-draw ``choice`` and ``normal`` made, so the per-scene
    draw loop makes none.
    """

    num_classes: int = 5
    height: int = 64
    width: int = 64
    cell: int = 16
    fill_prob: float = 0.65
    class_weights: np.ndarray = field(default_factory=lambda: np.array([]))
    size_ranges: tuple = ()
    colors: np.ndarray = field(default_factory=lambda: _BASE_COLORS.copy())
    color_noise: float = 0.055
    shift_hue: float = 0.1
    shift_brightness: float = 0.82
    shift_noise: float = 0.01

    def __post_init__(self):
        c = self.num_classes
        weights = np.asarray(self.class_weights, dtype=np.float64)
        if weights.shape != (c,):
            raise ValueError(f"class_weights must be 1-D with num_classes={c} entries, "
                             f"got shape {weights.shape}")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ValueError(f"class_weights must be finite and >= 0, got {weights}")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class_weights must sum to 1 within 1e-9, got {total}")
        ranges = self.size_ranges
        if len(ranges) != c or any(np.shape(pair) != (2,) for pair in ranges):
            raise ValueError(f"size_ranges must be num_classes={c} (lo, hi) pairs, "
                             f"got {ranges!r}")
        _check_nonnegative("color_noise", self.color_noise)


def scene_spec(cfg: TrainConfig) -> SceneSpec:
    """Derive the scene recipe from a flat training config; a bad field raises ValueError."""
    c = cfg.num_classes
    if not 2 <= c <= len(_BASE_COLORS):
        raise ValueError(f"num_classes must be in [2, {len(_BASE_COLORS)}] "
                         f"(one distinct color per class), got {c}")
    if not 0 <= cfg.rare_class < c:
        raise ValueError(f"rare_class must be in [0, num_classes={c}), got {cfg.rare_class}")
    if cfg.cell < 6:
        raise ValueError(f"cell must be at least 6, so that the shape side range "
                         f"[max(4, cell // 3), cell - 2] is not empty, got {cfg.cell}")
    for name in ("height", "width"):
        size = getattr(cfg, name)
        if size <= 0 or size % cfg.cell:
            raise ValueError(f"{name} must be a positive multiple of cell={cfg.cell}, "
                             f"got {size}")
    _check_nonnegative("rare_weight", cfg.rare_weight)
    weights = np.ones(c)
    weights[0] = 0.0  # background never placed explicitly
    weights[cfg.rare_class] = cfg.rare_weight
    if weights.sum() == 0.0:
        raise ValueError("rare_weight must be > 0 when the rare class is the only "
                         "foreground class")
    weights = weights / weights.sum()
    colors = _BASE_COLORS[:c].copy()
    lo = max(4, cfg.cell // 3)
    hi = cfg.cell - 2
    rare_hi = max(lo + 1, cfg.cell // 2)  # rare shapes are also small
    size_ranges = tuple(
        (lo, rare_hi) if cls == cfg.rare_class else (lo, hi) for cls in range(c))
    return SceneSpec(
        num_classes=c, height=cfg.height, width=cfg.width, cell=cfg.cell,
        fill_prob=cfg.fill_prob, class_weights=weights, size_ranges=size_ranges,
        colors=colors, color_noise=cfg.color_noise, shift_hue=cfg.shift_hue,
        shift_brightness=cfg.shift_brightness, shift_noise=cfg.shift_noise,
    )


def expected_class_fraction(spec: SceneSpec) -> np.ndarray:
    """Closed-form expected pixel fraction per class.

    Cells are disjoint, each is filled with probability ``fill_prob`` by one
    class c with probability ``class_weights[c]`` carrying a rectangle whose
    integer sides are uniform on ``size_ranges[c]``.
    """
    cells = (spec.height // spec.cell) * (spec.width // spec.cell)
    total = spec.height * spec.width
    frac = np.zeros(spec.num_classes)
    for c in range(spec.num_classes):
        lo, hi = spec.size_ranges[c]
        mean_side = (lo + hi) / 2.0
        frac[c] = cells * spec.fill_prob * spec.class_weights[c] * mean_side ** 2 / total
    frac[0] = 1.0 - frac[1:].sum()
    return frac


def generate_scene(spec: SceneSpec, domain: str, rng: np.random.Generator):
    """One procedurally generated scene: float64 image (3, H, W) and exact uint8 labels (H, W).

    The draws are those of ``rng.choice(classes, p=class_weights)`` and
    ``rng.normal(0, s, shape)``, in their order, without the wrappers: the
    class is numpy's own table lookup, and ``0 + s*z`` has the bits of ``s*z``.
    """
    if domain not in ("source", "target"):
        raise ValueError(f"domain must be 'source' or 'target', got {domain!r}")
    labels = np.zeros((spec.height, spec.width), dtype=np.uint8)
    cdf = np.asarray(spec.class_weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    for top in range(0, spec.height - spec.cell + 1, spec.cell):
        for left in range(0, spec.width - spec.cell + 1, spec.cell):
            if rng.random() >= spec.fill_prob:
                continue
            c = int(cdf.searchsorted(rng.random(), side="right"))
            lo, hi = spec.size_ranges[c]
            rh = int(rng.integers(lo, hi + 1))
            rw = int(rng.integers(lo, hi + 1))
            dy = int(rng.integers(0, spec.cell - rh + 1))
            dx = int(rng.integers(0, spec.cell - rw + 1))
            labels[top + dy:top + dy + rh, left + dx:left + dx + rw] = c

    colors = np.ascontiguousarray(spec.colors.T, dtype=np.float64)
    image = np.take(colors, labels, axis=1)  # C-contiguous (3, H, W)
    noise = rng.standard_normal(image.shape)  # drawn even at color_noise 0
    noise *= spec.color_noise
    image += noise
    if domain == "target":
        image *= spec.shift_brightness
        image += (spec.shift_hue * _HUE_DIRECTION)[:, None, None]
        if spec.shift_noise > 0.0:
            rng.standard_normal(out=noise)
            noise *= spec.shift_noise
            image += noise
    return np.clip(image, 0.0, 1.0, out=image), labels


def generate_domain(spec: SceneSpec, domain: str, n: int, seed) -> list:
    """Deterministic list of ``n`` scenes for one domain."""
    rng = np.random.default_rng(seed)
    return [generate_scene(spec, domain, rng) for _ in range(n)]


def pixel_features(image: np.ndarray) -> np.ndarray:
    """(F, N) feature planes, F = 9: color plus local 3x3 mean and variance.

    Every scene of every step goes through here, so the planes are written
    in place into one (9, H, W) buffer, returned as is, C-contiguous (9, H*W):
    on these sizes a fresh array costs about as much as the arithmetic.
    """
    image = np.asarray(image, dtype=np.float64)
    c = image.shape[0]
    feats = np.empty((3 * c,) + image.shape[1:])
    feats[:c] = image
    mean, var = feats[c:2 * c], feats[2 * c:]
    uniform_filter(image, size=(1, 3, 3), output=mean, mode="nearest")
    np.multiply(image, image, out=var)
    uniform_filter(var, size=(1, 3, 3), output=var, mode="nearest")  # the mean square
    var -= mean * mean
    np.maximum(var, 0.0, out=var)
    return feats.reshape(3 * c, -1)


def perturb(image: np.ndarray, rng: np.random.Generator, noise: float = 0.04,
            brightness: float = 0.06, contrast: float = 0.08,
            flip_prob: float = 0.5):
    """Photometric jitter plus optional horizontal flip.

    Returns the perturbed image and whether it was flipped; a flipped
    prediction is realigned with :func:`flip_permutation`.  Zero magnitudes
    and ``flip_prob=0`` reproduce the input exactly.
    """
    out = np.asarray(image, dtype=np.float64)
    scale = 1.0 + rng.uniform(-contrast, contrast) if contrast > 0.0 else 1.0
    offset = rng.uniform(-brightness, brightness) if brightness > 0.0 else 0.0
    out = (out - 0.5) * scale + 0.5 + offset
    if noise > 0.0:
        out = out + rng.normal(0.0, noise, size=out.shape)
    flipped = bool(rng.random() < flip_prob) if flip_prob > 0.0 else False
    if flipped:
        out = out[:, :, ::-1]
    return np.clip(out, 0.0, 1.0), flipped


def flip_permutation(height: int, width: int) -> np.ndarray:
    """Flat pixel indices that horizontally flip a row-major (H, W) plane."""
    return np.arange(height * width).reshape(height, width)[:, ::-1].ravel()
