"""Training configuration: a flat dataclass of scalar knobs.

Every field can be set from a line-oriented ``key = value`` text file and
overridden by a CLI flag of the same name; precedence is
defaults < file < flags.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from segadapt.data import _BASE_COLORS

__all__ = ["TrainConfig", "parse_config_file", "make_config", "format_config"]

# a field's annotation -> the values it takes (bool excluded) and their name in messages
_KINDS = {"int": (numbers.Integral, "an int"), "float": (numbers.Real, "a number")}


@dataclass
class TrainConfig:
    # problem size
    num_classes: int = 5
    height: int = 64
    width: int = 64
    source_scenes: int = 100
    target_scenes: int = 100
    seed: int = 0
    # scene generation
    cell: int = 16
    fill_prob: float = 0.65
    rare_class: int = 4
    rare_weight: float = 0.03
    color_noise: float = 0.055
    # photometric domain shift applied to target scenes
    shift_hue: float = 0.1
    shift_brightness: float = 0.82
    shift_noise: float = 0.01
    # model / optimization
    hidden_units: int = 16
    learning_rate: float = 2.0       # source pretraining
    stage1_lr: float = 1.0           # adaptation stages run on a gentler rate
    stage2_lr: float = 1.0
    pretrain_steps: int = 400
    stage1_steps: int = 1600
    stage2_steps: int = 1600
    # loss weights
    gamma: float = 2.0
    lambda_u: float = 0.05
    lambda_m: float = 1.0
    epsilon: float = 1e-8
    # dynamic threshold parameters
    threshold_a: float = 0.9
    threshold_b: float = 0.8
    threshold_d: float = 8.0
    threshold_t0: float = 0.8
    # target-image perturbation
    perturb_noise: float = 0.04
    perturb_brightness: float = 0.06
    perturb_contrast: float = 0.08
    flip_prob: float = 0.5
    # mixing
    paste_count: int = 1
    # logging
    eval_every: int = 200

    def __post_init__(self):
        for name, ok, rule in self._rows():
            if not ok:
                raise ValueError(f"{name} must {rule}, got {getattr(self, name)}")

    def _rows(self):
        """The config's one check table: (field, holds, rule) rows, checked in order.

        A row is evaluated only once every row above it held, so a row may
        rely on them: ``height % cell`` runs once ``cell >= 6`` did.  Outside
        these ranges a scene cannot be generated as asked, training has
        nothing to fit or steps by a NaN, the losses give NaN, or thresholds
        freeze or mask out every pixel.  The first rows check each field's
        type: an int field takes any integer (numpy's too), a float field any
        real number, and neither takes a bool.
        """
        for f in dataclasses.fields(self):
            kind, word = _KINDS[f.type]
            value = getattr(self, f.name)
            yield f.name, isinstance(value, kind) and not isinstance(value, bool), f"be {word}"
        colors = len(_BASE_COLORS)
        yield "num_classes", 2 <= self.num_classes <= colors, \
            f"be in [2, {colors}] (one distinct color per class)"
        yield "source_scenes", self.source_scenes >= 1, "be >= 1"
        yield "target_scenes", self.target_scenes >= 1, "be >= 1"
        yield "seed", self.seed >= 0, "be >= 0"
        yield "cell", self.cell >= 6, ("be at least 6, so that the shape side range "
                                       "[max(4, cell // 3), cell - 2] is not empty")
        for name in ("height", "width"):
            size = getattr(self, name)
            yield name, size > 0 and size % self.cell == 0, \
                f"be a positive multiple of cell={self.cell}"
        yield "fill_prob", 0.0 <= self.fill_prob <= 1.0, "lie in [0, 1]"
        yield "rare_class", 0 <= self.rare_class < self.num_classes, \
            f"be in [0, num_classes={self.num_classes})"
        yield "rare_weight", _nonnegative(self.rare_weight), "be finite and >= 0"
        only_foreground = (self.num_classes, self.rare_class) == (2, 1)
        yield "rare_weight", self.rare_weight > 0.0 or not only_foreground, \
            "be > 0 when the rare class is the only foreground class"
        yield "color_noise", _nonnegative(self.color_noise), "be finite and >= 0"
        yield "shift_hue", math.isfinite(self.shift_hue), "be finite"
        yield "shift_brightness", math.isfinite(self.shift_brightness) and \
            self.shift_brightness > 0.0, "be finite and > 0"
        yield "shift_noise", _nonnegative(self.shift_noise), "be finite and >= 0"
        yield "hidden_units", self.hidden_units >= 1, "be >= 1"
        for name in ("learning_rate", "stage1_lr", "stage2_lr"):
            rate = getattr(self, name)
            yield name, math.isfinite(rate) and rate > 0.0, "be finite and > 0"
        for name in ("pretrain_steps", "stage1_steps", "stage2_steps", "paste_count"):
            yield name, getattr(self, name) >= 0, "be >= 0"
        yield "perturb_noise", _nonnegative(self.perturb_noise), "be finite and >= 0"
        # a contrast swing above 1 can make the scale negative and invert the image;
        # a brightness offset above 1 pushes every pixel past the clip
        for name in ("perturb_brightness", "perturb_contrast"):
            yield name, 0.0 <= getattr(self, name) <= 1.0, "lie in [0, 1]"
        yield "flip_prob", 0.0 <= self.flip_prob <= 1.0, "lie in [0, 1]"
        yield "epsilon", 0.0 < self.epsilon < 1.0, "lie in (0, 1)"
        for name in ("gamma", "lambda_u", "lambda_m"):
            value = getattr(self, name)
            yield name, math.isfinite(value) and value >= 0.0, "be finite and >= 0"
        yield "threshold_a", 0.0 <= self.threshold_a < 1.0, "lie in [0, 1)"
        yield "threshold_b", 0.0 < self.threshold_b <= 1.0, "lie in (0, 1]"
        yield "threshold_d", math.isfinite(self.threshold_d) and self.threshold_d >= 0.0, \
            "be finite and >= 0"
        yield "threshold_t0", 0.0 < self.threshold_t0 <= 1.0, "lie in (0, 1]"
        yield "eval_every", self.eval_every >= 0, "be >= 0"


def _nonnegative(value: float) -> bool:
    """Finite and >= 0 by the sign bit, as numpy's own scale check reads it: -0.0 fails too."""
    return math.isfinite(value) and math.copysign(1.0, value) > 0.0


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _coerce(name: str, raw: str):
    if name not in _FIELDS:
        raise KeyError(f"unknown config key: {name!r}")
    raw = raw.strip()
    kind = _FIELDS[name].type
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise ValueError(f"{name} must be {_KINDS[kind][1]}, got {raw!r}") from None


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines, each key once; ``#`` starts a comment, blanks are skipped."""
    values, first_line = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = text.split("=", 1)
            key = key.strip()
            if first_line.setdefault(key, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                                 f"(first set on line {first_line[key]})")
            try:
                values[key] = _coerce(key, raw)
            except (KeyError, ValueError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc.args[0]}") from None
    return values


def make_config(path=None, overrides=None) -> TrainConfig:
    """Build a TrainConfig from defaults, an optional file, then overrides.

    Override values may be raw strings (as from CLI flags) or typed values.
    """
    merged = {}
    if path is not None:
        merged.update(parse_config_file(path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        merged[key] = _coerce(key, value) if isinstance(value, str) else value
    unknown = set(merged) - set(_FIELDS)
    if unknown:
        raise KeyError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(**merged)


def format_config(cfg: TrainConfig) -> str:
    """Render a config back to the file format (useful for reproducibility)."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in dataclasses.fields(TrainConfig)]
    return "\n".join(lines) + "\n"
