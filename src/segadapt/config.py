"""Training configuration: a flat dataclass of scalar knobs.

Every field can be set from a line-oriented ``key = value`` text file and
overridden by a CLI flag of the same name; precedence is
defaults < file < flags.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["TrainConfig", "parse_config_file", "make_config", "format_config"]


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
    batch_pixels: int = 0  # 0 = use every pixel of the step's images
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


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _coerce(name: str, raw: str):
    if name not in _FIELDS:
        raise KeyError(f"unknown config key: {name!r}")
    kind = _FIELDS[name].type
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; ``#`` starts a comment, blanks are skipped."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = text.split("=", 1)
            key = key.strip()
            values[key] = _coerce(key, raw)
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
