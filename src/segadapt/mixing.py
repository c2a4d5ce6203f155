"""Cross-domain image mixing: category database, long-tail pasting,
class-level mix masks, pseudo labels, and boundary weight maps.

A mixed training pair splices class regions of an (augmented) source sample
onto a target sample labelled by a frozen model.  Pixels near the splice
boundary see content of both domains inside their receptive field, so their
loss weight is doubled on a 7x7 (Chebyshev radius 3) band around the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segadapt.losses import IGNORE_LABEL
from segadapt.threshold import class_selection_distribution, confidence_and_argmax

__all__ = [
    "CategoryDatabase",
    "MixResult",
    "build_category_db",
    "long_tail_paste",
    "make_mix_mask",
    "pseudo_labels",
    "boundary_weights",
    "mix",
]


@dataclass
class CategoryDatabase:
    """Inverted index from class id to the source pairs containing it."""

    pairs: list[tuple[np.ndarray, np.ndarray]]
    members: list[list[int]]  # class -> indices into pairs

    @property
    def num_classes(self) -> int:
        return len(self.members)


@dataclass
class MixResult:
    image: np.ndarray    # (3, H, W)
    labels: np.ndarray   # (H, W) uint8 when both label maps are, as generated and pseudo ones are
    weights: np.ndarray  # (H, W) in {1.0, 2.0}


def build_category_db(pairs, num_classes: int) -> CategoryDatabase:
    """Scan source image-label pairs once and index them per class."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("category database needs at least one source pair")
    members: list[list[int]] = [[] for _ in range(num_classes)]
    for i, (_, labels) in enumerate(pairs):
        for c in np.unique(labels):
            if c != IGNORE_LABEL and 0 <= c < num_classes:
                members[int(c)].append(i)
    return CategoryDatabase(pairs=pairs, members=members)


def long_tail_paste(image: np.ndarray, labels: np.ndarray, db: CategoryDatabase,
                    alpha: np.ndarray, rng: np.random.Generator,
                    count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Paste ``count`` classes sampled by inverted-threshold probability.

    Classes with lower thresholds (the ones the model struggles with) are
    favored.  For each drawn class a random donor pair is chosen and the
    donor's pixels of that class are copied at their original coordinates;
    later pastes overwrite earlier ones.  Classes without donors are dropped
    from the draw, and drawn classes are not repeated.
    """
    image = image.copy()
    labels = labels.copy()
    candidates = [c for c in range(db.num_classes) if db.members[c]]
    weights = class_selection_distribution(alpha)
    for _ in range(count):
        if not candidates:
            break
        w = weights[candidates]
        c = int(rng.choice(candidates, p=w / w.sum()))
        candidates.remove(c)
        donors = db.members[c]
        donor_image, donor_labels = db.pairs[donors[int(rng.integers(len(donors)))]]
        region = donor_labels == c
        image[:, region] = donor_image[:, region]
        labels[region] = c
    return image, labels


def make_mix_mask(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Select ceil(K/2) of the K classes present, uniformly without replacement.

    The mask is True exactly on pixels of the chosen classes.
    """
    labels = np.asarray(labels)
    present = np.unique(labels)
    present = present[present != IGNORE_LABEL]
    if present.size == 0:
        raise ValueError("label map contains no classes to mix")
    chosen = rng.choice(present, size=(present.size + 1) // 2, replace=False)
    return np.isin(labels, chosen)


def pseudo_labels(image: np.ndarray, model) -> np.ndarray:
    """(H, W) uint8 argmax labels from a frozen model, without confidence filtering.

    uint8 keeps 255 for IGNORE, so a model with more than 255 classes raises.
    """
    probs = model.predict_probs(image)
    if probs.shape[0] > IGNORE_LABEL:
        raise ValueError(f"pseudo labels are uint8 with {IGNORE_LABEL} as IGNORE, so at most "
                         f"{IGNORE_LABEL} classes, got {probs.shape[0]}")
    _, labels = confidence_and_argmax(probs)
    return labels.astype(np.uint8)


def boundary_weights(mask: np.ndarray) -> np.ndarray:
    """Loss weights: 2 within Chebyshev radius 3 of the mask boundary, else 1.

    A boundary pixel is one whose mask value differs from at least one of its
    4-neighbors; the dilation window is clipped at the image border.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ValueError(f"expected a (H, W) mask, got shape {m.shape}")
    boundary = np.zeros_like(m)
    vertical = m[:-1, :] != m[1:, :]
    boundary[:-1, :] |= vertical
    boundary[1:, :] |= vertical
    horizontal = m[:, :-1] != m[:, 1:]
    boundary[:, :-1] |= horizontal
    boundary[:, 1:] |= horizontal
    # dilate along rows, then along columns, in place; numpy reads an overlapping
    # operand as a copy, so shifts of 1 give radius 1 and then shifts of 2 radius 3
    for plane in (boundary, boundary.T):
        for step in (1, 2):
            plane[step:] |= plane[:-step]
            plane[:-step] |= plane[step:]
    return np.where(boundary, 2.0, 1.0)


def mix(source_image: np.ndarray, source_labels: np.ndarray,
        target_image: np.ndarray, target_labels: np.ndarray,
        mask: np.ndarray) -> MixResult:
    """Pixel-exact class-level composition of a source and a target sample."""
    mask = np.asarray(mask, dtype=bool)
    if source_image.shape != target_image.shape:
        raise ValueError(
            f"image shapes disagree: {source_image.shape} vs {target_image.shape}")
    if not (source_labels.shape == target_labels.shape == mask.shape
            == source_image.shape[1:]):
        raise ValueError("label/mask shapes do not match the image plane")
    mixed_image = np.where(mask[None, :, :], source_image, target_image)
    mixed_labels = np.where(mask, source_labels, target_labels)
    return MixResult(image=mixed_image, labels=mixed_labels, weights=boundary_weights(mask))
