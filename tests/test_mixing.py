import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter

from segadapt.config import TrainConfig
from segadapt.losses import IGNORE_LABEL
from segadapt.mixing import (
    boundary_weights,
    build_category_db,
    long_tail_paste,
    make_mix_mask,
    mix,
    pseudo_labels,
)


def scene(labels, rng=None, channels=3):
    labels = np.asarray(labels)
    rng = rng or np.random.default_rng(0)
    image = rng.random((channels,) + labels.shape)
    return image, labels


# ---------------------------------------------------------- category database

def test_build_category_db_indexing():
    img, lab = scene(np.array([[0, 0], [2, 2]]))
    db = build_category_db([(img, lab)], num_classes=3)
    assert db.members[0] == [0]
    assert db.members[1] == []
    assert db.members[2] == [0]


def test_category_db_order_independent_membership():
    rng = np.random.default_rng(1)
    pairs = [scene(rng.integers(0, 4, size=(6, 6)), rng) for _ in range(5)]
    db_a = build_category_db(pairs, num_classes=4)
    db_b = build_category_db(list(reversed(pairs)), num_classes=4)
    for c in range(4):
        sets_a = {id(db_a.pairs[i][0]) for i in db_a.members[c]}
        sets_b = {id(db_b.pairs[i][0]) for i in db_b.members[c]}
        assert sets_a == sets_b


def test_category_db_membership_by_rescan():
    rng = np.random.default_rng(2)
    pairs = [scene(rng.integers(0, 5, size=(8, 8)), rng) for _ in range(10)]
    db = build_category_db(pairs, num_classes=5)
    for c in range(5):
        expected = [i for i, (_, lab) in enumerate(pairs) if np.any(lab == c)]
        assert db.members[c] == expected


# ------------------------------------------------------------ long-tail paste

def test_paste_copies_donor_class_pixels():
    rng = np.random.default_rng(3)
    donor_img, donor_lab = scene(np.array([[1, 1], [0, 0]]), rng)
    db = build_category_db([(donor_img, donor_lab)], num_classes=2)
    base_img, base_lab = scene(np.zeros((2, 2), dtype=int), rng)
    alpha = np.array([1.0, 0.0])  # class 1 picked almost surely; force via db
    db.members[0] = []  # only class 1 has donors
    out_img, out_lab = long_tail_paste(base_img, base_lab, db, alpha, rng)
    region = donor_lab == 1
    assert np.array_equal(out_lab[region], donor_lab[region])
    assert np.array_equal(out_img[:, region], donor_img[:, region])
    assert np.array_equal(out_lab[~region], base_lab[~region])


def test_paste_count_zero_is_identity():
    rng = np.random.default_rng(4)
    img, lab = scene(np.array([[0, 1], [1, 0]]), rng)
    db = build_category_db([(img, lab)], num_classes=2)
    out_img, out_lab = long_tail_paste(img, lab, db, np.full(2, 0.8), rng, count=0)
    assert np.array_equal(out_img, img)
    assert np.array_equal(out_lab, lab)


def test_paste_class_selection_uniform_alpha_frequencies():
    # With a uniform threshold vector every donor class is equally likely.
    rng = np.random.default_rng(5)
    num_classes = 5
    donors = []
    for c in range(1, num_classes):
        lab = np.zeros((2, num_classes), dtype=int)
        lab[0, c] = c
        donors.append((np.full((3, 2, num_classes), c, dtype=float), lab))
    db = build_category_db(donors, num_classes=num_classes)
    db.members[0] = []  # background never pasted
    base_lab = np.zeros((2, num_classes), dtype=int)
    base_img = np.zeros((3, 2, num_classes))
    draws = 10_000
    counts = np.zeros(num_classes)
    for _ in range(draws):
        _, out_lab = long_tail_paste(base_img, base_lab, db, np.full(num_classes, 0.8), rng)
        pasted = np.unique(out_lab[out_lab != 0])
        assert pasted.size == 1
        counts[pasted[0]] += 1
    p = 1.0 / 4.0
    sigma = np.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(counts[1:] / draws - p) < 3 * sigma + 1e-12)


def test_paste_skips_classes_without_donors():
    rng = np.random.default_rng(6)
    donor_img, donor_lab = scene(np.array([[2, 2], [2, 2]]), rng)
    db = build_category_db([(donor_img, donor_lab)], num_classes=3)
    base_img, base_lab = scene(np.zeros((2, 2), dtype=int), rng)
    # alpha strongly favors class 1, which has no donors; class 2 must land
    alpha = np.array([1.0, 0.0, 1.0])
    _, out_lab = long_tail_paste(base_img, base_lab, db, alpha, rng, count=2)
    assert np.all(out_lab == 2)


# ----------------------------------------------------------------- mix mask

def test_mix_mask_single_class_covers_it():
    rng = np.random.default_rng(7)
    labels = np.full((4, 4), 3)
    assert make_mix_mask(labels, rng).all()


def test_mix_mask_never_selects_absent_classes():
    rng = np.random.default_rng(8)
    labels = np.array([[0, 1], [2, 1]])
    for _ in range(50):
        mask = make_mix_mask(labels, rng)
        chosen = np.unique(labels[mask])
        assert set(chosen).issubset({0, 1, 2})
        unchosen = np.unique(labels[~mask])
        assert set(chosen).isdisjoint(set(unchosen))


def test_mix_mask_rejects_empty_label_maps():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        make_mix_mask(np.full((2, 2), IGNORE_LABEL), rng)


def test_mix_mask_half_selection_frequencies():
    rng = np.random.default_rng(10)
    labels = np.arange(4).reshape(2, 2)
    draws = 1000
    counts = np.zeros(4)
    for _ in range(draws):
        mask = make_mix_mask(labels, rng)
        counts[labels[mask]] += 1
        assert mask.sum() == 2  # ceil(4 / 2) classes, one pixel each
    sigma = np.sqrt(0.25 / draws)
    assert np.all(np.abs(counts / draws - 0.5) < 3 * sigma)


# -------------------------------------------------------------- pseudo labels

class _StubModel:
    def __init__(self, probs):
        self._probs = probs

    def predict_probs(self, image):
        return self._probs


def test_pseudo_labels_deterministic_and_tie_break():
    rng = np.random.default_rng(11)
    probs = rng.random((3, 4, 4))
    probs /= probs.sum(axis=0, keepdims=True)
    model = _StubModel(probs)
    image = rng.random((3, 4, 4))
    a = pseudo_labels(image, model)
    b = pseudo_labels(image, model)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8 and a.shape == (4, 4)
    assert np.array_equal(a, probs.argmax(axis=0))
    uniform = _StubModel(np.full((3, 2, 2), 1.0 / 3.0))
    assert np.all(pseudo_labels(image[:, :2, :2], uniform) == 0)


@pytest.mark.parametrize("num_classes, ok", [(255, True), (256, False)])
def test_pseudo_labels_hold_at_most_255_classes(num_classes, ok):
    # uint8 with 255 as IGNORE: class 255 would read as IGNORE, so it raises instead
    probs = np.zeros((num_classes, 1, 2))
    probs[-1] = 1.0
    model = _StubModel(probs)
    if ok:
        assert np.all(pseudo_labels(np.zeros((3, 1, 2)), model) == num_classes - 1)
    else:
        with pytest.raises(ValueError, match="at most 255 classes"):
            pseudo_labels(np.zeros((3, 1, 2)), model)


# ---------------------------------------------------------------- composition

def test_mix_trivial_masks():
    rng = np.random.default_rng(12)
    xs, ys = scene(rng.integers(0, 3, size=(5, 5)), rng)
    xt, yt = scene(rng.integers(0, 3, size=(5, 5)), rng)
    all_target = mix(xs, ys, xt, yt, np.zeros((5, 5), dtype=bool))
    assert np.array_equal(all_target.image, xt)
    assert np.array_equal(all_target.labels, yt)
    all_source = mix(xs, ys, xt, yt, np.ones((5, 5), dtype=bool))
    assert np.array_equal(all_source.image, xs)
    assert np.array_equal(all_source.labels, ys)


def test_mix_composition_exactness():
    rng = np.random.default_rng(13)
    xs, ys = scene(rng.integers(0, 4, size=(8, 8)), rng)
    xt, yt = scene(rng.integers(0, 4, size=(8, 8)), rng)
    mask = rng.random((8, 8)) < 0.5
    result = mix(xs, ys, xt, yt, mask)
    assert np.array_equal(result.image[:, mask], xs[:, mask])
    assert np.array_equal(result.image[:, ~mask], xt[:, ~mask])
    assert np.array_equal(result.labels[mask], ys[mask])
    assert np.array_equal(result.labels[~mask], yt[~mask])


def test_mix_of_uint8_label_maps_gives_uint8_labels():
    rng = np.random.default_rng(15)
    xs, ys = scene(rng.integers(0, 4, size=(6, 6)).astype(np.uint8), rng)
    xt, yt = scene(rng.integers(0, 4, size=(6, 6)).astype(np.uint8), rng)
    yt[0, 0] = IGNORE_LABEL
    mask = rng.random((6, 6)) < 0.5
    result = mix(xs, ys, xt, yt, mask)
    assert result.labels.dtype == np.uint8
    assert np.array_equal(result.labels, np.where(mask, ys, yt))


def test_mix_shape_mismatch():
    rng = np.random.default_rng(14)
    xs, ys = scene(np.zeros((4, 4), dtype=int), rng)
    xt, yt = scene(np.zeros((5, 5), dtype=int), rng)
    with pytest.raises(ValueError):
        mix(xs, ys, xt, yt, np.zeros((4, 4), dtype=bool))


# ------------------------------------------------------------ boundary weights

def brute_force_boundary(mask):
    """Direct loop realization of the boundary rule: a 4-neighbour of the other value."""
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    m = m.tolist()  # nested lists: a Python loop reads their items faster than an array's
    boundary = [[False] * w for _ in range(h)]
    for i in range(h):
        for j in range(w):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < h and 0 <= nj < w and m[ni][nj] != m[i][j]:
                    boundary[i][j] = True
    return np.array(boundary, dtype=bool)


def brute_force_weights(mask):
    """Direct loop realization of the weight rule, used as oracle.

    Each boundary pixel doubles the weights of its 7x7 window, which slicing
    clips at the image border.
    """
    boundary = brute_force_boundary(mask)
    weights = np.ones(boundary.shape)
    for i, j in np.argwhere(boundary).tolist():
        weights[max(0, i - 3):i + 4, max(0, j - 3):j + 4] = 2.0
    return weights


def test_boundary_weights_constant_mask_is_all_ones():
    assert np.all(boundary_weights(np.zeros((6, 6), dtype=bool)) == 1.0)
    assert np.all(boundary_weights(np.ones((6, 6), dtype=bool)) == 1.0)


def test_boundary_weights_straight_edge_band():
    # Half-plane split between columns 31 and 32: both edge columns are
    # boundary pixels, so the doubled band spans columns 28..35 inclusive.
    mask = np.zeros((8, 64), dtype=bool)
    mask[:, 32:] = True
    weights = boundary_weights(mask)
    doubled = np.where(weights[0] == 2.0)[0]
    assert doubled.tolist() == list(range(28, 36))
    assert np.all(weights == weights[0][None, :])


def test_boundary_weights_match_brute_force_small():
    rng = np.random.default_rng(15)
    for _ in range(10):
        mask = rng.random((12, 12)) < 0.5
        assert np.array_equal(boundary_weights(mask), brute_force_weights(mask))


def test_boundary_weights_values_are_one_or_two():
    rng = np.random.default_rng(16)
    weights = boundary_weights(rng.random((20, 20)) < 0.3)
    assert set(np.unique(weights)).issubset({1.0, 2.0})


CELL = TrainConfig().cell
# sides from 1 to past three cells, so most are not multiples of ``cell``
SIDES = st.integers(1, 3 * CELL + 5)


@st.composite
def blocky_masks(draw):
    """Blocks of up to ``cell`` pixels, like the class regions of a mix mask, cropped."""
    coarse = draw(arrays(np.bool_, st.tuples(st.integers(1, 5), st.integers(1, 5))))
    block = draw(st.integers(1, CELL))
    mask = coarse.repeat(block, axis=0).repeat(block, axis=1)
    return mask[:draw(st.integers(1, mask.shape[0])), :draw(st.integers(1, mask.shape[1]))]


MASKS = st.one_of(arrays(np.bool_, st.tuples(SIDES, SIDES)), blocky_masks())


@settings(max_examples=200, deadline=None)
@given(mask=MASKS)
def test_boundary_weights_band_holds_every_boundary_pixel(mask):
    weights = boundary_weights(mask)
    assert weights.shape == mask.shape
    assert np.all((weights == 1.0) | (weights == 2.0))
    # a pixel with a 4-neighbour of the other mask value lies in the weight-2 band
    h, w = mask.shape
    padded = np.pad(mask, 1, mode="edge")  # the edge copy never differs, so it adds no boundary
    boundary = np.zeros_like(mask)
    for dy, dx in ((0, 1), (2, 1), (1, 0), (1, 2)):
        boundary |= padded[dy:dy + h, dx:dx + w] != mask
    assert np.all(weights[boundary] == 2.0)


@settings(max_examples=200, deadline=None)
@given(mask=MASKS)
@example(mask=np.zeros((1, 1), dtype=bool))
@example(mask=np.eye(1, 20, 10, dtype=bool))  # 1 x N and N x 1: one axis has no neighbours
@example(mask=np.eye(20, 1, -10, dtype=bool))
@example(mask=np.eye(6, dtype=bool))  # sides below the 7-pixel window
def test_boundary_weights_match_the_loop_and_scipys_dilation(mask):
    weights = boundary_weights(mask)
    assert np.array_equal(weights, brute_force_weights(mask))
    band = maximum_filter(brute_force_boundary(mask), size=7, mode="constant", cval=False)
    assert np.array_equal(weights, np.where(band, 2.0, 1.0))


def test_full_augmentation_reproducible_under_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        pairs = [scene(rng.integers(0, 4, size=(10, 10)), rng) for _ in range(4)]
        db = build_category_db(pairs, num_classes=4)
        base_img, base_lab = scene(rng.integers(0, 4, size=(10, 10)), rng)
        img, lab = long_tail_paste(base_img, base_lab, db, np.full(4, 0.8), rng, count=2)
        mask = make_mix_mask(lab, rng)
        xt, yt = scene(rng.integers(0, 4, size=(10, 10)), rng)
        return mix(img, lab, xt, yt, mask)

    a = run(99)
    b = run(99)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.weights, b.weights)
