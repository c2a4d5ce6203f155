import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from segadapt.autodiff import Tensor
from segadapt.config import TrainConfig
from segadapt.losses import (
    IGNORE_LABEL,
    _adjusted_kl_terms,
    _cross_entropy_terms,
    _entropy_terms,
    _max_square_terms,
    _one_hot,
    adjusted_kl_loss,
    focal_decomposition_check,
    maximum_square_loss,
    mixed_ce_loss,
    shannon_entropy_loss,
    stage1_loss,
    stage2_loss,
    supervised_ce_loss,
    supervised_focal_loss,
    unsupervised_focal_loss,
)

from _fd import fd_gradient, rel_error


def pixel(*probs):
    """Single-pixel class-major probability map, shape (C, 1)."""
    return Tensor(np.array(probs, dtype=np.float64).reshape(-1, 1))


def random_probmap(rng, c, n, requires_grad=False):
    logits = Tensor(rng.normal(size=(c, n)), requires_grad=requires_grad)
    return logits, logits.softmax(axis=0)


FULL1 = np.array([True])


# ------------------------------------------------------------ shannon entropy

def test_shannon_uniform_pixel_is_ln2():
    assert shannon_entropy_loss(pixel(0.5, 0.5), FULL1).item() == pytest.approx(math.log(2), abs=1e-12)


def test_shannon_one_hot_is_zero():
    assert shannon_entropy_loss(pixel(1.0, 0.0), FULL1).item() == pytest.approx(0.0, abs=1e-12)


def test_shannon_confidence_mask_keeps_one_pixel():
    p = Tensor(np.array([[0.9, 0.5], [0.1, 0.5]]))
    mask = np.array([True, False])  # confidence > 0.8 keeps only the first pixel
    expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert shannon_entropy_loss(p, mask).item() == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.325083, abs=1e-6)


def test_shannon_restriction_consistency():
    rng = np.random.default_rng(0)
    _, p = random_probmap(rng, 5, 12)
    mask = rng.random(12) < 0.5
    masked = shannon_entropy_loss(p, mask).item()
    sub = Tensor(p.data[:, mask])
    assert masked == pytest.approx(
        shannon_entropy_loss(sub, np.ones(mask.sum(), dtype=bool)).item(), abs=1e-12)


# ---------------------------------------------------------------- adjusted KL

def test_adjusted_kl_one_hot_pair_is_zero():
    y = pixel(1.0, 0.0)
    assert adjusted_kl_loss(y, pixel(1.0, 0.0), FULL1, gamma=2.0).item() == pytest.approx(0.0, abs=1e-12)


def test_adjusted_kl_matched_pair_scalar_oracle():
    # sum_c p_hat (log p_hat - (1 - p)^2 log p) for p_hat = p = (0.6, 0.4)
    expected = (0.6 * (math.log(0.6) - 0.4 ** 2 * math.log(0.6))
                + 0.4 * (math.log(0.4) - 0.6 ** 2 * math.log(0.4)))
    got = adjusted_kl_loss(pixel(0.6, 0.4), pixel(0.6, 0.4), FULL1, gamma=2.0).item()
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-0.492027, abs=1e-6)


def test_adjusted_kl_gamma_zero_identical_distributions_vanish():
    assert adjusted_kl_loss(pixel(0.6, 0.4), pixel(0.6, 0.4), FULL1, gamma=0.0).item() == pytest.approx(0.0, abs=1e-12)


def test_adjusted_kl_rejects_non_detached_pseudo_label():
    rng = np.random.default_rng(1)
    _, p_hat = random_probmap(rng, 3, 4, requires_grad=True)
    _, p_star = random_probmap(rng, 3, 4)
    with pytest.raises(ValueError, match="detached"):
        adjusted_kl_loss(p_hat, p_star, np.ones(4, dtype=bool), gamma=2.0)


def test_adjusted_kl_gradient_flows_only_into_p_star():
    rng = np.random.default_rng(2)
    z_hat, p_hat = random_probmap(rng, 3, 4, requires_grad=True)
    z_star, p_star = random_probmap(rng, 3, 4, requires_grad=True)
    mask = np.ones(4, dtype=bool)
    adjusted_kl_loss(p_hat.detach(), p_star, mask, gamma=2.0).backward()
    assert np.all(z_hat.grad == 0.0)
    assert np.any(z_star.grad != 0.0)


# ---------------------------------------------------------- unsupervised focal

def test_unsupervised_focal_value_scalar_oracle():
    expected = -(0.6 * 0.4 ** 2 * math.log(0.6) + 0.4 * 0.6 ** 2 * math.log(0.4))
    got = unsupervised_focal_loss(pixel(0.6, 0.4), pixel(0.6, 0.4), FULL1, gamma=2.0).item()
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.180985, abs=1e-6)


def test_unsupervised_focal_gamma_zero_equals_shannon():
    p = pixel(0.7, 0.3)
    got = unsupervised_focal_loss(p, pixel(0.7, 0.3), FULL1, gamma=0.0).item()
    assert got == pytest.approx(shannon_entropy_loss(p, FULL1).item(), abs=1e-12)


def test_unsupervised_focal_one_hot_pair_is_zero():
    assert unsupervised_focal_loss(pixel(0.0, 1.0), pixel(0.0, 1.0), FULL1, gamma=2.0).item() == pytest.approx(0.0, abs=1e-12)


def test_unsupervised_focal_value_identity_random():
    # Value equals masked mean of -sum p_hat (1 - p_star)^gamma log p_star:
    # the Shannon and log-p_hat terms cancel in value, not in gradient.
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        _, p_hat = random_probmap(rng, c, n)
        _, p_star = random_probmap(rng, c, n)
        mask = rng.random(n) < 0.7
        gamma = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        got = unsupervised_focal_loss(p_hat, p_star, mask, gamma).item()
        per_pixel = -(p_hat.data * (1.0 - p_star.data) ** gamma * np.log(p_star.data)).sum(axis=0)
        expected = per_pixel[mask].mean() if mask.any() else 0.0
        assert got == pytest.approx(expected, abs=1e-12)


def test_unsupervised_focal_branch_gradient_contract():
    # d/d(weak-branch logits) equals the pure Shannon gradient and
    # d/d(perturbed-branch logits) equals the pure adjusted-KL gradient.
    rng = np.random.default_rng(4)
    z0 = rng.normal(size=(4, 6))
    z1 = rng.normal(size=(4, 6))
    mask = rng.random(6) < 0.8

    zh = Tensor(z0, requires_grad=True)
    zs = Tensor(z1, requires_grad=True)
    unsupervised_focal_loss(zh.softmax(axis=0), zs.softmax(axis=0), mask, gamma=2.0).backward()

    zh2 = Tensor(z0, requires_grad=True)
    shannon_entropy_loss(zh2.softmax(axis=0), mask).backward()
    assert np.allclose(zh.grad, zh2.grad, atol=1e-14)

    zs2 = Tensor(z1, requires_grad=True)
    p_hat_fixed = Tensor(z0).softmax(axis=0)
    adjusted_kl_loss(p_hat_fixed, zs2.softmax(axis=0), mask, gamma=2.0).backward()
    assert np.allclose(zs.grad, zs2.grad, atol=1e-14)


def test_detaching_the_kl_target_changes_parameter_gradients():
    # Keeping the weak branch live inside the KL term would route extra
    # gradient into its logits; the detached form must differ from that.
    rng = np.random.default_rng(12)
    z0 = rng.normal(size=(3, 5))
    aux = rng.normal(size=(3, 5))
    mask = np.ones(5, dtype=bool)

    z = Tensor(z0, requires_grad=True)
    p_hat = z.softmax(axis=0)
    p_star = Tensor(aux).softmax(axis=0)
    unsupervised_focal_loss(p_hat, p_star, mask, gamma=2.0).backward()
    detached_grad = z.grad.copy()

    z2 = Tensor(z0, requires_grad=True)
    p_hat2 = z2.softmax(axis=0)
    weighted = ((1.0 - p_star) ** 2.0) * p_star.clamp(1e-8, 1.0).log()
    live_kl = (p_hat2 * (p_hat2.clamp(1e-8, 1.0).log() - weighted)).sum(axis=0)
    (shannon_entropy_loss(p_hat2, mask) + live_kl.masked_mean(mask)).backward()
    assert not np.allclose(detached_grad, z2.grad)


def test_binary_gradient_bias_property():
    # Shannon gradient vanishes at the uniform point while the focal loss
    # still pushes the perturbed branch there.
    p = Tensor(np.array([[0.5], [0.5]]), requires_grad=True)
    shannon_entropy_loss(p, FULL1).backward()
    assert abs(p.grad[0, 0] - p.grad[1, 0]) < 1e-12  # symmetric: no net drive

    q = Tensor(np.array([[0.5], [0.5]]), requires_grad=True)
    unsupervised_focal_loss(pixel(0.6, 0.4), q, FULL1, gamma=2.0).backward()
    assert abs(q.grad[0, 0] - q.grad[1, 0]) > 1e-3


# ------------------------------------------------------------- supervised CE

def test_supervised_ce_basic_values():
    assert supervised_ce_loss(pixel(1.0, 0.0), np.array([0])).item() == pytest.approx(0.0, abs=1e-9)
    assert supervised_ce_loss(pixel(0.5, 0.5), np.array([0])).item() == pytest.approx(math.log(2), abs=1e-12)


def test_supervised_ce_all_ignore_is_zero():
    p = Tensor(np.full((3, 4), 1.0 / 3.0))
    labels = np.full(4, IGNORE_LABEL)
    assert supervised_ce_loss(p, labels).item() == 0.0


def test_supervised_ce_out_of_range_label():
    with pytest.raises(ValueError):
        supervised_ce_loss(pixel(0.5, 0.5), np.array([2]))


# ---------------------------------------------------------- supervised focal

def test_supervised_focal_scalar_oracle():
    expected = -(0.1 ** 2) * math.log(0.9)
    got = supervised_focal_loss(pixel(0.9, 0.1), np.array([0]), gamma=2.0).item()
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.00105361, abs=1e-8)


def test_supervised_focal_gamma_zero_is_cross_entropy():
    rng = np.random.default_rng(5)
    _, p = random_probmap(rng, 4, 7)
    labels = rng.integers(0, 4, size=7)
    assert supervised_focal_loss(p, labels, gamma=0.0).item() == pytest.approx(
        supervised_ce_loss(p, labels).item(), abs=1e-12)


def test_supervised_focal_correct_one_hot_is_zero():
    assert supervised_focal_loss(pixel(0.0, 1.0), np.array([1]), gamma=2.0).item() == pytest.approx(0.0, abs=1e-12)


# -------------------------------------------------------- focal decomposition

def test_decomposition_identity_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(30):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        _, p = random_probmap(rng, c, n)
        labels = rng.integers(0, c, size=n)
        y = np.zeros((c, n))
        y[labels, np.arange(n)] = 1.0
        gamma = float(rng.choice([0.0, 1.0, 2.0]))
        direct, decomposed = focal_decomposition_check(y, p, gamma)
        assert abs(direct - decomposed) < 1e-12


def test_decomposition_matches_focal_scalar_oracle():
    direct, decomposed = focal_decomposition_check(
        np.array([[1.0], [0.0]]), pixel(0.9, 0.1), gamma=2.0)
    assert direct == pytest.approx(0.00105361, abs=1e-8)
    assert decomposed == pytest.approx(direct, abs=1e-12)


def test_decomposition_rejects_soft_labels():
    with pytest.raises(ValueError):
        focal_decomposition_check(np.array([[0.6], [0.4]]), pixel(0.5, 0.5), gamma=2.0)


# -------------------------------------------------------------- square baseline

def test_maximum_square_values():
    assert maximum_square_loss(pixel(0.5, 0.5), FULL1).item() == pytest.approx(-0.25, abs=1e-12)
    assert maximum_square_loss(pixel(1.0, 0.0), FULL1).item() == pytest.approx(-0.5, abs=1e-12)


def test_maximum_square_gradient_linear_in_p():
    p = Tensor(np.array([[0.3], [0.7]]), requires_grad=True)
    maximum_square_loss(p, FULL1).backward()
    assert np.allclose(p.grad, -p.data, atol=1e-12)


# ------------------------------------------------------------------- mixed CE

def test_mixed_ce_unit_weights_match_supervised_ce():
    rng = np.random.default_rng(7)
    _, p = random_probmap(rng, 3, 6)
    labels = rng.integers(0, 3, size=6)
    w = np.ones(6)
    assert mixed_ce_loss(p, labels, w).item() == pytest.approx(
        supervised_ce_loss(p, labels).item(), abs=1e-12)


def test_mixed_ce_weighting_invariance_on_constant_loss():
    p = Tensor(np.tile(np.array([[0.5], [0.5]]), (1, 4)))
    labels = np.zeros(4, dtype=int)
    a = mixed_ce_loss(p, labels, np.ones(4)).item()
    b = mixed_ce_loss(p, labels, np.array([2.0, 1.0, 1.0, 1.0])).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_mixed_ce_two_pixel_scalar_oracle():
    p = Tensor(np.array([[0.5, 1.0], [0.5, 0.0]]))
    labels = np.array([0, 0])  # losses (ln 2, 0)
    got = mixed_ce_loss(p, labels, np.array([2.0, 1.0])).item()
    assert got == pytest.approx(2.0 * math.log(2) / 3.0, abs=1e-9)
    assert got == pytest.approx(0.462098, abs=1e-6)


def test_mixed_ce_ignore_pixels_drop_out_whatever_their_weight():
    rng = np.random.default_rng(9)
    _, p0 = random_probmap(rng, 3, 6)
    labels = np.array([0, IGNORE_LABEL, 2, 1, IGNORE_LABEL, 0])
    w = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
    got = []
    for ignore_weight in (2.0, 0.0):
        p = Tensor(p0.data, requires_grad=True)
        loss = mixed_ce_loss(p, labels, np.where(labels == IGNORE_LABEL, ignore_weight, w))
        loss.backward()
        got.append((loss.data.tobytes(), p.grad.tobytes()))
    assert got[0] == got[1]


def test_mixed_ce_gradient_vs_finite_differences():
    rng = np.random.default_rng(8)
    z0 = rng.normal(size=(3, 5))
    labels = rng.integers(0, 3, size=5)
    labels[1] = IGNORE_LABEL
    w = rng.choice([1.0, 2.0], size=5)

    z = Tensor(z0, requires_grad=True)
    mixed_ce_loss(z.softmax(axis=0), labels, w).backward()

    def value(flat):
        return mixed_ce_loss(Tensor(flat.reshape(3, 5)).softmax(axis=0), labels, w).item()

    assert rel_error(z.grad, fd_gradient(value, z0.ravel()).reshape(3, 5)) < 1e-4


# ------------------------------------------------------------ stage composites

def _random_stage_inputs(rng, c=4, n=6):
    _, p_s = random_probmap(rng, c, n)
    y_s = rng.integers(0, c, size=n)
    _, p_hat = random_probmap(rng, c, n)
    _, p_star = random_probmap(rng, c, n)
    mask = rng.random(n) < 0.6
    _, p_m = random_probmap(rng, c, n)
    y_m = rng.integers(0, c, size=n)
    w_m = rng.choice([1.0, 2.0], size=n)
    return p_s, y_s, p_hat, p_star, mask, p_m, y_m, w_m


def test_stage1_lambda_zero_reduces_to_supervised_ce():
    rng = np.random.default_rng(9)
    p_s, y_s, p_hat, p_star, mask, *_ = _random_stage_inputs(rng)
    cfg = TrainConfig(lambda_u=0.0)
    parts = stage1_loss(p_s, y_s, p_hat, p_star, mask, cfg)
    assert parts.total.item() == pytest.approx(supervised_ce_loss(p_s, y_s).item(), abs=1e-12)


def test_stage2_lambda_m_zero_reduces_to_stage1():
    rng = np.random.default_rng(10)
    p_s, y_s, p_hat, p_star, mask, p_m, y_m, w_m = _random_stage_inputs(rng)
    cfg = TrainConfig(lambda_m=0.0)
    s2 = stage2_loss(p_s, y_s, p_hat, p_star, mask, p_m, y_m, w_m, cfg)
    s1 = stage1_loss(p_s, y_s, p_hat, p_star, mask, cfg)
    assert s2.total.item() == pytest.approx(s1.total.item(), abs=1e-12)


def test_stage2_component_recomposition():
    rng = np.random.default_rng(11)
    p_s, y_s, p_hat, p_star, mask, p_m, y_m, w_m = _random_stage_inputs(rng)
    cfg = TrainConfig()
    parts = stage2_loss(p_s, y_s, p_hat, p_star, mask, p_m, y_m, w_m, cfg)
    recomposed = (parts.l_s.item() + cfg.lambda_u * parts.l_u.item()
                  + cfg.lambda_m * parts.l_m.item())
    assert abs(parts.total.item() - recomposed) < 1e-12


# ------------------------------------------------- gradients through softmax

@pytest.mark.parametrize("kind", ["shannon", "kl", "focal", "ce", "focal_sup", "square",
                                  "kl_gamma_0", "kl_gamma_0.5", "focal_gamma_0.5",
                                  "focal_sup_gamma_0.5"])
def test_loss_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))  # same inputs in every interpreter
    loss_kind, _, gamma = kind.partition("_gamma_")
    gamma = float(gamma or 2.0)
    c, n = 4, 5
    z0 = rng.normal(size=(c, n))
    aux = rng.normal(size=(c, n))
    labels = rng.integers(0, c, size=n)
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[0] = True

    def compute(flat):
        z = Tensor(flat.reshape(c, n), requires_grad=True)
        p = z.softmax(axis=0)
        p_aux = Tensor(aux).softmax(axis=0)
        if loss_kind == "shannon":
            loss = shannon_entropy_loss(p, mask)
        elif loss_kind == "kl":
            loss = adjusted_kl_loss(p_aux, p, mask, gamma)
        elif loss_kind == "focal":
            # FD on the perturbed branch: the weak branch is held fixed, so
            # the stop-gradient inside the loss does not bias the check.
            loss = unsupervised_focal_loss(p_aux, p, mask, gamma)
        elif loss_kind == "ce":
            loss = supervised_ce_loss(p, labels)
        elif loss_kind == "focal_sup":
            loss = supervised_focal_loss(p, labels, gamma)
        else:
            loss = maximum_square_loss(p, mask)
        return z, loss

    z, loss = compute(z0.ravel())
    loss.backward()
    fd = fd_gradient(lambda flat: compute(flat)[1].item(), z0.ravel())
    assert rel_error(z.grad, fd.reshape(c, n)) < 1e-4


# ------------------------------------- fused terms against their op chains

def _chain_log(p):
    return p.clamp(1e-8, 1.0).log()


# Each per-pixel term is one autodiff node; these engine-op chains are what
# it fuses, kept here as its reference.  Arguments: the map under test (a
# leaf), a constant map (the adjusted KL's soft pseudo label), a one-hot
# label map and gamma.
FUSED_AND_CHAIN = {
    "entropy": (
        lambda p, q, y, gamma: _entropy_terms(p),
        lambda p, q, y, gamma: -(p * _chain_log(p)).sum(axis=0)),
    "adjusted_kl": (
        lambda p, q, y, gamma: _adjusted_kl_terms(q, p, gamma),
        lambda p, q, y, gamma: (q * (_chain_log(q) - ((1.0 - p) ** gamma) * _chain_log(p))).sum(axis=0)),
    "cross_entropy": (
        lambda p, q, y, gamma: _cross_entropy_terms(p, y),
        lambda p, q, y, gamma: -(Tensor(y) * _chain_log(p)).sum(axis=0)),
    "max_square": (
        lambda p, q, y, gamma: _max_square_terms(p),
        lambda p, q, y, gamma: -(p * p).sum(axis=0) * 0.5),
}

# probabilities of exactly 0, epsilon (where the clamp stops passing gradient)
# or 1 as well as interior values
MAP_ENTRIES = st.one_of(st.sampled_from([0.0, 1e-8, 1.0]), st.floats(0.0, 1.0))
# gamma at 0 (a constant damping factor), in (0, 1) and at or above 1
TERM_GAMMAS = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        st.floats(1.0, 4.0))


@pytest.mark.parametrize("kind", sorted(FUSED_AND_CHAIN))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), gamma=TERM_GAMMAS, dtype=st.sampled_from([np.float32, np.float64]))
def test_fused_terms_equal_the_op_chain_bit_for_bit(kind, data, gamma, dtype):
    c, n = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 70))
    p0, q0 = (data.draw(arrays(np.float64, (c, n), elements=MAP_ENTRIES)).astype(dtype)
              for _ in range(2))
    labels = data.draw(arrays(np.int64, n, elements=st.sampled_from([*range(c), IGNORE_LABEL])))
    onehot = _one_hot(labels, c, dtype)[0]
    mask = data.draw(st.one_of(st.just(np.zeros(n, dtype=bool)), st.just(np.ones(n, dtype=bool)),
                               arrays(bool, n)))
    got = []
    for build in FUSED_AND_CHAIN[kind]:
        leaf = Tensor(p0, requires_grad=True)
        terms = build(leaf, Tensor(q0), onehot, gamma)
        loss = terms.masked_mean(mask)
        record = [terms.data.dtype, terms.data.tobytes(), loss.data.tobytes()]
        for _ in range(2):  # a second pass over the same graph accumulates
            loss.backward()
            record.append(leaf.grad.tobytes())
        got.append(record)
    assert got[0] == got[1]


def _one_hot_by_scatter(labels, num_classes, dtype):
    """``_one_hot`` as a ``put_along_axis`` scatter, kept as its reference."""
    valid = labels != IGNORE_LABEL
    onehot = np.zeros((num_classes,) + labels.shape, dtype=dtype)
    safe = np.where(valid, labels, 0)
    np.put_along_axis(onehot, safe[None], np.where(valid, 1.0, 0.0)[None], axis=0)
    return onehot, valid


@st.composite
def _class_count_and_labels(draw):
    c = draw(st.integers(2, 5))
    shape = draw(st.one_of(st.tuples(st.integers(1, 70)),
                           st.tuples(st.integers(1, 9), st.integers(1, 9))))
    label_dtype = draw(st.sampled_from([np.int64, np.uint8]))
    return c, draw(arrays(label_dtype, shape,
                          elements=st.sampled_from([*range(c), IGNORE_LABEL])))


# at 256 classes IGNORE (255) is also a class index, so only ``& valid`` keeps its row empty
_IGNORE_IS_A_CLASS = np.array([[0, 255, 254], [255, 7, 255]])


@settings(max_examples=100, deadline=None)
@given(case=_class_count_and_labels(), dtype=st.sampled_from([np.float32, np.float64]))
@example(case=(256, _IGNORE_IS_A_CLASS.astype(np.uint8)), dtype=np.float32)
@example(case=(256, _IGNORE_IS_A_CLASS), dtype=np.float64)
def test_one_hot_equals_the_put_along_axis_scatter(case, dtype):
    c, labels = case
    onehot, valid = _one_hot(labels, c, dtype)
    want_onehot, want_valid = _one_hot_by_scatter(labels, c, dtype)
    assert onehot.dtype == want_onehot.dtype and onehot.tobytes() == want_onehot.tobytes()
    assert np.array_equal(valid, want_valid)


def _tracked_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node.requires_grad and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("kind", ["shannon", "kl", "ce", "square"])
def test_masked_mean_loss_is_leaf_term_and_reduction(kind):
    rng = np.random.default_rng(13)
    leaf = Tensor(rng.random((3, 8)), requires_grad=True)
    mask = np.ones(8, dtype=bool)
    loss = {"shannon": lambda: shannon_entropy_loss(leaf, mask),
            "kl": lambda: adjusted_kl_loss(Tensor(rng.random((3, 8))), leaf, mask, gamma=2.0),
            "ce": lambda: supervised_ce_loss(leaf, rng.integers(0, 3, size=8)),
            "square": lambda: maximum_square_loss(leaf, mask)}[kind]()
    assert _tracked_nodes(loss) == 3


# ------------------------------------------------- properties at the edges

# probabilities of exactly 0 or 1 as well as interior values, and gamma in
# [0, 4] with its edges and the (0, 1) range, where (1 - p)**(gamma - 1) is
# infinite at p = 1
EDGE_PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
GAMMAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]), st.floats(0.0, 4.0))


def binary_map(first, requires_grad=False):
    """(2, N) leaf probability map with class-0 probabilities ``first``."""
    p = np.asarray(first, dtype=np.float64)
    return Tensor(np.stack([p, 1.0 - p]), requires_grad=requires_grad)


def test_unsupervised_focal_saturated_pixel_has_finite_gradient():
    # at p_star = 1 with gamma < 1, (1 - p)**(gamma - 1) is infinite where the flow is 0
    p_hat = Tensor([[0.9], [0.1]])
    p_star = Tensor([[1.0], [0.0]], requires_grad=True)
    loss = unsupervised_focal_loss(p_hat, p_star, FULL1, 0.5)
    loss.backward()
    assert loss.item() == pytest.approx(-0.1 * math.log(1e-8))
    assert np.all(np.isfinite(p_star.grad))
    assert p_star.grad[0, 0] == 0.0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), gamma=GAMMAS)
def test_unsupervised_focal_finite_value_and_gradient(data, gamma):
    n = data.draw(st.integers(1, 5))
    pixels = st.lists(EDGE_PROBS, min_size=n, max_size=n)
    p_hat = binary_map(data.draw(pixels), requires_grad=True)
    p_star = binary_map(data.draw(pixels), requires_grad=True)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    loss = unsupervised_focal_loss(p_hat, p_star, mask, gamma)
    loss.backward()
    assert np.isfinite(loss.item())
    assert np.all(np.isfinite(p_hat.grad)) and np.all(np.isfinite(p_star.grad))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), gamma=GAMMAS)
def test_supervised_focal_finite_value_and_gradient(data, gamma):
    n = data.draw(st.integers(1, 5))
    p = binary_map(data.draw(st.lists(EDGE_PROBS, min_size=n, max_size=n)),
                   requires_grad=True)
    labels = np.array(data.draw(st.lists(st.sampled_from([0, 1, IGNORE_LABEL]),
                                         min_size=n, max_size=n)))
    loss = supervised_focal_loss(p, labels, gamma)
    loss.backward()
    assert np.isfinite(loss.item())
    assert np.all(np.isfinite(p.grad))


# ---------------------------------------------------------- parameter checks

_TINY = 5e-324  # the smallest positive double


@pytest.mark.parametrize("gamma", [-1.0, -_TINY, float("nan"), float("inf")])
def test_every_focal_loss_rejects_a_negative_or_nan_gamma(gamma):
    p = Tensor([[1.0, 0.5], [0.0, 0.5]])
    mask, labels = np.ones(2, dtype=bool), np.array([0, 1])
    for call in (lambda: adjusted_kl_loss(p, p, mask, gamma),
                 lambda: unsupervised_focal_loss(p, p, mask, gamma),
                 lambda: supervised_focal_loss(p, labels, gamma)):
        with pytest.raises(ValueError, match="^gamma must be >= 0"):
            call()
    assert np.isfinite(unsupervised_focal_loss(p, p, mask, 0.0).item())
