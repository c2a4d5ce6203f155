import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segadapt.threshold import (
    ThresholdState,
    adaptive_mask,
    class_selection_distribution,
    confidence_and_argmax,
    ema_update,
    fixed_mask,
    per_sample_threshold,
    update,
)


def test_confidence_and_argmax_basic():
    p = np.array([[0.7], [0.3]])
    conf, lab = confidence_and_argmax(p)
    assert conf[0] == pytest.approx(0.7)
    assert lab[0] == 0


def test_confidence_tie_breaks_to_lowest_class():
    conf, lab = confidence_and_argmax(np.array([[0.5], [0.5]]))
    assert conf[0] == pytest.approx(0.5)
    assert lab[0] == 0


def test_confidence_one_hot():
    conf, _ = confidence_and_argmax(np.array([[0.0], [1.0]]))
    assert conf[0] == pytest.approx(1.0)


def test_per_sample_threshold_index_formula():
    # 10 confidences, alpha=0.8, b=0.8, d=8:
    # factor = 0.8 * exp(-1.6) ~= 0.16152, index floor(1.6152) = 1,
    # so the candidate threshold is the 2nd-largest confidence.
    state = ThresholdState.initial(1)
    conf = np.array([0.91, 0.55, 0.87, 0.42, 0.73, 0.66, 0.95, 0.31, 0.58, 0.80])
    labels = np.zeros(10, dtype=int)
    factor = 0.8 * math.exp(-1.6)
    assert math.floor(factor * 10) == 1
    alpha_prime = per_sample_threshold(conf, labels, state)
    assert alpha_prime[0] == pytest.approx(np.sort(conf)[::-1][1])
    assert alpha_prime[0] == pytest.approx(0.91)


def test_per_sample_threshold_alpha_one_uses_plain_proportion():
    state = ThresholdState.initial(1)
    state.alpha[:] = 1.0
    conf = np.linspace(0.99, 0.90, 10)
    alpha_prime = per_sample_threshold(conf, np.zeros(10, dtype=int), state)
    # exponent term is exp(0) = 1, index floor(0.8 * 10) = 8
    assert alpha_prime[0] == pytest.approx(np.sort(conf)[::-1][8])


def test_per_sample_threshold_empty_class_carries_forward():
    state = ThresholdState.initial(2)
    state.alpha = np.array([0.8, 0.65])
    conf = np.array([0.9, 0.7])
    labels = np.array([0, 0])
    alpha_prime = per_sample_threshold(conf, labels, state)
    assert alpha_prime[1] == pytest.approx(0.65)


def test_per_sample_threshold_index_clamped_to_list():
    state = ThresholdState.initial(1)
    state.alpha[:] = 1.0  # factor b -> index floor(0.8 * 1) = 0 for one pixel
    alpha_prime = per_sample_threshold(np.array([0.4]), np.zeros(1, dtype=int), state)
    assert alpha_prime[0] == pytest.approx(0.4)


def test_monotone_index_in_previous_alpha():
    conf = np.linspace(0.99, 0.01, 50)
    labels = np.zeros(50, dtype=int)
    picked = []
    for a_prev in (0.5, 0.7, 0.9, 1.0):
        state = ThresholdState.initial(1)
        state.alpha[:] = a_prev
        picked.append(per_sample_threshold(conf, labels, state)[0])
    # higher previous alpha -> larger index -> smaller selected confidence
    assert all(x >= y for x, y in zip(picked, picked[1:]))
    assert picked[0] > picked[-1]


def test_ema_update_arithmetic():
    state = ThresholdState.initial(2)
    new = ema_update(state, np.array([0.7, 0.9]))
    assert np.allclose(new, [0.79, 0.81])
    assert np.allclose(state.alpha, [0.79, 0.81])


def test_ema_fixed_point_and_full_memory():
    state = ThresholdState.initial(3)
    before = state.alpha.copy()
    ema_update(state, before.copy())
    assert np.allclose(state.alpha, before)
    frozen = ThresholdState.initial(3, a=1.0)
    ema_update(frozen, np.array([0.1, 0.2, 0.3]))
    assert np.allclose(frozen.alpha, 0.8)


def test_ema_length_mismatch():
    with pytest.raises(ValueError):
        ema_update(ThresholdState.initial(2), np.array([0.5]))


def test_alpha_boundedness_over_random_updates():
    rng = np.random.default_rng(0)
    state = ThresholdState.initial(4)
    for _ in range(10_000):
        n = int(rng.integers(1, 40))
        conf = rng.random(n)
        labels = rng.integers(0, 4, size=n)
        update(state, conf, labels)
        assert np.all(state.alpha >= 0.0) and np.all(state.alpha <= 1.0)


UNIT = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), a=UNIT, b=UNIT, d=st.floats(0.0, 20.0), t0=UNIT)
def test_alpha_stays_in_unit_interval_after_update(data, a, b, d, t0):
    state = ThresholdState.initial(3, a=a, b=b, d=d, t0=t0)
    for _ in range(data.draw(st.integers(1, 4))):
        n = data.draw(st.integers(1, 8))
        conf = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), UNIT), min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        update(state, conf, labels)
        assert np.all(state.alpha >= 0.0) and np.all(state.alpha <= 1.0)


def test_adaptive_mask_rule():
    conf = np.array([0.9, 0.6])
    labels = np.array([0, 1])
    mask = adaptive_mask(conf, labels, np.array([0.8, 0.7]))
    assert mask.tolist() == [True, False]
    assert adaptive_mask(conf, labels, np.zeros(2)).all()
    assert not adaptive_mask(conf, labels, np.ones(2)).any()


def test_adaptive_mask_strict_at_boundary():
    mask = adaptive_mask(np.array([0.8]), np.array([0]), np.array([0.8]))
    assert not mask[0]


def test_fixed_mask_rule():
    conf = np.array([0.85, 0.75])
    assert fixed_mask(conf, 0.8).tolist() == [True, False]
    assert fixed_mask(conf, 0.0).all()
    assert not fixed_mask(conf, 1.0).any()


def test_class_selection_distribution_properties():
    uniform = class_selection_distribution(np.full(4, 0.8))
    assert np.allclose(uniform, 0.25)
    skew = class_selection_distribution(np.array([0.9, 0.1]))
    assert skew[1] > skew[0]
    base = class_selection_distribution(np.array([0.2, 0.5, 0.8]))
    shifted = class_selection_distribution(np.array([0.2, 0.5, 0.8]) + 0.3)
    assert np.allclose(base, shifted, atol=1e-12)
    assert base.sum() == pytest.approx(1.0, abs=1e-12)


def test_hard_class_relief_after_one_update():
    # A class whose confidences all sit below the initial threshold gets no
    # pixels through the fixed mask, but one adaptive update already lowers
    # its bar enough to admit the top of the distribution.
    conf = np.linspace(0.3, 0.799, 10_000)
    labels = np.zeros(conf.size, dtype=int)
    state = ThresholdState.initial(1)
    assert not fixed_mask(conf, state.t0).any()
    update(state, conf, labels)
    relieved = adaptive_mask(conf, labels, state.alpha)
    assert relieved.sum() > 0


def test_update_pipeline_deterministic():
    rng = np.random.default_rng(1)
    conf = rng.random(200)
    labels = rng.integers(0, 3, size=200)
    a = ThresholdState.initial(3)
    b = ThresholdState.initial(3)
    update(a, conf, labels)
    update(b, conf, labels)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(adaptive_mask(conf, labels, a.alpha),
                          adaptive_mask(conf, labels, b.alpha))
