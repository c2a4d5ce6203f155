import csv
import math

import numpy as np
import pytest

from segadapt.autodiff import Tensor, concat
from segadapt.gradcurves import KINDS, Curve, curve, emit_csv, find_global_min
from segadapt.losses import maximum_square_loss, shannon_entropy_loss, unsupervised_focal_loss


def closed_form_focal(p, a=0.6, gamma=2.0):
    """Independent scalar formula for the binary focal curve value."""
    return -(a * (1 - p) ** gamma * math.log(p)
             + (1 - a) * p ** gamma * math.log(1 - p))


def closed_form_focal_grad(p, a=0.6):
    # d/dp of the gamma=2 case, derived by hand
    return (-a * (-2 * (1 - p) * math.log(p) + (1 - p) ** 2 / p)
            - (1 - a) * (2 * p * math.log(1 - p) - p * p / (1 - p)))


def sample_at(curve_obj, p):
    for s in curve_obj.samples:
        if abs(s.p - p) < 1e-12:
            return s
    raise AssertionError(f"grid point {p} missing")


@pytest.fixture(scope="module")
def curves():
    return {kind: curve(kind) for kind in KINDS}


def test_default_grid_contains_reference_points(curves):
    for p in (0.5, 0.55, 0.95):
        sample_at(curves["shannon"], p)


def test_shannon_uniform_point(curves):
    s = sample_at(curves["shannon"], 0.5)
    assert s.loss == pytest.approx(math.log(2), abs=1e-12)
    assert abs(s.grad) < 1e-12


def test_shannon_boundary_minima(curves):
    c = curves["shannon"]
    losses = [s.loss for s in c.samples]
    assert int(np.argmin(losses)) in (0, len(losses) - 1)
    assert c.samples[0].loss < 0.005 and c.samples[-1].loss < 0.005


def test_maxsquare_saddle_and_boundary_minimum(curves):
    c = curves["maxsquare"]
    s = sample_at(c, 0.5)
    assert s.loss == pytest.approx(-0.25, abs=1e-12)
    assert abs(s.grad) < 1e-10
    losses = [x.loss for x in c.samples]
    assert int(np.argmin(losses)) in (0, len(losses) - 1)


def test_focal_matches_closed_form(curves):
    c = curves["focal"]
    for p in (0.3, 0.5, 0.7, 0.9):
        s = sample_at(c, p)
        assert s.loss == pytest.approx(closed_form_focal(p), abs=1e-12)
        assert s.grad == pytest.approx(closed_form_focal_grad(p), abs=1e-9)


def test_focal_gradient_nonzero_at_half(curves):
    s = sample_at(curves["focal"], 0.5)
    assert abs(s.grad) > 0.1
    assert s.grad == pytest.approx(closed_form_focal_grad(0.5), abs=1e-9)


def test_focal_global_minimum_interior(curves):
    p_star = find_global_min(curves["focal"])
    assert 0.5 < p_star < 1.0
    # independent oracle: dense grid search on the closed-form expression
    dense = np.linspace(0.01, 0.99, 98001)
    oracle = dense[np.argmin([closed_form_focal(p) for p in dense])]
    assert p_star == pytest.approx(oracle, abs=1e-3)


def test_shannon_gradient_biased_toward_easy_pixels(curves):
    c = curves["shannon"]
    easy = abs(sample_at(c, 0.95).grad)
    hard = abs(sample_at(c, 0.55).grad)
    assert easy > hard


def test_find_global_min_refines_to_tolerance():
    c = curve("focal", grid=199)  # coarse grid, refinement does the work
    fine = curve("focal", grid=1999)
    assert find_global_min(c) == pytest.approx(find_global_min(fine), abs=2e-3)


def test_find_global_min_rejects_empty():
    with pytest.raises(ValueError):
        find_global_min(Curve(kind="shannon", p_hat=0.6, gamma=2.0, samples=[]))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_find_global_min_rejects_a_tol_that_never_stops_the_search(tol):
    with pytest.raises(ValueError, match="^tol must be finite and > 0"):
        find_global_min(curve("focal", grid=11), tol=tol)


def test_find_global_min_stops_at_a_tol_below_the_float_spacing():
    c = curve("focal", grid=11)
    assert find_global_min(c, tol=5e-324) == pytest.approx(find_global_min(c), abs=1e-4)


def test_curve_input_validation():
    with pytest.raises(ValueError):
        curve("unknown")
    with pytest.raises(ValueError):
        curve("shannon", grid=2)
    with pytest.raises(ValueError):
        curve("focal", p_hat=1.0)


def test_emit_csv_round_trip(tmp_path, curves):
    path = tmp_path / "curves.csv"
    emit_csv([curves[k] for k in KINDS], path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(KINDS) * len(curves["shannon"].samples)
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["loss_kind"], []).append(row)
    for kind in KINDS:
        for row, sample in zip(by_kind[kind], curves[kind].samples):
            # 17 significant digits survive the text round trip exactly
            assert float(row["p"]) == sample.p
            assert float(row["loss"]) == sample.loss
            assert float(row["grad"]) == sample.grad


def test_csv_gradients_match_column_finite_differences():
    # Column-based central differences on a grid fine enough that the
    # truncation error stays below the tolerance at interior points.
    for kind in KINDS:
        c = curve(kind, grid=2001, lo=0.3, hi=0.7)
        p = np.array([s.p for s in c.samples])
        loss = np.array([s.loss for s in c.samples])
        grad = np.array([s.grad for s in c.samples])
        fd = (loss[2:] - loss[:-2]) / (p[2:] - p[:-2])
        assert np.max(np.abs(fd - grad[1:-1])) < 1e-6


def one_pixel_graph(kind, p, p_hat, gamma):
    """Loss and gradient at ``p`` from a one-pixel graph through the public loss."""
    leaf = Tensor(np.array([[p]]), requires_grad=True)
    dist = concat([leaf, 1.0 - leaf], axis=0)
    full = np.array([True])
    if kind == "shannon":
        loss = shannon_entropy_loss(dist, full)
    elif kind == "maxsquare":
        loss = maximum_square_loss(dist, full)
    else:
        estimate = Tensor(np.array([[p_hat], [1.0 - p_hat]]))
        loss = unsupervised_focal_loss(estimate, dist, full, gamma)
    loss.backward()
    return loss.item(), float(leaf.grad[0, 0])


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("kind", KINDS)
def test_curve_points_equal_one_pixel_graphs(kind, gamma):
    p_hat = 0.7
    c = curve(kind, p_hat=p_hat, gamma=gamma)
    ps = np.array([s.p for s in c.samples])
    near = int(np.argmin(np.abs(ps - p_hat)))
    half = int(np.flatnonzero(ps == 0.5)[0])
    for i in (0, len(ps) - 1, half, near - 1, near, near + 1):
        s = c.samples[i]
        assert (s.loss, s.grad) == one_pixel_graph(kind, s.p, p_hat, gamma), s.p
    # every point of a coarse curve, out to p = 0 and 1 where the clamp takes over;
    # repr also tells -0.0 from 0.0, which == does not
    for s in curve(kind, p_hat=p_hat, gamma=gamma, grid=101, lo=0.0, hi=1.0).samples:
        expected = one_pixel_graph(kind, s.p, p_hat, gamma)
        assert (s.loss, s.grad) == expected, s.p
        assert repr((s.loss, s.grad)) == repr(expected), s.p


def test_curve_makes_one_backward_per_curve(monkeypatch):
    calls = []
    backward = Tensor.backward

    def counting(self):
        calls.append(self)
        return backward(self)

    monkeypatch.setattr(Tensor, "backward", counting)
    for kind in KINDS:
        calls.clear()
        curve(kind)
        assert len(calls) == 1, kind


@pytest.mark.parametrize("gamma", [-0.5, float("nan")])
def test_curve_rejects_a_gamma_the_focal_loss_rejects(gamma):
    with pytest.raises(ValueError, match="^gamma must be >= 0"):
        curve("focal", gamma=gamma)

