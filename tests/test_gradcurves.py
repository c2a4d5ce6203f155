import csv
import hashlib
import math

import numpy as np
import pytest

from segadapt.autodiff import Tensor, concat
from segadapt.cli import main
from segadapt.gradcurves import KINDS, Curve, _points, curve, emit_csv, find_global_min
from segadapt.losses import maximum_square_loss, shannon_entropy_loss, unsupervised_focal_loss

from _kernels import numeric_kernels
from _netpbm import csv_by_rows

# the (p_hat, gamma) settings of the benchmark's landscape workload
LANDSCAPE = [(p_hat, gamma) for p_hat in (0.55, 0.6, 0.7, 0.8, 0.9)
             for gamma in (0.5, 1.0, 2.0, 4.0)]
# sha256 of the 20 `gradcurves --kind all --grid 1999` CSVs of LANDSCAPE, concatenated in
# its order; these float64 bytes move with numpy's dispatch level, not with BLAS
LANDSCAPE_SHA256 = "c38ed890dee9f960fd97addd70a76297d595adb42288ff79bd7f48294bf8490b"


def closed_form_focal(p, a=0.6, gamma=2.0):
    """Independent scalar formula for the binary focal curve value."""
    return -(a * (1 - p) ** gamma * math.log(p)
             + (1 - a) * p ** gamma * math.log(1 - p))


def closed_form_focal_grad(p, a=0.6):
    # d/dp of the gamma=2 case, derived by hand
    return (-a * (-2 * (1 - p) * math.log(p) + (1 - p) ** 2 / p)
            - (1 - a) * (2 * p * math.log(1 - p) - p * p / (1 - p)))


def sample_at(curve_obj, p):
    """(loss, grad) at the grid point ``p``."""
    hits = np.flatnonzero(np.abs(curve_obj.p - p) < 1e-12)
    if not hits.size:
        raise AssertionError(f"grid point {p} missing")
    return curve_obj.loss[hits[0]], curve_obj.grad[hits[0]]


@pytest.fixture(scope="module")
def curves():
    return {kind: curve(kind) for kind in KINDS}


def test_default_grid_contains_reference_points(curves):
    for p in (0.5, 0.55, 0.95):
        sample_at(curves["shannon"], p)


def test_shannon_uniform_point(curves):
    loss, grad = sample_at(curves["shannon"], 0.5)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    assert abs(grad) < 1e-12


def test_shannon_boundary_minima(curves):
    c = curves["shannon"]
    assert int(np.argmin(c.loss)) in (0, c.loss.size - 1)
    assert c.loss[0] < 0.005 and c.loss[-1] < 0.005


def test_maxsquare_saddle_and_boundary_minimum(curves):
    c = curves["maxsquare"]
    loss, grad = sample_at(c, 0.5)
    assert loss == pytest.approx(-0.25, abs=1e-12)
    assert abs(grad) < 1e-10
    assert int(np.argmin(c.loss)) in (0, c.loss.size - 1)


def test_focal_matches_closed_form(curves):
    c = curves["focal"]
    for p in (0.3, 0.5, 0.7, 0.9):
        loss, grad = sample_at(c, p)
        assert loss == pytest.approx(closed_form_focal(p), abs=1e-12)
        assert grad == pytest.approx(closed_form_focal_grad(p), abs=1e-9)


def test_focal_gradient_nonzero_at_half(curves):
    _, grad = sample_at(curves["focal"], 0.5)
    assert abs(grad) > 0.1
    assert grad == pytest.approx(closed_form_focal_grad(0.5), abs=1e-9)


def test_focal_global_minimum_interior(curves):
    p_star = find_global_min(curves["focal"])
    assert 0.5 < p_star < 1.0
    # independent oracle: dense grid search on the closed-form expression
    dense = np.linspace(0.01, 0.99, 98001)
    oracle = dense[np.argmin([closed_form_focal(p) for p in dense])]
    assert p_star == pytest.approx(oracle, abs=1e-3)


def test_shannon_gradient_biased_toward_easy_pixels(curves):
    c = curves["shannon"]
    easy = abs(sample_at(c, 0.95)[1])
    hard = abs(sample_at(c, 0.55)[1])
    assert easy > hard


def test_find_global_min_refines_to_tolerance():
    c = curve("focal", grid=199)  # coarse grid, refinement does the work
    fine = curve("focal", grid=1999)
    assert find_global_min(c) == pytest.approx(find_global_min(fine), abs=2e-3)


def test_find_global_min_rejects_empty():
    with pytest.raises(ValueError):
        empty = np.empty(0)
        find_global_min(Curve(kind="shannon", p_hat=0.6, gamma=2.0, p=empty, loss=empty,
                              grad=empty))


def test_curve_input_validation():
    with pytest.raises(ValueError):
        curve("unknown")
    with pytest.raises(ValueError):
        curve("shannon", grid=2)
    with pytest.raises(ValueError):
        curve("focal", p_hat=1.0)
    # the grid bounds: both finite and 0 <= lo < hi <= 1, each named when it fails
    nan, inf = float("nan"), float("inf")
    for name, bounds in [("lo", {"lo": nan}), ("lo", {"lo": -0.5}), ("lo", {"lo": inf}),
                         ("lo", {"lo": 1.0, "hi": 1.0}), ("hi", {"hi": inf}), ("hi", {"hi": nan}),
                         ("hi", {"hi": 1.0 + 1e-12}), ("hi", {"lo": 0.9, "hi": 0.1}),
                         ("hi", {"lo": 0.5, "hi": 0.5})]:
        for kind in KINDS:
            with pytest.raises(ValueError, match=f"^{name} must"):
                curve(kind, grid=11, **bounds)
    for kind in KINDS:  # just inside: the closed ends of [0, 1]
        c = curve(kind, grid=11, lo=0.0, hi=1.0)
        assert c.p[0] == 0.0 and c.p[-1] == 1.0


def test_emit_csv_round_trip(tmp_path, curves):
    path = tmp_path / "curves.csv"
    emit_csv([curves[k] for k in KINDS], path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(KINDS) * curves["shannon"].p.size
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["loss_kind"], []).append(row)
    for kind in KINDS:
        # 17 significant digits survive the text round trip exactly
        for name in ("p", "loss", "grad"):
            column = np.array([float(row[name]) for row in by_kind[kind]])
            assert np.array_equal(column, getattr(curves[kind], name)), (kind, name)


def curve_rows(curves):
    """``loss_kind,p,loss,grad`` rows of ``curves``, one value at a time."""
    return [(c.kind, *point) for c in curves
            for point in zip(c.p.tolist(), c.loss.tolist(), c.grad.tolist())]


def test_gradcurves_cli_writes_the_bytes_of_the_row_by_row_rule(tmp_path, capsys):
    # every setting of the benchmark's landscape, at its grid of 1999 points
    path = tmp_path / "curves.csv"
    for p_hat, gamma in LANDSCAPE:
        assert main(["gradcurves", "--kind", "all", "--p-hat", str(p_hat), "--gamma", str(gamma),
                     "--grid", "1999", "--out", str(path)]) == 0
        rows = curve_rows([curve(kind, p_hat=p_hat, gamma=gamma) for kind in KINDS])
        assert path.read_bytes() == csv_by_rows("loss_kind,p,loss,grad", rows), (p_hat, gamma)
    capsys.readouterr()


def test_landscape_csvs_keep_their_recorded_sha256(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "curves.csv"
    for p_hat, gamma in LANDSCAPE:
        assert main(["gradcurves", "--kind", "all", "--p-hat", str(p_hat), "--gamma", str(gamma),
                     "--grid", "1999", "--out", str(path)]) == 0
        digest.update(path.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == LANDSCAPE_SHA256, (
        "landscape bytes changed (OpenBLAS core {}, numpy dispatch {}); a change that alters "
        "them must say why in CHANGES.md and record the new sha256".format(*numeric_kernels()))


def test_emit_csv_formats_curves_on_different_grids_by_the_row_by_row_rule(tmp_path):
    # a grid shared by several curves is formatted once; curves on other grids, of other
    # sizes or of the same size over other bounds, keep their own text
    small, large = curve("shannon", grid=11), curve("focal", grid=21)
    inner = curve("maxsquare", grid=11, lo=0.25, hi=0.75)
    path = tmp_path / "curves.csv"
    for curves in ([small, large], [small, inner, small], [large, small, large, inner],
                   [curve(kind, grid=11) for kind in KINDS], [inner], []):
        emit_csv(curves, path)
        assert path.read_bytes() == csv_by_rows("loss_kind,p,loss,grad", curve_rows(curves))
    # grids equal as floats but not as bytes: -0.0 prints as -0, 0.0 as 0
    signed = [Curve("shannon", 0.6, 2.0, np.array([sign * 0.0, 0.5]), np.zeros(2), np.ones(2))
              for sign in (-1.0, 1.0, -1.0)]
    emit_csv(signed, path)
    assert path.read_bytes() == csv_by_rows("loss_kind,p,loss,grad", curve_rows(signed))
    assert path.read_text().splitlines()[1::2] == ["shannon,-0,0,1", "shannon,0,0,1",
                                                   "shannon,-0,0,1"]


@pytest.mark.parametrize("grid", [5.0, 11.0, True, False, "11", None])
def test_curve_rejects_a_grid_that_is_not_an_int(grid):
    with pytest.raises(ValueError, match=f"^grid must be an int, got {grid}$"):
        curve("shannon", grid=grid)


@pytest.mark.parametrize("grid", [11, np.int64(11), np.int32(11), np.uint16(11)])
def test_curve_takes_any_integer_grid(grid):
    c = curve("focal", grid=grid)
    assert c.p.size == 11 and np.array_equal(c.p, curve("focal", grid=11).p)


def test_csv_gradients_match_column_finite_differences():
    # Column-based central differences on a grid fine enough that the
    # truncation error stays below the tolerance at interior points.
    for kind in KINDS:
        c = curve(kind, grid=2001, lo=0.3, hi=0.7)
        fd = (c.loss[2:] - c.loss[:-2]) / (c.p[2:] - c.p[:-2])
        assert np.max(np.abs(fd - c.grad[1:-1])) < 1e-6


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
    near = int(np.argmin(np.abs(c.p - p_hat)))
    half = int(np.flatnonzero(c.p == 0.5)[0])
    for i in (0, c.p.size - 1, half, near - 1, near, near + 1):
        p, point = float(c.p[i]), (float(c.loss[i]), float(c.grad[i]))
        assert point == one_pixel_graph(kind, p, p_hat, gamma), p
    # every point of a coarse curve, out to p = 0 and 1 where the clamp takes over;
    # repr also tells -0.0 from 0.0, which == does not
    coarse = curve(kind, p_hat=p_hat, gamma=gamma, grid=101, lo=0.0, hi=1.0)
    for p, point in zip(coarse.p.tolist(), zip(coarse.loss.tolist(), coarse.grad.tolist())):
        expected = one_pixel_graph(kind, p, p_hat, gamma)
        assert point == expected, p
        assert repr(point) == repr(expected), p


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


@pytest.mark.parametrize("gamma", [-0.5, float("nan"), float("inf")])
def test_curve_rejects_a_gamma_the_focal_loss_rejects(gamma):
    with pytest.raises(ValueError, match="^gamma must be >= 0"):
        curve("focal", gamma=gamma)



def golden_section_with_backward(c, tol=1e-4):
    """The golden-section search as it ran with a backward per evaluation: the oracle."""
    ps = c.p.tolist()
    i = int(np.argmin(c.loss.tolist()))
    lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]

    def value(p):
        leaf = Tensor(np.array([p])[None, :], requires_grad=True)
        terms, loss = _points(c.kind, leaf, c.p_hat, c.gamma)
        terms.sum().backward()
        return loss[0]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x, y = b - invphi * (b - a), a + invphi * (b - a)
    fx, fy = value(x), value(y)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if fx < fy:
            b, y, fy = y, x, fx
            x = b - invphi * (b - a)
            fx = value(x)
        else:
            a, x, fx = x, y, fy
            y = a + invphi * (b - a)
            fy = value(y)
    return float((a + b) / 2.0)


def test_find_global_min_runs_no_backward_and_keeps_the_minima_bit_for_bit(monkeypatch):
    curves = [curve(kind, p_hat=p_hat, gamma=gamma) for p_hat, gamma in LANDSCAPE for kind in KINDS]
    expected = [golden_section_with_backward(c) for c in curves]
    calls = []
    backward = Tensor.backward

    def counting(self):
        calls.append(self)
        return backward(self)

    monkeypatch.setattr(Tensor, "backward", counting)
    found = [find_global_min(c) for c in curves]
    assert not calls
    assert [repr(p) for p in found] == [repr(p) for p in expected]
