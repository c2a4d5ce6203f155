import zlib

import numpy as np
import pytest

from segadapt.autodiff import (
    Tensor,
    ShapeMismatchError,
    concat,
    linear,
    take_cols,
)

from _fd import fd_gradient, rel_error


def test_add_values():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
    assert np.allclose(out.data, [4.0, 6.0])


def test_mul_by_zero_scalar_annihilates_value_and_gradient():
    x = Tensor([1.5, -2.0], requires_grad=True)
    out = (x * 0.0).sum()
    out.backward()
    assert np.all(out.data == 0.0)
    assert np.all(x.grad == 0.0)


def test_div_by_zero_follows_ieee():
    with np.errstate(divide="ignore"):
        out = Tensor([1.0]) / Tensor([0.0])
    assert np.isinf(out.data[0])


def test_shape_mismatch_error_names_both_shapes():
    with pytest.raises(ShapeMismatchError) as exc:
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))
    assert "(2, 3)" in str(exc.value) and "(3, 2)" in str(exc.value)


def test_scalar_broadcast_both_sides():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    out = (2.0 * x + 1.0).sum()
    out.backward()
    assert np.allclose(x.grad, [2.0, 2.0, 2.0])


def test_log_exp_pow_unit_values():
    assert np.allclose(Tensor([1.0]).log().data, [0.0])
    assert np.allclose(Tensor([0.0]).exp().data, [1.0])
    assert np.allclose((Tensor([0.5]) ** 2) .data, [0.25])


def test_pow_zero_exponent_is_constant_one():
    x = Tensor([0.3, 0.9], requires_grad=True)
    out = x ** 0
    assert np.allclose(out.data, 1.0)
    assert not out.requires_grad


def test_matmul_identity_and_small_product():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = Tensor(np.eye(2)) @ Tensor(x)
    assert np.allclose(out.data, x)
    prod = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    assert np.allclose(prod.data, [[11.0]])


def test_matmul_inner_mismatch():
    with pytest.raises(ShapeMismatchError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a0 = rng.uniform(-2, 2, size=(3, 4))
    b0 = rng.uniform(-2, 2, size=(4, 2))

    def loss_of_a(flat):
        return float(((flat.reshape(3, 4) @ b0) ** 2).sum())

    def loss_of_b(flat):
        return float(((a0 @ flat.reshape(4, 2)) ** 2).sum())

    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    ((a @ b) * (a @ b)).sum().backward()
    assert rel_error(a.grad, fd_gradient(loss_of_a, a0.ravel()).reshape(3, 4)) < 1e-6
    assert rel_error(b.grad, fd_gradient(loss_of_b, b0.ravel()).reshape(4, 2)) < 1e-6


def test_softmax_is_valid_distribution():
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(5, 7)))
    p = z.softmax(axis=0)
    assert np.all(p.data > 0.0) and np.all(p.data < 1.0)
    assert np.allclose(p.data.sum(axis=0), 1.0, atol=1e-10)


def test_softmax_symmetry_and_shift_invariance():
    p = Tensor([0.0, 0.0]).softmax(axis=0)
    assert np.allclose(p.data, [0.5, 0.5])
    z = np.array([1.0, 2.0, 3.0])
    a = Tensor(z).softmax(axis=0).data
    b = Tensor(z + 100.0).softmax(axis=0).data
    assert np.allclose(a, b, atol=1e-12)
    assert abs(a.sum() - 1.0) < 1e-12


def test_detach_blocks_gradient_but_keeps_values():
    x = Tensor([2.0, 3.0], requires_grad=True)
    y = Tensor([5.0, 7.0], requires_grad=True)
    out = (x.detach() * y).sum()
    out.backward()
    assert np.all(x.grad == 0.0)
    assert np.allclose(y.grad, x.data)
    assert np.allclose(x.detach().detach().data, x.data)


def test_detach_changes_parameter_gradient():
    # The same bilinear expression with and without stop-gradient on one
    # factor must produce different gradients for the underlying leaf.
    rng = np.random.default_rng(11)
    v = rng.uniform(0.5, 1.5, size=4)

    x = Tensor(v, requires_grad=True)
    (x * x).sum().backward()
    full = x.grad.copy()

    x2 = Tensor(v, requires_grad=True)
    (x2.detach() * x2).sum().backward()
    assert not np.allclose(full, x2.grad)


def test_masked_mean_values_and_conventions():
    t = Tensor([1.0, 2.0, 3.0, 4.0])
    assert t.masked_mean(np.array([1, 1, 0, 0], dtype=bool)).item() == pytest.approx(1.5)
    assert t.masked_mean(np.ones(4, dtype=bool)).item() == pytest.approx(2.5)
    x = Tensor([1.0, 2.0], requires_grad=True)
    empty = (x * 3.0).masked_mean(np.zeros(2, dtype=bool))
    assert empty.item() == 0.0
    assert not empty.requires_grad
    assert np.all(x.grad == 0.0)


def test_masked_mean_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        Tensor([1.0, 2.0]).masked_mean(np.ones(3, dtype=bool))


def test_backward_simple_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        (x * x).backward()


def test_backward_unrelated_leaf_gets_zero():
    x = Tensor([1.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    (y * y).sum().backward()
    assert np.all(x.grad == 0.0)


def test_shared_subexpression_accumulates():
    x = Tensor([3.0], requires_grad=True)
    y = x + x
    y.sum().backward()
    assert np.allclose(x.grad, [2.0])
    a = Tensor([0.5], requires_grad=True)
    s = a + a
    (s * s).sum().backward()  # d/da (2a)^2 = 8a, through a shared interior node
    assert np.array_equal(a.grad, [4.0])
    u = Tensor([3.0, -1.0], requires_grad=True)
    v = Tensor([2.0, 5.0], requires_grad=True)
    (u * v + u).sum().backward()
    assert np.array_equal(u.grad, [3.0, 6.0])  # v + 1
    assert np.array_equal(v.grad, [3.0, -1.0])  # u


def test_intermediate_nodes_keep_no_gradient():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    w = Tensor([[0.5], [-1.0]], requires_grad=True)
    b = Tensor([0.25], requires_grad=True)
    hidden = linear(x, w, b)
    act = hidden.tanh()
    loss = (act * act).sum()
    loss.backward()
    for node in (hidden, act, loss):
        assert node.requires_grad and node._parents
        assert node.grad is None
    loss.zero_grad()
    assert loss.grad is None
    for leaf in (x, w, b):
        assert leaf.grad is not None and np.all(leaf.grad != 0.0)


def test_repeated_backward_accumulates_until_zeroed():
    x = Tensor([2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    loss.backward()
    assert np.allclose(x.grad, [8.0])
    x.zero_grad()
    assert np.array_equal(x.grad, [0.0])
    loss.backward()
    assert np.allclose(x.grad, [4.0])
    (x * 3.0).sum().backward()  # a second graph over the same leaf adds on
    assert np.array_equal(x.grad, [7.0])


def test_concat_and_take_cols_gradients():
    a = Tensor([[1.0]], requires_grad=True)
    b = Tensor([[2.0]], requires_grad=True)
    stacked = concat([a, b], axis=0)
    assert stacked.shape == (2, 1)
    (stacked * Tensor([[3.0], [5.0]])).sum().backward()
    assert np.allclose(a.grad, [[3.0]])
    assert np.allclose(b.grad, [[5.0]])

    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    perm = np.array([2, 0, 1])
    y = take_cols(x, perm)
    assert np.allclose(y.data, x.data[:, perm])
    (y * Tensor(np.ones((2, 3)))).sum().backward()
    assert np.allclose(x.grad, np.ones((2, 3)))

    # repeated columns (1 twice; 2 once directly and once as -1) accumulate
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    rep = take_cols(x, [1, 1, -1, 2, 0])
    assert np.array_equal(rep.data, x.data[:, [1, 1, 2, 2, 0]])
    w = np.arange(10.0).reshape(2, 5)
    (rep * Tensor(w)).sum().backward()
    assert np.array_equal(x.grad, np.stack([w[:, 4], w[:, 0] + w[:, 1], w[:, 2] + w[:, 3]], axis=1))


def test_linear_gradients():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-2.0, 2.0, size=(4, 3))
    w0 = rng.uniform(-1.0, 1.0, size=(3, 2))
    b0 = rng.uniform(-1.0, 1.0, size=2)
    weights = rng.uniform(-1.0, 1.0, size=(4, 2))
    x = Tensor(x0, requires_grad=True)
    w = Tensor(w0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    out = linear(x, w, b)
    assert np.array_equal(out.data, x0 @ w0 + b0[None, :])
    ((out * out) * Tensor(weights)).sum().backward()

    def loss(xv, wv, bv):
        y = xv @ wv + bv[None, :]
        return float((y * y * weights).sum())

    fd_x = fd_gradient(lambda f: loss(f.reshape(4, 3), w0, b0), x0.ravel()).reshape(4, 3)
    fd_w = fd_gradient(lambda f: loss(x0, f.reshape(3, 2), b0), w0.ravel()).reshape(3, 2)
    fd_b = fd_gradient(lambda f: loss(x0, w0, f), b0)
    assert rel_error(x.grad, fd_x) < 1e-6
    assert rel_error(w.grad, fd_w) < 1e-6
    assert rel_error(b.grad, fd_b) < 1e-6


def test_linear_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        linear(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeMismatchError):
        linear(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


OP_NAMES = ["add", "sub", "mul", "div", "log", "exp", "pow", "tanh",
            "clamp", "softmax", "sum_axis", "masked_mean", "linear", "take_cols"]


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_op_gradient_vs_finite_differences(name):
    # Random inputs in [-2, 2] (shifted positive for log), eps=1e-5,
    # double precision; rel-err < 1e-4 overall, < 1e-6 for linear ops.
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # same inputs in every interpreter
    x0 = rng.uniform(-2.0, 2.0, size=(3, 5))
    other = rng.uniform(0.5, 2.0, size=(3, 5))
    mask = rng.random((3, 5)) < 0.6
    cols = rng.integers(0, 5, size=5)
    weight = rng.uniform(-1.0, 1.0, size=(5, 5))
    bias = rng.uniform(-1.0, 1.0, size=5)
    is_linear = name in ("add", "sub", "sum_axis", "linear", "take_cols")

    def build(values):
        t = Tensor(values, requires_grad=True)
        if name == "add":
            out = t + Tensor(other)
        elif name == "sub":
            out = Tensor(other) - t
        elif name == "mul":
            out = t * Tensor(other)
        elif name == "div":
            out = t / Tensor(other)
        elif name == "log":
            out = (t + 4.0).log()
        elif name == "exp":
            out = t.exp()
        elif name == "pow":
            out = (t + 4.0) ** 1.7
        elif name == "tanh":
            out = t.tanh()
        elif name == "clamp":
            out = t.clamp(-1.3, 1.3)
        elif name == "softmax":
            out = t.softmax(axis=0)
        elif name == "sum_axis":
            return t, t.sum(axis=1)
        elif name == "masked_mean":
            return t, t.masked_mean(mask)
        elif name == "linear":
            out = linear(t, Tensor(weight), Tensor(bias))
        elif name == "take_cols":
            out = take_cols(t, cols)
        else:
            raise AssertionError(name)
        return t, out

    weights = rng.uniform(-1.0, 1.0, size=(3, 5))

    def scalarize(out):
        if out.size == 1:
            return out if out.shape == () else out.sum()
        w = weights.ravel()[: out.size].reshape(out.shape)
        return (out * Tensor(w)).sum()

    leaf, out = build(x0)
    loss = scalarize(out)
    loss.backward()

    def value(flat):
        _, o = build(flat.reshape(3, 5))
        return scalarize(o).item()

    fd = fd_gradient(value, x0.ravel(), eps=1e-5).reshape(3, 5)
    tol = 1e-6 if is_linear else 1e-4
    # clamp is non-differentiable at its edges; keep FD away from them
    if name == "clamp":
        interior = (np.abs(x0) < 1.2) | (np.abs(x0) > 1.4)
        assert rel_error(leaf.grad[interior], fd[interior]) < tol
    else:
        assert rel_error(leaf.grad, fd) < tol


# -------------------------------------------------------------------- dtypes


def _f32(values):
    return Tensor(np.asarray(values, dtype=np.float32))


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_op_follows_float32_inputs(name):
    # float32 in, float32 out and float32 back through every VJP; the
    # masked mean is a loss scalar and returns float64
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    other = _f32(rng.uniform(0.5, 2.0, size=(3, 5)))
    mask = np.arange(15).reshape(3, 5) % 3 != 0
    ops = {
        "add": lambda t: t + other,
        "sub": lambda t: other - t,
        "mul": lambda t: t * other,
        "div": lambda t: t / other,
        "log": lambda t: (t + 4.0).log(),
        "exp": lambda t: t.exp(),
        "pow": lambda t: (t + 4.0) ** 1.7,
        "tanh": lambda t: t.tanh(),
        "clamp": lambda t: t.clamp(-1.3, 1.3),
        "softmax": lambda t: t.softmax(axis=0),
        "sum_axis": lambda t: t.sum(axis=1),
        "masked_mean": lambda t: t.masked_mean(mask),
        "linear": lambda t: linear(t, _f32(rng.uniform(-1.0, 1.0, size=(5, 5))),
                                   _f32(rng.uniform(-1.0, 1.0, size=5))),
        "take_cols": lambda t: take_cols(t, [4, 0, 0, 2]),
    }
    leaf = Tensor(rng.uniform(-2.0, 2.0, size=(3, 5)).astype(np.float32), requires_grad=True)
    out = ops[name](leaf)
    assert out.data.dtype == (np.float64 if name == "masked_mean" else np.float32)
    for parent, vjp in zip(out._parents, out._vjps):
        assert vjp(np.ones_like(out.data)).dtype == parent.data.dtype
    loss = out if out.size == 1 else (out * _f32(rng.uniform(-1.0, 1.0, out.shape))).sum()
    loss.backward()
    assert leaf.grad.dtype == np.float32
    assert np.all(np.isfinite(leaf.grad)) and np.any(leaf.grad != 0.0)


def test_tensor_keeps_float32_and_stores_everything_else_as_float64():
    assert Tensor(np.zeros(2, dtype=np.float32)).data.dtype == np.float32
    assert Tensor(np.float32(1.0)).data.dtype == np.float32
    for values in ([1, 2], [1.0, 2.0], np.zeros(2, dtype=np.float16), 3, 0.5):
        assert Tensor(values).data.dtype == np.float64


@pytest.mark.parametrize("scalar", [2.0, 3, np.float64(2.0), np.array(2.0), np.float32(2.0)],
                         ids=["float", "int", "np.float64", "0d-float64", "np.float32"])
def test_scalar_operands_take_the_tensor_dtype(scalar):
    for dtype in (np.float32, np.float64):
        x = Tensor(np.array([0.25, 0.5], dtype=dtype), requires_grad=True)
        for out in (x + scalar, scalar + x, x - scalar, scalar - x,
                    x * scalar, scalar * x, x / scalar, scalar / x):
            assert out.data.dtype == dtype
        (x * scalar).sum().backward()
        assert x.grad.dtype == dtype


def test_sum_and_masked_mean_accumulate_in_float64():
    values = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], dtype=np.float32)
    mask = np.array([[True, False, True], [True, True, False]])
    x = Tensor(values, requires_grad=True)
    total = x.sum()
    assert total.data.dtype == np.float64
    assert total.item() == values.astype(np.float64).sum()
    assert total._vjps[0](np.array(1.0)).dtype == np.float32
    mean = x.masked_mean(mask)
    assert mean.data.dtype == np.float64
    assert mean.item() == values.astype(np.float64)[mask].mean()
    assert mean._vjps[0](np.array(1.0)).dtype == np.float32
    (total + mean).backward()
    assert x.grad.dtype == np.float32
    assert np.allclose(x.grad, 1.0 + mask / mask.sum())


def test_leaf_gradient_keeps_the_leaf_dtype_in_a_mixed_graph():
    x = Tensor(np.array([0.5, 1.5], dtype=np.float32), requires_grad=True)
    y = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = x * y  # float64 operand promotes the product
    assert out.data.dtype == np.float64
    out.sum().backward()
    assert x.grad.dtype == np.float32 and np.array_equal(x.grad, [2.0, 3.0])
    assert y.grad.dtype == np.float64 and np.array_equal(y.grad, [0.5, 1.5])
