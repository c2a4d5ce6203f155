"""Minimal reverse-mode automatic differentiation over dense float arrays.

The engine is deliberately small: dense row-major storage, elementwise
arithmetic (add, subtract, negate, multiply, power) with scalar
broadcasting, log and clamp, concat, softmax, sums, masked means, and
stop-gradient, plus the classifier's whole forward
(``mlp_softmax``, (F, N) feature planes to a (C, N) map) as one node.  That
is what the losses and the classifier use, and it keeps the backward pass
easy to audit.  ``make_node`` is the one constructor of a graph node;
``segadapt.losses`` builds its loss terms with it.

Graphs are built implicitly: each operation records its parents and one
vector-Jacobian-product closure that maps the node's flow to a contribution
for each parent.  ``Tensor.backward`` walks the graph once in reverse
topological order and calls each node's closure once, so shared
subexpressions accumulate gradient contributions correctly.  Gradients are
stored on leaves only (the tensors created with ``requires_grad=True``,
which have no parents); the flows through intermediate nodes live only for
the duration of the pass, and an intermediate node's ``grad`` stays
``None``.  A backward pass owns its graph; independent graphs may be
evaluated concurrently, a single graph is single-threaded.

Precision: float64 by default, follows float32 inputs; scalar losses are
float64.  A tensor keeps float32 data as float32 and stores everything else
as float64.  Python and NumPy scalar operands (and 0-d arrays) take the
dtype of the tensor they meet, so ``1.0 - p`` or ``p * np.float64(0.5)``
stays float32 for a float32 ``p``.  ``sum()`` over all entries and
``masked_mean`` accumulate and return float64, and their VJPs hand the
input's dtype back, so the loss scalars and their recomposition keep double
precision while the per-pixel work runs in the input's precision.  A leaf's
``grad`` always has the leaf's dtype.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "concat",
    "make_node",
    "mlp_softmax",
]

_SCALARS = (int, float, np.integer, np.floating)
_FLOAT32 = np.dtype(np.float32)


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


def _as_array(values, dtype=None) -> np.ndarray:
    """``values`` as float32 if they are float32 (or ``dtype`` says so), else float64."""
    if dtype is None:
        dtype = getattr(values, "dtype", None)
    return np.asarray(values, dtype=_FLOAT32 if dtype is _FLOAT32 else np.float64)


class Tensor:
    """Dense array with optional gradient tracking.

    float64 by default, follows float32 inputs; scalar losses are float64.

    ``data`` is treated as immutable once the tensor participates in a graph;
    only ``grad`` is written by backward passes (and ``data`` by an optimizer,
    between graph evaluations).  Only leaves carry a gradient: a leaf's
    ``grad`` accumulates across repeated backward calls until ``zero_grad``
    resets it, while the result of an operation keeps ``grad = None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    # ---------------------------------------------------------------- basics

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.requires_grad and not self._parents:
            self.grad = np.zeros_like(self.data)

    def detach(self) -> "Tensor":
        """Same values, no gradient flow to this tensor's ancestors."""
        return Tensor(self.data)

    # -------------------------------------------------------------- backward

    def backward(self) -> None:
        """Add this scalar's gradient to ``grad`` of every reachable leaf.

        Only scalar roots are supported.  Each graph node is visited exactly
        once; flows through shared subexpressions are summed before being
        pushed further down, so DAGs are handled correctly.  Intermediate
        nodes pass their flow on and keep ``grad = None``.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if not node._parents:
                if g.dtype != node.data.dtype:
                    g = g.astype(node.data.dtype)
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, contribution in zip(node._parents, node._vjp(g)):
                if contribution is None or not parent.requires_grad:
                    continue
                key = id(parent)
                flows[key] = flows[key] + contribution if key in flows else contribution

    # ----------------------------------------------------------- elementwise

    def __add__(self, other):
        a, b = self, _ensure_tensor(other, self)
        _check_elementwise(a, b)
        return make_node(a.data + b.data, (a, b), lambda g: (_fit(g, a.shape), _fit(g, b.shape)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _ensure_tensor(other, self)
        _check_elementwise(a, b)
        return make_node(a.data - b.data, (a, b), lambda g: (_fit(g, a.shape), _fit(-g, b.shape)))

    def __rsub__(self, other):
        return _ensure_tensor(other, self).__sub__(self)

    def __mul__(self, other):
        a, b = self, _ensure_tensor(other, self)
        _check_elementwise(a, b)
        return make_node(a.data * b.data, (a, b),
                         lambda g: (_fit(g * b.data, a.shape), _fit(g * a.data, b.shape)))

    __rmul__ = __mul__

    def __neg__(self):
        return make_node(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, exponent):
        if not isinstance(exponent, _SCALARS):
            raise TypeError("only scalar exponents are supported")
        gamma = float(exponent)
        if gamma == 0.0:
            # x**0 == 1 with zero derivative everywhere.
            return Tensor(np.ones_like(self.data))
        a = self
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a.data ** gamma

            def vjp(g):
                # A zero upstream gradient passes through as is, so a zero
                # flow stays zero where a**(gamma - 1) is infinite (a = 0
                # with gamma < 1) instead of becoming 0 * inf = nan.
                with np.errstate(divide="ignore", invalid="ignore"):
                    return (np.where(g == 0.0, g, g * gamma * a.data ** (gamma - 1.0)),)

            return make_node(out, (a,), vjp)

    # --------------------------------------------------------- nonlinearity

    def log(self):
        a = self
        with np.errstate(divide="ignore", invalid="ignore"):
            return make_node(np.log(a.data), (a,), lambda g: (g / a.data,))

    def clamp(self, lo: float, hi: float):
        a = self
        lo, hi = float(lo), float(hi)  # Python floats keep a float32 input float32
        out = np.clip(a.data, lo, hi)
        inside = (a.data > lo) & (a.data < hi)
        return make_node(out, (a,), lambda g: (g * inside,))

    # ------------------------------------------------------------ reductions

    def sum(self, axis: int | None = None):
        """Sum over ``axis``, or over all entries into a float64 scalar."""
        a = self
        if axis is None:
            return make_node(np.array(a.data.sum(dtype=np.float64)), (a,),
                             lambda g: (np.full(a.shape, g, dtype=a.data.dtype),))
        out = a.data.sum(axis=axis)
        return make_node(out, (a,),
                         lambda g: (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),))

    def masked_mean(self, mask):
        """Mean over entries selected by a boolean mask of the same shape.

        The mean is accumulated and returned in float64.  An empty mask
        yields a constant 0 with zero gradient, so a step in which no pixel
        clears its threshold contributes nothing.
        """
        a = self
        sel = np.asarray(mask, dtype=bool)
        if sel.shape != a.shape:
            raise ShapeMismatchError(
                f"mask shape {sel.shape} does not match tensor shape {a.shape}")
        count = int(sel.sum())
        if count == 0:
            return Tensor(0.0)
        value = a.data[sel].sum(dtype=np.float64) / count  # np.mean's bits, without its wrapper
        return make_node(np.array(value), (a,),
                         lambda g: ((g * sel / count).astype(a.data.dtype, copy=False),))

    def softmax(self, axis: int):
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def vjp(g):
            return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

        return make_node(out, (a,), vjp)


# ----------------------------------------------------------------- free ops


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis; backward slices the gradient."""
    parts = [_ensure_tensor(t) for t in tensors]
    if not parts:
        raise ValueError("concat requires at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=axis)
    bounds = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return make_node(out, tuple(parts), lambda g: tuple(np.split(g, bounds, axis=axis)))


def mlp_softmax(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Class-major softmax of a tanh MLP, (F, N) feature planes to a (C, N) map, as one node.

    The value and every gradient equal, bit for bit, those of the op chain
    it fuses, one node each for ``w1.T @ x + b1``, tanh, ``w2.T @ h + b2``
    and the class softmax: the same numpy expressions in the same order on
    the same memory layouts.  The forward
    works in place in two arrays (hidden, map) where the chain allocates
    about eight; pixels stay columns, so no transposed copy is made.  The
    backward derives the softmax and tanh flows once and hands each parent
    its share; constant features get no (F, N) flow.  The four parameters
    share one dtype, so the in-place bias adds keep the chain's result dtype.
    """
    x, w1, b1, w2, b2 = parents = tuple(_ensure_tensor(t) for t in (x, w1, b1, w2, b2))
    _check_linear("mlp_softmax layer 1", x.shape, w1.shape, b1.shape)
    _check_linear("mlp_softmax layer 2", (w1.shape[1], x.shape[1]), w2.shape, b2.shape)
    if len({p.data.dtype for p in parents[1:]}) != 1:
        raise TypeError("mlp_softmax expects parameters of one dtype, got "
                        + ", ".join(str(p.data.dtype) for p in parents[1:]))
    h = w1.data.T @ x.data
    h += b1.data[:, None]
    np.tanh(h, out=h)
    out = w2.data.T @ h
    out += b2.data[:, None]
    out -= out.max(axis=0, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=0, keepdims=True)

    def vjp(g):
        g_z = out * (g - (g * out).sum(axis=0, keepdims=True))
        g_a = w2.data @ g_z
        d = h * h
        np.subtract(1.0, d, out=d)
        g_a *= d  # (w2 @ g_z) * (1 - h * h) without two more (hidden, N) arrays
        return (w1.data @ g_a if x.requires_grad else None, x.data @ g_a.T, g_a.sum(axis=1),
                h @ g_z.T, g_z.sum(axis=1))

    return make_node(out, parents, vjp)


# ------------------------------------------------------------------ helpers


def _ensure_tensor(x, like: Tensor | None = None) -> Tensor:
    """``x`` as a tensor; a scalar or 0-d array meeting ``like`` takes its dtype."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, _SCALARS):
        return Tensor(x if like is None else _as_array(x, like.data.dtype))
    if isinstance(x, np.ndarray):
        return Tensor(x if like is None or x.ndim else _as_array(x, like.data.dtype))
    raise TypeError(f"cannot use {type(x).__name__} as a tensor operand")


def _check_linear(op: str, x: tuple, w: tuple, b: tuple) -> None:
    if len(x) != 2 or len(w) != 2 or len(b) != 1 or x[0] != w[0] or w[1] != b[0]:
        raise ShapeMismatchError(f"{op} expects (K, M), (K, N) and (N,), got {x}, {w} and {b}")


def _check_elementwise(a: Tensor, b: Tensor) -> None:
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ShapeMismatchError(
        f"elementwise operands have incompatible shapes {a.data.shape} and {b.data.shape}")


def _fit(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient onto a (possibly scalar-broadcast) operand shape."""
    g = np.asarray(g)
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """The node of an op's result: ``data``, its parents and one VJP.

    Every op here builds its node with it, and so does a fused op defined
    elsewhere (the loss terms in ``segadapt.losses``).  ``vjp(g)`` maps the
    flow ``g`` (shaped like ``data``) to a tuple with one contribution per
    parent, in parent order, each shaped like its parent.
    ``Tensor.backward`` calls it once per pass and adds up the contributions
    of the parents that require grad; a VJP may give ``None`` for a parent
    that needs no gradient.  ``data`` comes from numpy arithmetic on
    float32/float64 operands, so it needs no dtype conversion; skipping
    ``Tensor.__init__`` keeps the per-node cost of one-pixel graphs low.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)
    out.grad = None
    out.requires_grad, out._parents, out._vjp = False, (), None
    for p in parents:  # a plain loop is several times cheaper than any() over a generator
        if p.requires_grad:
            out.requires_grad, out._parents, out._vjp = True, parents, vjp
            break
    return out
