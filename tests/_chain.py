"""The two engine ops of ``mlp_softmax``'s reference chain, built on ``make_node``.

``mlp_softmax`` fuses ``linear(tanh(linear(x, w1, b1)), w2, b2).softmax(axis=0)``
into one node.  The tests build that chain from these ops to check the fused
node bit for bit, and run the ops through the finite-difference and dtype
tables like every engine op.
"""

import numpy as np

from segadapt.autodiff import _check_linear, make_node


def linear(x, w, b):
    """Affine layer ``w.T @ x + b`` as one node: (K, M) columns to (N, M), plus a length-N bias."""
    _check_linear("linear", x.shape, w.shape, b.shape)
    return make_node(w.data.T @ x.data + b.data[:, None], (x, w, b),
                     lambda g: (w.data @ g, x.data @ g.T, g.sum(axis=1)))


def tanh(a):
    """Elementwise tanh as one node."""
    out = np.tanh(a.data)
    return make_node(out, (a,), lambda g: (g * (1.0 - out * out),))
