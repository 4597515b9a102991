"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operator set is exactly what the patch transformer encoder, its norm
sites and its losses call: the layers ``linear`` and ``layer_norm`` (one
node each), ``matmul`` over equal batch dims (no broadcasting),
elementwise ``+ - * /`` (``scalar * tensor`` is the only reflected
operator), ``exp``, ``log``, ``sqrt``, ``relu``, ``dropout``, ``sum``,
``mean``, ``reshape``, ``transpose``, ``concat``, ``softmax`` and
``logsumexp``. Each operation records a node: the graph
records of its inputs and a backward closure. ``Tensor.backward`` walks
the recorded graph once in reverse topological order and accumulates
gradients into every reachable tensor with ``requires_grad``. Only leaves
keep their ``.grad`` after it.

The tape keeps only what backward reads. A node refers to its inputs by
their graph records, which hold no data: an op output's record is its
node, and a tensor without one (a leaf) is its own record. Each closure
captures exactly the arrays its gradient formula reads, and shapes
where it needs no more, so an op output that no closure reads is freed as
soon as the caller drops it; dropout keeps a bool keep-mask.

Conventions:
  * all data is float64 so finite-difference checks are trustworthy
  * randomness (dropout) always comes from an explicit numpy Generator
  * a recorded graph can be traversed once; a second backward raises
  * an op never writes into an input array; a forward of several steps
    (``linear``, ``layer_norm``, ``dropout``) writes its later steps in
    place into arrays it allocated, in the textbook formula's IEEE order
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError, InputError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "concat",
    "dropout",
    "exp",
    "layer_norm",
    "linear",
    "log",
    "logsumexp",
    "matmul",
    "relu",
    "softmax",
    "sqrt",
]

_grad_enabled = True

class no_grad:
    """Context manager that disables graph recording (pure forward math)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class _Node:
    """An op output's graph record: the records of its parents, the
    backward closure and, while backward runs, the gradient flowing in. It
    holds no data, so recording a graph keeps alive only what the closures
    capture. Like a tensor it answers ``requires_grad``, ``grad`` and
    ``_ctx`` (itself), so a walk over ``_ctx.parents`` reads leaves and
    nodes alike. Backward clears ``parents`` and ``backward`` when it
    reaches the node, so a node without a closure is consumed."""

    __slots__ = ("parents", "backward", "grad")
    requires_grad = True

    def __init__(self, parents, backward):
        self.parents = tuple(p if p._ctx is None else p._ctx for p in parents)
        self.backward = backward
        self.grad = None

    @property
    def _ctx(self):
        return self


class Tensor:
    """A dense float64 array plus optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._ctx = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}{flag})"

    # -- graph ----------------------------------------------------------

    def backward(self):
        """Populate gradients of every requires_grad leaf reachable from
        this scalar. The traversed graph is consumed afterwards, and each
        op output's gradient is dropped once its closure has run."""
        if self.data.size != 1:
            raise GraphError(
                f"backward() needs a scalar loss, got shape {tuple(self.shape)}"
            )
        if self._ctx is not None and self._ctx.backward is None:
            raise GraphError(
                "graph already consumed by a previous backward(); "
                "rebuild the forward pass"
            )
        root = self if self._ctx is None else self._ctx
        topo = []
        seen = set()
        stack = [(root, False)]
        while stack:
            r, expanded = stack.pop()
            if expanded:
                topo.append(r)
                continue
            if id(r) in seen:
                continue
            seen.add(id(r))
            if r._ctx is None:
                continue
            if r.backward is None:
                raise GraphError(
                    "stale graph: a node was already consumed by an "
                    "earlier backward()"
                )
            stack.append((r, True))
            for p in r.parents:
                stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            parents, backward, g = node.parents, node.backward, node.grad
            node.parents = node.backward = node.grad = None
            if g is None:
                continue
            for p, pg in zip(parents, backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                p.grad = pg if p.grad is None else p.grad + pg

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape and reductions ---------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return _reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return _reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return _transpose(self, axes if axes else None)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward):
    """Create an op output, recording the node when grad mode is on."""
    req = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._ctx = _Node(parents, backward)
    return out


def _unbroadcast(g, shape):
    """Sum a gradient down to the shape the operand had before numpy
    broadcasting expanded it."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise arithmetic ---------------------------------------------


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make(ad * bd, (a, b), bwd)


def div(a, b):
    """Elementwise quotient. Denominator guarding is the call site's job
    (e.g. layer norm adds its epsilon before dividing)."""
    a, b = _wrap(a), _wrap(b)
    sa, bd = a.shape, b.data
    data = a.data / bd

    def bwd(g):
        return _unbroadcast(g / bd, sa), _unbroadcast(-g * data / bd, bd.shape)

    return _make(data, (a, b), bwd)


def exp(a):
    a = _wrap(a)
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,))


def log(a):
    a = _wrap(a)
    ad = a.data
    return _make(np.log(ad), (a,), lambda g: (g / ad,))


def sqrt(a):
    a = _wrap(a)
    data = np.sqrt(a.data)
    return _make(data, (a,), lambda g: (g * 0.5 / data,))


def relu(a):
    a = _wrap(a)
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), bwd)


def dropout(x, p, rng=None, train=False):
    """Inverted dropout: zero a fraction p and scale survivors by 1/(1-p).

    Identity in eval mode or at p == 0; no randomness is consumed then.
    """
    if not 0.0 <= p < 1.0:
        raise InputError(f"dropout probability must be in [0, 1), got {p}")
    x = _wrap(x)
    if not train or p == 0.0:
        return x
    if rng is None:
        raise InputError("dropout in train mode needs an explicit rng")
    keep = rng.random(x.shape) >= p

    def bwd(g):
        return (g * (keep / (1.0 - p)),)

    data = keep / (1.0 - p)
    data *= x.data
    return _make(data, (x,), bwd)


# -- linear algebra ------------------------------------------------------


def matmul(a, b):
    """Matrix product over the last two axes of [..., m, k] @ [..., k, n]
    operands whose leading batch dims are equal: no broadcasting."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul needs [..., m, k] @ [..., k, n] with equal leading "
            f"dims, got {a.shape} @ {b.shape}"
        )

    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return _make(ad @ bd, (a, b), bwd)


def linear(x, w, b):
    """x @ w + b for x [..., k], w [k, n] and b [n], as one node. x is
    flattened to [-1, k] once, so the forward, the input gradient and the
    weight gradient are one 2-D GEMM each over every leading position (a
    batched [B, T, k] @ [k, n] runs one small GEMM per sample), and the
    bias gradient is a sum. An x without requires_grad gets no gradient."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeError(
            f"linear needs x [..., k], w [k, n] and b [n], got "
            f"{x.shape}, {w.shape} and {b.shape}"
        )
    k, n = w.shape
    lead = x.shape[:-1]
    x2, wd, x_grad = x.data.reshape(-1, k), w.data, x.requires_grad

    def bwd(g):
        g2 = g.reshape(-1, n)
        dx = (g2 @ wd.T).reshape(*lead, k) if x_grad else None
        return dx, x2.T @ g2, g2.sum(axis=0)

    data = x2 @ wd
    data += b.data
    return _make(data.reshape(*lead, n), (x, w, b), bwd)


# -- reductions -----------------------------------------------------------


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _spread(g, shape, axes, keepdims):
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.ascontiguousarray(np.broadcast_to(g, shape))


def _reduce_sum(x, axis, keepdims):
    x = _wrap(x)
    axes = _norm_axes(axis, x.ndim)
    shape = x.shape

    def bwd(g):
        return (_spread(g, shape, axes, keepdims),)

    return _make(x.data.sum(axis=axes, keepdims=keepdims), (x,), bwd)


def _reduce_mean(x, axis, keepdims):
    x = _wrap(x)
    axes = _norm_axes(axis, x.ndim)
    shape = x.shape
    count = int(np.prod([shape[a] for a in axes])) if x.ndim else 1

    def bwd(g):
        return (_spread(g, shape, axes, keepdims) / count,)

    return _make(x.data.mean(axis=axes, keepdims=keepdims), (x,), bwd)


# -- shape surgery ---------------------------------------------------------


def _reshape(x, shape):
    x = _wrap(x)
    orig = x.shape

    def bwd(g):
        return (g.reshape(orig),)

    return _make(x.data.reshape(shape), (x,), bwd)


def _transpose(x, axes):
    x = _wrap(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _make(np.ascontiguousarray(x.data.transpose(axes)), (x,), bwd)


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise InputError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(
            np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis)
        )

    return _make(data, tuple(tensors), bwd)


def layer_norm(x, idx, gamma, beta, eps):
    """x [B, T, d] normalized over its last axis, then every token of
    sample i scaled and shifted by row idx[i] of the [n, d] gamma and beta.
    The backward is the analytic LayerNorm gradient (Ba et al., 2016),
    dx = (gh - mean(gh) - xhat * mean(gh * xhat)) / sigma with
    gh = g * gamma[idx]; the gamma and beta rows sum over their samples."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    idx = np.asarray(idx, dtype=np.int64)
    xhat = x.data - x.data.mean(-1, keepdims=True)
    sigma = (xhat * xhat).mean(-1, keepdims=True)
    sigma += eps
    np.sqrt(sigma, out=sigma)
    xhat /= sigma
    scale = gamma.data[idx][:, None, :]
    gshape, bshape = gamma.shape, beta.shape

    def bwd(g):
        gh = g * scale
        gx = gh - gh.mean(-1, keepdims=True) - xhat * (gh * xhat).mean(-1, keepdims=True)
        dgamma = np.zeros(gshape)
        dbeta = np.zeros(bshape)
        np.add.at(dgamma, idx, (g * xhat).sum(axis=1))
        np.add.at(dbeta, idx, g.sum(axis=1))
        return gx / sigma, dgamma, dbeta

    data = scale * xhat
    data += beta.data[idx][:, None, :]
    return _make(data, (x, gamma, beta), bwd)


# -- composite numerically stable ops ---------------------------------------


def softmax(x, axis=-1):
    """Stable softmax: shifts by the max, taken as a constant outside the
    graph, before exponentiating, which leaves the value and the gradient
    exact."""
    x = _wrap(x)
    if not -x.ndim <= axis < x.ndim:
        raise InputError(f"softmax axis {axis} invalid for ndim {x.ndim}")
    m = x.data.max(axis=axis, keepdims=True)
    e = exp(sub(x, m))
    return div(e, e.sum(axis, keepdims=True))


def logsumexp(x, axis=-1):
    x = _wrap(x)
    if not -x.ndim <= axis < x.ndim:
        raise InputError(f"logsumexp axis {axis} invalid for ndim {x.ndim}")
    m = x.data.max(axis=axis, keepdims=True)
    s = exp(sub(x, m)).sum(axis, keepdims=True)
    out = add(log(s), m)
    shape = list(out.shape)
    shape.pop(axis % x.ndim)
    return out.reshape(shape)
