"""Autodiff engine: values, gradients against finite differences, and
graph discipline."""

import numpy as np
import pytest

from helpers import numerical_gradient, rel_error
from protonorm import (
    GraphError,
    InputError,
    ShapeError,
    Tensor,
    concat,
    dropout,
    exp,
    layer_norm,
    linear,
    log,
    logsumexp,
    matmul,
    no_grad,
    relu,
    softmax,
    sqrt,
)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal((eye @ m).data, m.data)


def test_matmul_hand_case():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[3.0], [4.0]]))
    assert np.array_equal((a @ b).data, np.array([[11.0]]))


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        a @ b
    # leading batch dims must be equal: matmul does not broadcast
    a = Tensor(np.zeros((2, 3, 4)))
    b = Tensor(np.zeros((3, 4, 5)))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        a @ b
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(4, 5\)"):
        a @ Tensor(np.zeros((4, 5)))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 3))
    b0 = rng.normal(size=(3, 3))

    a = Tensor(a0.copy(), requires_grad=True)
    loss = (a @ Tensor(b0)).sum()
    loss.backward()
    numeric = numerical_gradient(lambda arr: float((arr @ b0).sum()), a0.copy())
    assert rel_error(a.grad, numeric) < 1e-6

    b = Tensor(b0.copy(), requires_grad=True)
    loss = (Tensor(a0) @ b).sum()
    loss.backward()
    numeric = numerical_gradient(lambda arr: float((a0 @ arr).sum()), b0.copy())
    assert rel_error(b.grad, numeric) < 1e-6


def test_batched_matmul_gradient():
    rng = np.random.default_rng(1)
    a0 = rng.normal(size=(2, 3, 4))
    b0 = rng.normal(size=(2, 4, 5))
    w = rng.normal(size=(2, 3, 5))

    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    loss = ((a @ b) * Tensor(w)).sum()
    loss.backward()
    na = numerical_gradient(lambda arr: float(((arr @ b0) * w).sum()), a0.copy())
    nb = numerical_gradient(lambda arr: float(((a0 @ arr) * w).sum()), b0.copy())
    assert rel_error(a.grad, na) < 1e-6
    assert rel_error(b.grad, nb) < 1e-6


def test_softmax_symmetry():
    out = softmax(Tensor(np.zeros(3)), axis=-1)
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_softmax_no_overflow():
    out = softmax(Tensor(np.array([1000.0, 0.0])), axis=-1)
    assert abs(out.data[0] - 1.0) < 1e-12
    assert abs(out.data[1]) < 1e-12


def test_softmax_sums_to_one():
    rng = np.random.default_rng(2)
    for shape, axis in [((7,), 0), ((3, 5), 1), ((2, 3, 4), -1), ((4, 2), 0)]:
        x = rng.normal(scale=50.0, size=shape)
        out = softmax(Tensor(x), axis=axis)
        sums = out.data.sum(axis=axis)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(out.data >= 0.0)


def test_softmax_gradient():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=5)
    w = rng.normal(size=5)
    x = Tensor(x0.copy(), requires_grad=True)
    loss = (softmax(x, axis=-1) * Tensor(w)).sum()
    loss.backward()

    def f(arr):
        e = np.exp(arr - arr.max())
        return float((e / e.sum() * w).sum())

    assert rel_error(x.grad, numerical_gradient(f, x0.copy())) < 1e-6


def test_softmax_invalid_axis():
    with pytest.raises(InputError):
        softmax(Tensor(np.zeros((2, 2))), axis=5)


def test_mean_and_variance_hand_values():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    assert x.mean().item() == 2.0
    # layer_norm divides by the population standard deviation, sqrt(2/3)
    out = layer_norm(x.reshape(1, 1, 3), [0], np.ones((1, 3)), np.zeros((1, 3)), 0.0)
    assert np.abs(out.data[0, 0] - np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)).max() < 1e-15


def test_dropout_p_zero_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = dropout(x, 0.0, rng=None, train=True)
    assert out is x


def test_dropout_eval_is_identity():
    x = Tensor(np.ones(4))
    assert dropout(x, 0.5, rng=None, train=False) is x


def test_dropout_scales_survivors():
    rng = np.random.default_rng(4)
    x = Tensor(np.ones((100, 100)), requires_grad=True)
    out = dropout(x, 0.25, rng=rng, train=True)
    vals = np.unique(out.data)
    assert set(np.round(vals, 12)) <= {0.0, np.round(1 / 0.75, 12)}
    # survivor fraction close to 1 - p
    assert abs((out.data != 0).mean() - 0.75) < 0.02
    out.sum().backward()
    assert np.array_equal(x.grad, np.where(out.data != 0, 1 / 0.75, 0.0))


def test_dropout_requires_rng_in_train():
    with pytest.raises(InputError):
        dropout(Tensor(np.ones(3)), 0.5, rng=None, train=True)


def test_backward_linear_case():
    x = Tensor(np.random.default_rng(5).normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic_case():
    x0 = np.random.default_rng(6).normal(size=(2, 5))
    x = Tensor(x0.copy(), requires_grad=True)
    ((x * x).sum() * 0.5).backward()
    assert np.allclose(x.grad, x0, atol=0, rtol=0)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        (x * x).backward()


def test_backward_rejects_second_call():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(GraphError, match="consumed"):
        loss.backward()


def test_backward_rejects_stale_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * 2.0
    y.sum().backward()
    stale = y.sum()  # reuses the consumed node y
    with pytest.raises(GraphError, match="stale"):
        stale.backward()


def test_gradient_accumulates_over_shared_use():
    x = Tensor(np.array([3.0]), requires_grad=True)
    loss = (x * x + x).sum()
    loss.backward()
    assert np.allclose(x.grad, [7.0])


def test_composite_chain_gradient():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 3)) + 3.0  # keep log/sqrt domains safe
    w0 = rng.normal(size=(3, 2))

    def build(arr, warr):
        x = Tensor(arr, requires_grad=True)
        w = Tensor(warr, requires_grad=True)
        h = relu(x @ w)
        out = log(exp(h).sum() + sqrt(x).sum() + (x * x * x).mean())
        return x, w, out

    x, w, out = build(x0.copy(), w0.copy())
    out.backward()

    def f_x(arr):
        _, _, o = build(arr, w0.copy())
        return o.item()

    def f_w(arr):
        _, _, o = build(x0.copy(), arr)
        return o.item()

    assert rel_error(x.grad, numerical_gradient(f_x, x0.copy())) < 1e-6
    assert rel_error(w.grad, numerical_gradient(f_w, w0.copy())) < 1e-6


@pytest.mark.parametrize(
    "name",
    [
        "add", "sub", "mul", "div", "exp", "log", "sqrt", "relu",
        "sum_axis", "mean_axis", "reshape", "transpose", "concat",
        "logsumexp", "linear",
    ],
)
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    shape = (2, 3, 4) if name == "linear" else (3, 4)
    x0 = rng.normal(size=shape)
    y0 = rng.normal(size=shape) + 2.5  # safe divisor
    w = rng.normal(size=shape)

    positive = name in ("log", "sqrt")
    if positive:
        x0 = np.abs(x0) + 0.5
    if name == "relu":
        x0 = x0 + np.sign(x0) * 0.1  # keep clear of the kink

    def build(arr):
        x = Tensor(arr, requires_grad=True)
        y = Tensor(y0)
        if name == "add":
            out = x + y
        elif name == "sub":
            out = x - y
        elif name == "mul":
            out = x * y
        elif name == "div":
            out = x / y
        elif name == "exp":
            out = exp(x)
        elif name == "log":
            out = log(x)
        elif name == "sqrt":
            out = sqrt(x)
        elif name == "relu":
            out = relu(x)
        elif name == "sum_axis":
            out = x.sum(axis=1, keepdims=True) * Tensor(w[:, :1])
            return x, out.sum()
        elif name == "mean_axis":
            out = x.mean(axis=0) * Tensor(w[0])
            return x, out.sum()
        elif name == "reshape":
            out = x.reshape(2, 6)
            return x, (out * Tensor(w.reshape(2, 6))).sum()
        elif name == "transpose":
            out = x.transpose()
            return x, (out * Tensor(w.T)).sum()
        elif name == "concat":
            out = concat([x, Tensor(y0)], axis=0)
            return x, (out * Tensor(np.vstack([w, w]))).sum()
        elif name == "linear":
            out = linear(x, Tensor(y0[0].T), Tensor(y0[1, 0, :3]))  # [2, 3, 3]
            return x, (out * Tensor(w[..., :3])).sum()
        elif name == "logsumexp":
            out = logsumexp(x, axis=1)
            return x, (out * Tensor(w[:, 0])).sum()
        return x, (out * Tensor(w)).sum()

    x, loss = build(x0.copy())
    loss.backward()

    def f(arr):
        _, l = build(arr)
        return l.item()

    assert rel_error(x.grad, numerical_gradient(f, x0.copy())) < 1e-6


def test_linear_weight_and_bias_gradients():
    """The weight gradient sums over every leading position of a 3-D x
    and the bias gradient over all of them (the x gradient is the
    ``linear`` case of the primitive test)."""
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(2, 3, 4))
    w0 = rng.normal(size=(4, 5))
    b0 = rng.normal(size=5)
    m = rng.normal(size=(2, 3, 5))

    def f(wa, ba):
        return float(((x0 @ wa + ba) * m).sum())

    w = Tensor(w0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    loss = (linear(Tensor(x0), w, b) * Tensor(m)).sum()
    assert loss.item() == f(w0, b0)
    loss.backward()
    assert rel_error(w.grad, numerical_gradient(lambda a: f(a, b0), w0.copy())) < 1e-6
    assert rel_error(b.grad, numerical_gradient(lambda a: f(w0, a), b0.copy())) < 1e-6
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(5, 4\).*\(4,\)"):
        linear(Tensor(x0), Tensor(np.zeros((5, 4))), Tensor(np.zeros(4)))


def test_replay_is_bit_identical():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(np.arange(12.0).reshape(3, 4) / 7.0, requires_grad=True)
        h = dropout(relu(x @ Tensor(np.arange(8.0).reshape(4, 2) / 5.0)), 0.3, rng, True)
        loss = (softmax(h, axis=1) * h).sum()
        loss.backward()
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert y._ctx is None and not y.requires_grad


def test_matmul_requires_2d():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
