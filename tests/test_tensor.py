"""Autodiff engine: values, gradients against finite differences, and
graph discipline."""

import gc
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

from helpers import numerical_gradient, rel_error
from protonorm import (
    GraphError,
    InputError,
    ShapeError,
    Tensor,
    arithmetic_fingerprint,
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


def _buffer_ref(a):
    """Weak reference to the array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return weakref.ref(a)


def test_tape_frees_what_no_closure_reads():
    """Holding only the loss of linear -> relu -> linear -> linear ->
    dropout -> residual add -> layer_norm frees the fc1 output, the dropout
    input and the residual sum, which no backward closure reads, and keeps
    the relu output, which the next layer's weight gradient reads. The
    gradients still match finite differences."""
    rng = np.random.default_rng(12)
    shapes = {
        "x": (2, 3, 4), "w1": (4, 6), "b1": (6,), "w2": (6, 4), "b2": (4,),
        "w3": (4, 4), "b3": (4,), "gamma": (2, 4), "beta": (2, 4),
    }
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    weights = Tensor(rng.normal(size=(2, 3, 4)))

    def build(arrays, refs=None):
        t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        fc1 = linear(t["x"], t["w1"], t["b1"])
        act = relu(fc1)
        pre = linear(linear(act, t["w2"], t["b2"]), t["w3"], t["b3"])
        res = dropout(pre, 0.25, np.random.default_rng(3), train=True) + t["x"]
        out = layer_norm(res, np.array([1, 0]), t["gamma"], t["beta"], 1e-8)
        if refs is not None:
            for k, v in (("fc1", fc1), ("act", act), ("pre", pre), ("res", res)):
                refs[k] = _buffer_ref(v.data)
        return t, (out * weights).sum()

    refs = {}
    leaves, loss = build(init, refs)
    gc.collect()
    assert refs["fc1"]() is None and refs["pre"]() is None and refs["res"]() is None
    assert refs["act"]() is not None
    loss.backward()
    for k in shapes:
        def f(a, k=k):
            return build({**init, k: a})[1].item()

        assert rel_error(leaves[k].grad, numerical_gradient(f, init[k].copy())) < 1e-6, k


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


@pytest.mark.parametrize("lead", [(6,), (2, 3), (2, 3, 2)], ids=["2d", "3d", "4d"])
def test_linear_is_one_2d_gemm_with_checked_gradients(lead):
    """The output is the flattened product x.reshape(-1, k) @ w + b bit
    for bit, for a 2-, 3- and 4-D x, and the x, w and b gradients match
    finite differences."""
    rng = np.random.default_rng(len(lead))
    x0 = rng.normal(size=(*lead, 4))
    w0 = rng.normal(size=(4, 5))
    b0 = rng.normal(size=5)
    m = rng.normal(size=(*lead, 5))

    def f(xa, wa, ba):
        return float(((xa @ wa + ba) * m).sum())

    x = Tensor(x0.copy(), requires_grad=True)
    w = Tensor(w0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    out = linear(x, w, b)
    assert np.array_equal(out.data, (x0.reshape(-1, 4) @ w0 + b0).reshape(*lead, 5))
    (out * Tensor(m)).sum().backward()
    assert rel_error(x.grad, numerical_gradient(lambda a: f(a, w0, b0), x0.copy())) < 1e-6
    assert rel_error(w.grad, numerical_gradient(lambda a: f(x0, a, b0), w0.copy())) < 1e-6
    assert rel_error(b.grad, numerical_gradient(lambda a: f(x0, w0, a), b0.copy())) < 1e-6


def test_linear_gives_no_input_gradient_to_a_constant_x():
    """A patch embedding's tokens take no gradient, so ``linear`` does not
    form the dx product for them: its closure returns None for x."""
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    out = linear(x, w, b)
    dx, dw, db = out._ctx.backward(np.ones(out.shape))
    assert dx is None and dw.shape == (4, 5) and db.shape == (5,)
    out.sum().backward()
    assert x.grad is None and w.grad is not None


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


# -- in-place forward arithmetic ---------------------------------------------
#
# ``linear``, ``layer_norm`` and ``dropout`` write each step of their formula
# into the one output array they allocate. The references below are those
# formulas written out of place, one temporary per step, so the forwards and
# gradients must match them bit for bit, and the ops must leave every input
# array as it was.

LAYOUTS = ["single", "batch", "strided"]


def _activation(rng, layout, t=5, d=6):
    """An [B, T, d] array: B=1, B=4, or B=4 as a non-contiguous view."""
    if layout == "single":
        return rng.normal(size=(1, t, d))
    if layout == "batch":
        return rng.normal(size=(4, t, d))
    x = rng.normal(size=(t, 4, d)).swapaxes(0, 1)
    assert not x.flags.c_contiguous
    return x


def _run(op, x0, params, upstream):
    """The op's output and the gradients a loss sum(out * upstream) sends to
    x and to each parameter; checks that no input array changed."""
    before = [a.copy() for a in (x0, *params)]
    x = Tensor(x0, requires_grad=True)
    ps = [Tensor(a, requires_grad=True) for a in params]
    out = op(x, *ps)
    data = out.data.copy()
    (out * Tensor(upstream)).sum().backward()
    for a, b in zip((x0, *params), before):
        assert np.array_equal(a, b)
    return data, [t.grad for t in (x, *ps)]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_linear_in_place_matches_the_out_of_place_formula(layout):
    rng = np.random.default_rng(21)
    x0 = _activation(rng, layout)
    w0, b0 = rng.normal(size=(6, 3)), rng.normal(size=3)
    g = rng.normal(size=(*x0.shape[:-1], 3))
    out, (dx, dw, db) = _run(linear, x0, (w0, b0), g)

    x2, g2 = x0.reshape(-1, 6), g.reshape(-1, 3)
    assert np.array_equal(out, (x2 @ w0 + b0).reshape(g.shape))
    assert np.array_equal(dx, (g2 @ w0.T).reshape(x0.shape))
    assert np.array_equal(dw, x2.T @ g2)
    assert np.array_equal(db, g2.sum(axis=0))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("mode", ["plain-LN", "dataset-indexed", "proto-gated"])
def test_layer_norm_in_place_matches_the_out_of_place_formula(mode, layout):
    from protonorm.norm import ProtoNormLayer

    rng = np.random.default_rng(22)
    x0 = _activation(rng, layout)
    b = x0.shape[0]
    layer = ProtoNormLayer(6, 3, mode, rng=np.random.default_rng(23))
    gamma0 = rng.normal(size=layer.gamma.shape)
    beta0 = rng.normal(size=layer.beta.shape)
    ids = np.arange(b) % layer.n
    if mode == "proto-gated" and b > 1:
        # route the samples to different rows, so the gather is exercised
        layer.bank.P.data[...] = x0.mean(axis=1)[:3]
    idx, _ = layer.select_indices(x0, ids)
    assert len(set(idx.tolist())) == min(b, layer.n)
    eps = layer.epsilon
    g = rng.normal(size=x0.shape)

    def op(x, gamma, beta):
        layer.gamma, layer.beta = gamma, beta
        return layer.forward(x, dataset_ids=ids)

    out, (dx, dgamma, dbeta) = _run(op, x0, (gamma0, beta0), g)

    centered = x0 - x0.mean(-1, keepdims=True)
    sigma = np.sqrt((centered * centered).mean(-1, keepdims=True) + eps)
    xhat = centered / sigma
    scale = gamma0[idx][:, None, :]
    assert np.array_equal(out, scale * xhat + beta0[idx][:, None, :])
    gh = g * scale
    gx = gh - gh.mean(-1, keepdims=True) - xhat * (gh * xhat).mean(-1, keepdims=True)
    assert np.array_equal(dx, gx / sigma)
    want_gamma, want_beta = np.zeros_like(gamma0), np.zeros_like(beta0)
    np.add.at(want_gamma, idx, (g * xhat).sum(axis=1))
    np.add.at(want_beta, idx, g.sum(axis=1))
    assert np.array_equal(dgamma, want_gamma)
    assert np.array_equal(dbeta, want_beta)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_dropout_in_place_matches_the_out_of_place_formula(layout):
    rng = np.random.default_rng(24)
    x0 = _activation(rng, layout)
    g = rng.normal(size=x0.shape)
    p = 0.3
    out, (dx,) = _run(
        lambda x: dropout(x, p, np.random.default_rng(25), train=True), x0, (), g
    )

    keep = np.random.default_rng(25).random(x0.shape) >= p
    assert 0 < keep.sum() < keep.size
    assert np.array_equal(out, x0 * (keep / (1.0 - p)))
    assert np.array_equal(dx, g * (keep / (1.0 - p)))


def _fingerprint_in_a_subprocess(**env):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import protonorm; print(protonorm.arithmetic_fingerprint())"],
        env=dict(os.environ, PYTHONPATH=src, **env),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout.strip()


def test_arithmetic_fingerprint_is_stable_within_and_across_processes():
    here = arithmetic_fingerprint()
    assert re.fullmatch(r"[0-9a-f]{16}", here)
    assert arithmetic_fingerprint() == here
    assert _fingerprint_in_a_subprocess() == here


def test_another_blas_kernel_has_another_fingerprint():
    """OpenBLAS picks its kernel at run time; forcing the Sandybridge one on
    a CPU with AVX2, whose default kernel is a later one, changes the
    GEMM probes' last bits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas") or {}
    features = np._core._multiarray_umath.__cpu_features__
    if "openblas" not in blas.get("name", "") or not features.get("AVX2"):
        pytest.skip("needs OpenBLAS on a CPU with AVX2")
    assert _fingerprint_in_a_subprocess(OPENBLAS_CORETYPE="Sandybridge") != arithmetic_fingerprint()
