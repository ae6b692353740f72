"""Gradient correctness of the tensor engine against finite differences."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from storyeval import autodiff as ad
from storyeval import rng as rng_mod
from storyeval.autodiff import Tensor
from storyeval.errors import ContractViolation, NumericFailure
from storyeval.model import Model, ModelConfig, predict_preference
from storyeval.vocab import build_vocab

from helpers import (central_diff, matmul, max_rel_err, reference_backward,
                     reference_layer_norm, swapaxes, take, tape_ops)


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check_grads(make_loss, params, h=1e-4, tol=1e-3):
    """Backprop once, then compare each parameter's grad to central FD."""
    ad.forward_backward(make_loss(), params)
    for name, p in params.items():
        assert p.grad.dtype == p.data.dtype, f"{name}: {p.grad.dtype} gradient"
        fd = central_diff(lambda: make_loss().data, p.data, h=h)
        err = max_rel_err(p.grad, fd)
        assert err <= tol, f"{name}: rel err {err:.2e}"


def test_square_sum_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    assert np.allclose(x.grad, [6.0])


def test_sigmoid_gradient_at_zero():
    x = Tensor(np.array(0.0), requires_grad=True)
    out = ad.sigmoid(x)
    out.backward()
    assert abs(float(x.grad) - 0.25) < 1e-12


def test_nonscalar_backward_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractViolation):
        (x * 2.0).backward()


def test_nan_check_names_the_node():
    ad.set_nan_checks(True)
    try:
        x = Tensor(np.array([-1.0]), requires_grad=True)
        with np.errstate(invalid="ignore"), pytest.raises(NumericFailure) as exc:
            ad.log(x)
        assert "log" in str(exc.value)
    finally:
        ad.set_nan_checks(False)


def test_nan_check_off_by_default():
    x = Tensor(np.array([-1.0]), requires_grad=True)
    with np.errstate(invalid="ignore"):
        out = ad.log(x)
    assert np.isnan(out.data).all()


def test_no_grad_ops_have_no_parents():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.sigmoid(ad.relu(ad.linear(w, w)) + w).sum()
    assert out._parents == () and out._backward is None
    assert not out.requires_grad
    assert np.isclose(out.data, 4.0 / (1.0 + np.exp(-3.0)))


def test_no_grad_keeps_flags_through_nesting_and_errors():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([3.0, 4.0]))
    with pytest.raises(RuntimeError), ad.no_grad():
        with ad.no_grad():
            assert w.requires_grad and not c.requires_grad
        # leaving the inner block must not switch graph building back on
        assert (w * c)._parents == ()
        raise RuntimeError("inside no_grad")
    assert w.requires_grad and not c.requires_grad
    loss = (w * c).sum()
    loss.backward()
    assert np.allclose(w.grad, c.data)


def test_three_layer_mlp_exhaustive():
    rng = np.random.default_rng(7)
    params = {
        "w1": leaf(rng, 5, 8),
        "b1": leaf(rng, 8),
        "w2": leaf(rng, 8, 6),
        "b2": leaf(rng, 6),
        "w3": leaf(rng, 6, 1),
        "b3": leaf(rng, 1),
    }
    x = Tensor(rng.standard_normal((4, 5)))

    def make_loss():
        h1 = ad.relu(ad.linear(x, params["w1"], params["b1"]))
        h2 = ad.sigmoid(ad.linear(h1, params["w2"], params["b2"]))
        out = ad.linear(h2, params["w3"], params["b3"])
        return (out * out).mean()

    check_grads(make_loss, params)


def test_unreachable_parameter_gets_zero_grad():
    used = Tensor(np.array([2.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    loss = (used * used).sum()
    ad.forward_backward(loss, {"used": used, "unused": unused})
    assert np.allclose(used.grad, [4.0])
    assert np.allclose(unused.grad, [0.0])


def test_forward_backward_drops_old_gradients():
    x = Tensor(np.array([2.0]), requires_grad=True)
    for _ in range(2):
        ad.forward_backward((x * x).sum(), {"x": x})
        assert np.array_equal(x.grad, [4.0])


def test_forward_backward_rejects_nonfinite_loss():
    x = Tensor(np.array(np.inf), requires_grad=True)
    with pytest.raises(NumericFailure):
        ad.forward_backward(x + 0.0, {"x": x})


def test_broadcast_add_gradients():
    rng = np.random.default_rng(3)
    a = leaf(rng, 3, 1)
    b = leaf(rng, 4)
    c = Tensor(rng.standard_normal((3, 4)))

    def make_loss():
        return ((a + b) * c).sum()

    check_grads(make_loss, {"a": a, "b": b})


def test_reused_node_accumulates():
    x = Tensor(np.array([1.5]), requires_grad=True)
    y = x * 3.0
    loss = (y + y * y).sum()  # d/dx (3x + 9x^2) = 3 + 18x
    loss.backward()
    assert np.allclose(x.grad, [3.0 + 18.0 * 1.5])


def test_gradient_handed_to_two_parents_is_never_written():
    # add returns one array for both of its leaves; a's second contribution,
    # from the a * 3 the walk reaches after the add, must not change b's grad
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    ((a + b) * 2.0 + a * 3.0).sum().backward()
    assert np.array_equal(b.grad, [2.0, 2.0])
    assert np.array_equal(a.grad, [5.0, 5.0])


def test_second_walk_of_a_graph_is_refused():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = a * 3.0
    loss = (hidden * hidden).sum()
    loss.backward()
    assert hidden.grad is None and loss.grad is None
    with pytest.raises(ContractViolation, match="already walked"):
        loss.backward()
    with pytest.raises(ContractViolation, match="already walked"):   # through a freed node
        (hidden * 2.0).sum().backward()
    assert np.array_equal(a.grad, [18.0, 36.0])


def test_backward_peak_stays_near_the_forward_live_memory():
    """The walk frees each node once its backward has run, so the traced
    peak of a small encoder's backward stays within 1.3x what its forward
    left live; the retaining walk reaches about 1.8x."""
    # embedding's backward imports scipy.sparse on first use: not part of the peak
    import scipy.sparse  # noqa: F401

    vocab = build_vocab([" ".join(f"w{i}" for i in range(200))], size=300, n_aspects=4)
    config = ModelConfig(vocab_size=len(vocab), d_model=32, n_enc_layers=2, n_dec_layers=1,
                         n_heads=2, window=8, max_len=96, n_aspects=4)
    model = Model(config, vocab, rng=rng_mod.stream(0, "init"))
    rng = np.random.default_rng(0)
    seqs = [rng.integers(6, len(vocab), size=n) for n in rng.integers(32, 64, size=16)]
    tracemalloc.start()
    try:
        v_s, _, _ = model.encode_stories(seqs)
        loss = predict_preference(model.params, v_s).sum()
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.params["enc0.ff.w1"].grad is not None
    assert peak <= 1.3 * live, f"peak {peak} B against {live} B live after the forward"


def test_constant_input_gets_no_gradient():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    mask = Tensor(np.array([1.0, 0.0]))
    (w * mask).sum().backward()
    assert mask.grad is None
    assert np.array_equal(w.grad, [1.0, 0.0])


def test_dropout_deterministic_given_seed():
    x = Tensor(np.ones((4, 4)))
    a = ad.dropout(x, 0.5, np.random.default_rng(11)).data
    b = ad.dropout(x, 0.5, np.random.default_rng(11)).data
    assert np.array_equal(a, b)
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_embedding_scatter_adds_duplicate_rows():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    ids = np.array([1, 1, 3])
    out = ad.embedding(table, ids)
    out.sum().backward()
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


@pytest.mark.parametrize("index", [
    slice(0, 1), 1.0, np.array([0.0, 2.0]), np.array([True, False, True]), (0, 1),
    [0, 1.5], True, None, "0", [[0], [1, 2]],
], ids=["slice", "float", "float_array", "bool_mask", "tuple", "mixed_list", "bool", "none",
        "str", "ragged_list"])
def test_getitem_takes_integer_rows_only(index):
    # numpy would slice, read one element or mask; the tape gathers whole rows
    t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with pytest.raises(ContractViolation, match="integer rows only, got"):
        t[index]
    assert np.array_equal(t[np.int64(2)].data, [4.0, 5.0])
    assert np.array_equal(t[[2, 0]].data, [[4.0, 5.0], [0.0, 1.0]])


def test_getitem_empty_list_gathers_no_rows():
    t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = t[[]]
    assert out.data.shape == (0, 2)
    assert np.array_equal(out.data, t[np.array([], dtype=int)].data)
    out.sum().backward()
    assert np.array_equal(t.grad, np.zeros((3, 2)))


def _scaled_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference relative to the largest entry of ``want``."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _run(op, inputs: dict, upstream: np.ndarray):
    """``op``'s value and every input's gradient when ``upstream`` flows
    into its output; a scalar root of ``upstream``'s dtype seeds it, so
    the backward runs in that dtype."""
    out = op(**inputs)
    ad.forward_backward(
        ad._node(np.zeros((), upstream.dtype), (out,), lambda g: (upstream,), "seed"), inputs)
    return [out.data] + [t.grad for t in inputs.values()]


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("x_shape", [(24, 32), (3, 16, 32)])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_matches_matmul_then_add(dtype, tol, x_shape, bias):
    rng = np.random.default_rng(4)
    inputs = {"x": Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True),
              "w": Tensor(rng.standard_normal((32, 48)).astype(dtype), requires_grad=True)}
    if bias:
        inputs["b"] = Tensor(rng.standard_normal(48).astype(dtype), requires_grad=True)
    upstream = rng.standard_normal((*x_shape[:-1], 48)).astype(dtype)

    def oracle(x, w, b=None):
        out = matmul(x, w)
        return out if b is None else ad.add(out, b)

    for got, want in zip(_run(ad.linear, inputs, upstream), _run(oracle, inputs, upstream)):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert _scaled_err(got, want) <= tol


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_layer_norm_matches_two_pass_reference(dtype, tol):
    rng = np.random.default_rng(6)
    inputs = {"x": Tensor((3.0 + 2.0 * rng.standard_normal((4, 24, 64))).astype(dtype),
                          requires_grad=True),
              "gain": Tensor(rng.standard_normal(64).astype(dtype), requires_grad=True),
              "bias": Tensor(rng.standard_normal(64).astype(dtype), requires_grad=True)}
    upstream = rng.standard_normal((4, 24, 64)).astype(dtype)
    got, want = _run(ad.layer_norm, inputs, upstream), _run(reference_layer_norm, inputs, upstream)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        assert _scaled_err(a, b) <= tol


def test_embedding_backward_equals_add_at():
    rng = np.random.default_rng(8)
    table = Tensor(rng.standard_normal((50, 16)), requires_grad=True)
    ids = rng.integers(0, 12, size=(6, 20))           # many duplicate ids
    pos = np.broadcast_to(np.arange(20), (6, 20))     # position ids, as the encoder builds them
    for index in (ids, pos):
        upstream = rng.standard_normal((6, 20, 16))
        table.grad = None
        (ad.embedding(table, index) * Tensor(upstream)).sum().backward()
        want = np.zeros_like(table.data)
        np.add.at(want, index, upstream)
        assert table.grad.dtype == np.float64
        assert np.array_equal(table.grad, want)


IMPORT_GUARD = """
import sys
import numpy as np
import storyeval.cli
from storyeval import autodiff as ad
loaded = [m for m in ("scipy.stats", "scipy.sparse") if m in sys.modules]
assert not loaded, f"importing storyeval.cli loaded {loaded}"
rng = np.random.default_rng(3)
table = ad.Tensor(rng.standard_normal((30, 8)), requires_grad=True)
ids = rng.integers(0, 10, size=(4, 25))
upstream = rng.standard_normal((4, 25, 8))
(ad.embedding(table, ids) * ad.Tensor(upstream)).sum().backward()
want = np.zeros_like(table.data)
np.add.at(want, ids, upstream)
assert np.array_equal(table.grad, want)
"""


def test_cli_import_loads_no_scipy_submodule():
    """scipy.stats and scipy.sparse cost about 65 MB to import; only a backward
    loads scipy.sparse, and its first product still equals np.add.at."""
    env = {**os.environ, "PYTHONPATH": str(Path(ad.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_token_nll_matches_numpy_oracle():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 4, 7)) * 3.0
    targets = rng.integers(0, 3, size=(3, 4))          # ids 0..2 only: many repeats
    weights = rng.choice([0.0, 0.25, 1.0, 1.5], size=(3, 4))
    weights[0, 0], weights[1, 1] = 0.0, 0.25
    logits = Tensor(x, requires_grad=True)
    out = ad.token_nll(logits, targets, weights)
    out.backward()
    logp = x - x.max(-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(-1, keepdims=True))
    onehot = np.eye(7)[targets]
    assert abs(out.item() - -(weights[..., None] * onehot * logp).sum()) <= 1e-12
    want = weights[..., None] * (np.exp(logp) - onehot)
    assert np.max(np.abs(logits.grad - want)) <= 1e-12
    assert np.all(logits.grad[weights == 0.0] == 0.0)

    small = Tensor(x.astype(np.float32), requires_grad=True)
    out = ad.token_nll(small, targets, weights)
    out.backward()
    assert out.dtype == small.grad.dtype == np.float32


def test_log_floor_gradient_zero_where_it_binds():
    x = np.array([-1.0, 0.0, 1e-13, 0.5, 2.0])
    floored, plain = Tensor(x, requires_grad=True), Tensor(x[3:], requires_grad=True)
    ad.log(floored, 1e-12).sum().backward()
    ad.log(plain).sum().backward()
    assert np.array_equal(floored.grad[:3], [0.0, 0.0, 0.0])
    assert np.array_equal(floored.grad[3:], plain.grad)
    assert np.array_equal(ad.log(Tensor(x), 1e-12).data[:3], np.log([1e-12] * 3))


def _op_configs():
    """One FD check per primitive op, several random shapes each."""
    cfgs = []

    def register(name, builder, seeds=(0, 1)):
        for s in seeds:
            cfgs.append(pytest.param(builder, s, id=f"{name}-{s}"))

    def c(rng, *shape):
        return Tensor(rng.standard_normal(shape))

    register("add", lambda rng: (
        {"a": leaf(rng, 3, 4), "b": leaf(rng, 4)},
        lambda p: ((p["a"] + p["b"]) * 2.0).sum()))
    register("mul", lambda rng: (
        {"a": leaf(rng, 2, 3), "b": leaf(rng, 2, 3)},
        lambda p: (p["a"] * p["b"]).sum()))
    register("div", lambda rng: (     # by a float: a mul node
        {"a": leaf(rng, 5)},
        lambda p: ((p["a"] * p["a"]) / 3.0).sum()))
    register("matmul", lambda rng: (     # the oracle of linear
        {"a": leaf(rng, 3, 4), "b": leaf(rng, 4, 2)},
        lambda p: matmul(p["a"], p["b"]).sum()))
    register("matmul_batched", lambda rng: (
        {"a": leaf(rng, 2, 3, 4), "b": leaf(rng, 4, 5)},
        lambda p: (matmul(p["a"], p["b"]) * 0.5).sum()))
    register("linear", lambda rng: (
        {"x": leaf(rng, 2, 3, 4), "w": leaf(rng, 4, 5), "b": leaf(rng, 5)},
        lambda p: (ad.linear(p["x"], p["w"], p["b"]) * c(np.random.default_rng(89), 2, 3, 5)).sum()))
    register("linear_nobias", lambda rng: (
        {"x": leaf(rng, 3, 4), "w": leaf(rng, 4, 2)},
        lambda p: (ad.linear(p["x"], p["w"]) * c(np.random.default_rng(88), 3, 2)).sum()))
    register("reshape_swap", lambda rng: (
        {"a": leaf(rng, 2, 6)},
        lambda p: (swapaxes(p["a"].reshape(2, 3, 2), 0, 2)
                   * c(np.random.default_rng(86), 2, 3, 2)).sum()))
    register("take", lambda rng: (       # the dense oracles' slicing op
        {"a": leaf(rng, 5, 3)},
        lambda p: (take(p["a"], (np.array([0, 2, 2]), slice(1, None))) * 3.0).sum()))
    register("getitem_rows", lambda rng: (   # Tensor[rows] of 1-D scores, as the trainer gathers
        {"a": leaf(rng, 6)},
        lambda p: (p["a"][np.array([0, 2, 2, 5])] * c(np.random.default_rng(83), 4)).sum()))
    register("sum_axis", lambda rng: (
        {"a": leaf(rng, 3, 4)},
        lambda p: (p["a"].sum(axis=0) * c(np.random.default_rng(82), 4)).sum()))
    register("mean_axis", lambda rng: (
        {"a": leaf(rng, 3, 4)},
        lambda p: (p["a"].mean(axis=1) * c(np.random.default_rng(81), 3)).sum()))
    register("log", lambda rng: (
        {"a": leaf(rng, 6)},
        lambda p: ad.log(p["a"] * p["a"] + 1.5).sum()))
    register("relu", lambda rng: (
        {"a": leaf(rng, 8)},
        lambda p: (ad.relu(p["a"] + 0.05) * 2.0).sum()))
    register("sigmoid", lambda rng: (
        {"a": leaf(rng, 7)},
        lambda p: ad.sigmoid(p["a"]).sum()))
    register("dropout", lambda rng: (   # same keep mask on every call
        {"a": leaf(rng, 8)},
        lambda p: (ad.dropout(p["a"], 0.3, np.random.default_rng(5))
                   * c(np.random.default_rng(90), 8)).sum()))
    register("log_floor", lambda rng: (    # the floor binds on the entries below 0.1
        {"a": leaf(rng, 8)},
        lambda p: (ad.log(p["a"], 0.1) * c(np.random.default_rng(84), 8)).sum()))
    register("softmax", lambda rng: (
        {"a": leaf(rng, 3, 5)},
        lambda p: (ad.softmax(p["a"]) * c(np.random.default_rng(99), 3, 5)).sum()))
    register("token_nll", lambda rng: (    # a zero, a fractional weight; repeated targets
        {"a": leaf(rng, 2, 3, 5)},
        lambda p: ad.token_nll(p["a"], np.array([[1, 4, 1], [0, 1, 1]]),
                               np.array([[1.0, 0.0, 0.5], [2.0, 1.0, 0.25]]))))
    register("embedding", lambda rng: (
        {"t": leaf(rng, 6, 4)},
        lambda p: (ad.embedding(p["t"], np.array([[0, 2], [2, 5]]))
                   * c(np.random.default_rng(80), 2, 2, 4)).sum()))
    register("layer_norm", lambda rng: (
        {"x": leaf(rng, 3, 6), "g": leaf(rng, 6), "b": leaf(rng, 6)},
        lambda p: (ad.layer_norm(p["x"], p["g"], p["b"])
                   * c(np.random.default_rng(97), 3, 6)).sum()))

    def window(name, lengths, t, w, seed, rate=0.0):
        """A window_attention case on packed (N,2,3) rows of ``lengths``."""
        lengths, n = np.array(lengths), int(np.sum(lengths))
        register(name, lambda rng: (
            {x: leaf(rng, n, 2, 3) for x in "qkv"},
            lambda p: (ad.window_attention(p["q"], p["k"], p["v"],
                                           ad.WindowLayout(lengths, t, w, np.float64),
                                           rate, np.random.default_rng(5) if rate else None)
                       * c(np.random.default_rng(seed), n, 2, 3)).sum()))

    # window 2 < length 11 (chunks of 2, T not a multiple), second row padded
    window("window_attention", [11, 7], 11, 2, 96)
    window("window_attention_dropout", [11, 8], 11, 2, 94, rate=0.3)  # same mask every call
    window("window_attention_one_token", [1, 6], 6, 2, 87)
    # T = 17 > 3 * window: chunks of 3, and every length ends mid-chunk
    window("window_attention_multichunk", [17, 11, 5], 17, 3, 85)
    # causal self-attention over padded keys (Tq = Tk)
    register("attention_causal", lambda rng: (
        {n: leaf(rng, 2, 5, 2, 3) for n in "qkv"},
        lambda p: (ad.attention(p["q"], p["k"], p["v"], np.array([5, 3]), causal=True)
                   * c(np.random.default_rng(93), 2, 5, 2, 3)).sum()))
    # two query rows over the last of 6 padded keys, causal; and with dropout
    register("attention_cached_rows", lambda rng: (
        {"q": leaf(rng, 2, 2, 2, 3), "k": leaf(rng, 2, 6, 2, 3), "v": leaf(rng, 2, 6, 2, 3)},
        lambda p: (ad.attention(p["q"], p["k"], p["v"], np.array([6, 4]), causal=True)
                   * c(np.random.default_rng(92), 2, 2, 2, 3)).sum()))
    register("attention_dropout", lambda rng: (   # same keep mask on every call
        {"q": leaf(rng, 2, 3, 2, 3), "k": leaf(rng, 2, 7, 2, 3), "v": leaf(rng, 2, 7, 2, 3)},
        lambda p: (ad.attention(p["q"], p["k"], p["v"], np.array([7, 2]), False,
                                0.3, np.random.default_rng(5))
                   * c(np.random.default_rng(91), 2, 3, 2, 3)).sum()))
    return cfgs


@pytest.mark.parametrize("builder,seed", _op_configs())
def test_primitive_op_gradients(builder, seed):
    rng = np.random.default_rng(seed)
    params, forward = builder(rng)
    check_grads(lambda: forward(params), params)


@pytest.mark.parametrize("builder,seed", _op_configs())
def test_freeing_walk_equals_the_retaining_walk(builder, seed):
    grads = []
    for walk in (Tensor.backward, reference_backward):
        params, forward = builder(np.random.default_rng(seed))
        walk(forward(params))
        grads.append({name: p.grad for name, p in params.items()})
    got, want = grads
    for name, g in want.items():
        assert got[name].dtype == g.dtype and got[name].tobytes() == g.tobytes(), name


def test_every_node_building_op_has_a_registry_case(monkeypatch):
    declared = tape_ops()
    built, real_node = set(), ad._node

    def spy(data, parents, backward, name):
        built.add(name)
        return real_node(data, parents, backward, name)

    monkeypatch.setattr(ad, "_node", spy)
    for case in _op_configs():
        builder, seed = case.values
        params, forward = builder(np.random.default_rng(seed))
        forward(params)
    assert declared <= built, sorted(declared - built)


def test_relu_grad_zero_away_from_kink():
    # avoid FD straddling the kink: keep inputs away from 0
    x = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
    ad.relu(x).sum().backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])
