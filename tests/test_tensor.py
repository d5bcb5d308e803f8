import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from shotrope import engine as E, model as M, synthetic as S, tensor as T
from shotrope.tensor import GradTape, NumericError, ShapeError, Tensor, grad_check


def test_matmul_identity():
    eye = Tensor(np.eye(2, dtype=np.float32))
    out = T.matmul(eye, Tensor(np.eye(2, dtype=np.float32)))
    assert np.array_equal(out.data, np.eye(2, dtype=np.float32))


def test_matmul_hand_computed():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, np.array([[2.0], [4.0]], dtype=np.float32))


def test_matmul_against_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 7)).astype(np.float32)
    b = rng.standard_normal((7, 3)).astype(np.float32)
    expect = np.zeros((5, 3), dtype=np.float64)
    for i in range(5):
        for j in range(3):
            acc = 0.0
            for k in range(7):
                acc += float(a[i, k]) * float(b[k, j])
            expect[i, j] = acc
    got = T.matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - expect)) <= 1e-6


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 5))))


def test_softmax_uniform_row():
    out = T.softmax_rows(Tensor(np.zeros((1, 4), dtype=np.float32)))
    assert np.allclose(out.data, 0.25, atol=1e-7)


def test_softmax_large_logit_no_overflow():
    out = T.softmax_rows(Tensor(np.array([[1000.0, 0.0]], dtype=np.float32)))
    assert np.all(np.isfinite(out.data))
    assert abs(out.data[0, 0] - 1.0) <= 1e-6
    assert out.data[0, 1] <= 1e-6


def test_softmax_matches_float64_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 9)).astype(np.float32)
    e = np.exp(x.astype(np.float64))
    oracle = e / e.sum(axis=1, keepdims=True)
    got = T.softmax_rows(Tensor(x)).data
    assert np.max(np.abs(got - oracle)) <= 1e-6
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        T.softmax_rows(Tensor(np.array([[np.inf, 0.0]], dtype=np.float32)))


def test_layernorm_constant_row_is_zero():
    out = T.layernorm(Tensor(np.full((2, 5), 3.0, dtype=np.float32)))
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layernorm_symmetric_row():
    out = T.layernorm(Tensor(np.array([[1.0, -1.0]], dtype=np.float32)), eps=0.0)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)


def test_layernorm_recompute_moments():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 16)).astype(np.float32)
    y = T.layernorm(Tensor(x)).data
    assert np.max(np.abs(y.mean(axis=1))) <= 1e-6
    assert np.allclose(y.var(axis=1), 1.0, atol=1e-3)


def test_grad_check_quadratic():
    x = Tensor(np.random.default_rng(3).standard_normal((2, 3)))
    err = grad_check(lambda t: T.tmean(T.mul(t, t)), x, h=1e-3)
    assert err <= 1e-4
    assert np.allclose(x.grad, 2 * x.data / x.data.size, atol=1e-5)


def test_grad_check_linear_exact():
    x = Tensor(np.random.default_rng(4).standard_normal((3, 3)))
    grad_check(lambda t: T.tmean(t), x, h=1e-3)
    assert np.array_equal(x.grad, np.full_like(x.data, 1.0 / x.data.size))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matmul_softmax_layernorm_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 6)).astype(np.float64), dtype=np.float64)
    w = Tensor(rng.standard_normal((6, 4)).astype(np.float64), dtype=np.float64)
    probe = Tensor(rng.standard_normal((3, 4)).astype(np.float64), dtype=np.float64)

    def f(t):
        return T.tmean(T.mul(T.softmax_rows(T.matmul(T.layernorm(t), w)), probe))

    assert grad_check(f, x, h=1e-5) <= 1e-4


def test_backward_rope_pairs():
    rng = np.random.default_rng(6)
    cos = np.cos(rng.uniform(0, 3, (2, 4)))
    sin = np.sin(rng.uniform(0, 3, (2, 4)))
    cosf = np.repeat(cos, 2, axis=1)
    sinf = np.repeat(sin, 2, axis=1)
    x = Tensor(rng.standard_normal((2, 8)), dtype=np.float64)
    err = grad_check(lambda t: T.tmean(T.mul(T.rope_pairs(t, cosf, sinf), t)), x, h=1e-5)
    assert err <= 1e-5


def test_backward_gather_rows_scatter_adds():
    table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    with GradTape() as tape:
        out = T.gather_rows(table, [1, 1, 3])
        tape.backward(T.tmean(out))
    unit = np.float32(1) / out.data.size  # each read row's share of the mean
    expect = np.zeros((4, 3), dtype=np.float32)
    expect[1] = 2 * unit
    expect[3] = unit
    assert np.array_equal(table.grad, expect)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((8, 8)).astype(np.float32))
    b = Tensor(rng.standard_normal((8, 8)).astype(np.float32))
    r1 = T.softmax_rows(T.matmul(a, b)).data
    r2 = T.softmax_rows(T.matmul(a, b)).data
    assert np.array_equal(r1, r2)


def test_concat_slice_roundtrip_gradients():
    a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((1, 3), dtype=np.float32), requires_grad=True)
    with GradTape() as tape:
        cat = T.concat_rows([a, b])
        sliced = T.slice_rows(cat, 1, 3)
        tape.backward(T.tmean(sliced))
    unit = np.float32(1) / sliced.data.size
    assert np.array_equal(a.grad, np.array([[0, 0, 0], [unit] * 3], dtype=np.float32))
    assert np.array_equal(b.grad, np.full((1, 3), unit, dtype=np.float32))


def _tanh_gelu_f64(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def test_gelu_matches_float64_oracle():
    x = np.linspace(-6.0, 6.0, 241).astype(np.float32)[None, :]
    got = T.gelu(Tensor(x)).data
    assert got.dtype == np.float32
    assert np.max(np.abs(got - _tanh_gelu_f64(x))) <= 2e-6


def test_gelu_float64_is_the_tanh_formula():
    x = np.random.default_rng(8).standard_normal((3, 5)) * 3.0
    got = T.gelu(Tensor(x, dtype=np.float64)).data
    assert np.max(np.abs(got - _tanh_gelu_f64(x))) <= 1e-14


def test_backward_gelu():
    x = Tensor(np.random.default_rng(9).standard_normal((3, 4)) * 2.0, dtype=np.float64)
    assert grad_check(lambda t: T.tmean(T.mul(T.gelu(t), t)), x, h=1e-5) <= 1e-6


def _gelu_full_array(xd):
    """The GELU and its slope as one full-size numpy expression each, in the
    order gelu computed them before it shared a row-blocked helper."""
    c, k = xd.dtype.type(np.sqrt(2.0 / np.pi)), xd.dtype.type(0.044715)
    t = np.tanh(c * (xd + k * (xd * xd * xd)))
    slope = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * (c * (1.0 + 3.0 * k * xd ** 2))
    return 0.5 * xd * (1.0 + t), slope


@pytest.mark.parametrize("rows", [1, 63, 64, 200])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_gelu_equals_the_full_array_formula(dtype, rows):
    """Row blocks change no bit: gelu's output and gradient are the full-size formula's."""
    xd = (np.random.default_rng(rows).standard_normal((rows, 37)) * 4.0).astype(dtype)
    x = Tensor(xd.copy(), requires_grad=True)
    probe = np.random.default_rng(7).standard_normal(xd.shape).astype(dtype)
    with GradTape() as tape:
        out = T.gelu(x)
        tape.backward(T.tmean(T.mul(out, Tensor(probe))))
    want, slope = _gelu_full_array(xd)
    unit = dtype(1) / xd.size  # the mean's gradient on each entry
    assert np.array_equal(out.data, want) and np.array_equal(x.grad, unit * probe * slope)
    assert np.array_equal(x.data, xd)


def _ffn_chain(x, w1, b1, w2, b2):
    """The five-node chain ffn replaces."""
    return T.add(T.matmul(T.gelu(T.add(T.matmul(x, w1), b1)), w2), b2)


def _ffn_inputs(dtype, rows, x_grad, d=24, hidden=40):
    rng = np.random.default_rng(40 + rows)
    shapes = ((rows, d), (d, hidden), (hidden,), (hidden, d), (d,))
    return [
        Tensor(rng.standard_normal(s).astype(dtype), requires_grad=x_grad or i > 0)
        for i, s in enumerate(shapes)
    ]


@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-const"])
@pytest.mark.parametrize("rows", [1, 17, 384])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_ffn_equals_the_chain(dtype, rows, x_grad):
    """Output and all five gradients are the chain's, bit for bit, from one
    tape node instead of five; a constant x gets no gradient."""
    runs = []
    for layer in (T.ffn, _ffn_chain):
        inputs = _ffn_inputs(dtype, rows, x_grad)
        probe = Tensor(np.random.default_rng(41).standard_normal((rows, 24)).astype(dtype))
        with GradTape() as tape:
            out = layer(*inputs)
            nodes = len(tape._nodes)
            tape.backward(T.tmean(T.mul(out, probe)))
        runs.append((out.data, nodes, [t.grad for t in inputs]))
    (got, got_nodes, got_grads), (want, want_nodes, want_grads) = runs
    assert (got_nodes, want_nodes) == (1, 5)
    assert got.dtype == dtype and np.array_equal(got, want)
    assert (got_grads[0] is None) == (not x_grad)
    for g, w in zip(got_grads, want_grads):
        assert (g is None and w is None) or np.array_equal(g, w)


def test_ffn_rejects_biases_that_do_not_fit():
    x, w1, b1, w2, b2 = _ffn_inputs(np.float32, 3, True)
    with pytest.raises(ShapeError):
        T.ffn(x, w1, b2, w2, b2)
    with pytest.raises(ShapeError):
        T.ffn(x, w2, b1, w1, b2)


# -- head-batched ops on [heads, n, dh] tensors ------------------------------

def _f64(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def test_transpose_swaps_last_two_axes_contiguously():
    x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    out = T.transpose(Tensor(x)).data
    assert out.flags.c_contiguous
    assert np.array_equal(out, x.transpose(0, 2, 1))


def test_backward_transpose_and_softmax_3d():
    rng = np.random.default_rng(12)
    probe = _f64(rng, (2, 4, 3))
    x = _f64(rng, (2, 3, 4))
    err = grad_check(lambda t: T.tmean(T.mul(T.softmax_rows(T.transpose(t)), probe)), x, h=1e-5)
    assert err <= 1e-5


def test_softmax_3d_is_rowwise_2d():
    x = np.random.default_rng(13).standard_normal((3, 4, 5)).astype(np.float32)
    got = T.softmax_rows(Tensor(x)).data
    for h in range(3):
        assert np.array_equal(got[h], T.softmax_rows(Tensor(x[h])).data)


def test_rope_pairs_broadcasts_table_over_heads():
    rng = np.random.default_rng(14)
    cos = np.repeat(np.cos(rng.uniform(0, 3, (5, 3))), 2, axis=1).astype(np.float32)
    sin = np.repeat(np.sin(rng.uniform(0, 3, (5, 3))), 2, axis=1).astype(np.float32)
    x = rng.standard_normal((4, 5, 6)).astype(np.float32)
    got = T.rope_pairs(Tensor(x), cos, sin).data
    for h in range(4):
        assert np.array_equal(got[h], T.rope_pairs(Tensor(x[h]), cos, sin).data)
    with pytest.raises(ShapeError):
        T.rope_pairs(Tensor(x), cos[:4], sin[:4])


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_rope_pairs_needs_one_table_row_per_row(blocks):
    """[heads, b*n, dh] rows rotate by a [b*n, dh] table, as rotate_pairs
    does; a table of any other row count, the n-row table of one block too,
    is refused, as are rows without a row axis."""
    rng = np.random.default_rng(17)
    rows = blocks * 5
    cos = np.repeat(np.cos(rng.uniform(0, 3, (rows, 3))), 2, axis=1).astype(np.float32)
    sin = np.repeat(np.sin(rng.uniform(0, 3, (rows, 3))), 2, axis=1).astype(np.float32)
    x = rng.standard_normal((2, rows, 6)).astype(np.float32)
    assert np.array_equal(T.rope_pairs(Tensor(x), cos, sin).data, T.rotate_pairs(x, cos, sin))
    for other in sorted({0, 5, rows - 1, rows + 1} - {rows}):
        with pytest.raises(ShapeError):
            T.rope_pairs(Tensor(x), *(np.resize(tab, (other, 6)) for tab in (cos, sin)))
    with pytest.raises(ShapeError):
        T.rope_pairs(Tensor(x[0, 0]), cos, sin)


def test_backward_rope_pairs_3d():
    rng = np.random.default_rng(15)
    cosf = np.repeat(np.cos(rng.uniform(0, 3, (3, 2))), 2, axis=1)
    sinf = np.repeat(np.sin(rng.uniform(0, 3, (3, 2))), 2, axis=1)
    x = _f64(rng, (2, 3, 4))
    err = grad_check(lambda t: T.tmean(T.mul(T.rope_pairs(t, cosf, sinf), t)), x, h=1e-5)
    assert err <= 1e-5


def test_backward_slice_and_concat_rows_3d():
    rng = np.random.default_rng(16)
    other = _f64(rng, (2, 2, 3))
    probe = _f64(rng, (2, 5, 3))

    def f(t):
        cat = T.concat_rows([T.slice_rows(t, 1, 4), other])
        return T.tmean(T.mul(T.mul(cat, cat), probe))

    x = _f64(rng, (2, 4, 3))
    assert grad_check(f, x, h=1e-5) <= 1e-6
    assert np.array_equal(T.slice_rows(x, 1, 3).data, x.data[:, 1:3])


def test_split_merge_heads_roundtrip_and_gradients():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((5, 12)).astype(np.float32)
    split = T.split_heads(Tensor(x), 3).data
    assert split.shape == (3, 5, 4) and split.flags.c_contiguous
    for h in range(3):
        assert np.array_equal(split[h], x[:, 4 * h:4 * (h + 1)])
    assert np.array_equal(T.merge_heads(T.split_heads(Tensor(x), 3)).data, x)
    probe = _f64(rng, (3, 5, 4))
    xt = _f64(rng, (5, 12))
    assert grad_check(lambda t: T.tmean(T.mul(T.split_heads(t, 3), probe)), xt, h=1e-5) <= 1e-6
    probe2 = _f64(rng, (5, 12))
    yt = _f64(rng, (3, 5, 4))
    assert grad_check(lambda t: T.tmean(T.mul(T.merge_heads(t), probe2)), yt, h=1e-5) <= 1e-6
    with pytest.raises(ShapeError):
        T.split_heads(Tensor(x), 5)


def test_op_outputs_do_not_alias_inputs():
    x = Tensor(np.ones((1, 2, 4), dtype=np.float32))
    for out in (T.merge_heads(x), T.transpose(x), T.slice_rows(x, 0, 2)):
        assert not np.shares_memory(out.data, x.data)
    y = Tensor(np.ones((3, 4), dtype=np.float32))
    assert not np.shares_memory(T.split_heads(y, 1).data, y.data)


# -- attention core: one tape node that keeps no probabilities -------------

def _batched_product(a, b):
    """numpy's product over the last two axes, [..., m, k] @ [..., k, n], as one tape node."""
    ad, bd = a.data, b.data

    def bw(g):
        return g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g

    return T._make(ad @ bd, (a, b), bw)


def _attention_chain(q, k, v, c):
    """The five-node chain attention_core replaces; returns (out, probs)."""
    probs = T.softmax_rows(T.scale(_batched_product(q, T.transpose(k)), c))
    return _batched_product(probs, v), probs.data


def _attention_core(q, k, v, c):
    """attention_core and the probabilities it hands probs_out: one whole block."""
    blocks = []
    out = T.attention_core(q, k, v, c, probs_out=blocks)
    (q_rows, k_rows, probs), = blocks
    assert q_rows == k_rows == slice(None) and isinstance(out, Tensor)
    return out, probs


def _qkv(dtype, lead, needs_grad=(True, True, True)):
    """Fresh Q [.., 5, 6], K [.., 7, 6] and V [.., 7, 4] from a fixed seed."""
    rng = np.random.default_rng(30)
    return [
        Tensor(rng.standard_normal((*lead, n, d)).astype(dtype), requires_grad=grad)
        for (n, d), grad in zip(((5, 6), (7, 6), (7, 4)), needs_grad)
    ]


def _attend_and_backward(attend, dtype, lead, needs_grad=(True, True, True)):
    """Run attend on fresh Q/K/V under a tape and backward through a probe;
    returns the output, the probabilities, the tape nodes attend recorded
    and the inputs."""
    q, k, v = _qkv(dtype, lead, needs_grad)
    probe = Tensor(np.random.default_rng(31).standard_normal((*lead, 5, 4)).astype(dtype))
    with GradTape() as tape:
        out, probs = attend(q, k, v, 0.4)
        nodes = len(tape._nodes)
        tape.backward(T.tmean(T.mul(out, probe)))
    return out.data, probs, nodes, (q, k, v)


@pytest.mark.parametrize(
    "lead,needs",
    [((), (True,) * 3), ((3,), (True,) * 3), ((2, 3), (True,) * 3),
     ((3,), (True, False, True)), ((2, 3), (False, True, False))],
    ids=["2d", "heads", "2x3", "heads-qv", "2x3-k"],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_attention_core_equals_the_chain(dtype, lead, needs):
    """Output, probabilities and Q/K/V gradients are the five-node chain's,
    bit for bit, from one tape node; an input that takes no gradient gets none."""
    got, got_p, got_nodes, got_in = _attend_and_backward(_attention_core, dtype, lead, needs)
    want, want_p, want_nodes, want_in = _attend_and_backward(_attention_chain, dtype, lead, needs)
    assert got_nodes == 1 and (want_nodes == 5 or not all(needs))
    assert got.dtype == got_p.dtype == dtype
    assert np.array_equal(got, want) and np.array_equal(got_p, want_p)
    for g, w, need in zip(got_in, want_in, needs):
        assert (g.grad is None) == (w.grad is None) == (not need)
        assert not need or np.array_equal(g.grad, w.grad)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
def test_attention_core_gradients_match_finite_differences(which):
    inputs = _qkv(np.float64, (2,), needs_grad=(False, False, False))
    probe = _f64(np.random.default_rng(32), (2, 5, 4))

    def f(t):
        args = list(inputs)
        args[which] = t
        return T.tmean(T.mul(T.attention_core(*args, 0.4), probe))

    assert grad_check(f, inputs[which], h=1e-5) <= 1e-6


def _model_op_cases():
    """The ops the model runs, each as (op, float64 input): attention_core on
    two blocks, the second of which reads a fancy key index that skips key row 2."""
    rng = np.random.default_rng(15)
    w1, b1, w2, b2 = (_f64(rng, shape) for shape in ((4, 8), (8,), (8, 4), (4,)))
    q, k, v = _f64(rng, (2, 3, 4)), _f64(rng, (2, 5, 4)), _f64(rng, (2, 5, 4))
    blocks = [(slice(0, 1), slice(0, 2)), (slice(1, 3), np.r_[0:2, 3:5])]
    phase = np.repeat(rng.uniform(-np.pi, np.pi, (3, 2)), 2, axis=1)
    cos, sin = np.cos(phase), np.sin(phase)
    return {
        "ffn": (lambda t: T.ffn(t, w1, b1, w2, b2), _f64(rng, (3, 4))),
        "layernorm": (T.layernorm, _f64(rng, (3, 4))),
        "rope_pairs": (lambda t: T.rope_pairs(t, cos, sin), _f64(rng, (2, 3, 4))),
        "attention_core_q": (lambda t: T.attention_core(t, k, v, 0.5, blocks), q),
        "attention_core_k": (lambda t: T.attention_core(q, t, v, 0.5, blocks), k),
        "attention_core_v": (lambda t: T.attention_core(q, k, t, 0.5, blocks), v),
    }


@pytest.mark.parametrize("case", list(_model_op_cases()))
def test_model_op_gradients_match_central_differences(case):
    """Each float64 gradient, under tmean of a fixed random weighting, is
    within 1e-6 of central differences at h = 1e-5."""
    op, x = _model_op_cases()[case]
    weight = _f64(np.random.default_rng(16), op(x).shape)
    assert grad_check(lambda t: T.tmean(T.mul(op(t), weight)), x, h=1e-5) <= 1e-6


@pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
def test_attention_core_input_without_grad_gets_none(which):
    """A constant input gets no .grad and its product is not computed; the
    other gradients are still the chain's."""
    needs = tuple(i != which for i in range(3))
    _, _, _, got_in = _attend_and_backward(_attention_core, np.float32, (2,), needs)
    _, _, _, want_in = _attend_and_backward(_attention_chain, np.float32, (2,), needs)
    for i, (g, w) in enumerate(zip(got_in, want_in)):
        assert (g.grad is None) == (i == which)
        if i != which:
            assert np.array_equal(g.grad, w.grad)
    q, k, v = _qkv(np.float32, (2,), needs)
    with GradTape() as tape:
        T.attention_core(q, k, v, 0.4)
    (_, _, backward_fn), = tape._nodes
    grads = backward_fn(np.ones((2, 5, 4), dtype=np.float32))
    assert [g is None for g in grads] == [i == which for i in range(3)]


def test_attention_core_refuses_blocks_that_do_not_tile_the_query_rows():
    """Blocks whose query slices leave rows out, overlap, skip rows, run out
    of order or are index arrays raise ShapeError: a row no block covers
    would read uninitialized memory."""
    rng = np.random.default_rng(33)
    q, k, v = (Tensor(rng.standard_normal((2, 6, 4)).astype(np.float32)) for _ in range(3))
    keys = slice(0, 6)
    for q_slices in ([slice(0, 2)], [], [slice(0, 4), slice(2, 6)], [slice(0, 6, 2)],
                     [slice(2, 6), slice(0, 2)], [np.arange(6)], [slice(0, 2), slice(3, 6)]):
        with pytest.raises(ShapeError):
            T.attention_core(q, k, v, 0.4, [(rows, keys) for rows in q_slices])
    whole = T.attention_core(q, k, v, 0.4).data
    tiled = T.attention_core(q, k, v, 0.4, [(slice(0, 2), keys), (slice(2, 6), keys)]).data
    assert np.allclose(tiled, whole, rtol=0, atol=1e-6)


def test_attention_core_rejects_nonfinite_logits_and_bad_shapes():
    q, k, v = _qkv(np.float32, ())
    q.data[2, 3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        T.attention_core(q, k, v, 0.4)
    with pytest.raises(ShapeError):
        T.attention_core(k, q, v, 0.4)


def _tape_arrays(tape):
    """Every array the tape keeps alive: the gradients its output and input
    slots hold and what the backward closures hold, each counted once."""
    found = {}

    def add(obj):
        if isinstance(obj, np.ndarray):
            base = obj if obj.base is None else obj.base
            found[id(base)] = base

    for out, inputs, backward_fn in tape._nodes:
        for obj in (
            *(slot.grad for slot in (out, *inputs)),
            *(c.cell_contents for c in backward_fn.__closure__ or ()),
        ):
            add(obj)
    return list(found.values())


def test_denoiser_tape_keeps_no_score_array():
    """After one forward, the tape holds no [heads, nq, nk] array, neither
    logits nor probabilities: each self- and cross-attention call keeps its
    softmax's [heads, nq, 1] row max and row sum instead.  Nor does it hold
    an [n, hidden] array: each FFN keeps only its input and weights."""
    world = S.SyntheticWorld(**_SMALL_WORLD)
    cfg = M.DenoiserConfig(**_SMALL_MODEL)
    params = M.init_params(cfg, seed=0)
    sample = S.make_batch(world, 1, shot_count_range=(2, 2), shot_len_range=(2, 2), seed=5)[0]
    n, dh = sample.layout.total_tokens, cfg.d_model // cfg.heads
    nc = len(M.caption_context((sample.captions,), cfg, params).shot_index)
    assert dh not in (n, nc, 1)
    with GradTape() as tape:
        M.denoiser_forward(Tensor(sample.tokens), 0.5, sample.captions, sample.layout, cfg, params)
    arrays = _tape_arrays(tape)
    head_rows = [a for a in arrays if a.ndim == 3 and a.shape[:2] == (cfg.heads, n)]
    assert [a.shape[2] for a in head_rows if a.shape[2] != dh] == [1] * (2 * 2 * cfg.blocks)
    hidden = cfg.d_model * cfg.ffn_mult
    assert hidden not in (n, cfg.d_model)
    assert [a.shape for a in arrays if hidden in a.shape and n in a.shape] == []


# -- gradient ownership: one owner per gradient, only leaves keep .grad ------

def _reference_backward(tape, loss):
    """The backward the tape ran before gradients had one owner: every
    first gradient is copied and no gradient is released.  A None gradient
    (an input that needs none) is skipped."""
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for out, inputs, backward_fn in reversed(tape._nodes):
        if out.grad is None:
            continue
        for inp, g in zip(inputs, backward_fn(out.grad)):
            if g is None:
                continue
            if inp.grad is None:
                inp.grad = np.asarray(g, dtype=inp.dtype).copy()
            else:
                inp.grad += g


def _leaves(rng, *shapes):
    return [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in shapes]


def _graph_add(rng):
    a, b = _leaves(rng, (3, 4), (3, 4))
    return T.tmean(T.add(a, b)), [a, b]


def _graph_sub(rng):
    a, b = _leaves(rng, (3, 4), (3, 4))
    return T.tmean(T.mul(T.sub(a, b), T.sub(b, a))), [a, b]


def _graph_concat_slice(rng):
    a, b, c = _leaves(rng, (2, 2, 3), (2, 3, 3), (2, 1, 3))
    cat = T.concat_rows([a, b, c])
    return T.tmean(T.mul(T.slice_rows(cat, 1, 5), T.slice_rows(cat, 2, 6))), [a, b, c]


def _graph_square(rng):
    a, b = _leaves(rng, (3, 4), (3, 4))
    t = T.add(a, b)
    return T.tmean(T.mul(t, t)), [a, b]


def _graph_heads(rng):
    a, b = _leaves(rng, (5, 8), (5, 8))
    probe = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
    split = T.split_heads(T.add(a, b), 2)
    merged = T.merge_heads(T.add(split, split))
    return T.tmean(T.mul(T.add(merged, a), probe)), [a, b]


def _graph_self_add(rng):
    (a,) = _leaves(rng, (3, 4))
    probe = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    return T.tmean(T.mul(T.add(a, a), probe)), [a]


_GRAPHS = [
    _graph_add, _graph_sub, _graph_concat_slice, _graph_square, _graph_heads, _graph_self_add,
]


@pytest.mark.parametrize("graph", _GRAPHS, ids=lambda f: f.__name__[len("_graph_"):])
def test_backward_hands_each_gradient_to_one_owner(graph):
    """No two leaves' gradients share memory, no op output keeps a
    gradient, and the leaves' gradients equal the copying backward's."""
    with GradTape() as tape:
        loss, leaves = graph(np.random.default_rng(20))
        nodes = list(tape._nodes)
        tape.backward(loss)
    for i, a in enumerate(leaves):
        assert a.grad is not None and a.grad.shape == a.shape
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)
    assert all(out.grad is None for out, _, _ in nodes)
    with GradTape() as ref_tape:
        ref_loss, ref_leaves = graph(np.random.default_rng(20))
        _reference_backward(ref_tape, ref_loss)
    for leaf, ref in zip(leaves, ref_leaves):
        assert np.array_equal(leaf.grad, ref.grad)


def test_input_without_grad_gets_none():
    """A constant input receives no gradient, and matmul does not compute one."""
    rng = np.random.default_rng(22)
    z = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    w, b, c = _leaves(rng, (4, 2), (2,), (3, 4))
    with GradTape() as tape:
        h = T.add(T.matmul(z, w), b)
        loss = T.add(T.tmean(T.mul(h, h)), T.tmean(T.mul(z, c)))
        nodes = list(tape._nodes)
        tape.backward(loss)
    assert z.grad is None
    assert all(leaf.grad is not None for leaf in (w, b, c))
    product = next(fn for _, inputs, fn in nodes if inputs == (z._slot, w._slot))
    gz, gw = product(np.ones((3, 2), dtype=np.float32))
    assert gz is None and gw.shape == (4, 2)


_SMALL_WORLD = dict(seed=2, d_token=32, d_id=8, v_scene=4, v_mot=2, height=2, width=2)
_SMALL_MODEL = dict(d_model=24, blocks=1, heads=2, ffn_mult=2, d_token=32, d_id=8)


def _train_two_steps(variant, pmt2v):
    cfg = M.DenoiserConfig(variant=variant, **_SMALL_MODEL)
    tcfg = E.TrainConfig(steps=2, batch_size=2, seed=4, pmt2v=pmt2v, id_dropout=0.0)
    params, _ = E.train(cfg, tcfg, S.SyntheticWorld(**_SMALL_WORLD))
    return params


@pytest.mark.parametrize("pmt2v", [False, True], ids=["plain", "pmt2v"])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_train_gradients_equal_copying_backward(variant, pmt2v, monkeypatch):
    """On a small denoiser, the gradients engine.train accumulates over two
    samples and hands to AdamW are the copying backward's, bit for bit."""
    seen = []
    step = E.AdamW.step

    def recording_step(self, params):
        seen.append({n: p.grad.copy() for n, p in params.items() if p.grad is not None})
        step(self, params)

    monkeypatch.setattr(E.AdamW, "step", recording_step)
    got_params = _train_two_steps(variant, pmt2v)
    got = seen[:]
    seen.clear()
    monkeypatch.setattr(T.GradTape, "backward", _reference_backward)
    want_params = _train_two_steps(variant, pmt2v)
    assert len(got) == len(seen) == 2
    for got_step, want_step in zip(got, seen):
        assert got_step.keys() == want_step.keys()
        for name in want_step:
            assert np.array_equal(got_step[name], want_step[name]), name
    for name in want_params:
        assert np.array_equal(got_params[name].data, want_params[name].data), name


def _one_tape_train(model_cfg, train_cfg, world):
    """engine.train as one tape over each batch and one backward of the mean
    loss, drawing what engine.train draws in the same order; returns the
    parameters and the logged losses."""
    params = M.init_params(model_cfg, train_cfg.seed)
    opt = E.AdamW(params, train_cfg)
    log = []
    for step in range(train_cfg.steps):
        rng = T.seeded_rng(train_cfg.seed, step)
        batch = S.make_batch(
            world, train_cfg.batch_size, shot_count_range=train_cfg.shot_count_range,
            shot_len_range=train_cfg.shot_len_range, seed=int(rng.integers(2**62)),
        )
        with GradTape() as tape:
            losses = []
            for sample in batch:
                i_t = int(rng.integers(1, train_cfg.train_timesteps + 1))
                tau = float(E.shift_map(i_t / train_cfg.train_timesteps, train_cfg.train_shift))
                eps = rng.standard_normal(sample.tokens.shape).astype(np.float32)
                captions = M.apply_caption_dropout(sample.captions, model_cfg.caption_dropout, rng)
                if train_cfg.pmt2v:
                    if rng.uniform() < train_cfg.id_dropout:
                        id_row = params["caption/null_id"]
                    else:
                        id_row = E.identity_embedding(params, world, sample.id_index)
                    captions = E.condition_identity(captions, id_row)
                z_tau = M.make_noisy(sample.tokens, eps, tau)
                pred = M.denoiser_forward(z_tau, tau, captions, sample.layout, model_cfg, params)
                losses.append(M.rf_loss(pred, sample.tokens, eps))
            total = T.scale(functools.reduce(T.add, losses), 1.0 / len(losses))
            tape.backward(total)
        log.append(float(total.data))
        opt.step(params)
    return params, log


def _multi_shot_train_cfg(batch_size, pmt2v, steps=2):
    """2-3 shots a sample, so each sample gathers the caption tables more than once."""
    return E.TrainConfig(
        steps=steps, batch_size=batch_size, seed=4, pmt2v=pmt2v, id_dropout=0.5,
        shot_count_range=(2, 3), shot_len_range=(1, 2),
    )


@pytest.mark.parametrize("batch_size", [2, 3])
@pytest.mark.parametrize("pmt2v", [False, True], ids=["plain", "pmt2v"])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_train_gradients_equal_one_tape_step(variant, pmt2v, batch_size, monkeypatch):
    """engine.train backwards each sample before the next sample's forward,
    last sample first.  The gradients AdamW receives, the loss log and the
    trained weights are those of one tape over the batch, bit for bit."""
    seen = []
    step = E.AdamW.step

    def recording_step(self, params):
        seen.append({n: p.grad.copy() for n, p in params.items() if p.grad is not None})
        step(self, params)

    monkeypatch.setattr(E.AdamW, "step", recording_step)
    cfg = M.DenoiserConfig(variant=variant, **_SMALL_MODEL)
    tcfg = _multi_shot_train_cfg(batch_size, pmt2v)
    world = S.SyntheticWorld(**_SMALL_WORLD)
    got_params, got_log = E.train(cfg, tcfg, world)
    got = seen[:]
    seen.clear()
    want_params, want_log = _one_tape_train(cfg, tcfg, world)
    assert [loss for _, loss, _ in got_log] == want_log
    assert len(got) == len(seen) == 2
    if pmt2v:  # both the null identity row and a projected identity were drawn
        assert {"caption/null_id", "id_proj/w"} <= set().union(*seen)
    for got_step, want_step in zip(got, seen):
        assert got_step.keys() == want_step.keys()
        for name in want_step:
            assert np.array_equal(got_step[name], want_step[name]), name
    for name in want_params:
        assert np.array_equal(got_params[name].data, want_params[name].data), name


@pytest.mark.parametrize("pmt2v", [False, True], ids=["plain", "pmt2v"])
def test_train_forwards_start_on_an_empty_tape(pmt2v, monkeypatch):
    """Inside engine.train no sample's forward sees another sample's nodes:
    each denoiser_forward starts on an empty tape, or, in pmt2v, on the two
    nodes that projected its own identity row."""
    forward = M.denoiser_forward
    seen = []

    def spy(z, tau, captions, layout, cfg, params):
        projected = captions.id_row not in (None, params["caption/null_id"])
        seen.append((len(T._ACTIVE_TAPE._nodes), 2 if projected else 0))
        return forward(z, tau, captions, layout, cfg, params)

    monkeypatch.setattr(M, "denoiser_forward", spy)
    cfg = M.DenoiserConfig(**_SMALL_MODEL)
    E.train(cfg, _multi_shot_train_cfg(3, pmt2v), S.SyntheticWorld(**_SMALL_WORLD))
    assert len(seen) == 6
    assert all(nodes == want for nodes, want in seen), seen
    if pmt2v:
        assert {want for _, want in seen} == {0, 2}


def test_train_step_that_raises_leaves_no_gradient(monkeypatch):
    """A step whose second forward raises re-raises after the first sample's
    backward has added gradients; it clears them and updates nothing."""
    cfg = M.DenoiserConfig(**_SMALL_MODEL)
    params = M.init_params(cfg, seed=0)
    before = {name: p.data.copy() for name, p in params.items()}
    forward = M.denoiser_forward
    had_grads = []

    def spy(*args):
        had_grads.append(any(p.grad is not None for p in params.values()))
        if len(had_grads) == 2:
            raise NumericError("injected fault")
        return forward(*args)

    monkeypatch.setattr(M, "denoiser_forward", spy)
    tcfg = _multi_shot_train_cfg(2, pmt2v=False, steps=1)
    with pytest.raises(NumericError, match="injected fault"):
        E.train(cfg, tcfg, S.SyntheticWorld(**_SMALL_WORLD), params=params)
    assert had_grads == [False, True]
    assert all(p.grad is None for p in params.values())
    for name, p in params.items():
        assert np.array_equal(p.data, before[name]), name


def test_denoiser_latent_gets_no_gradient():
    world = S.SyntheticWorld(**_SMALL_WORLD)
    cfg = M.DenoiserConfig(**_SMALL_MODEL)
    params = M.init_params(cfg, seed=0)
    sample = S.make_batch(world, 1, shot_count_range=(2, 2), shot_len_range=(2, 2), seed=5)[0]
    z = Tensor(sample.tokens)
    with GradTape() as tape:
        pred = M.denoiser_forward(z, 0.5, sample.captions, sample.layout, cfg, params)
        loss = T.tmean(T.mul(pred, pred))
        nodes = list(tape._nodes)
        tape.backward(loss)
    assert z.grad is None
    assert params["in_proj/w"].grad is not None and params["time_proj/w"].grad is not None
    assert all(out.grad is None for out, _, _ in nodes)


# -- the tape keeps gradient routing, not data, and replays once --------------

def _reachable(obj, seen):
    """Yield obj and what the tuples, lists, dicts, __slots__ objects and
    closure cells under it hold."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = (*obj.keys(), *obj.values())
    elif hasattr(type(obj), "__slots__"):
        children = [getattr(obj, name, None) for name in type(obj).__slots__]
    elif callable(obj) and getattr(obj, "__closure__", None):
        children = [c.cell_contents for c in obj.__closure__]
    else:
        children = ()
    for child in children:
        yield from _reachable(child, seen)


def test_denoiser_tape_reaches_no_tensor():
    """After one forward, neither a node nor a closure cell leads to a Tensor."""
    world = S.SyntheticWorld(**_SMALL_WORLD)
    cfg = M.DenoiserConfig(variant="full+refattn", **_SMALL_MODEL)
    params = M.init_params(cfg, seed=0)
    sample = S.make_batch(world, 1, shot_count_range=(2, 2), shot_len_range=(2, 2), seed=5)[0]
    with GradTape() as tape:
        M.denoiser_forward(Tensor(sample.tokens), 0.5, sample.captions, sample.layout, cfg, params)
    reached = list(_reachable(tape._nodes, set()))
    assert sum(callable(obj) for obj in reached) == len(tape._nodes) > 0
    assert not [obj for obj in reached if isinstance(obj, Tensor)]


def test_tape_lets_an_intermediate_output_die():
    """An op output whose array no backward formula reads is freed as soon
    as the forward code lets go of it."""
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    w, b = _leaves(rng, (4, 2), (2,))
    with GradTape() as tape:
        m = T.matmul(x, w)
        product = weakref.ref(m.data)
        h = T.add(m, b)
        del m
        assert product() is None
        tape.backward(T.tmean(T.mul(h, h)))
    assert w.grad is not None and b.grad is not None


def test_backward_empties_the_tape_and_replays_once():
    rng = np.random.default_rng(24)
    a, b = _leaves(rng, (3, 4), (3, 4))
    with GradTape() as tape:
        loss = T.tmean(T.mul(a, b))
        tape.backward(loss)
        assert tape._nodes == []
        grads = a.grad.copy(), b.grad.copy()
        with pytest.raises(RuntimeError):
            tape.backward(loss)
    assert np.array_equal(a.grad, grads[0]) and np.array_equal(b.grad, grads[1])


# traced peaks of one default-model step on 2 x 384 tokens (tracemalloc, numpy 2,
# x86-64).  One tape over the batch: 99.7 MB when the tape kept every op's
# output and inputs, 57.0 MB with slots and closures that keep only what a
# backward reads, 39.8 MB once attention kept no probabilities, 18.1 MB once
# each FFN kept no [n, hidden] array and attention's backward ran one head at
# a time.  engine.train, which keeps one sample on a tape at a time: 35.8 MB
# (66.8 MB as one tape), then 24.7 MB with the FFN node and per-head backward.
TRAIN_STEP_PEAK_MB = 30
ONE_TAPE_STEP_PEAK_MB = 24
# what a third 192-token sample adds to the traced peak of an engine.train
# step: 0.1 MB (11.1 MB when the whole batch shared one tape)
PER_SAMPLE_PEAK_MB = 1


def _traced_peak(run):
    """Bytes run() allocates at its peak above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _default_train_step(batch_size, shots, frames):
    """One engine.train step of the default model on a batch of layouts of
    shots x frames, with the parameters made beforehand; returns the step and
    the token count of each sample it trains on."""
    cfg = M.DenoiserConfig()
    params = M.init_params(cfg, 0)
    tcfg = E.TrainConfig(
        steps=1, batch_size=batch_size, shot_count_range=(shots, shots),
        shot_len_range=(frames, frames),
    )
    world = S.SyntheticWorld(seed=1)
    return lambda: E.train(cfg, tcfg, world, params=params), shots * frames * world.height * world.width


def test_train_step_traced_peak():
    """One engine.train step on a 4-shot, 6-frame pair (2 x 384 tokens) of the
    default model: draws, forwards, backwards and AdamW stay under
    TRAIN_STEP_PEAK_MB above the memory held before the step."""
    step, tokens = _default_train_step(2, 4, 6)
    assert tokens == 384
    peak = _traced_peak(step)
    assert peak <= TRAIN_STEP_PEAK_MB * 1e6, f"{peak / 1e6:.1f} MB"


def test_train_step_peak_does_not_grow_with_batch():
    """A third 192-token sample (3 shots of 4 frames) adds under
    PER_SAMPLE_PEAK_MB to a default-model step's traced peak: only one
    sample's activations are alive at a time."""
    peaks = []
    for batch_size in (2, 3):
        step, tokens = _default_train_step(batch_size, 3, 4)
        assert tokens == 192
        peaks.append(_traced_peak(step))
    assert peaks[1] - peaks[0] <= PER_SAMPLE_PEAK_MB * 1e6, [f"{p / 1e6:.1f} MB" for p in peaks]


def test_one_tape_step_traced_peak():
    """The same step with both samples on one tape and one backward of their
    mean stays under ONE_TAPE_STEP_PEAK_MB: no attention keeps its scores."""
    cfg = M.DenoiserConfig()
    params = M.init_params(cfg, 0)
    batch = S.make_batch(
        S.SyntheticWorld(seed=1), 2, shot_count_range=(4, 4), shot_len_range=(6, 6), seed=5
    )
    assert [s.layout.total_tokens for s in batch] == [384, 384]
    opt = E.AdamW(params, E.TrainConfig())
    rng = np.random.default_rng(6)
    noise = [rng.standard_normal(s.tokens.shape).astype(np.float32) for s in batch]

    def step():
        with GradTape() as tape:
            losses = [
                M.rf_loss(
                    M.denoiser_forward(
                        M.make_noisy(s.tokens, eps, 0.5), 0.5, s.captions, s.layout, cfg, params
                    ),
                    s.tokens, eps,
                )
                for s, eps in zip(batch, noise)
            ]
            tape.backward(T.scale(T.add(*losses), 0.5))
        opt.step(params)

    peak = _traced_peak(step)
    assert peak <= ONE_TAPE_STEP_PEAK_MB * 1e6, f"{peak / 1e6:.1f} MB"


def _backward_peak(op, *shapes):
    """The traced peak of the backward of op on seeded float32 inputs of the
    given shapes that all take a gradient, and the bytes that backward returns."""
    rng = np.random.default_rng(50)
    inputs = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in shapes]
    with GradTape() as tape:
        out = op(*inputs)
    (_, _, backward_fn), = tape._nodes
    g = rng.standard_normal(out.shape).astype(np.float32)
    grads = []
    peak = _traced_peak(lambda: grads.extend(backward_fn(g)))
    return peak, sum(a.nbytes for a in grads)


def test_ffn_backward_keeps_two_hidden_arrays():
    """A default-model FFN backward at 384 tokens, its returned gradients
    included, peaks under 2.5 [n, hidden] arrays: it rebuilds the
    pre-activation and the GELU with at most two such arrays alive."""
    n, d, hidden = 384, 128, 512
    peak, _ = _backward_peak(T.ffn, (n, d), (d, hidden), (hidden,), (hidden, d), (d,))
    assert peak < 2.5 * n * hidden * 4, f"{peak / (n * hidden * 4):.2f}"


def test_attention_core_backward_keeps_one_head_at_a_time():
    """An attention_core backward over 4 heads rebuilds one head's [nq, nk]
    probabilities at a time: besides its returned gradients it holds that
    head's probabilities, their gradient and the two's elementwise product
    (for the softmax's row dot), and no array of all heads."""
    heads, nq, nk, dh = 4, 512, 384, 16
    peak, returned = _backward_peak(
        lambda q, k, v: T.attention_core(q, k, v, 0.25), (heads, nq, dh), (heads, nk, dh),
        (heads, nk, dh),
    )
    assert peak - returned < 3.2 * nq * nk * 4, f"{(peak - returned) / (nq * nk * 4):.2f}"


def _attention_core_grads(lead, nq, nk, dh=16):
    rng = np.random.default_rng(51)
    q, k, v = (
        Tensor(rng.standard_normal((*lead, n, dh)).astype(np.float32), requires_grad=True)
        for n in (nq, nk, nk)
    )
    with GradTape() as tape:
        out = T.attention_core(q, k, v, 0.25)
        tape.backward(T.tmean(T.mul(out, Tensor(rng.standard_normal(out.shape).astype(np.float32)))))
    return [t.grad for t in (q, k, v)]


@pytest.mark.parametrize("lead, nq, nk", [((4,), 688, 8), ((2, 3), 96, 12), ((4,), 128, 128)])
def test_attention_core_backward_batches_small_heads_with_the_same_bits(monkeypatch, lead, nq, nk):
    """Small calls run their backward over all heads at once, with the
    gradients of the one-head-at-a-time path, bit for bit."""
    assert np.prod(lead) * nq * nk <= T._SCORES_AT_ONCE
    batched = _attention_core_grads(lead, nq, nk)
    monkeypatch.setattr(T, "_SCORES_AT_ONCE", 0)  # one head at a time
    for got, want in zip(batched, _attention_core_grads(lead, nq, nk)):
        assert np.array_equal(got, want)


# the row products of the default and of a 32-dim model: input projection,
# attention projections, FFN and head
PRODUCT_SHAPES = sorted({
    shape
    for cfg in (M.DenoiserConfig(), M.DenoiserConfig(d_model=32, blocks=2))
    for name, shape in M.param_shapes(cfg)
    if name in ("in_proj/w", "block0/sa/wq", "block0/ffn/w1", "block0/ffn/w2", "head/w")
})


@pytest.mark.parametrize("k, n", PRODUCT_SHAPES, ids=[f"{k}x{n}" for k, n in PRODUCT_SHAPES])
def test_stacked_row_blocks_multiply_as_the_blocks_do(k, n):
    """matmul on B stacked blocks of rows equals each block's own product, bit
    for bit, at the 16-688 rows the model's fields have: the two branches of
    a guided denoiser_forward run stacked and packing runs several layouts'
    rows in one product on this, so a BLAS that breaks it fails here before
    it changes sampled bits."""
    rng = np.random.default_rng(53)
    w = Tensor((rng.standard_normal((k, n)) * 0.02).astype(np.float32))
    cases = [(16, 2), (17, 3), (48, 2), (96, 2), (144, 3), (192, 2), (384, 2), (688, 2)]
    for rows, copies in cases:
        blocks = [rng.standard_normal((rows, k)).astype(np.float32) for _ in range(copies)]
        stacked = T.matmul(Tensor(np.concatenate(blocks)), w).data
        apart = [T.matmul(Tensor(b), w).data for b in blocks]
        assert np.array_equal(stacked, np.concatenate(apart)), (rows, copies)
