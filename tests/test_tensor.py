import numpy as np
import pytest

from shotrope import tensor as T
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
    err = grad_check(lambda t: T.tsum(T.mul(t, t)), x, h=1e-3)
    assert err <= 1e-4
    assert np.allclose(x.grad, 2 * x.data, atol=1e-5)


def test_grad_check_linear_exact():
    x = Tensor(np.random.default_rng(4).standard_normal((3, 3)))
    grad_check(lambda t: T.tsum(t), x, h=1e-3)
    assert np.array_equal(x.grad, np.ones_like(x.data))


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
    err = grad_check(lambda t: T.tsum(T.mul(T.rope_pairs(t, cosf, sinf), t)), x, h=1e-5)
    assert err <= 1e-5


def test_backward_gather_rows_scatter_adds():
    table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    with GradTape() as tape:
        out = T.gather_rows(table, [1, 1, 3])
        tape.backward(T.tsum(out))
    expect = np.zeros((4, 3), dtype=np.float32)
    expect[1] = 2.0
    expect[3] = 1.0
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
        tape.backward(T.tsum(sliced))
    assert np.array_equal(a.grad, np.array([[0, 0, 0], [1, 1, 1]], dtype=np.float32))
    assert np.array_equal(b.grad, np.ones((1, 3), dtype=np.float32))


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
    assert grad_check(lambda t: T.tsum(T.mul(T.gelu(t), t)), x, h=1e-5) <= 1e-6


# -- head-batched ops on [heads, n, dh] tensors ------------------------------

def _f64(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def test_batched_matmul_equals_matmul_head_by_head():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 5, 8)).astype(np.float32)
    b = rng.standard_normal((3, 8, 6)).astype(np.float32)
    got = T.batched_matmul(Tensor(a), Tensor(b)).data
    for h in range(3):
        assert np.array_equal(got[h], T.matmul(Tensor(a[h]), Tensor(b[h])).data)


def test_batched_matmul_shape_errors():
    with pytest.raises(ShapeError):
        T.batched_matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ShapeError):
        T.batched_matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 5))))


def test_backward_batched_matmul():
    rng = np.random.default_rng(11)
    a, b = _f64(rng, (2, 5, 4)), _f64(rng, (2, 4, 3))
    probe = _f64(rng, (2, 5, 3))
    left = grad_check(lambda t: T.tsum(T.mul(T.batched_matmul(t, b), probe)), a, h=1e-5)
    right = grad_check(lambda t: T.tsum(T.mul(T.batched_matmul(a, t), probe)), b, h=1e-5)
    assert max(left, right) <= 1e-6


def test_transpose_swaps_last_two_axes_contiguously():
    x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    out = T.transpose(Tensor(x)).data
    assert out.flags.c_contiguous
    assert np.array_equal(out, x.transpose(0, 2, 1))


def test_backward_transpose_and_softmax_3d():
    rng = np.random.default_rng(12)
    probe = _f64(rng, (2, 4, 3))
    x = _f64(rng, (2, 3, 4))
    err = grad_check(lambda t: T.tsum(T.mul(T.softmax_rows(T.transpose(t)), probe)), x, h=1e-5)
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


def test_backward_rope_pairs_3d():
    rng = np.random.default_rng(15)
    cosf = np.repeat(np.cos(rng.uniform(0, 3, (3, 2))), 2, axis=1)
    sinf = np.repeat(np.sin(rng.uniform(0, 3, (3, 2))), 2, axis=1)
    x = _f64(rng, (2, 3, 4))
    err = grad_check(lambda t: T.tsum(T.mul(T.rope_pairs(t, cosf, sinf), t)), x, h=1e-5)
    assert err <= 1e-5


def test_backward_slice_and_concat_rows_3d():
    rng = np.random.default_rng(16)
    other = _f64(rng, (2, 2, 3))
    probe = _f64(rng, (2, 5, 3))

    def f(t):
        cat = T.concat_rows([T.slice_rows(t, 1, 4), other])
        return T.tsum(T.mul(T.mul(cat, cat), probe))

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
    assert grad_check(lambda t: T.tsum(T.mul(T.split_heads(t, 3), probe)), xt, h=1e-5) <= 1e-6
    probe2 = _f64(rng, (5, 12))
    yt = _f64(rng, (3, 5, 4))
    assert grad_check(lambda t: T.tsum(T.mul(T.merge_heads(t), probe2)), yt, h=1e-5) <= 1e-6
    with pytest.raises(ShapeError):
        T.split_heads(Tensor(x), 5)


def test_op_outputs_do_not_alias_inputs():
    x = Tensor(np.ones((1, 2, 4), dtype=np.float32))
    for out in (T.merge_heads(x), T.transpose(x), T.slice_rows(x, 0, 2)):
        assert not np.shares_memory(out.data, x.data)
    y = Tensor(np.ones((3, 4), dtype=np.float32))
    assert not np.shares_memory(T.split_heads(y, 1).data, y.data)
