"""Dense float32 tensors with reverse-mode autodiff on an explicit tape.

Each op is one function that takes Tensors (plus plain numbers and constant
arrays where its signature says so) and returns a fresh Tensor; Tensor has
no operator spellings.  Shapes are explicit everywhere.  Two implicit
broadcasts are allowed, adding a 1-D bias row, or a [1, d] row, to every
row of a 2-D tensor; besides them, `rope_pairs` rotates a head-batched
[heads, n, dh] tensor by one constant [n, dh] rotary table every head shares.
Attention runs all heads at once: `split_heads` turns [n, d] into
[heads, n, d/heads], the row ops act on the last two axes,
`attention_core` runs softmax(c q k^T) v, whole or over blocks of query
rows that each see their own key rows, as one tape node whose backward
rebuilds the probabilities (one head at a time when they are large)
rather than keep them, and `merge_heads` restores [n, d].  `ffn` is
likewise one node that rebuilds its hidden layer in the backward.  The
tape keeps gradient routing, not data: gradient slots and backward
closures over only the arrays each formula reads, so an op output is
freed once the forward lets go of it, and `GradTape.backward` drops each
node as it runs it.
Forward math is plain numpy, so two runs over identical inputs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

# the cubic coefficient of the tanh-approximated GELU
GELU_K = 0.044715
_ROWS = 64  # rows per block of the GELU's elementwise work
# most [..., nq, nk] entries attention_core's backward rebuilds for all heads at once
_SCORES_AT_ONCE = 1 << 16


class ShapeError(ValueError):
    pass


class NumericError(FloatingPointError):
    pass


class ConfigError(ValueError):
    pass


# what a field of each type accepts: JSON has one number type and no tuples
_ACCEPTED = {float: (int, float), tuple: (list, tuple)}


def _has_type(value, want):
    if isinstance(value, bool) != (want is bool):
        return False
    if not isinstance(value, _ACCEPTED.get(want, want)):
        return False
    return want is not tuple or all(_has_type(v, int) for v in value)


def check_config(what, d, types):
    """Check the mapping d against types, which maps each key to its type.

    Raises ConfigError on a key types lacks, a value of another type, or a
    float that is NaN or infinite (JSON's `NaN` and `Infinity` literals).
    An int passes for a float, and a list for a tuple; tuple fields hold ints.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what} config must be a mapping, got {type(d).__name__}")
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    for key, value in d.items():
        if not _has_type(value, types[key]):
            raise ConfigError(
                f"{what} config {key!r} must be {types[key].__name__}, got {value!r}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{what} config {key!r} must be finite, got {value!r}")


def config_from_dict(cls, what, d):
    """cls(**d) for a config dataclass, each field typed by its annotation;
    a field without a default must be in d."""
    check_config(what, d, typing.get_type_hints(cls))
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    if not set(required) <= set(d):
        raise ConfigError(f"{what} config needs {required}")
    return cls(**d)


def seeded_rng(seed, *key):
    """The generator of seed's child sequence key; with no key, the stream
    np.random.default_rng(seed) draws.  A negative seed is a ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


_ACTIVE_TAPE = None


class GradTape:
    """Ordered record of primitive ops; backward replays it once, in reverse.

    Each op records (output slot, input slots, backward_fn).  A Tensor's slot
    holds its grad, requires_grad and dtype, so the tape keeps no Tensor
    alive.  backward_fn(g) maps the gradient g of the output to one gradient
    per input, or None for an input that needs none.  backward pops each node
    as it runs it and takes g from the output's slot, so only leaves keep
    .grad.  Each gradient has one owner: it goes to its input without a copy,
    and no two returned arrays overlap.  Inputs with requires_grad False get none.
    """

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("nested GradTape not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, out, inputs, backward_fn):
        self._nodes.append((out._slot, tuple(i._slot for i in inputs), backward_fn))

    def backward(self, loss):
        if not self._nodes:
            raise RuntimeError("backward on an empty tape: nothing recorded, or already replayed")
        if loss.data.ndim != 0:
            raise ShapeError("backward requires a scalar loss")
        if not np.isfinite(loss.data):
            raise NumericError("non-finite loss")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        while self._nodes:
            out, inputs, backward_fn = self._nodes.pop()
            g_out = out.grad
            if g_out is None:
                continue
            out.grad = None
            for inp, g in zip(inputs, backward_fn(g_out)):
                if g is None or not inp.requires_grad:
                    continue
                if inp.grad is None:
                    inp.grad = np.asarray(g, dtype=inp.dtype)
                else:
                    inp.grad += g


class _Slot:
    """What the tape keeps of a Tensor: its gradient, whether it takes one, its dtype."""

    __slots__ = ("grad", "requires_grad", "dtype")

    def __init__(self, requires_grad, dtype):
        self.grad, self.requires_grad, self.dtype = None, requires_grad, dtype


class Tensor:
    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self._slot = _Slot(requires_grad, arr.dtype)

    grad = property(lambda t: t._slot.grad, lambda t, g: setattr(t._slot, "grad", g))
    requires_grad = property(
        lambda t: t._slot.requires_grad, lambda t, flag: setattr(t._slot, "requires_grad", flag)
    )

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def _make(out_data, inputs, backward_fn):
    out = Tensor(out_data)  # every op's output is a fresh float array: no copy
    if _ACTIVE_TAPE is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.record(out, inputs, backward_fn)
    return out


def add(a, b):
    if a.shape == b.shape:
        pass
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        pass  # row-wise bias
    elif a.data.ndim == 2 and b.data.shape == (1, a.shape[1]):
        pass  # single row broadcast over all rows
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out_data = a.data + b.data
    b_shape, a_grad = b.shape, a.requires_grad

    def bw(g):
        if b_shape == g.shape:
            gb = g.copy() if a_grad else g  # g itself goes to a
        elif len(b_shape) == 1:
            gb = g.sum(axis=0)
        else:
            gb = g.sum(axis=0, keepdims=True)
        return g, gb

    return _make(out_data, (a, b), bw)


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    out_data = a.data - b.data

    def bw(g):
        return g, -g

    return _make(out_data, (a, b), bw)


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out_data = ad * bd

    def bw(g):
        return g * bd, g * ad

    return _make(out_data, (a, b), bw)


def scale(a, c):
    c = a.data.dtype.type(float(c))
    out_data = a.data * c

    def bw(g):
        return (g * c,)

    return _make(out_data, (a,), bw)


def _swap_last(a):
    return np.swapaxes(a, -1, -2)


def matmul(a, b):
    """2-D product [m, k] @ [k, n].

    Kept 2-D: the benchmark's tracer reads its operands' shapes as
    [m, k] and [k, n] to count flops.  Attention's batched products run
    inside `attention_core`.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd, a_grad, b_grad = a.data, b.data, a.requires_grad, b.requires_grad
    out_data = ad @ bd

    def bw(g):
        ga = g @ bd.T if a_grad else None
        gb = ad.T @ g if b_grad else None
        return ga, gb

    return _make(out_data, (a, b), bw)


def transpose(a):
    """Swap the last two axes into a contiguous copy."""
    if a.data.ndim < 2:
        raise ShapeError("transpose expects a tensor of at least 2 dims")
    out_data = np.ascontiguousarray(_swap_last(a.data))

    def bw(g):
        return (np.ascontiguousarray(_swap_last(g)),)

    return _make(out_data, (a,), bw)


def _softmax_forward(x, out=None):
    """Softmax over the last axis of the finite array x, into out (may be x) or a
    new array; returns it with the row max and row sum it divided by."""
    row_max = x.max(axis=-1, keepdims=True)
    out = np.subtract(x, row_max, out=out)
    np.exp(out, out=out)
    row_sum = out.sum(axis=-1, keepdims=True)
    out /= row_sum
    return out, row_max, row_sum


def softmax_rows(x):
    """Softmax over the last axis."""
    if x.data.ndim < 2:
        raise ShapeError("softmax_rows expects a tensor of at least 2 dims")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax_rows: non-finite input")
    out_data = _softmax_forward(x.data)[0]

    def bw(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - dot),)

    return _make(out_data, (x,), bw)


def attention_core(q, k, v, c, blocks=None, probs_out=None):
    """softmax(c * q k^T) v over the last two axes as one tape node, equal, bit
    for bit, to the chain q @ transpose(k), scale, softmax_rows, @ v with numpy.

    blocks, when given, is a sequence of (q_rows, k_rows) whose q_rows, slices,
    tile the query rows in order, each starting where the one before ended (a
    ShapeError otherwise): those rows attend over the key rows k_rows, a slice
    (a view, no copy) or an index array, and q, k and v get the gradients of
    the chain run on each block's rows, summed over the blocks last to first.
    A list given as probs_out gets each block's (q_rows, k_rows, probabilities);
    otherwise no probability array outlives its block's product with v.  The
    backward keeps no [..., nq, nk] array: it keeps each block's k^T and
    values, the array of q and the softmax's row max and row sum, and rebuilds
    the probabilities from them (one head at a time when all heads' are large)
    with the forward's own numpy calls, so the gradients are the same bits."""
    if q.data.ndim < 2 or not (q.shape[:-2] == k.shape[:-2] == v.shape[:-2]
                               and q.shape[-1] == k.shape[-1] and k.shape[-2] == v.shape[-2]):
        raise ShapeError(f"attention_core: incompatible shapes {q.shape} {k.shape} {v.shape}")
    top = 0
    for q_rows, _ in blocks or ():
        if not (isinstance(q_rows, slice) and q_rows.step is None
                and top == q_rows.start <= q_rows.stop):
            raise ShapeError(f"attention_core: query rows {q_rows} do not start at row {top}")
        top = q_rows.stop
    if blocks is not None and top != q.shape[-2]:
        raise ShapeError(f"attention_core: the blocks' query rows end at {top}, not {q.shape[-2]}")
    qd, kd, vd = q.data, k.data, v.data
    c = np.result_type(qd, kd).type(float(c))
    out_data = np.empty(qd.shape[:-1] + vd.shape[-1:], np.result_type(qd, kd, vd))
    row_max, row_sum = (np.empty(qd.shape[:-1] + (1,), c.dtype) for _ in range(2))
    kept = []
    for q_rows, k_rows in [(slice(None), slice(None))] if blocks is None else blocks:
        kt, vb = np.ascontiguousarray(_swap_last(kd[..., k_rows, :])), vd[..., k_rows, :]
        p = qd[..., q_rows, :] @ kt
        p *= c
        if not np.isfinite(p).all():
            raise NumericError("attention_core: non-finite logits")
        row_max[..., q_rows, :], row_sum[..., q_rows, :] = _softmax_forward(p, out=p)[1:]
        np.matmul(p, vb, out=out_data[..., q_rows, :])
        kept.append((q_rows, k_rows, kt, vb, p.size > _SCORES_AT_ONCE))
        if probs_out is not None:
            probs_out.append((q_rows, k_rows, p))
        del p  # before the next block's
    grad_shapes = [(t.shape, t.dtype) if t.requires_grad else None for t in (q, k, v)]

    def bw(g):
        # several blocks add their gradients, as the chain's slice and concat nodes did
        add = blocks is not None and len(blocks) > 1
        gq, gk, gv = (np.zeros(*shape) if shape else None for shape in grad_shapes)

        def put(dst, rows, grad):
            dst[..., rows, :] = dst[..., rows, :] + grad if add else grad

        for q_rows, k_rows, kt, vb, by_head in reversed(kept):
            qb, gb, mb, sb = (x[..., q_rows, :] for x in (qd, g, row_max, row_sum))
            for i in np.ndindex(qd.shape[:-2]) if by_head else [...]:
                p = qb[i] @ kt[i]  # the forward's probabilities, rebuilt by the same calls
                p *= c
                p -= mb[i]
                np.exp(p, out=p)
                p /= sb[i]
                if gv is not None:
                    put(gv[i], k_rows, _swap_last(p) @ gb[i])
                gs = gb[i] @ _swap_last(vb[i])
                gs -= (gs * p).sum(axis=-1, keepdims=True)
                gs *= p
                gs *= c
                if gq is not None:
                    put(gq[i], q_rows, gs @ _swap_last(kt[i]))
                if gk is not None:
                    put(gk[i], k_rows, _swap_last(_swap_last(qb[i]) @ gs))
                del p, gs  # before the next head's
        return gq, gk, gv

    return _make(out_data, (q, k, v), bw)


def layernorm(x, eps=1e-5):
    if x.data.ndim != 2 or x.shape[1] < 1:
        raise ShapeError("layernorm expects a 2-D tensor with last dim >= 1")
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    xhat = centered * inv
    out_data = xhat.astype(x.data.dtype, copy=False)

    def bw(g):
        gmean = g.mean(axis=1, keepdims=True)
        gx = (g * xhat).mean(axis=1, keepdims=True)
        return (inv * (g - gmean - xhat * gx),)

    return _make(out_data, (x,), bw)


def _gelu_rows(x, out, slope=False):
    """The tanh-approximated GELU of x into out (may be x); with slope, also x's
    slope into x (out must then be another array).  Runs _ROWS rows at a time
    in two scratch blocks, pairing operands as 0.5 x (1 + t) and 0.5 (1 + t) +
    0.5 x (1 - t^2) c (1 + 3k x^2) read left to right, t = tanh(c (x + k x^3)),
    so no bit depends on the block size.  Reads GELU_K on each call."""
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    k = x.dtype.type(GELU_K)
    t_rows, s_rows = (np.empty((min(_ROWS, len(x)), *x.shape[1:]), x.dtype) for _ in range(2))
    for r in range(0, len(x), _ROWS):
        xb, ob = x[r:r + _ROWS], out[r:r + _ROWS]
        t, s = t_rows[:len(xb)], s_rows[:len(xb)]
        # c * (x + k * (x*x*x)) in place; x*x*x, not x**3: a float32 power call is about 200x slower
        np.multiply(xb, xb, out=t)
        t *= xb
        t *= k
        t += xb
        t *= c
        np.tanh(t, out=t)
        np.multiply(xb, 0.5, out=ob)
        if slope:
            np.subtract(1.0, np.multiply(t, t, out=s), out=s)
            s *= ob
            np.square(xb, out=xb)
            xb *= 3.0 * k
            xb += 1.0
            xb *= c
            s *= xb
        t += 1.0
        ob *= t
        if slope:
            t *= 0.5
            np.add(t, s, out=xb)


def gelu(x):
    """tanh-approximated GELU; the backward rebuilds its slope from x."""
    xd = x.data
    out_data = np.empty_like(xd)
    _gelu_rows(xd, out_data)

    def bw(g):
        d = xd.copy()
        _gelu_rows(d, np.empty_like(d), slope=True)
        return (g * d,)

    return _make(out_data, (x,), bw)


def ffn(x, w1, b1, w2, b2):
    """gelu(x w1 + b1) w2 + b2 as one tape node, bit for bit the chain matmul,
    add, gelu, matmul, add.  It keeps no [n, hidden] array: the backward
    rebuilds them by the forward's numpy calls, at most two alive at a time."""
    if b1.shape != w1.shape[1:] or b2.shape != w2.shape[1:]:
        raise ShapeError(f"ffn: biases {b1.shape} {b2.shape} do not fit {w1.shape} {w2.shape}")
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data
    # untaped products through matmul, which the benchmark's tracer counts
    h = matmul(Tensor(xd), Tensor(w1d)).data
    h += b1d
    _gelu_rows(h, h)
    out_data = matmul(Tensor(h), Tensor(w2d)).data
    out_data += b2.data
    x_grad, w1_grad, b1_grad, w2_grad, b2_grad = (t.requires_grad for t in (x, w1, b1, w2, b2))

    def bw(g):
        pre = xd @ w1d
        pre += b1d
        act = np.empty_like(pre)
        _gelu_rows(pre, act, slope=True)  # pre now holds the slope
        gw2 = act.T @ g if w2_grad else None
        del act
        gh = g @ w2d.T
        gh *= pre
        del pre
        gx = gh @ w1d.T if x_grad else None
        gw1 = xd.T @ gh if w1_grad else None
        gb1 = gh.sum(axis=0) if b1_grad else None
        return gx, gw1, gb1, gw2, g.sum(axis=0) if b2_grad else None

    return _make(out_data, (x, w1, b1, w2, b2), bw)


def tmean(x):
    out_data = np.asarray(x.data.mean(), dtype=x.data.dtype)
    shape, dtype, size = x.shape, x.dtype, x.data.size

    def bw(g):
        return (np.full(shape, g / size, dtype=dtype),)

    return _make(out_data, (x,), bw)


def concat_rows(tensors):
    """Concatenate along axis -2; all other axes must agree."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_rows of empty list")
    shape = tensors[0].shape
    if any(
        t.data.ndim != len(shape) or len(shape) < 2
        or t.shape[:-2] != shape[:-2] or t.shape[-1] != shape[-1]
        for t in tensors
    ):
        raise ShapeError("concat_rows: column mismatch")
    out_data = np.concatenate([t.data for t in tensors], axis=-2)
    splits = np.cumsum([t.shape[-2] for t in tensors])[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=-2))

    return _make(out_data, tuple(tensors), bw)


def slice_rows(x, lo, hi):
    """Rows lo:hi along axis -2."""
    if x.data.ndim < 2:
        raise ShapeError("slice_rows expects a tensor of at least 2 dims")
    out_data = x.data[..., lo:hi, :].copy()
    shape, dtype = x.shape, x.dtype

    def bw(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[..., lo:hi, :] = g
        return (gx,)

    return _make(out_data, (x,), bw)


def split_heads(x, heads):
    """[n, heads*dh] -> contiguous [heads, n, dh]; head i holds columns
    i*dh:(i+1)*dh."""
    if x.data.ndim != 2 or x.shape[1] % heads != 0:
        raise ShapeError(f"split_heads: cannot split {x.shape} into {heads} heads")
    n, d = x.shape
    out_data = x.data.reshape(n, heads, d // heads).transpose(1, 0, 2).copy()

    def bw(g):
        return (g.transpose(1, 0, 2).reshape(n, d),)

    return _make(out_data, (x,), bw)


def merge_heads(x):
    """[heads, n, dh] -> [n, heads*dh], the inverse of split_heads."""
    if x.data.ndim != 3:
        raise ShapeError("merge_heads expects a [heads, n, dh] tensor")
    heads, n, dh = x.shape
    out_data = x.data.transpose(1, 0, 2).copy().reshape(n, heads * dh)

    def bw(g):
        return (np.ascontiguousarray(g.reshape(n, heads, dh).transpose(1, 0, 2)),)

    return _make(out_data, (x,), bw)


def gather_rows(table, indices):
    """Embedding lookup; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    out_data = table.data[idx]
    shape, dtype = table.shape, table.dtype

    def bw(g):
        gt = np.zeros(shape, dtype=dtype)
        np.add.at(gt, idx, g)
        return (gt,)

    return _make(out_data, (table,), bw)


def rope_pairs(x, cos, sin):
    """Rotate consecutive feature pairs of each row by fixed angles.

    cos/sin are constant [n, dh] arrays with per-pair duplicated entries,
    one row for each of the n rows of x, [..., n, dh]; any leading (head)
    axes share the table.  The forward is `rotate_pairs`.
    """
    cos = np.asarray(cos, dtype=x.data.dtype)
    sin = np.asarray(sin, dtype=x.data.dtype)
    if x.data.ndim < 2 or sin.shape != cos.shape or cos.shape != x.shape[-2:]:
        raise ShapeError(f"rope_pairs: a {cos.shape} table does not fit rows {x.shape}")
    if x.shape[-1] % 2 != 0:
        raise ShapeError("rope_pairs: last dim must be even")
    out_data = rotate_pairs(x.data, cos, sin)

    def bw(g):
        return (g * cos - _pair_swap(g * sin),)

    return _make(out_data, (x,), bw)


def rotate_pairs(a, cos, sin):
    """The pair rotation: a*cos + swap(a)*sin, swap mapping (a0, a1) -> (-a1, a0).

    cos/sin hold each pair's entry twice and broadcast against a.  The
    rotary oracles (`rope.rope_1d`, `rope.rope_3d`) and the model's
    `rope_pairs` all rotate with this numpy kernel.
    """
    return a * cos + _pair_swap(a) * sin


def _pair_swap(a):
    # (a0, a1) -> (-a1, a0) per consecutive pair
    out = np.empty_like(a)
    out[..., 0::2] = -a[..., 1::2]
    out[..., 1::2] = a[..., 0::2]
    return out


def grad_check(f, x, h=1e-3):
    """Max relative error between analytic and central-difference grads.

    f must return a scalar Tensor when called on x inside a tape.
    """
    x.grad = None
    with GradTape() as tape:
        x.requires_grad = True
        loss = f(x)
        tape.backward(loss)
    analytic = x.grad.copy()
    if not np.isfinite(analytic).all():
        raise NumericError("grad_check: non-finite analytic gradient")
    flat = x.data.reshape(-1)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x).data)
        flat[i] = orig - h
        fm = float(f(x).data)
        flat[i] = orig
        num[i] = (fp - fm) / (2.0 * h)
    a = analytic.reshape(-1)
    rel = np.abs(a - num) / (np.abs(a) + 1e-8)
    return float(rel.max())
