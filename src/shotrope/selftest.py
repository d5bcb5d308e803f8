"""Built-in property suites backing the `shotrope selftest` command."""

from __future__ import annotations

import numpy as np

from . import analysis, rope, tensor as T
from .attention import segment_attention
from .model import DenoiserConfig, denoiser_forward, init_params
from .shots import ShotLayout, ShotRopeParams
from .synthetic import SyntheticWorld, make_batch
from .tensor import Tensor, grad_check


def _suite_rope_algebra():
    rng = T.seeded_rng(11)
    basis2 = rope.RotaryBasis(2)
    # directed quarter turn pins the rotation sign
    out = rope.rope_1d(np.array([1.0, 0.0]), np.pi / 2, basis2)
    if not np.allclose(out, [0.0, 1.0], atol=1e-6):
        return False, f"quarter turn gave {out}"
    basis = rope.RotaryBasis(64)
    for _ in range(300):
        v = rng.standard_normal(64)
        m = rng.uniform(-512, 512)
        r = rope.rope_1d(v, m, basis)
        if abs(np.linalg.norm(r) - np.linalg.norm(v)) > 1e-6 * np.linalg.norm(v):
            return False, "norm not preserved"
    for _ in range(200):
        q = rng.standard_normal(64)
        k = rng.standard_normal(64)
        m, n = rng.uniform(-512, 512, 2)
        lhs = rope.rope_1d(q, m, basis) @ rope.rope_1d(k, n, basis)
        rhs = q @ rope.rope_1d(k, n - m, basis)
        if abs(lhs - rhs) > 1e-5 * max(1.0, abs(rhs)):
            return False, "relative-position identity violated"
    for _ in range(200):
        v = rng.standard_normal(64)
        a, b = rng.uniform(-256, 256, 2)
        lhs = rope.rope_1d(rope.rope_1d(v, a, basis), b, basis)
        rhs = rope.rope_1d(v, a + b, basis)
        if np.max(np.abs(lhs - rhs)) > 1e-5:
            return False, "composition violated"
    return True, ""


def _suite_matched_pair():
    rng = T.seeded_rng(12)
    basis = rope.RotaryBasis(32)
    params = ShotRopeParams(j=4.0, k=6.0)
    from .shots import tarope

    for _ in range(200):
        q = rng.standard_normal(32)
        k = rng.standard_normal(32)
        s = int(rng.integers(0, 5))
        got = tarope(q, s, params, basis) @ tarope(k, s, params, basis)
        if abs(got - q @ k) > 1e-6:
            return False, f"matched-pair drift {abs(got - q @ k):.2e}"
    return True, ""


def _suite_suppression_bound():
    rng = T.seeded_rng(13)
    params = ShotRopeParams(k=6.0)
    for d in (16, 64):
        basis = rope.RotaryBasis(d)
        for _ in range(300):
            q = rng.standard_normal(d)
            k = rng.standard_normal(d)
            q /= np.linalg.norm(q)
            k /= np.linalg.norm(k)
            s1, s2 = rng.integers(0, 5, 2)
            margin = analysis.logit_bound_check(q, k, int(s1), int(s2), params, basis)
            if margin < -1e-6:
                return False, f"bound violated by {margin:.2e} at d={d}"
    return True, ""


def _suite_refattn_isolation():
    rng = T.seeded_rng(14)
    layout = ShotLayout((2, 2, 3), 2, 2)
    n = layout.total_tokens
    q = rng.standard_normal((n, 16)).astype(np.float32)
    k = rng.standard_normal((n, 16)).astype(np.float32)
    v = rng.standard_normal((n, 16)).astype(np.float32)
    ends = layout.segment_ends
    base = segment_attention(Tensor(q), Tensor(k), Tensor(v), ends, ends).data
    n0 = layout.token_spans()[0][1]
    for _ in range(20):
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        row = int(rng.integers(n0, n))
        col = int(rng.integers(16))
        q2[row, col] += 3.0
        k2[row, col] -= 2.0
        v2[row, col] += 1.0
        out = segment_attention(Tensor(q2), Tensor(k2), Tensor(v2), ends, ends).data
        if not np.array_equal(out[:n0], base[:n0]):
            return False, "shot-0 rows changed under late-shot perturbation"
    return True, ""


def _suite_grad_checks():
    """The float64 gradients of the ops the model runs, each under tmean of a
    fixed random weighting, against central differences; attention_core's on two blocks."""
    rng = T.seeded_rng(15)

    def t64(*shape):
        return Tensor(rng.standard_normal(shape), dtype=np.float64)

    w1, b1, w2, b2 = t64(4, 8), t64(8), t64(8, 4), t64(4)
    q, k, v = t64(2, 3, 4), t64(2, 5, 4), t64(2, 5, 4)
    seg = [(slice(0, 1), slice(0, 2)), (slice(1, 3), np.r_[0:2, 3:5])]  # key row 2 unseen
    phase = np.repeat(rng.uniform(-np.pi, np.pi, (3, 2)), 2, axis=1)
    checks = [
        ("ffn", lambda t: T.ffn(t, w1, b1, w2, b2), t64(3, 4)),
        ("layernorm", T.layernorm, t64(3, 4)),
        ("rope_pairs", lambda t: T.rope_pairs(t, np.cos(phase), np.sin(phase)), t64(2, 3, 4)),
        ("attention_core q", lambda t: T.attention_core(t, k, v, 0.5, seg)[0], q),
        ("attention_core k", lambda t: T.attention_core(q, t, v, 0.5, seg)[0], k),
        ("attention_core v", lambda t: T.attention_core(q, k, t, 0.5, seg)[0], v),
    ]
    for name, op, x in checks:
        weight = t64(*op(x).shape)
        err = grad_check(lambda t: T.tmean(T.mul(op(t), weight)), x, h=1e-5)
        if err > 1e-6:
            return False, f"{name} grad err {err:.2e}"
    return True, ""


def _suite_determinism():
    world = SyntheticWorld(seed=21)
    b1 = make_batch(world, 2, seed=33)
    b2 = make_batch(world, 2, seed=33)
    for s1, s2 in zip(b1, b2):
        if not np.array_equal(s1.tokens, s2.tokens):
            return False, "batch generation not deterministic"
    cfg = DenoiserConfig()
    params = init_params(cfg, seed=3)
    s = b1[0]
    rng = T.seeded_rng(5)
    eps = rng.standard_normal(s.tokens.shape).astype(np.float32)
    from .model import make_noisy

    z = make_noisy(s.tokens, eps, 0.5)
    o1 = denoiser_forward(z, 0.5, s.captions, s.layout, cfg, params).data
    o2 = denoiser_forward(z, 0.5, s.captions, s.layout, cfg, params).data
    if not np.array_equal(o1, o2):
        return False, "forward pass not deterministic"
    return True, ""


SUITES = [
    ("rope_algebra", _suite_rope_algebra),
    ("tarope_matched_pair", _suite_matched_pair),
    ("suppression_bound", _suite_suppression_bound),
    ("refattn_isolation", _suite_refattn_isolation),
    ("grad_checks", _suite_grad_checks),
    ("determinism", _suite_determinism),
]


def run_all():
    report = []
    for name, fn in SUITES:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        report.append((name, passed, detail))
    return report
