"""Numerical machinery behind the mismatch-suppression bound.

Everything here runs in 64-bit complex arithmetic: the partial-sum
magnitude curve f(x), its normalized form delta(x) = f(x)/f(0), the
per-instance logit bound check, and shot-block attention heatmaps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import rope
from .tensor import ConfigError, ShapeError, seeded_rng


@dataclass(frozen=True)
class BoundCurve:
    dim: int
    xs: np.ndarray
    f: np.ndarray
    delta: np.ndarray


def partial_sum_magnitudes(d, x, basis=None):
    """f(x) = sum over j of |S_j| with S_j the j-term rotary phase sum."""
    if d % 2 != 0:
        raise ShapeError(f"dim must be even, got {d}")
    if basis is None:
        basis = rope.make_basis_1d(d)
    theta = np.asarray(basis.angles, dtype=np.float64)
    partial = np.cumsum(np.exp(1j * float(x) * theta))
    return float(np.abs(partial).sum())


def delta_curve(d, xs):
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ConfigError("delta_curve: empty grid")
    if xs[0] != 0.0 or np.any(np.diff(xs) <= 0):
        raise ConfigError("delta_curve: grid must be ascending and start at 0")
    basis = rope.make_basis_1d(d)
    f = np.array([partial_sum_magnitudes(d, x, basis) for x in xs])
    return BoundCurve(dim=d, xs=xs, f=f, delta=f / f[0])


def pair_products(q, k):
    """Complex per-pair products h_i = q_pair * conj(k_pair)."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape or q.shape[-1] % 2 != 0:
        raise ShapeError("pair_products: equal even-dim vectors required")
    qc = q[0::2] + 1j * q[1::2]
    kc = k[0::2] + 1j * k[1::2]
    return qc * np.conj(kc)


def suppressed_logit(q, k, s1, s2, params, basis):
    """Exact TaRoPE-modulated inner product, 64-bit."""
    x = params.k * (s1 - s2)
    h = pair_products(q, k)
    return float(np.real(np.sum(h * np.exp(1j * x * basis.angles))))


def logit_bound_check(q, k, s1, s2, params, basis):
    """bound - |logit|; non-negative means the inequality holds here."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape:
        raise ShapeError("logit_bound_check: dim mismatch")
    h = pair_products(q, k)
    h_ext = np.concatenate([h, [0.0 + 0.0j]])  # h_{d/2} = 0
    max_dh = float(np.abs(np.diff(h_ext)).max())
    x = abs(params.k * (s1 - s2))
    bound = max_dh * partial_sum_magnitudes(q.shape[-1], x, basis)
    logit = suppressed_logit(q, k, s1, s2, params, basis)
    return bound - abs(logit)


def shot_block_matrix(probs, q_shots, k_shots, n_shots):
    """S x S matrix: per query-shot mean of summed key-shot probability.

    Rows sum to 1 because each attention row is a probability
    distribution over all keys.
    """
    probs = np.asarray(probs, dtype=np.float64)
    out = np.zeros((n_shots, n_shots))
    for s1 in range(n_shots):
        rows = probs[q_shots == s1]
        for s2 in range(n_shots):
            out[s1, s2] = rows[:, k_shots == s2].sum(axis=1).mean()
    return out


def attention_heatmaps(params, cfg, batch, tau=0.5):
    """Block-mean self/cross attention matrices of a model on a batch.

    Averaged over transformer blocks, heads, and batch samples at a
    fixed mid-trajectory denoising step; every sample must have the same
    shot count.
    """
    from . import model as model_mod

    if not batch:
        raise ShapeError("attention_heatmaps: empty batch")
    counts = sorted({sample.layout.shot_count for sample in batch})
    if len(counts) > 1:
        raise ShapeError(f"attention_heatmaps: samples of {counts} shots cannot be averaged")
    self_mats = []
    cross_mats = []
    rng = seeded_rng(0)
    for sample in batch:
        layout = sample.layout
        eps = rng.standard_normal(sample.tokens.shape).astype(np.float32)
        z_tau = model_mod.make_noisy(sample.tokens, eps, tau)
        collector = model_mod.AttentionCollector()
        model_mod.denoiser_forward(
            z_tau, tau, sample.captions, layout, cfg, params, collect=collector
        )
        q_shots = layout.token_shot_index()
        for probs in collector.self_probs:
            self_mats.append(
                shot_block_matrix(probs, q_shots, q_shots, layout.shot_count)
            )
        for probs, k_shots in collector.cross_probs:
            cross_mats.append(
                shot_block_matrix(probs, q_shots, k_shots, layout.shot_count)
            )
    return np.mean(self_mats, axis=0), np.mean(cross_mats, axis=0)


def write_curve_csv(curve, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f", "delta"])
        for x, f, d in zip(curve.xs, curve.f, curve.delta):
            writer.writerow([repr(float(x)), repr(float(f)), repr(float(d))])
