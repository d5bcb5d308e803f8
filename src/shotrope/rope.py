"""Vanilla 1D and 3D rotary position embeddings.

Pure numpy functions over immutable angle bases.  A basis compares and
hashes by its defining fields (dim, base, strict), so it can key caches.  Positions may be
non-integer (fractional phase shifts are used by the parameter sweeps).
Dtype of the input vector is preserved, so callers can evaluate in
float64 when they need tighter tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError

# test-only fault injection hook for the selftest negative control
_SABOTAGE = None


@dataclass(frozen=True)
class RotaryBasis:
    """Per-pair angles theta_i = base^(-2(i-1)/d) for i in 1..d/2."""

    dim: int
    base: float = 10000.0
    angles: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim < 2:
            raise ShapeError(f"RotaryBasis dim must be even and >= 2, got {self.dim}")
        if self.base <= 1.0:
            raise ValueError("base must exceed 1")
        i = np.arange(self.dim // 2, dtype=np.float64)
        object.__setattr__(
            self, "angles", self.base ** (-2.0 * i / self.dim)
        )


@dataclass(frozen=True)
class RotaryBasis3D:
    """Angles shared cyclically over (t, h, w) 2x2 blocks.

    d must be a multiple of 6 unless strict=False, in which case the
    trailing d - 6*(d//6) dims are left unrotated (remainder rule used
    by the attention kernels, whose head dim is 32).
    """

    dim: int
    base: float = 10000.0
    strict: bool = True
    angles: np.ndarray = field(default=None, repr=False, compare=False)
    # per feature-pair: axis index 0=t 1=h 2=w, -1 = unrotated
    pair_axis: np.ndarray = field(default=None, repr=False, compare=False)
    pair_angle: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim % 2 != 0:
            raise ShapeError(f"RotaryBasis3D dim must be even, got {self.dim}")
        if self.strict and self.dim % 6 != 0:
            raise ShapeError(f"RotaryBasis3D dim must be a multiple of 6, got {self.dim}")
        n_triples = self.dim // 6
        i = np.arange(n_triples, dtype=np.float64)
        angles = self.base ** (-2.0 * i / self.dim)
        n_pairs = self.dim // 2
        pair_axis = np.full(n_pairs, -1, dtype=np.int64)
        pair_angle = np.zeros(n_pairs, dtype=np.float64)
        for trip in range(n_triples):
            for axis in range(3):
                p = 3 * trip + axis
                pair_axis[p] = axis
                pair_angle[p] = angles[trip]
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "pair_axis", pair_axis)
        object.__setattr__(self, "pair_angle", pair_angle)


def make_basis_1d(d, base=10000.0):
    return RotaryBasis(dim=d, base=base)


def make_basis_3d(d, base=10000.0, strict=True):
    return RotaryBasis3D(dim=d, base=base, strict=strict)


def _apply_pairs(v, cos, sin):
    out = np.empty_like(v)
    a = v[..., 0::2]
    b = v[..., 1::2]
    sign = -1.0 if _SABOTAGE == "rope-sign" else 1.0
    out[..., 0::2] = a * cos - sign * b * sin
    out[..., 1::2] = sign * a * sin + b * cos
    return out


def phase_tables_1d(basis, positions):
    """cos/sin per (position, pair), float64."""
    pos = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    ang = pos[:, None] * basis.angles[None, :]
    return np.cos(ang), np.sin(ang)


def rope_1d(v, m, basis):
    v = np.asarray(v)
    if v.shape[-1] != basis.dim:
        raise ShapeError(f"rope_1d: vector dim {v.shape[-1]} != basis dim {basis.dim}")
    ang = float(m) * basis.angles
    cos = np.cos(ang).astype(v.dtype)
    sin = np.sin(ang).astype(v.dtype)
    return _apply_pairs(v, cos, sin)


def phase_tables_3d(basis, t, h, w):
    """cos/sin per (position, pair) for arrays of (t, h, w) positions."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    pos = np.stack([t, h, w], axis=1)  # [n, 3]
    n_pairs = basis.dim // 2
    ang = np.zeros((t.shape[0], n_pairs), dtype=np.float64)
    rotated = basis.pair_axis >= 0
    ang[:, rotated] = pos[:, basis.pair_axis[rotated]] * basis.pair_angle[rotated]
    return np.cos(ang), np.sin(ang)


def rope_3d(v, t, h, w, basis):
    v = np.asarray(v)
    if v.shape[-1] != basis.dim:
        raise ShapeError(f"rope_3d: vector dim {v.shape[-1]} != basis dim {basis.dim}")
    cos, sin = phase_tables_3d(basis, t, h, w)
    cos = cos[0].astype(v.dtype)
    sin = sin[0].astype(v.dtype)
    return _apply_pairs(v, cos, sin)
