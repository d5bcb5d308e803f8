"""Vanilla 1D and 3D rotary position embeddings over one angle basis.

A `RotaryBasis` holds RoFormer's per-pair angles; the 1D phase tables
turn pair i at position m by m*theta_i, and the 3D tables read the
(t, h, w) map off the same angles.  `rope_1d` and `rope_3d` rotate with
`tensor.rotate_pairs`, the kernel the model runs.  A basis compares and
hashes by its defining fields (dim, base); its angles follow from them.
Positions may be non-integer (fractional phase shifts are used by the
parameter sweeps).  Dtype of the input vector is preserved, so callers
can evaluate in float64 when they need tighter tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, rotate_pairs


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


def phase_tables_1d(basis, positions):
    """cos/sin per (position, pair), float64."""
    pos = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    ang = pos[:, None] * basis.angles[None, :]
    return np.cos(ang), np.sin(ang)


def rope_1d(v, m, basis):
    v = np.asarray(v)
    if v.shape[-1] != basis.dim:
        raise ShapeError(f"rope_1d: vector dim {v.shape[-1]} != basis dim {basis.dim}")
    ang = np.repeat(float(m) * basis.angles, 2)
    return rotate_pairs(v, np.cos(ang).astype(v.dtype), np.sin(ang).astype(v.dtype))


def phase_tables_3d(basis, t, h, w):
    """cos/sin per (position, pair) for arrays of (t, h, w) positions.

    Pair p < 3*(d//6) turns with axis p % 3 (t, h, w) at angles[p // 3];
    the pairs after the last whole triple stay unrotated (the model's
    head dim is 32, so its last pair does).
    """
    pos = np.stack([np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (t, h, w)], axis=1)
    triples = basis.dim // 6
    ang = np.zeros((pos.shape[0], basis.dim // 2), dtype=np.float64)
    ang[:, : 3 * triples] = np.tile(pos, triples) * np.repeat(basis.angles[:triples], 3)
    return np.cos(ang), np.sin(ang)


def rope_3d(v, t, h, w, basis):
    v = np.asarray(v)
    if v.shape[-1] != basis.dim:
        raise ShapeError(f"rope_3d: vector dim {v.shape[-1]} != basis dim {basis.dim}")
    cos, sin = phase_tables_3d(basis, t, h, w)
    return rotate_pairs(
        v, np.repeat(cos[0], 2).astype(v.dtype), np.repeat(sin[0], 2).astype(v.dtype)
    )
