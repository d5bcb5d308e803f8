"""Shot layouts and the two shot-aware rotary mechanisms.

tcrope shifts the temporal rotary index by an extra jump of j at every
shot boundary; tarope rotates cross-attention queries/keys by their
shot index times k, suppressing mismatched shot-caption attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rope
from .tensor import ShapeError


@dataclass(frozen=True)
class ShotLayout:
    """Token geometry of a multi-shot latent field."""

    frame_counts: tuple  # latent frames per shot
    height: int
    width: int

    def __post_init__(self):
        fc = tuple(int(n) for n in self.frame_counts)
        object.__setattr__(self, "frame_counts", fc)
        if len(fc) < 1 or any(n < 1 for n in fc):
            raise ValueError("all shots need at least one latent frame")
        if self.height < 1 or self.width < 1:
            raise ValueError("spatial grid must be positive")

    @property
    def shot_count(self):
        return len(self.frame_counts)

    @property
    def time_offsets(self):
        """Cumulative global latent-frame offset of each shot."""
        return tuple(int(x) for x in np.concatenate([[0], np.cumsum(self.frame_counts)[:-1]]))

    @property
    def tokens_per_frame(self):
        return self.height * self.width

    @property
    def total_tokens(self):
        return sum(self.frame_counts) * self.tokens_per_frame

    def token_spans(self):
        """Per-shot (start, stop) token index ranges."""
        spans = []
        start = 0
        for n in self.frame_counts:
            stop = start + n * self.tokens_per_frame
            spans.append((start, stop))
            start = stop
        return spans

    def token_shot_index(self):
        """Shot index of every token, in token order."""
        counts = np.asarray(self.frame_counts, dtype=np.int64) * self.tokens_per_frame
        return np.repeat(np.arange(self.shot_count, dtype=np.int64), counts)

    def token_positions(self, j=0.0):
        """(t_eff, h, w) arrays per token; t_eff includes the phase jump.

        Tokens run frame by frame, each frame row-major over the grid; a
        frame's t_eff is its global frame index plus j per crossed boundary.
        """
        shot = np.repeat(np.arange(self.shot_count), self.frame_counts)
        frame_t = np.arange(shot.size) + shot * j
        t = np.repeat(frame_t.astype(np.float64), self.tokens_per_frame)
        h = np.tile(np.repeat(np.arange(self.height, dtype=np.float64), self.width), shot.size)
        w = np.tile(np.arange(self.width, dtype=np.float64), shot.size * self.height)
        return t, h, w


@dataclass(frozen=True)
class ShotRopeParams:
    """Default scales: phase shift 4 per boundary, mismatch suppression 6."""

    j: float = 4.0
    k: float = 6.0

    def __post_init__(self):
        if self.j < 0 or self.k < 0:
            raise ValueError("j and k must be non-negative")


def effective_time_index(layout, s, t_local, j):
    """Global cumulative frame index plus the per-boundary phase jump."""
    if not 0 <= s < layout.shot_count:
        raise IndexError(f"shot index {s} out of range")
    if not 0 <= t_local < layout.frame_counts[s]:
        raise IndexError(f"local frame {t_local} out of range for shot {s}")
    return layout.time_offsets[s] + t_local + s * j


def tcrope(v, t_local, h, w, s, layout, params, basis3d):
    """3D rotary embedding at the boundary-shifted time index."""
    t_eff = effective_time_index(layout, s, t_local, params.j)
    return rope.rope_3d(v, t_eff, h, w, basis3d)


def tarope(v, s, params, basis1d):
    """1D rotary embedding at position s*k.

    Applied to visual query vectors by their shot index and to textual
    key vectors by their caption's shot index.
    """
    if np.asarray(v).shape[-1] != basis1d.dim:
        raise ShapeError("tarope: vector dim != basis dim")
    return rope.rope_1d(v, s * params.k, basis1d)
