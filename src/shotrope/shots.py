"""Shot layouts and the two shot-aware rotary mechanisms.

tcrope shifts the temporal rotary index by an extra jump of j at every
shot boundary; tarope rotates cross-attention queries/keys by their
shot index times k, suppressing mismatched shot-caption attention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rope
from .tensor import ConfigError, ShapeError


@dataclass(frozen=True)
class ShotLayout:
    """Token geometry of a multi-shot latent field.  A lone layout is the
    packing of itself: its `layouts` are (self,)."""

    frame_counts: tuple  # latent frames per shot
    height: int
    width: int

    def __post_init__(self):
        fc = tuple(int(n) for n in self.frame_counts)
        object.__setattr__(self, "frame_counts", fc)
        if len(fc) < 1 or any(n < 1 for n in fc):
            raise ConfigError("all shots need at least one latent frame")
        if self.height < 1 or self.width < 1:
            raise ConfigError("spatial grid must be positive")

    @property
    def layouts(self):
        return (self,)

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

    @property
    def segment_ends(self):
        """Row ends of the reference-attention segments: shot 0, later shots."""
        return (self.token_spans()[0][1], self.total_tokens)


@dataclass(frozen=True)
class PackedLayout:
    """Layouts that share shot 0, run as one field.

    Rows are packed as [shot 0 | layout 1's later shots | ... | layout A's
    later shots].  Under reference attention shot 0 depends on shot-0
    inputs alone and each layout's later shots on shot 0 and themselves,
    so the packed field holds shot 0 once and every layout's later shots
    unchanged.  Its per-row arrays are its layouts' arrays, packed.
    """

    layouts: tuple

    def __post_init__(self):
        layouts = tuple(self.layouts)
        object.__setattr__(self, "layouts", layouts)
        if not layouts:
            raise ValueError("a packed layout needs at least one layout")
        first = layouts[0]
        if any(
            (lay.frame_counts[0], lay.height, lay.width)
            != (first.frame_counts[0], first.height, first.width)
            for lay in layouts
        ):
            raise ShapeError("packed layouts must share shot 0 and the spatial grid")

    @functools.cached_property
    def segment_ends(self):
        """Row ends of shot 0 and of each layout's later shots."""
        n0 = self.layouts[0].token_spans()[0][1]
        return tuple(np.cumsum([n0] + [lay.total_tokens - n0 for lay in self.layouts]).tolist())

    @property
    def total_tokens(self):
        return self.segment_ends[-1]

    def token_shot_index(self):
        """Shot index of every packed row."""
        return self.pack([lay.token_shot_index() for lay in self.layouts])

    def token_positions(self, j=0.0):
        """(t_eff, h, w) of every packed row, as in its own layout."""
        return tuple(map(self.pack, zip(*(lay.token_positions(j=j) for lay in self.layouts))))

    def pack(self, per_layout):
        """Per-layout row arrays -> packed rows, shot 0 from the first."""
        n0 = self.segment_ends[0]
        return np.concatenate([per_layout[0][:n0]] + [a[n0:] for a in per_layout])

    def unpack(self, packed):
        """Packed rows -> one [shot 0 | later shots] array per layout."""
        ends = self.segment_ends
        return [
            np.concatenate([packed[: ends[0]], packed[lo:hi]])
            for lo, hi in zip(ends[:-1], ends[1:])
        ]


def effective_time_index(layout, s, t_local, j):
    """Global cumulative frame index plus the per-boundary phase jump."""
    if not 0 <= s < layout.shot_count:
        raise IndexError(f"shot index {s} out of range")
    if not 0 <= t_local < layout.frame_counts[s]:
        raise IndexError(f"local frame {t_local} out of range for shot {s}")
    return layout.time_offsets[s] + t_local + s * j


def tcrope(v, t_local, h, w, s, layout, j, basis):
    """3D rotary embedding of a video token at (t + j*s, h, w), j being the
    phase jump per shot boundary (`DenoiserConfig.j`): the basis's angles
    read at the boundary-shifted time index."""
    t_eff = effective_time_index(layout, s, t_local, j)
    return rope.rope_3d(v, t_eff, h, w, basis)


def tarope(v, s, k, basis):
    """1D rotary embedding at position s*k over the same basis as tcrope,
    k being the rotation per shot (`DenoiserConfig.k`).

    Applied to visual query vectors by their shot index and to textual
    key vectors by their caption's shot index.
    """
    return rope.rope_1d(v, s * k, basis)
