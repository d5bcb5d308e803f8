"""Shot-aware rotary attention mechanisms in a toy multi-shot diffusion
transformer, plus the numerical analysis tooling around them."""

from .shots import ShotLayout, effective_time_index, tarope, tcrope
from .rope import RotaryBasis, rope_1d, rope_3d
from .tensor import ConfigError, GradTape, NumericError, ShapeError, Tensor

__all__ = [
    "ConfigError",
    "GradTape",
    "NumericError",
    "RotaryBasis",
    "ShapeError",
    "ShotLayout",
    "Tensor",
    "effective_time_index",
    "rope_1d",
    "rope_3d",
    "tarope",
    "tcrope",
]
