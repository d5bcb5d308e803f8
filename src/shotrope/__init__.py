"""Shot-aware rotary attention mechanisms in a toy multi-shot diffusion
transformer, plus the numerical analysis tooling around them."""

from .shots import ShotLayout, ShotRopeParams, effective_time_index, tarope, tcrope
from .rope import RotaryBasis, RotaryBasis3D, make_basis_1d, make_basis_3d, rope_1d, rope_3d
from .tensor import ConfigError, GradTape, NumericError, ShapeError, Tensor

__all__ = [
    "ConfigError",
    "GradTape",
    "NumericError",
    "RotaryBasis",
    "RotaryBasis3D",
    "ShapeError",
    "ShotLayout",
    "ShotRopeParams",
    "Tensor",
    "effective_time_index",
    "make_basis_1d",
    "make_basis_3d",
    "rope_1d",
    "rope_3d",
    "tarope",
    "tcrope",
]
