"""Differentiable 3D rigid transformation and registration engine."""

from .engine import OptimConfig, register_pair
from .losses import LossWeights, ProbabilityVolume
from .phantom import AnalyticSegmenter, PhantomSpec, make_pair
from .rigid import RigidParams, affine_jacobian, euler_to_affine
from .volume import GridGeometry, LabelVolume, Volume

__all__ = [
    "AnalyticSegmenter",
    "GridGeometry",
    "LabelVolume",
    "LossWeights",
    "OptimConfig",
    "PhantomSpec",
    "ProbabilityVolume",
    "RigidParams",
    "Volume",
    "affine_jacobian",
    "euler_to_affine",
    "make_pair",
    "register_pair",
]

__version__ = "0.1.0"
