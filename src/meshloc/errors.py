"""Exception types and the integer check shared across the package."""

import numpy as np

__all__ = ["MeshlocError", "EmptyMeshError", "NotPositiveDefiniteError",
           "SingularInnovationError", "InvalidConfigError", "InvalidFaceSubsetError"]


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool, which `int` subclasses, is not one."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


class MeshlocError(Exception):
    """Base class for all package-specific failures."""


class EmptyMeshError(MeshlocError):
    """A mesh with no usable faces was handed to a surface query."""


class NotPositiveDefiniteError(MeshlocError):
    """A covariance stayed non positive definite after jitter escalation."""


class SingularInnovationError(MeshlocError):
    """Innovation covariance could not be inverted, even after conditioning."""


class InvalidConfigError(MeshlocError):
    """Filter configuration violates its documented constraints."""


class InvalidFaceSubsetError(MeshlocError):
    """A scenario face subset references faces outside the mesh."""
