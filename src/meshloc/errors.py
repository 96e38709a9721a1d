"""Exception types and the number checks shared across the package."""

import numpy as np

__all__ = ["MeshlocError", "EmptyMeshError", "NotPositiveDefiniteError",
           "SingularInnovationError", "InvalidConfigError", "InvalidFaceSubsetError"]


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool, which `int` subclasses, is not one."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, (bool, np.bool_)) or getattr(value, "dtype", None) == bool


def as_real(value, name: str, what: str, shape=(), error=ValueError):
    """``value`` as a float, or as a new read-only float array of ``shape``.

    Anything else raises ``error("<name> must be <what>, got <value>")``:
    a bool, which float() would read as 0 or 1, a string that is not a
    number, and any other shape, even of the same size (``[1]`` is not the
    number 1, and 36 numbers in a row are not a 6x6 matrix).
    """
    try:
        if not _holds_bool(value):
            if shape == ():
                if np.ndim(value) == 0:
                    return float(value)
            else:
                out = np.array(value, dtype=float)
                if out.shape == shape:
                    out.flags.writeable = False
                    return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be {what}, got {value!r}")


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
