"""Exception types, the number checks shared across the package, and the
one reader of input files.

`InvalidConfigError` is the one error for refused input: a setting, a
scenario, a mesh or a file.  It is a `ValueError` too, so callers that
catch `ValueError` keep working.
"""

from pathlib import Path

import numpy as np

__all__ = ["MeshlocError", "NotPositiveDefiniteError", "SingularInnovationError",
           "InvalidConfigError"]


class MeshlocError(Exception):
    """Base class for all package-specific failures."""


class NotPositiveDefiniteError(MeshlocError):
    """A covariance stayed non positive definite after jitter escalation."""


class SingularInnovationError(MeshlocError):
    """Innovation covariance could not be inverted, even after conditioning."""


class InvalidConfigError(MeshlocError, ValueError):
    """Input refused: a setting, a scenario, a mesh or an input file."""


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool, which `int` subclasses, is not one."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, (bool, np.bool_)) or getattr(value, "dtype", None) == bool


def as_real(value, name: str, what: str, shape=()):
    """``value`` as a float, or as a new read-only float array of ``shape``.

    Anything else raises ``InvalidConfigError("<name> must be <what>, got
    <value>")``: a bool, which float() would read as 0 or 1, a string that
    is not a number, and any other shape, even of the same size (``[1]`` is
    not the number 1, and 36 numbers in a row are not a 6x6 matrix).
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
    raise InvalidConfigError(f"{name} must be {what}, got {value!r}")


# The least and the greatest positive float whose square is a normal float.
_SQUARE_RANGE = (np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max))


def check_square(value: float, name: str) -> None:
    """Refuse a scale the arithmetic squares (``sigma_p``), naming
    ``name``, unless its square is a positive, normal, finite float."""
    if not (np.isfinite(value) and value > 0.0):
        raise InvalidConfigError(f"{name} must be positive and finite")
    low, high = _SQUARE_RANGE
    if not low <= value <= high:
        raise InvalidConfigError(f"{name} must lie between {low:.4g} and {high:.4g}, "
                                 f"where its square is a normal float, got {value!r}")


def read_lines(path, what: str) -> list[str]:
    """The lines of the UTF-8 text file ``path``, line ends translated to
    ``\\n``; ``what`` names the kind of file in the errors.

    A missing file, a directory or bytes that are not UTF-8 raise
    `InvalidConfigError` naming the file.
    """
    if Path(path).is_dir():
        raise InvalidConfigError(f"{what} file is a directory: {path}")
    if not Path(path).is_file():
        raise InvalidConfigError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from None
