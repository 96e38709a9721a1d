"""Exception types, the readers of numbers shared across the package, the
one reader of input files and the one writer of output files.

The package raises two error types.  `MeshlocError` is a run that failed,
numerically or otherwise; the command line exits 3 on it.  Its subclass
`InvalidConfigError` is the one error for refused input: a setting, a
scenario, a mesh or a file; the command line exits 2 on it.  It is a
`ValueError` too, so callers that catch `ValueError` keep working.

Each kind of number from outside has one reader, which converts it or
refuses it naming the setting: `as_count`, `as_scale`, `as_real`, `as_contacts`.
"""

import json
from pathlib import Path

import numpy as np

__all__ = ["MeshlocError", "InvalidConfigError"]


class MeshlocError(Exception):
    """A failed run; the base class of the package's errors."""


class InvalidConfigError(MeshlocError, ValueError):
    """Input refused: a setting, a scenario, a mesh or an input file."""


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool, which `int` subclasses, is not one."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def holds_bool(value) -> bool:
    """True if ``value`` is a bool, a bool array or a (nested) list or tuple holding one."""
    if isinstance(value, (list, tuple)):
        return any(holds_bool(v) for v in value)
    return isinstance(value, (bool, np.bool_)) or getattr(value, "dtype", None) == bool


def as_real(value, name: str, what: str, shape=()):
    """``value`` as a float, or as a new read-only float array of ``shape``.

    Anything else raises ``InvalidConfigError("<name> must be <what>, got
    <value>")``: a bool, which float() would read as 0 or 1, a string that
    is not a number, and any other shape, even of the same size (``[1]`` is
    not the number 1, and 36 numbers in a row are not a 6x6 matrix).
    """
    try:
        if not holds_bool(value):
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


def as_contacts(value, name: str, one: bool = False) -> np.ndarray:
    """``value`` as a new read-only (L, 3) float array of finite contact
    points with L >= 1; one point of shape (3,) reads as L = 1, and ``one``
    asks for exactly one point.

    Anything else raises `InvalidConfigError` naming ``name``: "<name> must
    have shape ..." for numbers of another shape, "<name> must be finite"
    for a NaN or infinite coordinate, and `as_real`'s message for what is
    not an array of numbers (a string, a bool, a ragged nesting).
    """
    shape = "(3,) or (1, 3)" if one else "(L, 3) with L >= 1"
    try:
        dims = np.shape(value)
    except ValueError:              # a ragged nesting has no shape
        dims = None
    points = np.atleast_2d(as_real(value, name, f"an array of numbers of shape {shape}", dims))
    if points.ndim != 2 or len(points) < 1 or points.shape[1] != 3 or (one and len(points) != 1):
        raise InvalidConfigError(f"{name} must have shape {shape}")
    if not np.isfinite(points).all():
        raise InvalidConfigError(f"{name} must be finite")
    return points


def as_count(value, name: str, low: int, high: int | None = None) -> int:
    """``value``, an integer or a float that holds one, as an int.  A bool,
    a fraction or a string raises `InvalidConfigError` "<name> must be an
    integer >= <low>", and a value above ``high`` "<name> must be at most <high>"."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not (is_int(value) and value >= low):
        raise InvalidConfigError(f"{name} must be an integer >= {low}")
    if high is not None and value > high:
        raise InvalidConfigError(f"{name} must be at most {high}")
    return int(value)


# The least and the greatest positive float whose square is a normal float.
_SQUARE_RANGE = (np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max))


def as_scale(value, name: str) -> float:
    """``value`` as a scale the arithmetic squares (``sigma_p``): a number
    whose square is a positive, normal, finite float, or `InvalidConfigError`."""
    value = as_real(value, name, "a number")
    if not (np.isfinite(value) and value > 0.0):
        raise InvalidConfigError(f"{name} must be positive and finite")
    low, high = _SQUARE_RANGE
    if not low <= value <= high:
        raise InvalidConfigError(f"{name} must lie between {low:.4g} and {high:.4g}, "
                                 f"where its square is a normal float, got {value!r}")
    return value


def read_lines(path, what: str) -> list[str]:
    """The lines of the UTF-8 text file ``path``, line ends translated to
    ``\\n`` and one leading byte-order mark dropped; ``what`` names the
    kind of file in the errors.

    A missing file, a directory, a file the OS refuses to read and bytes
    that are not UTF-8 raise `InvalidConfigError` naming the file.
    """
    if Path(path).is_dir():
        raise InvalidConfigError(f"{what} file is a directory: {path}")
    if not Path(path).is_file():
        raise InvalidConfigError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from None
    except OSError as exc:
        raise InvalidConfigError(f"{what} file cannot be read: {path}: "
                                 f"{exc.strerror or exc}") from None


def json_text(payload) -> str:
    """``payload`` as the package's one JSON format; a NaN or infinity,
    which no JSON parser accepts, raises `ValueError`."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, creating its directory, through a
    ``.tmp`` file that replaces ``path``: a failed write or replace leaves
    ``path`` as it was and no ``.tmp`` behind."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        tmp.replace(out)
    finally:
        tmp.unlink(missing_ok=True)
