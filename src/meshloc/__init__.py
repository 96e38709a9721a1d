"""Contact-based 6-DOF object localization on triangle meshes.

A particle filter localizes a rigid object of known shape from sparse,
noisy 3-D contact points.  Each particle refines its pose hypothesis with
an unscented Kalman step against the nearest-surface-point measurement
model, and importance weights rate candidates against a sliding window of
recent measurements, which keeps the filter from collapsing onto poses
that explain only the newest contact.

Each library module's ``__all__`` is its public list, and the package
re-exports them all; the command line module ``cli`` stays out.
"""

from . import errors, geometry, metrics, mupf, simulate, ukf, unscented
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .metrics import *  # noqa: F403
from .mupf import *  # noqa: F403
from .simulate import *  # noqa: F403
from .ukf import *  # noqa: F403
from .unscented import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *geometry.__all__, *metrics.__all__,
           *mupf.__all__, *simulate.__all__, *ukf.__all__, *unscented.__all__]
