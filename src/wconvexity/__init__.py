"""Lambert W, two-point power means, and the power-mean convexity map of W.

The package evaluates the principal branch of W on [0, inf), classifies
each (p, q) pair by whether W is strictly convex, strictly concave, or
neither with respect to order-p/order-q power means, and ships a seeded
numerical verifier for the classification, its slope lemmas, and the
harmonic-geometric-arithmetic inequality chain.
"""

from . import lambert, means, raster, theory, verify
from .lambert import *  # noqa: F403
from .means import *  # noqa: F403
from .raster import *  # noqa: F403
from .theory import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.  Start empty:
# += onto a module's own list would extend that list in place.
__all__ = []
__all__ += lambert.__all__
__all__ += means.__all__
__all__ += raster.__all__
__all__ += theory.__all__
__all__ += verify.__all__
