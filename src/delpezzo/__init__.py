"""Rational points of bounded height on a singular quartic del Pezzo surface.

The surface is the intersection of the two quadrics

    x0*x1 - x2^2 = 0,      x0^2 - x1*x4 + x3^2 = 0

in P^4, with its unique singular point at [0,0,0,0,1].  The package counts
rational points of bounded anticanonical height on the complement of the two
lines, verifies the bijection onto an auxiliary affine variety that makes the
counting fast, and evaluates every constant attached to the expected
asymptotic (archimedean and p-adic densities, the Euler product, the
Peyre-type leading coefficient and the secondary linear-term constant).
"""

__version__ = "0.1.0"

from . import arith, constants, errors, surface, torsor, zeta  # noqa: E402,F401
from .constants import constant_bundle  # noqa: E402,F401
from .surface import canonicalize, count_naive, count_positive_oracle  # noqa: E402,F401
from .torsor import count_torsor, from_surface, iter_torsor_points, to_surface  # noqa: E402,F401
