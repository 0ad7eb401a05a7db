"""Rational points of bounded height on a singular quartic del Pezzo surface.

The surface is the intersection of the two quadrics

    x0*x1 - x2^2 = 0,      x0^2 - x1*x4 + x3^2 = 0

in P^4, with its unique singular point at [0,0,0,0,1].  The package counts
rational points of bounded anticanonical height on the complement of the two
lines, verifies the bijection onto an auxiliary affine variety that makes the
counting fast, and evaluates every constant attached to the expected
asymptotic (archimedean and p-adic densities, the Euler product, the
Peyre-type leading coefficient and the secondary linear-term constant).

The submodules and the names re-exported here are loaded on first access
(PEP 562), so a command loads only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("arith", "constants", "errors", "surface", "torsor", "zeta")
# re-exported name -> the submodule that defines it
_EXPORTS = {
    "constant_bundle": "constants",
    "canonicalize": "surface",
    "count_naive": "surface",
    "count_positive_oracle": "surface",
    "count_torsor": "torsor",
    "from_surface": "torsor",
    "iter_torsor_points": "torsor",
    "to_surface": "torsor",
}

__all__ = [*_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
