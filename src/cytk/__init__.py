"""Exact-arithmetic toolkit for hypersurfaces in weighted projective 4-space,
du Val surfaces with trivial canonical class, and finite quotients of
abelian surfaces.

All computations are carried out over the integers and rationals; no
floating point enters any verdict.
"""

from importlib import import_module

from cytk.wps import CyclicQuotientType, WeightSystem
from cytk.hypersurface import (
    C2BoundReport,
    SingularLocusReport,
    c2_lower_bound,
    is_calabi_yau_degree,
    is_quasismooth,
    singular_locus,
)

__version__ = "0.1.0"

# The surface and torus-quotient names are imported when first read, so
# that the hypersurface commands do not pay for importing those modules.
_LAZY = {
    "DuValMultiset": "surface",
    "DuValType": "surface",
    "classify": "surface",
    "orbifold_c2": "surface",
    "AffineTorusMap": "torusq",
    "TorusAction": "torusq",
    "builtin_actions": "torusq",
    "close_group": "torusq",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module 'cytk' has no attribute {name!r}")
    return getattr(import_module(f"cytk.{_LAZY[name]}"), name)

__all__ = [
    "AffineTorusMap",
    "C2BoundReport",
    "CyclicQuotientType",
    "DuValMultiset",
    "DuValType",
    "SingularLocusReport",
    "TorusAction",
    "WeightSystem",
    "builtin_actions",
    "c2_lower_bound",
    "classify",
    "close_group",
    "is_calabi_yau_degree",
    "is_quasismooth",
    "orbifold_c2",
    "singular_locus",
]
