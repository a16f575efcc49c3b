"""Exact-arithmetic toolkit for hypersurfaces in weighted projective 4-space,
du Val surfaces with trivial canonical class, and finite quotients of
abelian surfaces.

All computations are carried out over the integers and rationals; no
floating point enters any verdict.
"""

from cytk.wps import CyclicQuotientType, WeightSystem
from cytk.hypersurface import (
    C2BoundReport,
    SingularLocusReport,
    c2_lower_bound,
    is_calabi_yau_degree,
    is_quasismooth,
    singular_locus,
)
from cytk.surface import DuValMultiset, DuValType, classify, orbifold_c2
from cytk.torusq import AffineTorusMap, TorusAction, builtin_actions, close_group

__version__ = "0.1.0"

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
