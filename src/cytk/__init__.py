"""Exact-arithmetic toolkit for hypersurfaces in weighted projective 4-space,
du Val surfaces with trivial canonical class, and finite quotients of
abelian surfaces.

All computations are carried out over the integers and rationals; no
floating point enters any verdict.
"""

from cytk.wps import CyclicQuotientType, Stratum, WeightSystem
from cytk.hypersurface import (
    C2BoundReport,
    SingularLocusReport,
    c2_lower_bound,
    contained_edges,
    contains_no_edge,
    is_calabi_yau_degree,
    is_quasismooth,
    is_smooth_in_codim2,
    singular_locus,
    stratified_locus,
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
    "Stratum",
    "TorusAction",
    "WeightSystem",
    "builtin_actions",
    "c2_lower_bound",
    "classify",
    "close_group",
    "contained_edges",
    "contains_no_edge",
    "is_calabi_yau_degree",
    "is_quasismooth",
    "is_smooth_in_codim2",
    "orbifold_c2",
    "singular_locus",
    "stratified_locus",
]
