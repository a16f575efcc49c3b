"""Exact-arithmetic toolkit for hypersurfaces in weighted projective 4-space,
du Val surfaces with trivial canonical class, and finite quotients of
abelian surfaces.

All computations are carried out over the integers and rationals; no
floating point enters any verdict.  Every name is imported from its module
(``cytk.hypersurface``, ``cytk.surface``, ``cytk.torusq``, ...); importing
the package itself loads none of them.
"""

__version__ = "0.1.0"
