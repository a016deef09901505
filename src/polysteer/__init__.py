"""Exact rational toolkit for polyhedral ordered vector spaces.

Decides steering of bipartite states, weak self-duality, homogeneity and
purification over finite-dimensional polyhedral cones, producing certificates
that re-verify by exact substitution.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
