"""The `Fraction` vertex enumeration that `dd` and `steering` used before
vertices and ensemble parts stayed integer rows over one common scale, kept
as the reference the tests pin the integer core against.

`polytope_vertices` read each vertex off its ray at t = 1 as Fractions and
sorted the Fraction tuples. `ensemble_polytope_vertices` built its rows
from the Fraction target and summed the closing part in Fractions.
`extremal_ensembles` built an `Ensemble`, with its membership check, for
every vertex, and dropped repeats by its sorted Fraction parts.
"""

from fractions import Fraction
from typing import Iterator, Sequence

from polysteer.dd import extreme_rays
from polysteer.ratlin import Vector, as_vector, integer_row, vec_dot
from polysteer.space import StateSpace
from polysteer.steering import Ensemble


def polytope_vertices(ineqs, dim: int) -> list[tuple[Fraction, ...]]:
    rows = []
    for i, (g, h) in enumerate(ineqs):
        if len(g) != dim:
            raise ValueError(f"row {i} has {len(g)} coefficients, but dim is {dim}")
        lhs, rhs, _ = integer_row(g, h)
        rows.append((*lhs, -rhs))
    rows.append((0,) * dim + (1,))
    try:
        cone_rays = extreme_rays(rows, dim + 1)
    except ValueError:
        raise ValueError("polytope is unbounded") from None
    if any(r[dim] == 0 for r, _ in cone_rays):
        raise ValueError("polytope is unbounded")
    return sorted(tuple(Fraction(c, r[dim]) for c in r[:dim]) for r, _ in cone_rays)


def ensemble_polytope_vertices(
    space: StateSpace, target: Sequence, k: int
) -> list[tuple[Vector, ...]]:
    target = as_vector(target)
    if not space.cone.contains(target):
        raise ValueError("the split target must lie in the cone")
    db = space.dim
    n = (k - 1) * db
    ge = [
        ((0,) * (i * db) + g + (0,) * (n - (i + 1) * db), 0)
        for i in range(k - 1)
        for g in space.cone.facets
    ]
    ge += [(tuple(-c for c in g) * (k - 1), -vec_dot(g, target)) for g in space.cone.facets]
    out = []
    for v in polytope_vertices(ge, n):
        parts = [v[i * db:(i + 1) * db] for i in range(k - 1)]
        parts.append(tuple(t - sum(col) for t, col in zip(target, zip(*parts))))
        out.append(tuple(parts))
    return out


def extremal_ensembles(
    space: StateSpace, target: Sequence, depth: int
) -> Iterator[tuple[int, Ensemble]]:
    if depth < 2:
        raise ValueError("the search depth must be at least 2")
    seen: set[tuple[Vector, ...]] = set()
    for k in range(2, depth + 1):
        for parts in ensemble_polytope_vertices(space, target, k):
            nonzero = tuple(p for p in parts if any(x != 0 for x in p))
            if not nonzero:
                continue
            e = Ensemble(space, nonzero)
            key = e.canonical_parts()
            if key not in seen:
                seen.add(key)
                yield k, e
