"""The membership loops that the cone layer ran before it packed rows into
wide ints, kept as the references the packed test is pinned against.

`holds` took one integer dot product per row, in order, up to the first
that failed. `is_effect` tested both bounds of every ray, one ray at a
time, and `face_contains` took one dot product per active facet.
"""

from operator import mul
from typing import Sequence

from polysteer.cone import Face
from polysteer.ratlin import integral, integral_with_scale
from polysteer.space import StateSpace


def holds(rows: Sequence[Sequence[int]], x: Sequence[int], floor: int) -> bool:
    """Whether f.x >= floor for every row f."""
    for f in rows:
        if sum(map(mul, f, x)) < floor:
            return False
    return True


def is_effect(space: StateSpace, f: Sequence) -> bool:
    """Whether 0 <= t F.r <= s U_r on every ray r, with f = F / s."""
    ints, s = integral_with_scale(f)
    values, t = space._unit_on_rays
    return all(
        0 <= t * sum(map(mul, ints, r)) <= s * u for r, u in zip(space.cone.rays, values)
    )


def face_contains(face: Face, x: Sequence) -> bool:
    """x in the parent cone, and every active facet zero on it."""
    x = integral(x)
    facets = face.parent.facets
    return holds(facets, x, 0) and not any(
        sum(map(mul, facets[k], x)) for k in face.active_facets
    )
