"""The per-vertex section check and the difference-vector affine bases
that `steering` used before it checked a section at the interval's ends and
lifted points to (p, 1), kept as the references the tests pin them against.

`holds_on` applied the section at every vertex of [0, marginal], then
checked the face rays as `AffineSection._holds` still does. `affine_basis`
and `affine_dimension` read the differences p - p_0.
"""

from operator import mul
from typing import Sequence

from polysteer.composite import BipartiteState, marginal_b
from polysteer.cone import face_of
from polysteer.dd import int_dot
from polysteer.ratlin import Vector, independent_rows, integer_rows, mat_transpose, rank, vec_zero
from polysteer.steering import AffineSection
from rational_rows import vec_sub


def holds_on(section: AffineSection, omega: BipartiteState, verts: Sequence[Vector]) -> bool:
    """Each interval vertex goes to an effect mapping onto it, and each
    face ray to a step nonnegative on the A rays, so chains map to chains."""
    for y in verts:
        x = section.apply(y)
        if omega.apply(x) != y or not omega.space_a.is_effect(x):
            return False
    target = marginal_b(omega).vector
    base, b = section._weights(vec_zero(len(target)))
    rows = integer_rows(mat_transpose(section.images))[0]
    for fr in face_of(omega.space_b.cone, target).rays():
        lam, d = section._weights(fr)
        diff = [x * b - y * d for x, y in zip(lam, base)]
        step = [sum(map(mul, row, diff)) for row in rows]
        if any(int_dot(step, r) < 0 for r in omega.space_a.cone.rays):
            return False
    return True


def affine_basis(points: Sequence[Vector]) -> list[Vector]:
    diffs = [vec_sub(p, points[0]) for p in points[1:]]
    return [points[0]] + [points[1 + i] for i in independent_rows(diffs)]


def affine_dimension(points: Sequence[Vector]) -> int:
    """The dimension of the affine hull of points, as
    `_polytope_dimension` read it off the vertices."""
    return rank([vec_sub(v, points[0]) for v in points[1:]])
