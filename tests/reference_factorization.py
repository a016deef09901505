"""The Fraction-row face factorization, the per-ray witness check and the
per-summand re-elimination of `irreducible_components` that ran before
the integer-row versions, kept as the references the tests pin them
against.

`factors_isomorphically_through` ranked each candidate face, took its
basis by a second elimination, inverted [basis | kernel] in Fractions,
multiplied out the idempotent, and ranked the target face too before it
paired the rays. `witness_verify` walked the rays itself, checking each
scale's sign and M r = s t in integers. `irreducible_components` chose
each summand's basis again from its rays and solved every ray over it.
"""

from polysteer.composite import Factorization
from polysteer.cone import (
    PolyhedralCone,
    all_faces,
    cone_from_rays,
    face_of,
    irreducible_partition,
)
from polysteer.dd import int_dot
from polysteer.ratlin import (
    IntegerSolver,
    as_matrix,
    as_vector,
    independent_rows,
    integer_rows,
    invert,
    mat_transpose,
    mat_vec,
    nullspace,
    rank,
    vec_zero,
)
from polysteer.space import OrderIsoWitness, pair_ray_images
from rational_rows import mat_mul


def factors_isomorphically_through(phi, source: PolyhedralCone, target: PolyhedralCone):
    phi = as_matrix(phi)
    for r in source.rays:
        if not target.contains(mat_vec(phi, as_vector(r))):
            raise ValueError("map is not positive on the source cone")
    d = source.ambient_dim
    kern = nullspace(list(phi))
    rk = len(phi[0]) - len(kern)
    if rk == 0:
        return None
    rows, q = integer_rows(phi)
    for face in all_faces(source):
        face_rays = [as_vector(r) for r in face.rays()]
        if not face_rays or face.span_dim() != rk:
            continue
        span_basis = [face_rays[i] for i in independent_rows(face_rays)]
        cols_inv = invert(mat_transpose(span_basis + kern))
        if cols_inv is None:
            continue
        p = mat_mul(mat_transpose(span_basis + [vec_zero(d)] * len(kern)), cols_inv)
        if any(not face.contains(mat_vec(p, as_vector(r))) for r in source.rays):
            continue
        total = mat_vec(phi, tuple(map(sum, zip(*face_rays))))
        target_face = face_of(target, total)
        if target_face.span_dim() != rk:
            continue
        pairing = pair_ray_images(rows, q, face.rays(), target_face.rays())
        if pairing is None:
            continue
        return Factorization(face, p, target_face, *pairing)
    return None


def witness_verify(w: OrderIsoWitness, source: PolyhedralCone, target: PolyhedralCone) -> bool:
    n, d = len(source.rays), source.ambient_dim
    if sorted(w.ray_bijection) != list(range(n)) or len(target.rays) != n:
        return False
    if len(w.scales) != n or len(w.matrix) != d:
        return False
    if any(len(row) != d for row in w.matrix):
        return False
    rows, q = integer_rows(w.matrix)
    if rank(rows) < d:
        return False
    for r, s, j in zip(source.rays, w.scales, w.ray_bijection):
        if s <= 0:
            return False
        b, qa = s.denominator, q * s.numerator
        if [b * int_dot(row, r) for row in rows] != [qa * x for x in target.rays[j]]:
            return False
    return True


def irreducible_components(c: PolyhedralCone) -> list[PolyhedralCone]:
    out = []
    for group in irreducible_partition(c):
        group_rays = [c.rays[i] for i in group]
        sub_basis = [group_rays[i] for i in independent_rows(group_rays)]
        solver = IntegerSolver(mat_transpose(sub_basis))
        coords = [solver.solve(r)[0] for r in group_rays]
        out.append(cone_from_rays(coords, len(sub_basis)))
    return out
