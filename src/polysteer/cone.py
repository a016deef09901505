"""Regular polyhedral cones: construction, duality, faces, direct sums,
triangulation and the characteristic invariant.

A cone is regular when it is pointed (contains no line) and generating (spans
its ambient space). Both representations are stored canonically: primitive
integer vectors, sorted, each ray extremal and each facet irredundant, so two
cones are set-equal exactly when the dataclasses are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_
from typing import Iterable, Sequence

from . import dd
from .ratlin import (
    det,
    independent_rows,
    integral,
    mat_transpose,
    nullspace,
    primitive,
    rank,
    solve_linear,
)

IntVec = tuple[int, ...]


class ConeError(ValueError):
    """Input data does not describe a regular cone; the message names the axiom."""


@dataclass(frozen=True)
class PolyhedralCone:
    ambient_dim: int
    rays: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]

    def contains(self, x: Sequence) -> bool:
        x = _integral(x, self.ambient_dim)
        return all(dd.int_dot(f, x) >= 0 for f in self.facets)

    def interior_contains(self, x: Sequence) -> bool:
        x = _integral(x, self.ambient_dim)
        return all(dd.int_dot(f, x) > 0 for f in self.facets)

    def is_simplicial(self) -> bool:
        return len(self.rays) == self.ambient_dim

    @cached_property
    def dual_simplices(self) -> list[tuple[tuple[int, ...], int]]:
        """The pulling triangulation of the dual, each simplex with |det S_T|
        over its rays: what ``characteristic_invariant`` sums over. Computed
        on first use and kept in the instance dict, outside the fields, so
        equality and hashing are unchanged."""
        return [
            (t, abs(det([self.facets[i] for i in t])))
            for t in pulling_triangulation(dual_cone(self))
        ]


@dataclass(frozen=True)
class Face:
    """A face of a cone: the rays vanishing on every facet that is active."""

    parent: PolyhedralCone
    ray_indices: tuple[int, ...]
    active_facets: tuple[int, ...]

    def rays(self) -> list[IntVec]:
        return [self.parent.rays[i] for i in self.ray_indices]

    def span_dim(self) -> int:
        return rank(self.rays()) if self.ray_indices else 0

    def contains(self, x: Sequence) -> bool:
        x = _integral(x, self.parent.ambient_dim)
        return self.parent.contains(x) and all(
            dd.int_dot(self.parent.facets[k], x) == 0 for k in self.active_facets
        )


def _integral(x: Sequence, ambient_dim: int) -> IntVec:
    """x scaled to integers by ``integral``, with its length checked.

    The scale is positive, so every integer facet normal and ray has the same
    sign on the result as on x, and no face or membership test needs
    rational arithmetic.
    """
    x = integral(x)
    if len(x) != ambient_dim:
        raise ValueError(f"vector has {len(x)} entries, the cone lives in {ambient_dim}")
    return tuple(x)


def _primitive_generators(vectors: Iterable[Sequence], ambient_dim: int) -> list[IntVec]:
    """Each vector made primitive, after checking it has ambient_dim entries
    and is nonzero, with repeats dropped in first-occurrence order."""
    out = []
    for i, v in enumerate(map(tuple, vectors)):
        if len(v) != ambient_dim:
            raise ConeError(f"vector has {len(v)} entries, the cone lives in {ambient_dim}")
        if not any(v):
            raise ConeError(
                f"generator {i} is the zero vector; rays and facet normals must be nonzero"
            )
        out.append(primitive(v))
    return list(dict.fromkeys(out))


def dd_convert(rays: Sequence[IntVec], ambient_dim: int) -> list[tuple[IntVec, int]]:
    """Facet normals of the cone generated by the primitive ``rays`` (requires
    full span), each with its incidence mask over the rays.

    Double description proves the span itself, so ``rank`` runs only to
    word the error when it does not hold.
    """
    try:
        return dd.extreme_rays(rays, ambient_dim)
    except ValueError:
        raise ConeError(
            f"not generating: rays span {rank(rays)} of {ambient_dim} dimensions"
        ) from None


def dd_convert_inv(facets: Sequence[IntVec], ambient_dim: int) -> list[tuple[IntVec, int]]:
    """Extreme rays of {x : f.x >= 0} over the primitive ``facets`` (requires a
    pointed cone), each with its incidence mask over the facets.

    As in ``dd_convert``, a kernel vector is computed only to name the line
    once double description has found that the facets do not span.
    """
    try:
        return dd.extreme_rays(facets, ambient_dim)
    except ValueError:
        line = nullspace(facets, ncols=ambient_dim)[0]
        raise ConeError(
            f"not pointed: cone contains the line through {primitive(line)}"
        ) from None


def _extreme_generators(
    generators: Sequence[IntVec], duals: Sequence[tuple[IntVec, int]]
) -> list[IntVec]:
    """The generators extreme in the cone they span, sorted.

    ``generators`` are primitive and distinct. ``duals`` are the irredundant
    facets of that cone, which must be pointed, each with its incidence mask
    over the generators, as ``dd.extreme_rays`` returns them. The duals tight
    on g_i cut out the smallest face holding g_i, and the AND of their masks
    is the set of generators in that face. If g_i is extreme that face is
    g_i's ray, which holds no other generator; if not, the face has an
    extreme ray, which is another generator. So g_i is extreme exactly when
    that AND is 1 << i (Fukuda and Prodon 1996), and no dot product is taken.
    """
    masks = [m for _, m in duals]
    full = (1 << len(generators)) - 1
    return sorted(
        g
        for i, g in enumerate(generators)
        if reduce(and_, [m for m in masks if m >> i & 1], full) == 1 << i
    )


def cone_from_rays(rays: Iterable[Sequence], ambient_dim: int) -> PolyhedralCone:
    rays = _primitive_generators(rays, ambient_dim)
    pairs = dd_convert(rays, ambient_dim)
    facets = [f for f, _ in pairs]
    if rank(facets) < ambient_dim:
        line = nullspace(facets, ncols=ambient_dim)
        hint = primitive(line[0]) if line else "a nonzero vector"
        raise ConeError(f"not pointed: cone contains the line through {hint}")
    canonical_rays = _extreme_generators(rays, pairs)
    return PolyhedralCone(ambient_dim, tuple(canonical_rays), tuple(facets))


def cone_from_facets(facets: Iterable[Sequence], ambient_dim: int) -> PolyhedralCone:
    facets = _primitive_generators(facets, ambient_dim)
    pairs = dd_convert_inv(facets, ambient_dim)
    rays = [r for r, _ in pairs]
    if rank(rays) < ambient_dim:
        raise ConeError(
            f"not generating: facet cone spans {rank(rays)} of {ambient_dim} dimensions"
        )
    canonical_facets = _extreme_generators(facets, pairs)
    return PolyhedralCone(ambient_dim, tuple(rays), tuple(canonical_facets))


def dual_cone(c: PolyhedralCone) -> PolyhedralCone:
    """The dual of a regular cone is regular, with rays and facets exchanged."""
    return PolyhedralCone(c.ambient_dim, c.facets, c.rays)


def pulling_triangulation(c: PolyhedralCone) -> list[tuple[int, ...]]:
    """Simplicial cones that triangulate c, each as the sorted indices of its
    ambient_dim rays, in sorted order.

    Pulling the first ray v of a face V cones v over the triangulations of
    the facets of V that miss v (Lee, "Regular triangulations of convex
    polytopes", 1991). A face is held as the bitmask of its rays. Its facets
    are the inclusion-maximal sets V & F_k over the facets F_k of c that do
    not hold all of V, and a face of dimension k is simplicial exactly when
    it has k rays, so the incidence alone drives the recursion and no rank
    runs. A face reached twice is triangulated once.
    """
    tight = [
        sum(1 << i for i, r in enumerate(c.rays) if dd.int_dot(f, r) == 0)
        for f in c.facets
    ]
    done: dict[int, list[int]] = {}

    def pull(face: int, dim: int) -> list[int]:
        if face.bit_count() == dim:
            return [face]
        if face not in done:
            apex = face & -face
            cuts = {face & f for f in tight} - {face}
            done[face] = [
                apex | s
                for g in cuts
                if not g & apex and not any(g != h and g & h == g for h in cuts)
                for s in pull(g, dim - 1)
            ]
        return done[face]

    n = len(c.rays)
    return sorted(
        tuple(i for i in range(n) if s >> i & 1) for s in pull((1 << n) - 1, c.ambient_dim)
    )


def characteristic_invariant(c: PolyhedralCone, x: Sequence) -> Fraction:
    """Vinberg's invariant J(x) = phi(x)^2 / det H(x) at an interior point x,
    where phi(x) = integral of exp(-<x, y>) over the dual cone is the
    characteristic function of c and H is the Hessian of log phi.

    Every linear isomorphism g of c onto a cone c' has J_c'(g x) = J_c(x)
    (Vinberg, "The theory of convex homogeneous cones", 1963), and J is 1 on
    a simplicial cone; so J_c(x) != J_c'(y) proves that no isomorphism
    carries x to y.

    Over the pulling triangulation of the dual, with a_s = <x, s> for its
    rays s, phi = sum_T |det S_T| / prod_{s in T} a_s. With x scaled to
    integers, P = lcm a_s and b_s = P / a_s, each simplex gives
    W_T = |det S_T| prod b_s and U_T = sum b_s s, and N0 = sum W_T,
    N1 = sum W_T U_T and N2 = sum W_T (U_T U_T^T + sum_{s in T} b_s^2 s s^T)
    are P^d phi, -P^(d+1) grad phi and P^(d+2) times the Hessian of phi.
    Then J = N0^(2d+2) / det(N0 N2 - N1 N1^T), in integers up to that
    division. The triangulation and each simplex's |det S_T| are computed
    once per cone (``PolyhedralCone.dual_simplices``).
    """
    d, rays = c.ambient_dim, c.facets
    x = _integral(x, d)
    a = [dd.int_dot(s, x) for s in rays]
    if min(a) <= 0:
        raise ValueError("the characteristic function is finite only on the interior")
    p = math.lcm(*a)
    b = [p // v for v in a]
    n0, n1 = 0, [0] * d
    n2 = [[0] * d for _ in range(d)]
    # The sum over T of W_T b_s^2 s s^T gathers into one term per ray s.
    ray_weight = [0] * len(rays)
    for t, volume in c.dual_simplices:
        w = volume * math.prod(b[i] for i in t)
        u = [sum(b[i] * rays[i][k] for i in t) for k in range(d)]
        n0 += w
        for k in range(d):
            wu = w * u[k]
            n1[k] += wu
            n2[k] = [e + wu * y for e, y in zip(n2[k], u)]
        for i in t:
            ray_weight[i] += w
    for s, bs, w in zip(rays, b, ray_weight):
        for k in range(d):
            wss = w * bs * bs * s[k]
            n2[k] = [e + wss * y for e, y in zip(n2[k], s)]
    m = [[n0 * e - n1[k] * y for e, y in zip(n2[k], n1)] for k in range(d)]
    return Fraction(n0 ** (2 * d + 2), det(m))


def face_of(c: PolyhedralCone, y: Sequence) -> Face:
    """Smallest face of c containing y (y must belong to the cone)."""
    y = _integral(y, c.ambient_dim)
    dots = [dd.int_dot(f, y) for f in c.facets]
    if any(v < 0 for v in dots):
        raise ValueError("point lies outside the cone")
    active = tuple(k for k, v in enumerate(dots) if v == 0)
    ray_idx = tuple(
        i
        for i, r in enumerate(c.rays)
        if all(dd.int_dot(c.facets[k], r) == 0 for k in active)
    )
    return Face(c, ray_idx, active)


def is_extremal(c: PolyhedralCone, y: Sequence) -> bool:
    """True iff the smallest face containing y is the ray spanned by y."""
    y = _integral(y, c.ambient_dim)
    face = face_of(c, y)
    if not any(y):
        return False
    return len(face.ray_indices) == 1 and primitive(y) == c.rays[face.ray_indices[0]]


def all_faces(c: PolyhedralCone) -> list[Face]:
    """The full face lattice, via closure of facet intersections."""
    seen: dict[tuple[int, ...], Face] = {}
    top = tuple(range(len(c.rays)))
    queue = [top]
    seen[top] = Face(c, top, _active_for(c, top))
    while queue:
        current = queue.pop()
        for k, f in enumerate(c.facets):
            sub = tuple(i for i in current if dd.int_dot(f, c.rays[i]) == 0)
            if sub not in seen:
                seen[sub] = Face(c, sub, _active_for(c, sub))
                queue.append(sub)
    return sorted(seen.values(), key=lambda fc: (len(fc.ray_indices), fc.ray_indices))


def _active_for(c: PolyhedralCone, ray_idx: tuple[int, ...]) -> tuple[int, ...]:
    if not ray_idx:
        return tuple(range(len(c.facets)))
    return tuple(
        k
        for k, f in enumerate(c.facets)
        if all(dd.int_dot(f, c.rays[i]) == 0 for i in ray_idx)
    )


def ordered_direct_sum(a: PolyhedralCone, b: PolyhedralCone) -> PolyhedralCone:
    """Coordinate-wise direct sum: elements are pairs ordered componentwise."""
    da, db = a.ambient_dim, b.ambient_dim
    zeros_a = (0,) * da
    zeros_b = (0,) * db
    rays = [r + zeros_b for r in a.rays] + [zeros_a + s for s in b.rays]
    facets = [f + zeros_b for f in a.facets] + [zeros_a + g for g in b.facets]
    return PolyhedralCone(da + db, tuple(sorted(rays)), tuple(sorted(facets)))


def support_classes(
    d: int, supports: Iterable[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """Union-find over the positions 0..d-1 of a ray basis, joining the
    positions of each support in turn.

    A ray off the basis, written over it, forms a circuit with the basis rays
    its support holds, so all of them lie in one irreducible summand. Returns
    the class of every position (a representative position) once each
    support is joined, and the number of classes left after each support.
    """
    parent = list(range(d))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    left, counts = d, []
    for support in supports:
        for p in support[1:]:
            a, b = find(support[0]), find(p)
            if a != b:
                parent[a] = b
                left -= 1
        counts.append(left)
    return [find(i) for i in range(d)], counts


def irreducible_partition(c: PolyhedralCone) -> list[tuple[int, ...]]:
    """Group ray indices into the summands of the finest direct-sum splitting.

    Two rays share a summand exactly when a minimal linear dependence links
    them; those classes are computed from the fundamental circuits of a ray
    basis and their spans are automatically independent.
    """
    k = len(c.rays)
    if k == c.ambient_dim:
        return [(i,) for i in range(k)]
    basis_idx = independent_rows(c.rays)
    cols = mat_transpose([c.rays[b] for b in basis_idx])
    rest = [e for e in range(k) if e not in basis_idx]
    supports = [
        [pos for pos, x in enumerate(solve_linear(cols, c.rays[e])) if x] for e in rest
    ]
    roots, _ = support_classes(len(basis_idx), supports)
    root = dict(zip(basis_idx, roots)) | {e: roots[s[0]] for e, s in zip(rest, supports)}
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(root[i], []).append(i)
    return sorted(tuple(g) for g in groups.values())


def irreducible_components(c: PolyhedralCone) -> list[PolyhedralCone]:
    """The irreducible summands, each written in coordinates of its own span."""
    out = []
    for group in irreducible_partition(c):
        group_rays = [c.rays[i] for i in group]
        sub_basis = [group_rays[i] for i in independent_rows(group_rays)]
        cols = mat_transpose(sub_basis)
        coords = [solve_linear(cols, r) for r in group_rays]
        out.append(cone_from_rays(coords, len(sub_basis)))
    return out
