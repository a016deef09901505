"""Abstract state spaces over regular polyhedral cones.

A state space is a pair (cone, unit): states are cone elements, the unit is a
functional that is strictly positive on the cone, and effects fill the dual
interval [0, unit]. Order isomorphisms between cones are found exactly by
pairing extreme rays. The images of a frame fix the map: the frame is the
shortest prefix of the source's rays that holds a ray basis and rays linking
the basis rays of each irreducible component. So only the frame's rays are
paired by search, one integer linear system gives the frame's scales and
with them the map, and the pairing is looked up: each ray's image, made
primitive, must be a target ray not yet used. The same lookup pairs the rays
of a given map, for isomorphism states and face factorizations. A search is
pinned by the first ray of each component at scale 1, or by an interior point
alpha carried to beta: a transport, or a purification, which carries the unit
of the dual cone onto a state. Either pin touches only basis rays, which lie
in the frame. A pinned search runs only when Vinberg's characteristic
invariant, which every isomorphism of cones preserves, takes one value at
alpha and at beta; unequal values already prove that no map exists. Every
returned witness carries enough data to be re-verified by substitution alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator, NamedTuple, Sequence, Union

from .cone import (
    IntVec,
    PolyhedralCone,
    characteristic_invariant,
    dual_cone,
    ordered_direct_sum,
    support_classes,
)
from .dd import int_dot, polytope_vertices
from .ratlin import (
    Matrix,
    Vector,
    as_vector,
    integral,
    integral_with_scale,
    invert,
    mat_transpose,
    mat_vec,
    rank,
    solve_linear,
    vec_dot,
    vec_scale,
    vec_sub,
)


@dataclass(frozen=True)
class StateSpace:
    cone: PolyhedralCone
    unit: Vector

    def __post_init__(self) -> None:
        unit = as_vector(self.unit)
        if len(unit) != self.cone.ambient_dim:
            raise ValueError("unit length does not match the ambient dimension")
        scaled = integral(unit)
        for r in self.cone.rays:
            if int_dot(scaled, r) <= 0:
                raise ValueError(f"unit is not strictly positive on ray {r}")
        object.__setattr__(self, "unit", unit)

    @property
    def dim(self) -> int:
        return self.cone.ambient_dim

    def is_state(self, v: Sequence) -> bool:
        return self.cone.contains(v)

    def is_interior_state(self, v: Sequence) -> bool:
        return self.cone.interior_contains(v)

    def normalization(self, v: Sequence) -> Fraction:
        return vec_dot(self.unit, as_vector(v))

    def vertex_states(self) -> list[Vector]:
        """The extreme normalized states, one per extreme ray."""
        out = []
        for r in self.cone.rays:
            rv = as_vector(r)
            out.append(vec_scale(Fraction(1) / vec_dot(self.unit, rv), rv))
        return out

    def barycenter(self) -> Vector:
        verts = self.vertex_states()
        acc = [Fraction(0)] * self.dim
        for v in verts:
            for k in range(self.dim):
                acc[k] += v[k]
        return tuple(a / len(verts) for a in acc)

    def is_effect(self, f: Sequence) -> bool:
        """Whether f and unit - f, scaled together to integers, are >= 0 on every ray."""
        f = as_vector(f)
        ints = integral(vec_sub(self.unit, f) + f)
        rest, own = ints[:self.dim], ints[self.dim:]
        return all(int_dot(own, r) >= 0 and int_dot(rest, r) >= 0 for r in self.cone.rays)


@dataclass(frozen=True)
class State:
    space: StateSpace
    vector: Vector

    def __post_init__(self) -> None:
        v = as_vector(self.vector)
        if not self.space.is_state(v):
            raise ValueError("state vector lies outside the positive cone")
        object.__setattr__(self, "vector", v)

    @property
    def normalization(self) -> Fraction:
        return self.space.normalization(self.vector)

    def is_normalized(self) -> bool:
        return self.normalization == 1


@dataclass(frozen=True)
class Effect:
    space: StateSpace
    functional: Vector

    def __post_init__(self) -> None:
        f = as_vector(self.functional)
        if not self.space.is_effect(f):
            raise ValueError("functional lies outside the interval [0, unit]")
        object.__setattr__(self, "functional", f)

    def value_on(self, v: Sequence) -> Fraction:
        return vec_dot(self.functional, as_vector(v))


@dataclass(frozen=True)
class Observable:
    space: StateSpace
    effects: tuple[Effect, ...]

    def __post_init__(self) -> None:
        if not self.effects:
            raise ValueError("an observable needs at least one effect")
        total = [Fraction(0)] * self.space.dim
        for e in self.effects:
            if e.space is not self.space and e.space != self.space:
                raise ValueError("all effects must live on the same space")
            for k in range(self.space.dim):
                total[k] += e.functional[k]
        if tuple(total) != self.space.unit:
            raise ValueError("effects do not sum to the unit")


def order_interval_vertices(cone: PolyhedralCone, top: Sequence) -> tuple[Vector, ...]:
    """Vertices of the order interval [0, top] = {y : y >= 0, top - y >= 0}.

    Its rows come in pairs g.y >= 0, -g.y >= -g.top that are both tight at
    top/2 exactly when g.top = 0, so top/2 certifies the hull."""
    top = as_vector(top)
    if not cone.contains(top):
        raise ValueError("interval top must lie in the cone")
    rows = []
    for g in cone.facets:
        rows.append((g, 0))
        rows.append((tuple(-c for c in g), -vec_dot(g, top)))
    return tuple(polytope_vertices(rows, vec_scale(Fraction(1, 2), top)))


@dataclass(frozen=True)
class EffectsInterval:
    """The effects [0, unit] of a space, with the vertices of that interval."""

    space: StateSpace
    vertices: tuple[Vector, ...]

    def contains(self, f: Sequence) -> bool:
        return self.space.is_effect(f)


def effects_interval(space: StateSpace) -> EffectsInterval:
    """The order interval [0, unit] of the dual cone, whose facets are the
    space's rays."""
    return EffectsInterval(space, order_interval_vertices(dual_cone(space.cone), space.unit))


def diamond_dual(space: StateSpace, alpha0: Union[State, Sequence]) -> StateSpace:
    """Turn the dual cone into a state space, using an interior state as unit.

    This is A* as a state space, the space that weak self-duality compares
    A against."""
    v = as_vector(alpha0.vector if isinstance(alpha0, State) else alpha0)
    if not space.cone.interior_contains(v):
        raise ValueError("the new unit must be an interior state, not a boundary one")
    return StateSpace(dual_cone(space.cone), v)


def space_direct_sum(a: StateSpace, b: StateSpace) -> StateSpace:
    """The direct sum of two spaces, whose cone is reducible; the isomorphism
    tests build their reducible inputs with it."""
    return StateSpace(ordered_direct_sum(a.cone, b.cone), a.unit + b.unit)


@dataclass(frozen=True)
class OrderIsoWitness:
    """An order isomorphism, checkable by substitution on the extreme rays."""

    matrix: Matrix
    ray_bijection: tuple[int, ...]
    scales: tuple[Fraction, ...]

    def verify(self, source: PolyhedralCone, target: PolyhedralCone) -> bool:
        """Whether the matrix is invertible and sends source ray i to
        scales[i] > 0 times target ray ray_bijection[i], for every i.

        The matrix is written as integer rows over one denominator q, so with
        s = a / b the check M r = s t reads b (q M) r = q a t in integers.
        """
        n, d = len(source.rays), source.ambient_dim
        if sorted(self.ray_bijection) != list(range(n)) or len(target.rays) != n:
            return False
        if len(self.scales) != n or len(self.matrix) != d:
            return False
        if any(len(row) != d for row in self.matrix) or invert(self.matrix) is None:
            return False
        rows, q = _integer_rows(self.matrix)
        for r, s, j in zip(source.rays, self.scales, self.ray_bijection):
            if s <= 0:
                return False
            b, qa = s.denominator, q * s.numerator
            if [b * int_dot(row, r) for row in rows] != [qa * x for x in target.rays[j]]:
                return False
        return True


def _integer_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """The rows of a matrix scaled to integers by one positive q, and q."""
    w = len(m[0]) if m else 0
    ints, q = integral_with_scale(x for row in m for x in row)
    return [ints[k * w:(k + 1) * w] for k in range(len(m))], q


def pair_ray_images(
    rows: Sequence[Sequence[int]], q: int, rays: Sequence[IntVec], targets: Sequence[IntVec]
) -> tuple[tuple[int, ...], tuple[Fraction, ...]] | None:
    """Pair the image of each ray under the map rows / q with the distinct
    target ray it is a positive multiple of, and give that multiple.

    The targets are stored rays, distinct and primitive, so an image's
    primitive form names its one partner, at scale gcd / q. A zero image, a
    miss, a target met twice or counts that differ pair nothing."""
    if len(rays) != len(targets):
        return None
    unused = {tuple(t): j for j, t in enumerate(targets)}
    pairing: list[int] = []
    scales: list[Fraction] = []
    for r in rays:
        image = [int_dot(row, r) for row in rows]
        g = math.gcd(*image)
        j = unused.pop(tuple(x // g for x in image), None) if g else None
        if j is None:
            return None
        pairing.append(j)
        scales.append(Fraction(g, q))
    return tuple(pairing), tuple(scales)


ConeLike = Union[StateSpace, PolyhedralCone]


def _cone_of(x: ConeLike) -> PolyhedralCone:
    return x.cone if isinstance(x, StateSpace) else x


def _incidence_sets(c: PolyhedralCone) -> list[frozenset[int]]:
    return [
        frozenset(k for k, f in enumerate(c.facets) if int_dot(f, r) == 0)
        for r in c.rays
    ]


def _fingerprints(c: PolyhedralCone, inc: list[frozenset[int]]) -> list[tuple]:
    facet_degree = [
        sum(1 for i in inc if k in i) for k in range(len(c.facets))
    ]
    return [tuple(sorted(facet_degree[k] for k in inc_i)) for inc_i in inc]


def _ray_basis(c: PolyhedralCone) -> list[int]:
    chosen: list[int] = []
    current = 0
    for i in range(len(c.rays)):
        if rank([c.rays[j] for j in chosen] + [c.rays[i]]) > current:
            chosen.append(i)
            current += 1
            if current == c.ambient_dim:
                break
    return chosen


class _Frame(NamedTuple):
    """The rays whose images fix an order isomorphism of a cone.

    ``basis`` is the greedy ray basis and ``base_inv`` the inverse of the
    matrix with the basis rays as columns. The frame is the first ``length``
    rays; ``extras`` maps each frame ray off the basis to its coordinates
    over the basis followed by -1, scaled together to integers. ``firsts``
    holds the first ray of each irreducible component, always a basis ray.
    """

    basis: list[int]
    base_inv: Matrix
    extras: dict[int, list[int]]
    firsts: list[int]
    length: int


def _frame(c: PolyhedralCone) -> _Frame:
    """The shortest prefix of the rays that holds the greedy ray basis and
    rays whose supports over it link the basis rays of each irreducible
    component, as every ray off the basis links them."""
    basis = _ray_basis(c)
    base_inv = invert(mat_transpose([c.rays[b] for b in basis]))
    rest = [j for j in range(len(c.rays)) if j not in basis]
    coords = [mat_vec(base_inv, c.rays[j]) for j in rest]
    roots, left = support_classes(
        len(basis), [[pos for pos, x in enumerate(cf) if x] for cf in coords]
    )
    length = basis[-1] + 1
    if rest:
        # Classes only merge, so the rays off the basis up to the first one
        # that brings them down to their final number link every component.
        length = max(length, rest[left.index(left[-1])] + 1)
    extras = {j: integral((*cf, -1)) for j, cf in zip(rest, coords) if j < length}
    firsts = [b for pos, b in enumerate(basis) if roots.index(roots[pos]) == pos]
    return _Frame(basis, base_inv, extras, firsts, length)


def _ray_permutations(
    source: PolyhedralCone, target: PolyhedralCone, length: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Candidate ray bijections, lexicographic, pruned by incidence structure.

    With ``length``, the search stops there and yields each candidate prefix
    of that many rays once, in the same order."""
    n = len(source.rays)
    length = n if length is None else length
    s_inc = _incidence_sets(source)
    t_inc = _incidence_sets(target)
    s_fp = _fingerprints(source, s_inc)
    t_fp = _fingerprints(target, t_inc)
    cand = [[j for j in range(n) if t_fp[j] == s_fp[i]] for i in range(n)]
    if any(not c for c in cand):
        return
    s_common = [[len(s_inc[i] & s_inc[j]) for j in range(n)] for i in range(n)]
    t_common = [[len(t_inc[i] & t_inc[j]) for j in range(n)] for i in range(n)]
    assignment = [-1] * length
    used = [False] * n

    def backtrack(i: int) -> Iterator[tuple[int, ...]]:
        if i == length:
            yield tuple(assignment)
            return
        for j in cand[i]:
            if used[j]:
                continue
            if any(t_common[assignment[p]][j] != s_common[p][i] for p in range(i)):
                continue
            assignment[i] = j
            used[j] = True
            yield from backtrack(i + 1)
            assignment[i] = -1
            used[j] = False

    yield from backtrack(0)


def _isomorphisms(
    source: PolyhedralCone,
    target: PolyhedralCone,
    pins: Callable[[_Frame, tuple[int, ...]], list[tuple[Sequence[int], int]]],
) -> Iterator[OrderIsoWitness]:
    """Order isomorphisms source -> target, in lexicographic pairing order.

    A pairing fixes the map up to one positive scale per source ray, and the
    images of the frame already fix it. So the search pairs only the frame's
    rays. Each frame ray off the basis must land on its scaled partner, a
    linear system with integer rows in the frame's scales, which
    pins(frame, frame pairing) completes with integer rows (coefficients,
    value). The solution gives the map M, and ``pair_ray_images`` pairs every
    source ray's image under M with a target ray: on the frame it finds the
    frame pairing and scales again, and off it the rest of the pairing.

    Two isomorphisms with one pairing differ by a map that scales each
    irreducible component by one factor. The frame's extra rays link each
    component's basis rays, so the frame's scales are fixed up to the same
    factors, and pins that fix those factors need only basis scales: the
    first ray of each component, or alpha written over the basis. A positive
    solution is then unique, and equal to the one that all n scales solve
    for; a free variable, set to 0 by the solve, fails the positivity check
    like any other non-solution.
    """
    # Cones that differ in these counts are not isomorphic, and the pairing
    # search reads the target's rays by source index.
    if (source.ambient_dim, len(source.rays), len(source.facets)) != (
        target.ambient_dim, len(target.rays), len(target.facets)
    ):
        return
    frame = _frame(source)
    d, length = source.ambient_dim, frame.length
    inv_rows, inv_q = _integer_rows(frame.base_inv)
    inv_cols = mat_transpose(inv_rows)
    for head in _ray_permutations(source, target, length):
        eqs = list(pins(frame, head))
        for j, cf in frame.extras.items():
            for k in range(d):
                row = [0] * length
                for pos, b in enumerate(frame.basis):
                    row[b] = cf[pos] * target.rays[head[b]][k]
                row[j] = cf[-1] * target.rays[head[j]][k]
                eqs.append((row, 0))
        s = solve_linear([row for row, _ in eqs], [y for _, y in eqs])
        if s is None or any(x <= 0 for x in s):
            continue
        # M sends basis ray b to s_b times its partner: M = images base_inv,
        # summed in integers over the product of the two denominators.
        ints, sq = integral_with_scale(s[b] for b in frame.basis)
        images = [
            [x * target.rays[head[b]][k] for x, b in zip(ints, frame.basis)]
            for k in range(d)
        ]
        rows = [[int_dot(u, col) for col in inv_cols] for u in images]
        denom = sq * inv_q
        pairing = pair_ray_images(rows, denom, source.rays, target.rays)
        if pairing is None:
            continue
        matrix = tuple(tuple(Fraction(x, denom) for x in row) for row in rows)
        witness = OrderIsoWitness(matrix, *pairing)
        if witness.verify(source, target):
            yield witness


def order_isomorphisms(source: ConeLike, target: ConeLike) -> Iterator[OrderIsoWitness]:
    """All order isomorphisms source -> target, in lexicographic pairing
    order, each with the first ray of every irreducible component of the
    source at scale 1."""

    def pinned(frame: _Frame, head: tuple[int, ...]) -> list[tuple[Sequence[int], int]]:
        return [
            (tuple(int(j == first) for j in range(frame.length)), 1)
            for first in frame.firsts
        ]

    yield from _isomorphisms(_cone_of(source), _cone_of(target), pinned)


def order_iso_search(source: ConeLike, target: ConeLike) -> OrderIsoWitness | None:
    return next(order_isomorphisms(source, target), None)


def is_weakly_self_dual(space: ConeLike) -> OrderIsoWitness | None:
    """A witness order isomorphism from the dual cone onto the cone, if any."""
    c = _cone_of(space)
    return order_iso_search(dual_cone(c), c)


def isomorphism_carrying(
    source: ConeLike, target: ConeLike, alpha: Sequence, beta: Sequence
) -> OrderIsoWitness | None:
    """The first order isomorphism source -> target, in pairing order, that
    carries the interior point alpha of the source to beta, or None. Raises
    ValueError when alpha or beta does not have its cone's dimension.

    Such a map preserves Vinberg's characteristic invariant
    (``cone.characteristic_invariant``), so when alpha and beta are interior
    points whose invariants differ, there is none and no search runs. This
    check returns None only where the search would; every other input is
    searched as before. On a simplicial source the invariant is 1
    everywhere, and a target where it is not has another ray count, which
    the search rejects at once, so no invariant is computed. Each cone's
    dual is triangulated once, however many points are compared on it.
    """
    s, t = _cone_of(source), _cone_of(target)
    for name, x, c in (("alpha", alpha, s), ("beta", beta, t)):
        if len(x) != c.ambient_dim:
            raise ValueError(f"{name} has {len(x)} coordinates, expected {c.ambient_dim}")
    if not s.is_simplicial() and s.interior_contains(alpha) and t.interior_contains(beta):
        if characteristic_invariant(s, alpha) != characteristic_invariant(t, beta):
            return None
    # alpha as a combination of the source rays; the map sends it to the
    # same combination of the scaled partners, which must be beta. The solve
    # zeroes the free variables, so the weights sit on the greedy ray basis,
    # inside the frame; they and beta are scaled to integers together once.
    weights = solve_linear(mat_transpose(s.rays), as_vector(alpha))
    ints = integral((*weights, *as_vector(beta)))
    w, rhs = ints[:len(weights)], ints[len(weights):]

    def pins(frame: _Frame, head: tuple[int, ...]) -> list[tuple[Sequence[int], int]]:
        return [
            (tuple(x * t.rays[j][k] for x, j in zip(w, head)), y)
            for k, y in enumerate(rhs)
        ]

    return next(_isomorphisms(s, t, pins), None)


def transport_automorphism(
    space: ConeLike, alpha: Union[State, Sequence], beta: Union[State, Sequence]
) -> Matrix | None:
    """An order automorphism carrying alpha to beta, within the ray-permuting
    family (which is exhaustive for polyhedral cones), or None."""
    c = _cone_of(space)
    a = as_vector(alpha.vector if isinstance(alpha, State) else alpha)
    b = as_vector(beta.vector if isinstance(beta, State) else beta)
    if not (c.interior_contains(a) and c.interior_contains(b)):
        raise ValueError("transport requires interior points")
    witness = isomorphism_carrying(c, c, a, b)
    return None if witness is None else witness.matrix


@dataclass(frozen=True)
class HomogeneityVerdict:
    """status "yes" with the generators, or "no" with the failed pair."""

    status: str
    generators: tuple[Matrix, ...] | None = None
    failed_pair: tuple[Vector, Vector] | None = None

    def __bool__(self) -> bool:
        return self.status == "yes"


def is_homogeneous(space: StateSpace) -> HomogeneityVerdict:
    """Decide transitivity of the automorphism group on the cone interior.

    A polyhedral cone is homogeneous exactly when it is simplicial. For a
    simplicial cone the diagonal scalings in ray coordinates act
    transitively; the returned generators are the rank-one projectors onto
    the rays, from which every transport is a positive combination. Any
    other cone gets a "no" and an interior pair no automorphism connects:
    the barycentre and the first of (1 - 1/k) bary + (1/k) v, k = 2, 3, ...,
    over the vertex states v in order, that it cannot be carried to. Such a
    candidate exists: on a non-simplicial irreducible component, one vertex's
    candidates point in pairwise distinct directions, and the barycentre's
    orbit (finitely many ray permutations times one scaling per component)
    meets only finitely many directions there.

    Each candidate is tested by ``isomorphism_carrying``, which compares
    its characteristic invariant with the barycentre's and enumerates no
    automorphism when they differ. That settles the reported candidate of
    every non-simplicial fixture space and of the 4- and 5-cube cones
    without a search. The verdict is the same as without that check.
    """
    c = space.cone
    if c.is_simplicial():
        inv = invert(mat_transpose(c.rays))
        # Ray i times the i-th coordinate functional over the rays.
        gens = tuple(
            tuple(vec_scale(x, inv[i]) for x in ray) for i, ray in enumerate(c.rays)
        )
        return HomogeneityVerdict("yes", generators=gens)
    bary = space.barycenter()
    verts = space.vertex_states()
    # Every candidate is interior: the barycentre is, and t <= 1/2.
    for k in count(2):
        t = Fraction(1, k)
        for vert in verts:
            cand = tuple((1 - t) * b + t * v for b, v in zip(bary, vert))
            if isomorphism_carrying(c, c, bary, cand) is None:
                return HomogeneityVerdict("no", failed_pair=(bary, cand))
