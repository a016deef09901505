"""Abstract state spaces over regular polyhedral cones.

A state space is a pair (cone, unit): states are cone elements, the unit is a
functional that is strictly positive on the cone, and effects fill the dual
interval [0, unit]. Order isomorphisms between cones are found exactly by
pairing extreme rays and solving one linear system for the ray scales of
each pairing; every returned witness carries enough data to be re-verified
by substitution alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

from .cone import PolyhedralCone, dual_cone, irreducible_partition, ordered_direct_sum
from .dd import int_dot, polytope_vertices
from .ratlin import (
    Matrix,
    Vector,
    as_vector,
    integral,
    invert,
    mat_mul,
    mat_transpose,
    mat_vec,
    rank,
    solve_linear,
    vec_dot,
    vec_scale,
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
        f = as_vector(f)
        return all(
            vec_dot(f, r) >= 0 and vec_dot(self.unit, r) >= vec_dot(f, r)
            for r in self.cone.rays
        )


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


@dataclass(frozen=True)
class EffectsInterval:
    """The order interval [0, unit] in both H- and V-representation."""

    ineqs: tuple[tuple[Vector, Fraction], ...]
    vertices: tuple[Vector, ...]

    def contains(self, f: Sequence) -> bool:
        f = as_vector(f)
        return all(vec_dot(g, f) >= h for g, h in self.ineqs)


def effects_interval(space: StateSpace) -> EffectsInterval:
    rows: list[tuple[Vector, Fraction]] = []
    for r in space.cone.rays:
        rv = as_vector(r)
        rows.append((rv, Fraction(0)))
        rows.append((vec_scale(Fraction(-1), rv), -vec_dot(space.unit, rv)))
    verts = polytope_vertices(rows, [], space.dim)
    return EffectsInterval(tuple(rows), tuple(verts))


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
        n = len(source.rays)
        if sorted(self.ray_bijection) != list(range(n)) or len(target.rays) != n:
            return False
        if invert(self.matrix) is None:
            return False
        for i, s in enumerate(self.scales):
            if s <= 0:
                return False
            image = mat_vec(self.matrix, as_vector(source.rays[i]))
            expect = vec_scale(s, as_vector(target.rays[self.ray_bijection[i]]))
            if image != expect:
                return False
        return True


ConeLike = Union[StateSpace, PolyhedralCone]


def _cone_of(x: ConeLike) -> PolyhedralCone:
    return x.cone if isinstance(x, StateSpace) else x


def _incidence_sets(c: PolyhedralCone) -> list[frozenset[int]]:
    return [
        frozenset(k for k, f in enumerate(c.facets) if vec_dot(f, r) == 0)
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


def _ray_permutations(
    source: PolyhedralCone, target: PolyhedralCone
) -> Iterator[tuple[int, ...]]:
    """Candidate ray bijections, lexicographic, pruned by incidence structure."""
    n = len(source.rays)
    s_inc = _incidence_sets(source)
    t_inc = _incidence_sets(target)
    s_fp = _fingerprints(source, s_inc)
    t_fp = _fingerprints(target, t_inc)
    cand = [[j for j in range(n) if t_fp[j] == s_fp[i]] for i in range(n)]
    if any(not c for c in cand):
        return
    s_common = [[len(s_inc[i] & s_inc[j]) for j in range(n)] for i in range(n)]
    t_common = [[len(t_inc[i] & t_inc[j]) for j in range(n)] for i in range(n)]
    assignment = [-1] * n
    used = [False] * n

    def backtrack(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
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
    pins: Callable[[tuple[int, ...]], list[tuple[Vector, Fraction]]],
) -> Iterator[OrderIsoWitness]:
    """Order isomorphisms source -> target, in lexicographic pairing order.

    A pairing fixes the map up to one positive scale per source ray: each
    ray off a ray basis must land on its scaled partner, a linear system in
    the scales, which pins(pairing) completes with rows (coefficients, value).
    Two isomorphisms with one pairing differ by a map that scales each
    irreducible component by one factor, so under pins that fix those factors
    a positive solution is unique; a free variable, set to 0 by the solve,
    then fails the positivity check like any other non-solution.
    """
    n = len(source.rays)
    basis = _ray_basis(source)
    base_inv = invert(mat_transpose([source.rays[b] for b in basis]))
    coeffs = {
        j: mat_vec(base_inv, r) for j, r in enumerate(source.rays) if j not in basis
    }
    for perm in _ray_permutations(source, target):
        eqs = list(pins(perm))
        for j, cf in coeffs.items():
            for k in range(source.ambient_dim):
                row = [Fraction(0)] * n
                for pos, b in enumerate(basis):
                    row[b] = cf[pos] * target.rays[perm[b]][k]
                row[j] = -target.rays[perm[j]][k]
                eqs.append((tuple(row), Fraction(0)))
        s = solve_linear([row for row, _ in eqs], [y for _, y in eqs])
        if s is None or any(x <= 0 for x in s):
            continue
        images = mat_transpose([vec_scale(s[b], target.rays[perm[b]]) for b in basis])
        witness = OrderIsoWitness(mat_mul(images, base_inv), perm, s)
        if witness.verify(source, target):
            yield witness


def order_isomorphisms(source: ConeLike, target: ConeLike) -> Iterator[OrderIsoWitness]:
    """All order isomorphisms source -> target, in lexicographic pairing
    order, each with the first ray of every irreducible component of the
    source at scale 1."""
    s, t = _cone_of(source), _cone_of(target)
    if s.ambient_dim != t.ambient_dim:
        return
    if len(s.rays) != len(t.rays) or len(s.facets) != len(t.facets):
        return
    n = len(s.rays)
    pinned = [
        (tuple(Fraction(int(j == group[0])) for j in range(n)), Fraction(1))
        for group in irreducible_partition(s)
    ]
    yield from _isomorphisms(s, t, lambda perm: pinned)


def order_iso_search(source: ConeLike, target: ConeLike) -> OrderIsoWitness | None:
    return next(order_isomorphisms(source, target), None)


def is_weakly_self_dual(space: ConeLike) -> OrderIsoWitness | None:
    """A witness order isomorphism from the dual cone onto the cone, if any."""
    c = _cone_of(space)
    return order_iso_search(dual_cone(c), c)


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
    # alpha as a combination of the rays; the map sends it to the same
    # combination of the scaled partners, which must be beta.
    weights = solve_linear(mat_transpose(c.rays), a)

    def pins(perm: tuple[int, ...]) -> list[tuple[Vector, Fraction]]:
        return [
            (tuple(w * c.rays[perm[i]][k] for i, w in enumerate(weights)), b[k])
            for k in range(c.ambient_dim)
        ]

    witness = next(_isomorphisms(c, c, pins), None)
    return None if witness is None else witness.matrix


@dataclass(frozen=True)
class HomogeneityVerdict:
    status: str
    generators: tuple[Matrix, ...] | None = None
    failed_pair: tuple[Vector, Vector] | None = None

    def __bool__(self) -> bool:
        return self.status == "yes"


def is_homogeneous(space: StateSpace) -> HomogeneityVerdict:
    """Decide transitivity of the automorphism group on the cone interior.

    For a simplicial cone the diagonal scalings in ray coordinates act
    transitively; the returned generators are the rank-one projectors onto
    the rays, from which every transport is a positive combination. A cone
    with more rays than dimensions is rigid instead, and the verdict carries
    an interior pair no automorphism can connect.
    """
    c = space.cone
    d = c.ambient_dim
    if c.is_simplicial():
        inv = invert(mat_transpose(c.rays))
        # Ray i times the i-th coordinate functional over the rays.
        gens = tuple(
            tuple(vec_scale(x, inv[i]) for x in ray) for i, ray in enumerate(c.rays)
        )
        return HomogeneityVerdict("yes", generators=gens)
    bary = space.barycenter()
    for vert in space.vertex_states():
        for t in (Fraction(1, 2), Fraction(1, 3)):
            cand = tuple(
                (1 - t) * bary[k] + t * vert[k] for k in range(d)
            )
            if cand == bary:
                continue
            if transport_automorphism(space, bary, cand) is None:
                return HomogeneityVerdict("no", failed_pair=(bary, cand))
    return HomogeneityVerdict("unknown")
