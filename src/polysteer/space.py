"""Abstract state spaces over regular polyhedral cones.

A state space is a pair (cone, unit): states are cone elements, the unit is a
functional that is strictly positive on the cone, and effects fill the dual
interval [0, unit]. Order isomorphisms between cones are found exactly by
pairing extreme rays. The images of a frame fix the map: the frame is the
shortest prefix of the source's rays that holds a ray basis and rays linking
the basis rays of each irreducible component. It is read off
``cone.ray_circuits``, the one pass that gives the basis, its inverse, the
circuit of every other ray over it and the components, so this module
computes none of them. Only the frame's rays are paired by search, one
integer linear system gives the frame's scales and with them the map, and
the pairing is looked up: each ray's image, made primitive, must be a target
ray not yet used. The same lookup pairs the rays of a given map, for
isomorphism states and face factorizations. A search is pinned by the first
ray of each component at scale 1, or by an interior point alpha carried to
beta: a transport, or a purification, which carries the unit of the dual
cone onto a state. Either pin touches only basis rays, which lie in the
frame; alpha is written over them through the frame's inverse. A pinned
search runs only when the slack matrices pinned at alpha and at beta, which
every isomorphism carrying alpha to beta permutes into each other, agree up
to row and column order; when they do not, no map exists. Every returned
witness carries enough data to be re-verified by substitution alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator, NamedTuple, Sequence, Union

from .cone import (
    IntVec,
    PackedRows,
    PolyhedralCone,
    dual_cone,
    ordered_direct_sum,
    pinned_slack,
    ray_circuits,
)
from .dd import _vertex_rows, int_dot
from .ratlin import (
    Matrix,
    Vector,
    as_vector,
    integer_rows,
    integral_with_scale,
    invert,
    mat_transpose,
    primitive,
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
        scaled, t = integral_with_scale(unit)
        values = [int_dot(scaled, r) for r in self.cone.rays]
        for r, v in zip(self.cone.rays, values):
            if v <= 0:
                raise ValueError(f"unit is not strictly positive on ray {r}")
        object.__setattr__(self, "unit", unit)
        # unit.r = U_r / t; not a field, so not in eq, hash or repr.
        object.__setattr__(self, "_unit_on_rays", (values, t))
        object.__setattr__(self, "_effect_rows", None)  # set by is_effect
        object.__setattr__(self, "_effect_vertices", None)  # set by EffectsInterval.vertices

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
        """The extreme normalized states r / unit.r = t r / U_r, one per extreme ray."""
        values, t = self._unit_on_rays
        return [tuple(Fraction(t * x, u) for x in r) for r, u in zip(self.cone.rays, values)]

    def barycenter(self) -> Vector:
        verts = self.vertex_states()
        return tuple(sum(col) / len(verts) for col in zip(*verts))

    def is_effect(self, f: Sequence) -> bool:
        """Whether 0 <= f.r <= unit.r on every ray r: with f = F / s, whether
        0 <= t F.r <= s U_r, in integers: one exact ``PackedRows`` test of
        (F, s), its width set by the rows (r, 0) and (-t r, U_r) and s."""
        ints, s = integral_with_scale(f)
        if len(ints) != self.dim:
            raise ValueError("effect length does not match the dimension")
        ints.append(s)
        block = self._effect_rows
        if block is None:
            values, t = self._unit_on_rays
            rays = self.cone.rays
            block = PackedRows(
                [(*r, 0) for r in rays] + [(*(-t * c for c in r), u) for r, u in zip(rays, values)]
            )
            object.__setattr__(self, "_effect_rows", block)
        return block.holds(ints)


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
        if any(e.space is not self.space and e.space != self.space for e in self.effects):
            raise ValueError("all effects must live on the same space")
        if tuple(map(sum, zip(*(e.functional for e in self.effects)))) != self.space.unit:
            raise ValueError("effects do not sum to the unit")


def order_interval_vertices(cone: PolyhedralCone, top: Sequence) -> tuple[Vector, ...]:
    """Vertices of the order interval [0, top] = {y : y >= 0, top - y >= 0},
    cut out by the rows g.y >= 0 and -g.y >= -g.top of each facet g.

    With top = T / t over one positive t, the point Y = t y meets the
    integer rows g.Y >= 0 and -g.Y >= -g.T. The integer core ``_vertex_rows``
    enumerates those vertices as integer rows over one scale s, sorted, so
    each vertex is its row over s t; only the returned vertices are
    Fractions."""
    ints, t = integral_with_scale(top)
    if not cone.contains(ints):
        raise ValueError("interval top must lie in the cone")
    rows = []
    for g in cone.facets:
        rows.append((*g, 0))
        rows.append((*(-c for c in g), int_dot(g, ints)))
    verts, s = _vertex_rows(rows, len(ints))
    return tuple(tuple(Fraction(x, s * t) for x in v) for v in verts)


@dataclass(frozen=True)
class EffectsInterval:
    """The effects [0, unit] of a space: the order interval of the dual
    cone, whose facets are the space's rays. Membership reads those rays;
    the vertices are enumerated on first access and kept on the space."""

    space: StateSpace

    def contains(self, f: Sequence) -> bool:
        return self.space.is_effect(f)

    @property
    def vertices(self) -> tuple[Vector, ...]:
        space = self.space
        if space._effect_vertices is None:
            verts = order_interval_vertices(dual_cone(space.cone), space.unit)
            object.__setattr__(space, "_effect_vertices", verts)
        return space._effect_vertices


def effects_interval(space: StateSpace) -> EffectsInterval:
    """The effects [0, unit] of a space; nothing is enumerated until its
    vertices are read."""
    return EffectsInterval(space)


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

        The matrix is written as integer rows over one denominator q: it is
        invertible when they have rank d, and with s = a / b the check
        M r = s t reads b (q M) r = q a t in integers.
        """
        n, d = len(source.rays), source.ambient_dim
        if sorted(self.ray_bijection) != list(range(n)) or len(target.rays) != n:
            return False
        if len(self.scales) != n or len(self.matrix) != d:
            return False
        if any(len(row) != d for row in self.matrix):
            return False
        rows, q = integer_rows(self.matrix)
        if rank(rows) < d:
            return False
        for r, s, j in zip(source.rays, self.scales, self.ray_bijection):
            if s <= 0:
                return False
            b, qa = s.denominator, q * s.numerator
            if [b * int_dot(row, r) for row in rows] != [qa * x for x in target.rays[j]]:
                return False
        return True


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


class _Frame(NamedTuple):
    """The rays whose images fix an order isomorphism of a cone, read off
    ``cone.ray_circuits``.

    ``basis`` is the greedy ray basis and ``inverse`` the inverse of the
    matrix with the basis rays as columns, as integer rows over one scale,
    from the circuits' solver. The frame is the first ``length`` rays;
    ``extras`` maps each frame ray off the basis to its circuit: its
    coordinates over the basis followed by -1, scaled together to integers.
    ``firsts`` holds the first ray of each irreducible component, always a
    basis ray.
    """

    basis: list[int]
    inverse: tuple[list[list[int]], int]
    extras: dict[int, IntVec]
    firsts: list[int]
    length: int


def _frame(c: PolyhedralCone) -> _Frame:
    """The shortest prefix of the rays that holds the greedy ray basis and
    rays whose circuits over it link the basis rays of each irreducible
    component, as every ray off the basis links them; read off
    ``ray_circuits``."""
    rc = ray_circuits(c)
    rest = list(rc.circuits)
    length = rc.basis[-1] + 1
    if rest:
        # Classes only merge, so the rays off the basis up to the first one
        # that brings them down to their final number link every component.
        length = max(length, rest[rc.left.index(rc.left[-1])] + 1)
    extras = {j: primitive((*cf, -d)) for j, (cf, d) in rc.circuits.items() if j < length}
    firsts = [group[0] for group in rc.partition]
    return _Frame(rc.basis, rc.solver.inverse(), extras, firsts, length)


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
    inv_rows, inv_q = frame.inverse
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
        # M sends basis ray b to s_b times its partner: M = images inverse,
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

    Such a map permutes the rows and columns of the slack matrix pinned at
    alpha into the one pinned at beta (``cone.pinned_slack``), so when alpha
    and beta are interior points whose pinned slack rows differ, there is
    none and no search runs. This check returns None only where the search
    would; every other input is searched as before. On a simplicial source
    every row is one 1 among zeros at every interior point, and a target
    where it is not has another ray count, which the search rejects at
    once, so no rows are computed.
    """
    s, t = _cone_of(source), _cone_of(target)
    for name, x, c in (("alpha", alpha, s), ("beta", beta, t)):
        if len(x) != c.ambient_dim:
            raise ValueError(f"{name} has {len(x)} coordinates, expected {c.ambient_dim}")
    if not s.is_simplicial() and s.interior_contains(alpha) and t.interior_contains(beta):
        if pinned_slack(s, alpha) != pinned_slack(t, beta):
            return None
    a, sa = integral_with_scale(alpha)
    b, sb = integral_with_scale(beta)

    def pins(frame: _Frame, head: tuple[int, ...]) -> list[tuple[Sequence[int], int]]:
        # alpha = A / sa has weights I A / (q sa) over the basis rays, I / q
        # the frame's inverse; the map sends it to the same combination of
        # the scaled partners, which must be beta = B / sb.
        inv_rows, q = frame.inverse
        w = dict(zip(frame.basis, (sb * int_dot(row, a) for row in inv_rows)))
        return [
            (tuple(w.get(j, 0) * t.rays[h][k] for j, h in enumerate(head)), q * sa * y)
            for k, y in enumerate(b)
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
    the slack matrix pinned at it with the one pinned at the barycentre and
    enumerates no automorphism when they differ. That settles the reported
    candidate of every non-simplicial fixture space, of the 4-cube,
    4-cross-polytope and 5-cube cones and of the 24-cell without a search.
    The verdict is the same as without that check.
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
