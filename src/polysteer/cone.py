"""Regular polyhedral cones: construction, duality, faces, direct sums, the
slack matrix pinned at an interior point, and the circuits of a ray basis,
which give both the irreducible summands and the isomorphism search's frame.

A cone is regular when it is pointed (contains no line) and generating (spans
its ambient space). Both representations are stored canonically: primitive
integer vectors, sorted, each ray extremal and each facet irredundant, so two
cones are set-equal exactly when the dataclasses are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import and_, mul
from typing import Iterable, NamedTuple, Sequence

from . import dd
from .ratlin import (
    IntegerSolver,
    independent_rows,
    integral,
    mat_transpose,
    nullspace,
    primitive,
    rank,
)

IntVec = tuple[int, ...]


class ConeError(ValueError):
    """Input data does not describe a regular cone; the message names the axiom."""


class PackedRows:
    """Integer rows packed column by column, so that one test decides
    f.x >= floor, floor 0 or 1, for every row f at once (Fisher and Dietz,
    "SIMD within a register", LCPC 1998).

    Column j packs into C_j = sum_k R_kj 2^(k w). With TOP = sum_k
    2^(k w + w - 1) and ONES = sum_k 2^(k w), slot k of
    A = TOP + sum_j x_j C_j - floor ONES holds 2^(w-1) + f_k.x - floor, so
    every row holds exactly when A & TOP == TOP, provided every slot stays
    in [0, 2^w). With L the largest row 1-norm and each |x_j| < 2^b,
    f_k.x - floor lies in [-2^(w-1), 2^(w-1)) for w = bits(L) + b + 1, so
    at that width the test is exact. A block is packed on its first test,
    for twice the bits of that x, and again only when a wider x arrives.
    """

    __slots__ = ("_rows", "_bits", "_cols", "_top", "_bases")

    def __init__(self, rows: Sequence[Sequence[int]]):
        self._rows = rows
        self._bits = -1

    def holds(self, x: Sequence[int], floor: int = 0) -> bool:
        """Whether f.x >= floor for every row f; x is an integer vector of
        the rows' length and floor is 0 or 1."""
        bits = max(map(abs, x)).bit_length() if x else 0
        if bits > self._bits:
            self._pack(2 * bits)
        top = self._top
        return sum(map(mul, x, self._cols), self._bases[floor]) & top == top

    def _pack(self, bits: int) -> None:
        """Pack the columns for an x of up to ``bits`` bits per entry."""
        rows = self._rows
        w = max((sum(map(abs, r)) for r in rows), default=0).bit_length() + bits + 1
        cols = []
        for col in zip(*rows):
            c = 0
            for v in reversed(col):
                c = (c << w) + v
            cols.append(c)
        ones = ((1 << len(rows) * w) - 1) // ((1 << w) - 1)
        self._cols = cols
        self._top = ones << (w - 1)
        self._bases = (self._top, self._top - ones)
        self._bits = bits


@dataclass(frozen=True)
class PolyhedralCone:
    ambient_dim: int
    rays: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]

    def __post_init__(self) -> None:
        # Packed on their first test; not fields, so not in eq, hash or repr.
        object.__setattr__(self, "_packed_facets", PackedRows(self.facets))
        object.__setattr__(self, "_packed_rays", PackedRows(self.rays))

    def contains(self, x: Sequence) -> bool:
        """Whether every facet is nonnegative on x, a rational vector, scaled
        to integers once (an all-int x as it is). One test of the packed
        facets decides it, exact at the slot width ``PackedRows`` takes:
        the bits of the largest facet 1-norm and of x's largest entry, + 1."""
        return self._packed_facets.holds(_integral(x, self.ambient_dim), 0)

    def interior_contains(self, x: Sequence) -> bool:
        """Whether every facet is positive on x, tested as ``contains`` does
        with floor 1: an integer f.x is positive when f.x - 1 >= 0, and
        the same width holds f.x - 1."""
        return self._packed_facets.holds(_integral(x, self.ambient_dim), 1)

    def dual_contains(self, y: Sequence) -> bool:
        """Whether y lies in the dual cone, tested as ``contains`` does
        against the packed rays."""
        return self._packed_rays.holds(_integral(y, self.ambient_dim), 0)

    def is_simplicial(self) -> bool:
        return len(self.rays) == self.ambient_dim


@dataclass(frozen=True)
class Face:
    """A face of a cone: the rays vanishing on every facet that is active."""

    parent: PolyhedralCone
    ray_indices: tuple[int, ...]
    active_facets: tuple[int, ...]

    def __post_init__(self) -> None:
        # The active facets' sum, taken by the first contains; not a field.
        object.__setattr__(self, "_active_sum", None)

    def rays(self) -> list[IntVec]:
        return [self.parent.rays[i] for i in self.ray_indices]

    def span_dim(self) -> int:
        return rank(self.rays()) if self.ray_indices else 0

    def contains(self, x: Sequence) -> bool:
        """Whether x lies in the parent cone, by the parent's exact packed
        test, and every active facet vanishes on it. Those facets are then
        nonnegative on x, so they vanish exactly when their sum does."""
        x = _integral(x, self.parent.ambient_dim)
        active = self._active_sum
        if active is None:
            facets = self.parent.facets
            active = [sum(col) for col in zip(*(facets[k] for k in self.active_facets))]
            object.__setattr__(self, "_active_sum", active)
        return self.parent._packed_facets.holds(x, 0) and not dd.int_dot(active, x)


def _integral(x: Sequence, ambient_dim: int) -> list[int]:
    """x scaled to integers by ``integral``, with its length checked.

    The scale is positive, so every integer facet normal and ray has the same
    sign on the result as on x, and no face or membership test needs
    rational arithmetic.
    """
    x = integral(x)
    if len(x) != ambient_dim:
        raise ValueError(f"vector has {len(x)} entries, the cone lives in {ambient_dim}")
    return x


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


def dd_convert(
    rays: Sequence[IntVec], ambient_dim: int, start: dd.Start | None = None
) -> list[tuple[IntVec, int]]:
    """Facet normals of the cone generated by the primitive ``rays`` (requires
    full span), each with its incidence mask over the rays.

    ``start`` is a ``dd.Start`` over the rays, as tensor cones build one;
    double description then inserts the other rays in the order given,
    and by default it starts from the first independent rays and inserts
    the one that cuts off the most facets next. Double description proves
    the span itself, so ``rank`` runs only to word the error when it does
    not hold.
    """
    try:
        return dd.extreme_rays(rays, ambient_dim, start, in_order=start is not None)
    except ValueError:
        raise ConeError(
            f"not generating: rays span {rank(rays)} of {ambient_dim} dimensions"
        ) from None


def dd_convert_inv(
    facets: Sequence[IntVec], ambient_dim: int, start: dd.Start | None = None
) -> list[tuple[IntVec, int]]:
    """Extreme rays of {x : f.x >= 0} over the primitive ``facets`` (requires a
    pointed cone), each with its incidence mask over the facets; ``start``
    as in ``dd_convert``.

    As in ``dd_convert``, a kernel vector is computed only to name the line
    once double description has found that the facets do not span.
    """
    try:
        return dd.extreme_rays(facets, ambient_dim, start, in_order=start is not None)
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


def cone_from_rays(
    rays: Iterable[Sequence], ambient_dim: int, start: dd.Start | None = None
) -> PolyhedralCone:
    """The cone the rays generate.

    ``start`` seeds double description, as in ``dd_convert``; its row
    indices count the rays as given, so with a start they must be
    primitive and distinct already. The cone does not depend on it.
    ``rank`` of the facets decides pointedness, though the masks decide it
    too (the cone is pointed iff no ray is tight on every facet); it stays
    while the benchmark's traced entry points name it."""
    rays = _primitive_generators(rays, ambient_dim)
    pairs = dd_convert(rays, ambient_dim, start)
    facets = [f for f, _ in pairs]
    if rank(facets) < ambient_dim:
        line = nullspace(facets, ncols=ambient_dim)
        hint = primitive(line[0]) if line else "a nonzero vector"
        raise ConeError(f"not pointed: cone contains the line through {hint}")
    canonical_rays = _extreme_generators(rays, pairs)
    return PolyhedralCone(ambient_dim, tuple(canonical_rays), tuple(facets))


def cone_from_facets(
    facets: Iterable[Sequence], ambient_dim: int, start: dd.Start | None = None
) -> PolyhedralCone:
    """The cone the facets cut out, with ``start`` and ``rank`` as in
    ``cone_from_rays``."""
    facets = _primitive_generators(facets, ambient_dim)
    pairs = dd_convert_inv(facets, ambient_dim, start)
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


def pinned_slack(c: PolyhedralCone, x: Sequence) -> list[IntVec]:
    """The slack matrix of c pinned at an interior point x: its rows, each
    a primitive integer vector with its entries sorted, in sorted order.

    Scale each facet so that f(x) = 1, let e be the sum of the scaled
    facets, and scale each ray so that e.r = 1; row i holds f_j.r_i over
    the facets and sums to 1. An order isomorphism g of c onto a cone c'
    with g x = y carries scaled facets onto scaled facets and scaled rays
    onto scaled rays, so the matrix at y is the matrix at x with its rows
    and columns permuted, and pinned_slack(c, x) != pinned_slack(c', y)
    proves that no such g exists (Gouveia, Grappe, Kaibel, Pashkovich,
    Robinson and Thomas, Linear Algebra Appl. 439, 2013). With x scaled to
    integers, a_j = f_j.x and P = lcm a_j, row i is proportional to
    (P/a_j f_j.r_i)_j. Its entries are nonnegative with a positive sum, so
    divided by their gcd they name the row, and its sum, exactly.
    """
    x = _integral(x, c.ambient_dim)
    a = [dd.int_dot(f, x) for f in c.facets]
    if min(a) <= 0:
        raise ValueError("the pinned slack matrix is defined only on the interior")
    p = math.lcm(*a)
    w = [p // v for v in a]
    rows = []
    for r in c.rays:
        row = [wj * dd.int_dot(f, r) for wj, f in zip(w, c.facets)]
        g = math.gcd(*row)
        rows.append(tuple(sorted(v // g for v in row)))
    return sorted(rows)


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


class RayCircuits(NamedTuple):
    basis: list[int]
    solver: IntegerSolver
    circuits: dict[int, tuple[list[int], int]]
    left: list[int]
    partition: list[tuple[int, ...]]


def ray_circuits(c: PolyhedralCone) -> RayCircuits:
    """The greedy ray basis of c (``independent_rows`` of the rays), the
    ``IntegerSolver`` of the basis rays as columns, and the circuit of each
    ray off the basis: its coordinates over it, integers over one positive
    denominator. Two eliminations, whatever the ray count.

    A circuit's rays lie in one irreducible summand. Joining each circuit's
    basis positions in turn gives ``left``, the number of classes after each
    circuit, and ``partition``, the rays of each summand of the finest
    direct-sum splitting, sorted. A class's first ray is a basis ray, as a
    ray off the basis depends on the basis rays before it.
    """
    basis = independent_rows(c.rays)
    solver = IntegerSolver(mat_transpose([c.rays[b] for b in basis]))
    position = {b: pos for pos, b in enumerate(basis)}
    circuits = {j: solver.solve(r) for j, r in enumerate(c.rays) if j not in position}
    label, left = list(range(len(basis))), []
    for j, (cf, _) in circuits.items():
        support = [pos for pos, x in enumerate(cf) if x]
        joined = {label[pos] for pos in support}
        label = [min(joined) if x in joined else x for x in label]
        left.append(len(set(label)))
        position[j] = support[0]
    groups: dict[int, list[int]] = {}
    for i in range(len(c.rays)):
        groups.setdefault(label[position[i]], []).append(i)
    return RayCircuits(basis, solver, circuits, left, sorted(map(tuple, groups.values())))


def irreducible_partition(c: PolyhedralCone) -> list[tuple[int, ...]]:
    """Group ray indices into the summands of the finest direct-sum
    splitting: ``ray_circuits``' classes, one ray each on a simplicial cone,
    where no ray lies off the basis."""
    return ray_circuits(c).partition


def irreducible_components(c: PolyhedralCone) -> list[PolyhedralCone]:
    """The irreducible summands, each written in coordinates of its own span:
    over the basis rays in the summand, read off ``ray_circuits``, a basis ray
    is a unit vector and any other ray its circuit, up to the positive scale
    cone_from_rays drops."""
    rc = ray_circuits(c)
    coords = {j: cf for j, (cf, _) in rc.circuits.items()}
    for pos, b in enumerate(rc.basis):
        coords[b] = [int(k == pos) for k in range(len(rc.basis))]
    out = []
    for group in rc.partition:
        keep = [pos for pos, b in enumerate(rc.basis) if b in group]
        out.append(cone_from_rays([[coords[i][k] for k in keep] for i in group], len(keep)))
    return out
