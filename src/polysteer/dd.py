"""Double description over the integers, plus exact polytope vertex enumeration.

``extreme_rays`` converts a homogeneous inequality description of a pointed
cone into its extreme rays, each with its incidence mask over the input rows.
Running it on a ray matrix instead computes the extreme rays of the dual
cone, i.e. the facets of the primal, so the same routine drives both
conversion directions; the masks then say which input rays lie on each
facet, which is all the cone layer needs to tell the extreme ones. Each ray
carries integer products only with the rows still to insert; an inserted
row survives as bits, in each ray's incidence mask and in the set of rays
tight on it, and adjacency is read off those per-row ray sets.

The order the rows go in decides how many rays pass through the middle of
a run, not the result. By default the next row is the one that cuts off
the most current rays ("maxcut"), which keeps the many-rows direction
small: pentagon² facets to rays takes 0.9 s under it and 44 s in input
order. Rows that are products of two factors' rows do better in input
order once grouped in blocks, every product of one factor row and then the
next, as ``composite`` writes them: maxcut mixes the blocks, and
``min_tensor(cube, cube)`` passes through 10,516 rays under it against
1,044 in block order. ``in_order=True`` takes that order; only callers that
see a block structure set it.

Where a pass starts is the caller's too. By default ``simplicial_start``
eliminates the rows once and starts from the simplicial cone of
the first independent ones. A caller that knows the cone some of its rows
cut out passes it as the start instead: a tensor cone's product rows over
the independent rows of one factor cut out a direct sum of copies of the
other factor's cone, whose extreme rays are products again, so its pass
inserts only the other factor rows' blocks (see ``composite``).

``polytope_vertices`` enumerates a polytope's vertices as the extreme rays
of its homogenization, so it needs neither an LP nor a point of the
polytope, and implicit equalities are no special case. Its integer core,
``_vertex_rows``, returns the vertices as integer rows over one common
positive scale, sorted as integer tuples; over one positive scale that is
the order of their values, so only the boundary builds ``Fraction``s, and
callers that stay in integers, such as the ensemble search, skip them.

Rows are integer tuples and rays are kept primitive (gcd 1, positive scale),
so intermediate arithmetic is pure-integer and results compare syntactically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import mul, or_
from typing import Sequence

from .ratlin import IntegerSolver, integer_row, primitive

IntVec = tuple[int, ...]
# Where double description starts: the indices of the rows already inserted,
# the extreme rays of the cone they cut out (primitive and distinct) and, per
# ray, the mask of the inserted rows tight on it.
Start = tuple[Sequence[int], Sequence[IntVec], Sequence[int]]


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Exact dot product of two integer vectors, over the shorter length.

    ``map(mul, ...)`` stops at the shorter vector as ``zip`` does, and runs
    the products and the sum in C; every incidence test of the cone layer
    goes through here; membership tests run it over packed columns
    (``cone.PackedRows``).
    """
    return sum(map(mul, u, v))


# Per-row counts kept bit-sliced: the count of row i has bit b equal to bit i
# of planes[b], so adding or removing a ray's mask of rows is a few big-int
# operations however many rows it covers.


def _add(planes: list[int], mask: int) -> None:
    """Add 1 to the count of each row in mask."""
    b = 0
    while mask:
        if b == len(planes):
            planes.append(0)
        planes[b], mask = planes[b] ^ mask, planes[b] & mask
        b += 1


def _remove(planes: list[int], mask: int) -> None:
    """Take 1 from the count of each row in mask; none of them is 0."""
    b = 0
    while mask:
        planes[b], mask = planes[b] ^ mask, ~planes[b] & mask
        b += 1


def _largest(planes: list[int], rows: int) -> int:
    """The rows of the mask `rows` whose count is the largest among them; 0
    when every one of them counts 0."""
    found = 0
    for p in reversed(planes):
        if rows & p:
            rows &= p
            found = rows
    return found


def simplicial_start(rows: Sequence[Sequence[int]], dim: int) -> Start:
    """The default start of ``extreme_rays``: the first independent rows,
    the rays of the simplicial cone they cut out, and each ray's mask.

    The base is the rows ``IntegerSolver`` chooses, and ray j is column j
    of its inverse, made primitive: tight on every base row but base row j,
    on which it is positive. Raises ValueError when the rows do not span,
    as the cone they cut out then holds a line.
    """
    solver = IntegerSolver(rows)
    base_idx = solver.chosen
    if len(base_idx) < dim:
        raise ValueError("inequality rows do not span the space; cone is not pointed")
    rays = [primitive(col) for col in zip(*solver.inverse()[0])]
    base_mask = sum(1 << i for i in base_idx)
    return base_idx, rays, [base_mask ^ 1 << i for i in base_idx]


def extreme_rays(
    rows: Sequence[Sequence[int]],
    dim: int,
    start: Start | None = None,
    *,
    in_order: bool = False,
) -> list[tuple[IntVec, int]]:
    """Extreme rays of {x : h.x >= 0 for h in rows}; requires a pointed result.

    Returns one (ray, mask) pair per extreme ray, sorted, where the mask has
    bit i set exactly when row i is tight on the ray (rows[i].ray == 0).

    The pass starts from ``start`` (see ``Start``): a set of rows already
    inserted, the extreme rays of the cone they cut out and their masks,
    which must be exact, as the adjacency test reads them. By default it is
    ``simplicial_start``'s, which also proves that the rows span; a caller
    that knows the cone of some rows in closed form passes it instead, as
    tensor cones do (see ``composite._seeded_products``), and the pass
    inserts only the rest.

    Incremental double description with the combinatorial adjacency test:
    rays p, m are adjacent iff no third ray is tight on every inserted row
    that both p and m are tight on, and a pair tight on fewer than dim - 2
    common rows is never adjacent (Fukuda and Prodon, "Double description
    method revisited", 1996). Each ray carries its incidence mask over the
    inserted rows and its products with the rows still to insert; a row's
    products are dropped when it goes in, as their signs are then the
    rays' incidence bits. The third-ray test is a superset query on bit
    sets (Terzer and Stelling, Bioinformatics 24(19), 2008), asked of the
    rows: every ray has an id bit, every inserted row keeps the ids of the
    rays tight on it, and p, m are adjacent iff the ids of the current
    rays, ANDed with those sets for the rows in both masks, come down to
    exactly {p, m}; the ANDs stop as soon as they do. The next row inserted
    is the one that cuts off the most current rays, the first in input
    order on a tie; with ``in_order``, it is the first row in input order
    that cuts off any. Maxcut suits arbitrary rows, input order suits rows
    written in blocks whose order carries the structure, as tensor cones'
    product rows are (see the module docstring). Under either rule, once
    no row cuts any ray off, the rest are redundant, and their bits of
    each returned mask are read off the final products; the result does
    not depend on the rule.

    The rows are integer, at any positive scale: only the signs of the
    products and the incidence masks decide, the starting rays are
    primitive, and each fresh ray and its products are divided exactly by
    the ray's gcd.
    """
    for i, h in enumerate(rows):
        if len(h) != dim:
            raise ValueError(f"row {i} has {len(h)} entries, expected {dim}")

    inserted, rays, inc = simplicial_start(rows, dim) if start is None else start
    inserted_set = set(inserted)
    remaining = [i for i in range(len(rows)) if i not in inserted_set]
    # dots[j][k] is row remaining[k] times ray j, and bits[k] is that row's
    # bit. cut[j] has the bits of the remaining rows ray j cuts off (its
    # product is negative), and planes counts, per row, the current rays
    # that cut it off. inc[j] is ray j's incidence mask over the inserted
    # rows. Ray j has the id bit ids[j], alive holds the ids of the current
    # rays and tight[i] the ids of the rays tight on inserted row i; ids are
    # never reused, so a removed ray's id stays in tight but not in alive.
    dots = [[int_dot(rows[i], r) for i in remaining] for r in rays]
    bits = [1 << i for i in remaining]
    cut = [sum([b for b, v in zip(bits, d) if v < 0]) for d in dots]
    planes: list[int] = []
    for c in cut:
        _add(planes, c)
    todo = sum(bits)
    ids = [1 << j for j in range(len(rays))]
    next_id = 1 << len(rays)
    alive = next_id - 1
    # A start's ray is tight on most inserted rows, so tight is filled from
    # the rows each ray is not tight on: one for the simplicial start's.
    tight = [0] * len(rows)
    for i in inserted:
        tight[i] = alive
    full = sum([1 << i for i in inserted])
    for t, m in zip(ids, inc):
        m ^= full
        while m:
            i = m.bit_length() - 1
            tight[i] ^= t
            m ^= 1 << i

    min_common = dim - 2
    while remaining:
        # The row that cuts off the most current rays, the first on a tie;
        # in order, the first row that cuts off any.
        most = todo & reduce(or_, planes, 0) if in_order else _largest(planes, todo)
        if not most:
            break
        bit = most & -most
        k = bits.index(bit)
        row = remaining.pop(k)
        del bits[k]
        todo ^= bit
        col = [d.pop(k) for d in dots]
        plus = [j for j, v in enumerate(col) if v > 0]
        zero = [j for j, v in enumerate(col) if v == 0]
        minus = [j for j, v in enumerate(col) if v < 0]
        fresh: list[IntVec] = []
        fresh_dots: list[list[int]] = []
        fresh_inc: list[int] = []
        fresh_cut: list[int] = []
        # fresh_tight[i] has bit t set when fresh ray t is tight on row i.
        fresh_tight = [0] * len(rows)
        inc_minus = [(m, inc[m]) for m in minus]
        for p in plus:
            inc_p, id_p = inc[p], ids[p]
            for m in [m for m, x in inc_minus if (inc_p & x).bit_count() >= min_common]:
                # p and m are adjacent iff they are the only current rays
                # tight on every inserted row both are tight on.
                common = inc_p & inc[m]
                pair = id_p | ids[m]
                acc, c = alive, common
                while c:
                    i = c.bit_length() - 1
                    acc &= tight[i]
                    if acc == pair:
                        break
                    c ^= 1 << i
                if acc != pair:
                    continue
                t, c = 1 << len(fresh), common
                while c:
                    i = c.bit_length() - 1
                    fresh_tight[i] |= t
                    c ^= 1 << i
                vp, vm = col[p], -col[m]
                w = [vp * a + vm * b for a, b in zip(rays[m], rays[p])]
                g = math.gcd(*w)
                fresh.append(tuple(x // g for x in w))
                d = [(vp * a + vm * b) // g for a, b in zip(dots[m], dots[p])]
                fresh_dots.append(d)
                fresh_cut.append(sum([b for b, v in zip(bits, d) if v < 0]))
                fresh_inc.append(common | bit)
        for j in minus:
            _remove(planes, cut[j])
        for c in fresh_cut:
            _add(planes, c)
        for i, t in enumerate(fresh_tight):
            if t:
                tight[i] |= t * next_id
        fresh_ids = [next_id << t for t in range(len(fresh))]
        all_fresh = ((1 << len(fresh)) - 1) * next_id
        next_id <<= len(fresh)
        tight[row] = sum(ids[j] for j in zero) | all_fresh
        alive = (alive ^ sum(ids[j] for j in minus)) | all_fresh
        keep = plus + zero
        rays = [rays[j] for j in keep] + fresh
        dots = [dots[j] for j in keep] + fresh_dots
        inc = [inc[j] for j in plus] + [inc[j] | bit for j in zero] + fresh_inc
        ids = [ids[j] for j in keep] + fresh_ids
        cut = [cut[j] for j in keep] + fresh_cut
    masks = [
        z | sum(1 << i for i, v in zip(remaining, d) if v == 0) for z, d in zip(inc, dots)
    ]
    return sorted(set(zip(rays, masks)))


def _vertex_rows(
    rows: list[IntVec], dim: int, *, in_order: bool = False
) -> tuple[list[IntVec], int]:
    """The vertices of the polytope {x in Q^dim : G.x >= H}, written as
    the integer rows (G, -H), as integer rows over one common positive
    scale s: vertex = row / s. The rows are sorted as integer tuples, which
    over one positive scale is the order of the vertices' values; s is the
    lcm of the rays' last entries, 1 when there are none. ``in_order`` is
    ``extreme_rays``' insertion rule.

    The rows are homogenized, G.x - H t >= 0 with t >= 0 joining them, so
    double description returns one ray per vertex, read at t = 1; see
    ``polytope_vertices`` for when that holds and what it raises.
    """
    try:
        cone_rays = extreme_rays([*rows, (0,) * dim + (1,)], dim + 1, in_order=in_order)
    except ValueError:
        # The homogenization is not pointed, so the recession cone of the
        # feasible region contains a whole line.
        raise ValueError("polytope is unbounded") from None
    if any(r[dim] == 0 for r, _ in cone_rays):
        raise ValueError("polytope is unbounded")
    scale = math.lcm(*(r[dim] for r, _ in cone_rays))
    return sorted(tuple(c * (scale // r[dim]) for c in r[:dim]) for r, _ in cone_rays), scale


def polytope_vertices(
    ineqs: Sequence[tuple[Sequence, Fraction | int]], dim: int
) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope {x in Q^dim : g.x >= h}, sorted; [] when
    it is empty.

    Each row, scaled to integers G.x >= H, is homogenized to G.x - H t >= 0,
    and t >= 0 joins them. When no nonzero d has g.d >= 0 on every row, the
    cone they cut out is the cone over the polytope at t = 1, so double
    description returns one ray per vertex, read at t = 1, and no other.
    Implicit equalities need no special care: they only make that cone
    lower-dimensional. Raises ValueError when such a d exists, as the cone
    then holds a line or a ray at t = 0 even if no x satisfies the rows,
    and on a row whose width is not dim.

    The integer core ``_vertex_rows`` returns the vertices as integer rows
    over one common scale, sorted; only here do they become Fractions.
    """
    rows = []
    for i, (g, h) in enumerate(ineqs):
        if len(g) != dim:
            raise ValueError(f"row {i} has {len(g)} coefficients, but dim is {dim}")
        lhs, rhs, _ = integer_row(g, h)
        rows.append((*lhs, -rhs))
    verts, scale = _vertex_rows(rows, dim)
    return [tuple(Fraction(c, scale) for c in v) for v in verts]
