"""Double description over the integers, plus exact polytope vertex enumeration.

``extreme_rays`` converts a homogeneous inequality description of a pointed
cone into its extreme rays, each with its incidence mask over the input rows.
Running it on a ray matrix instead computes the extreme rays of the dual
cone, i.e. the facets of the primal, so the same routine drives both
conversion directions; the masks then say which input rays lie on each
facet, which is all the cone layer needs to tell the extreme ones.

``polytope_vertices`` enumerates a polytope's vertices through
``extreme_rays``. Its caller supplies a relative-interior point; the rows
tight there must sum to zero, which certifies the affine hull exactly, so
no LP runs.

Rows are integer tuples and rays are kept primitive (gcd 1, positive scale),
so intermediate arithmetic is pure-integer and results compare syntactically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Sequence

from .ratlin import (
    independent_rows,
    integral,
    integral_with_scale,
    nullspace,
    primitive,
)
from .ratlin.gauss import _eliminate

IntVec = tuple[int, ...]


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Exact dot product of two integer vectors, over the shorter length.

    ``map(mul, ...)`` stops at the shorter vector as ``zip`` does, and runs
    the products and the sum in C; every incidence and membership test of
    the cone layer goes through here.
    """
    return sum(map(mul, u, v))


def extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[IntVec, int]]:
    """Extreme rays of {x : h.x >= 0 for h in rows}; requires a pointed result.

    Returns one (ray, mask) pair per extreme ray, sorted, where the mask has
    bit i set exactly when row i is tight on the ray (rows[i].ray == 0).

    Incremental double description with the combinatorial adjacency test:
    rays p, m are adjacent iff no third ray is tight on every inserted row
    that both p and m are tight on. Each ray carries its incidence mask over
    the inserted rows and its products with every row, both updated as rows
    are inserted, and a pair tight on fewer than dim - 2 common rows is never
    adjacent (Fukuda and Prodon, "Double description method revisited",
    1996). The next row inserted is the one that cuts off the most current
    rays; once none cuts any off, the rest are redundant, and their bits of
    each returned mask are read off the final products.

    The rows are integer, at any positive scale: only the signs of the
    products and the incidence masks decide, the starting rays are made
    primitive, and each fresh ray and its products are divided exactly by
    the ray's gcd.
    """
    for i, h in enumerate(rows):
        if len(h) != dim:
            raise ValueError(f"row {i} has {len(h)} entries, expected {dim}")
    base_idx = independent_rows(rows)
    if len(base_idx) < dim:
        raise ValueError("inequality rows do not span the space; cone is not pointed")

    # The columns of the inverse of the base rows are the rays of the
    # simplicial cone those rows cut out. Eliminating [base | I] leaves row c
    # of the inverse as row c's right half over its pivot p_c; scaled by the
    # lcm of the pivots' absolute values, each column is integer, and
    # dividing it by its gcd makes it primitive.
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    reduced = sorted(
        _eliminate([[*rows[i], *e] for i, e in zip(base_idx, eye)], reduce=True)[1]
    )
    scale = math.lcm(*(row[c] for c, row in reduced))
    columns = zip(*([x * (scale // row[c]) for x in row[dim:]] for c, row in reduced))
    rays: list[IntVec] = []
    for col in columns:
        g = math.gcd(*col)
        rays.append(tuple(x // g for x in col))
    # dots[j][i] is row i times ray j; negs[i] counts the rays row i cuts off.
    dots = [[int_dot(h, r) for h in rows] for r in rays]
    inc = [sum(1 << i for i in base_idx if d[i] == 0) for d in dots]
    negs = [sum(d[i] < 0 for d in dots) for i in range(len(rows))]
    base_set = set(base_idx)
    remaining = [i for i in range(len(rows)) if i not in base_set]

    min_common = dim - 2
    while remaining:
        row = max(remaining, key=negs.__getitem__)
        if negs[row] == 0:
            break
        remaining.remove(row)
        bit = 1 << row
        plus = [j for j, d in enumerate(dots) if d[row] > 0]
        zero = [j for j, d in enumerate(dots) if d[row] == 0]
        minus = [j for j, d in enumerate(dots) if d[row] < 0]
        fresh: list[IntVec] = []
        fresh_dots: list[list[int]] = []
        fresh_inc: list[int] = []
        inc_minus = [(m, inc[m]) for m in minus]
        for p in plus:
            inc_p = inc[p]
            for m, inc_m in [
                (m, x) for m, x in inc_minus if (inc_p & x).bit_count() >= min_common
            ]:
                common = inc_p & inc_m
                # p and m themselves always qualify; any third ray refutes.
                if len(list(islice((x for x in inc if x & common == common), 3))) > 2:
                    continue
                vp, vm = dots[p][row], -dots[m][row]
                w = [vp * a + vm * b for a, b in zip(rays[m], rays[p])]
                g = math.gcd(*w)
                fresh.append(tuple(c // g for c in w))
                fresh_dots.append(
                    [(vp * a + vm * b) // g for a, b in zip(dots[m], dots[p])]
                )
                fresh_inc.append(common | bit)
        for j in minus:
            negs = [c - (v < 0) for c, v in zip(negs, dots[j])]
        for d in fresh_dots:
            negs = [c + (v < 0) for c, v in zip(negs, d)]
        keep = plus + zero
        rays = [rays[j] for j in keep] + fresh
        dots = [dots[j] for j in keep] + fresh_dots
        inc = [inc[j] for j in plus] + [inc[j] | bit for j in zero] + fresh_inc
    masks = [
        z | sum(1 << i for i in remaining if d[i] == 0) for z, d in zip(inc, dots)
    ]
    return sorted(set(zip(rays, masks)))


def polytope_vertices(
    ineqs: Sequence[tuple[Sequence, Fraction | int]], interior: Sequence
) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope {x : g.x >= h}, given a point of its
    relative interior.

    The point certifies the affine hull without an LP. It must satisfy every
    row; let T be the rows tight at it. If the rows of T sum to zero, left-
    and right-hand sides alike, then every feasible x has
    sum over T of (g.x - h) = 0 with every term >= 0, so each row of T is an
    implicit equality; every other row is slack at the point, so T cuts out
    the affine hull. Otherwise this raises ValueError. The other rows are
    written over a primitive integer basis of the hull through the point,
    homogenized and handed to double description, so the result is exact.
    Raises ValueError on unbounded input and on a row whose width is not
    the point's.
    """
    dim = len(interior)
    for i, (g, _) in enumerate(ineqs):
        if len(g) != dim:
            raise ValueError(
                f"row {i} has {len(g)} coefficients, the interior point has {dim}"
            )
    x0, s = integral_with_scale(interior)  # the point is x0 / s
    # Row g.x >= h scaled to integers G.x >= H; its slack at the point, times s.
    rows = [(v[:dim], v[dim]) for v in (integral((*g, h)) for g, h in ineqs)]
    slack = [int_dot(lhs, x0) - s * rhs for lhs, rhs in rows]
    if any(d < 0 for d in slack):
        raise ValueError("the interior point violates a row")
    tight = [i for i, d in enumerate(slack) if d == 0]
    if any(sum(col) for col in zip(*(ineqs[i][0] for i in tight))) or sum(
        Fraction(ineqs[i][1]) for i in tight
    ):
        raise ValueError("the rows tight at the interior point do not sum to zero")

    if tight:
        basis = [primitive(b) for b in nullspace([ineqs[i][0] for i in tight])]
    else:
        basis = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    q = len(basis)
    if q == 0:
        return [tuple(map(Fraction, interior))]

    # x = x0 / s + sum z_i b_i; with z = w / t, s t (G.x - H) >= 0 reads
    # sum w_i s G.b_i + t (G.x0 - s H) >= 0.
    hom_rows = [
        tuple(s * int_dot(lhs, b) for b in basis) + (d,)
        for (lhs, _), d in zip(rows, slack)
        if d
    ]
    hom_rows.append((0,) * q + (1,))
    try:
        cone_rays = extreme_rays(hom_rows, q + 1)
    except ValueError:
        # The homogenization is not pointed, so the recession cone of the
        # feasible region contains a whole line.
        raise ValueError("polytope is unbounded") from None
    columns = list(zip(*basis))
    vertices = []
    for r, _ in cone_rays:
        w, t = r[:q], r[q]
        if t <= 0:
            if t == 0:
                raise ValueError("polytope is unbounded")
            raise AssertionError("ray with negative homogenizing coordinate")
        vertices.append(
            tuple(Fraction(t * c + s * int_dot(w, col), s * t) for c, col in zip(x0, columns))
        )
    return sorted(set(vertices))
