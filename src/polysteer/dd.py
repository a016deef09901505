"""Double description over the integers, plus exact polytope vertex enumeration.

``extreme_rays`` converts a homogeneous inequality description of a pointed
cone into its extreme rays. Running it on a ray matrix instead computes the
extreme rays of the dual cone, i.e. the facets of the primal, so the same
routine drives both conversion directions.

All vectors are kept as primitive integer tuples (gcd 1, positive scale), so
intermediate arithmetic is pure-integer and results compare syntactically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .ratlin import (
    LinearProgram,
    independent_rows,
    invert,
    lp_feasible,
    mat_transpose,
    nullspace,
    primitive,
    solve_linear,
    vec_dot,
)

IntVec = tuple[int, ...]


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Exact dot product of two integer vectors."""
    return sum(a * b for a, b in zip(u, v))


def extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> list[IntVec]:
    """Extreme rays of {x : h.x >= 0 for h in rows}; requires a pointed result.

    Incremental double description with the combinatorial adjacency test:
    rays p, m are adjacent iff no third ray is tight on every inserted row
    that both p and m are tight on. Each ray carries its incidence mask over
    the inserted rows (bit i for row i) and its products with every row, both
    updated as rows are inserted, and a pair tight on fewer than dim - 2
    common rows is never adjacent (Fukuda and Prodon, "Double description
    method revisited", 1996). The next row inserted is the one that cuts off
    the most current rays; once none cuts any off, the rest are redundant.
    """
    normd = [primitive(r) for r in rows]
    base_idx = independent_rows(normd)
    if len(base_idx) < dim:
        raise ValueError("inequality rows do not span the space; cone is not pointed")

    # The columns of the inverse of the base rows are the rays of the
    # simplicial cone those rows cut out.
    base_inv = invert([normd[i] for i in base_idx])
    rays: list[IntVec] = [primitive(col) for col in mat_transpose(base_inv)]
    # dots[j][i] is row i times ray j; negs[i] counts the rays row i cuts off.
    dots = [[int_dot(h, r) for h in normd] for r in rays]
    inc = [sum(1 << i for i in base_idx if d[i] == 0) for d in dots]
    negs = [sum(d[i] < 0 for d in dots) for i in range(len(normd))]
    base_set = set(base_idx)
    remaining = [i for i in range(len(normd)) if i not in base_set]

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
                if len([x for x in inc if x & common == common]) > 2:
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
    return sorted(set(rays))


def polytope_vertices(
    ineqs: Sequence[tuple[Sequence[Fraction], Fraction]],
    eqs: Sequence[tuple[Sequence[Fraction], Fraction]],
    dim: int,
) -> list[tuple[Fraction, ...]]:
    """All vertices of the bounded polyhedron {x : g.x >= h, a.x = b}.

    Works in the affine hull (implicit equalities are detected by strict-LP
    probes), homogenizes, and runs the double description method, so the
    result is exact for polytopes of any dimension. Raises on unbounded input.
    """
    ineqs = [(tuple(map(Fraction, g)), Fraction(h)) for g, h in ineqs]
    eqs = [(tuple(map(Fraction, a)), Fraction(b)) for a, b in eqs]
    base = LinearProgram(dim, eq=eqs, ge=ineqs)
    if lp_feasible(base).status != "feasible":
        return []

    # Find implicit equality rows. One all-strict probe settles the common
    # full-dimensional case; otherwise probe row by row, reusing witnesses.
    implicit: list[int] = []
    probe = lp_feasible(LinearProgram(dim, eq=eqs, gt=ineqs))
    if probe.status == "feasible":
        witnesses = [probe.witness]
    else:
        witnesses = []
        for i, (g, h) in enumerate(ineqs):
            if any(vec_dot(g, w) > h for w in witnesses):
                continue
            others = ineqs[:i] + ineqs[i + 1 :]
            res = lp_feasible(LinearProgram(dim, eq=eqs, ge=others, gt=[(g, h)]))
            if res.status == "feasible":
                witnesses.append(res.witness)
            else:
                implicit.append(i)

    hull_rows = [lhs for lhs, _ in eqs] + [ineqs[i][0] for i in implicit]
    hull_rhs = [rhs for _, rhs in eqs] + [ineqs[i][1] for i in implicit]
    if hull_rows:
        x0 = solve_linear(hull_rows, hull_rhs)
        assert x0 is not None, "nonempty polytope has a consistent hull"
        basis = nullspace(hull_rows)
    else:
        x0 = (Fraction(0),) * dim
        basis = [
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))
            for i in range(dim)
        ]
    q = len(basis)
    if q == 0:
        return [x0]

    hom_rows: list[tuple[int, ...]] = []
    for i, (g, h) in enumerate(ineqs):
        if i in implicit:
            continue
        w = [vec_dot(g, n) for n in basis]
        row = tuple(w) + (vec_dot(g, x0) - h,)
        if all(c == 0 for c in row):
            continue
        hom_rows.append(primitive(row))
    hom_rows.append((0,) * q + (1,))

    try:
        cone_rays = extreme_rays(hom_rows, q + 1)
    except ValueError:
        # The homogenization is not pointed, so the recession cone of the
        # feasible region contains a whole line.
        raise ValueError("polytope is unbounded") from None
    vertices = []
    for r in cone_rays:
        if r[q] <= 0:
            if r[q] == 0:
                raise ValueError("polytope is unbounded")
            raise AssertionError("ray with negative homogenizing coordinate")
        t = Fraction(r[q])
        z = [Fraction(c) / t for c in r[:q]]
        x = tuple(
            x0[k] + sum(z[i] * basis[i][k] for i in range(q)) for k in range(dim)
        )
        vertices.append(x)
    return sorted(set(vertices))
