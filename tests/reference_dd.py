"""The double description pass that scans every current ray for a third
one, kept as the reference the tests pin `dd.extreme_rays` against.

Each ray carries its products with every row, inserted or not, and a pair
p, m is adjacent when no third current ray's incidence mask contains their
common tight rows.
"""

import math
from itertools import islice
from typing import Sequence

from polysteer.dd import IntVec, int_dot
from polysteer.ratlin import independent_rows, invert, primitive


def extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[IntVec, int]]:
    for i, h in enumerate(rows):
        if len(h) != dim:
            raise ValueError(f"row {i} has {len(h)} entries, expected {dim}")
    base_idx = independent_rows(rows)
    if len(base_idx) < dim:
        raise ValueError("inequality rows do not span the space; cone is not pointed")

    # The columns of the inverse of the base rows, made primitive, are the
    # rays of the simplicial cone those rows cut out.
    inverse = invert([rows[i] for i in base_idx])
    rays: list[IntVec] = [primitive(col) for col in zip(*inverse)]
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
