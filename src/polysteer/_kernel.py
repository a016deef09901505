"""Dense exact-rational pivot kernel.

Each row is kept as a list of numerators and a list of denominators: plain
ints, always coprime, with the denominator positive. The pivot inner loop
therefore runs on integer arithmetic and builds no Fraction objects. The
exact simplex, the one user of this layer, writes its integer rows as such
pairs and reads `nums`/`dens` directly for pricing, ratio tests and its
Farkas multipliers; only its points, rays and values become Fractions,
through `entry`. Gaussian elimination runs fraction-free in `ratlin.gauss`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Labels benchmark runs with the kernel that produced them.
BACKEND = "pure"


class Tableau:
    """Dense mutable matrix of rationals supporting Gauss-Jordan pivots."""

    __slots__ = ("nums", "dens", "nrows", "ncols")

    def __init__(self, rows, dens=None):
        """A tableau of rational entries, or with `dens`, of integer pairs.

        Given `dens`, `rows` holds the numerators and `dens` the
        denominators, taken as they are: each pair must be reduced with a
        positive denominator, because `pivot` reads pn == pd as a pivot of 1.
        The lists become the tableau's own and change as it pivots.
        """
        if dens is None:
            rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
                    for row in rows]
            dens = [[x.denominator for x in row] for row in rows]
            rows = [[x.numerator for x in row] for row in rows]
        self.nums = rows
        self.dens = dens
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if len(dens) != self.nrows or any(
            len(rn) != self.ncols or len(rd) != self.ncols for rn, rd in zip(rows, dens)
        ):
            raise ValueError("ragged tableau")

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.nums[i][j], self.dens[i][j])

    def pivot(self, r: int, c: int) -> None:
        """Scale row r so entry (r, c) becomes 1, then clear column c elsewhere."""
        nums, dens = self.nums, self.dens
        pn_row, pd_row = nums[r], dens[r]
        pn, pd = pn_row[c], pd_row[c]
        if pn == 0:
            raise ZeroDivisionError("pivot on zero entry")
        # Only the pivot row's nonzero columns change in the other rows.
        cols = [j for j, x in enumerate(pn_row) if x and j != c]
        if pn != pd:  # reduced pairs, so pn == pd only when the pivot is 1
            if pn < 0:
                pn, pd = -pn, -pd
            for j in cols:
                num = pn_row[j] * pd
                den = pd_row[j] * pn
                g = gcd(num, den)
                pn_row[j] = num // g
                pd_row[j] = den // g
        pn_row[c] = pd_row[c] = 1
        pivot_entries = [(j, pn_row[j], pd_row[j]) for j in cols]
        for i in range(self.nrows):
            rn = nums[i]
            fn = rn[c]
            if not fn or i == r:
                continue
            rd = dens[i]
            fd = rd[c]
            # a/b - (fn/fd)(p/q) = (a*fd*q - fn*p*b) / (b*fd*q)
            for j, p, q in pivot_entries:
                b = rd[j]
                num = rn[j] * fd * q - fn * p * b
                if num:
                    den = b * fd * q
                    g = gcd(num, den)
                    rn[j] = num // g
                    rd[j] = den // g
                else:
                    rn[j] = 0
                    rd[j] = 1
            rn[c] = 0
            rd[c] = 1
