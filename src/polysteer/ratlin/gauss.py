"""Exact Gaussian elimination: linear solve, rank, nullspace, inverse.

Everything runs on one fraction-free pass (Bareiss 1968): each row the pass
reaches is scaled once to integers, and rows are combined by
cross-multiplication and divided by their gcd. Results come from the
reduced row echelon form, which is unique, so they do not depend on the
order the pass pivots in. ``IntegerSolver`` eliminates one integer matrix
once and then solves against it for any right-hand side, or reads its
inverse; it is the one reader of the pass's tracked rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .qarith import Matrix, Vector, integer_rows, integral, vec_zero


def _clear(v: list[int], b: list[int], c: int) -> list[int]:
    """v with column c cleared by the row b, divided by its gcd."""
    p, x = b[c], v[c]
    w = [p * e - x * f for e, f in zip(v, b)]
    g = math.gcd(*w)
    return [e // g for e in w] if g > 1 else w


def _eliminate(a: Iterable[Sequence], reduce: bool = False, track: bool = False):
    """The one elimination pass over the rows of A.

    Returns the indices of the rows independent of all the rows before them
    (the greedy first maximal independent subset) and, for each, its pivot
    column and reduced integer row. The forward sweep scales each row to
    integers when it reaches it and reduces it against the rows chosen so
    far: a chosen row is zero in the pivot columns of the rows chosen before
    it, so one sweep in order reduces a row fully. The sweep stops once the
    chosen rows span every column; the rows after that are only checked for
    width. With `reduce`, back-substitution then clears each pivot column
    from the rows chosen before it too, so that dividing a row by its pivot
    entry gives its row of the reduced row echelon form.

    With `track`, each row the sweep reaches is scaled to integers and
    extended by ncols more columns, holding the unit vector of the place it
    would take among the chosen rows; pivots are taken in the first ncols
    columns only. The chosen rows B, so scaled, end exactly as a pass over
    [B | I] leaves them: each row's extension records the combination of
    B's rows it equals, and with `reduce` a square B ends as its inverse,
    row c over row c's pivot entry.
    """
    a = list(a)
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    chosen: list[int] = []
    basis: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    for i, row in enumerate(a):
        if len(basis) == ncols:
            break
        v = integral(row)
        if track:
            unit = [0] * ncols
            unit[len(basis)] = 1
            v += unit
        for c, b in basis:
            if v[c]:
                v = _clear(v, b, c)
        c = next((j for j, e in enumerate(v) if e), -1)
        if 0 <= c < ncols:
            basis.append((c, v))
            chosen.append(i)
    if reduce:
        # The last chosen row is zero in every other pivot column; clearing
        # its column from the rows above keeps that true for the row before.
        for k in range(len(basis) - 1, 0, -1):
            c, b = basis[k]
            for j in range(k):
                cj, v = basis[j]
                if v[c]:
                    basis[j] = (cj, _clear(v, b, c))
    return chosen, basis


def independent_rows(a: Iterable[Sequence]) -> list[int]:
    """Indices of the rows of A independent of all the rows before them."""
    return _eliminate(a)[0]


def rank(a: Iterable[Sequence]) -> int:
    return len(independent_rows(a))


def solve_linear(a: Sequence[Sequence], b: Sequence) -> Vector | None:
    """The solution of A x = b with every free variable zero, or None if the
    system is inconsistent."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        raise ValueError("row count mismatch")
    if not a:
        return ()
    n = len(a[0])
    x = list(vec_zero(n))
    for c, row in _eliminate([[*row, y] for row, y in zip(a, b)], reduce=True)[1]:
        if c == n:
            return None
        x[c] = Fraction(row[n], row[c])
    return tuple(x)


def nullspace(a: Sequence[Sequence], ncols: int | None = None) -> list[Vector]:
    """Basis of the kernel of A: one vector per free column, 1 in that column
    and 0 in the other free columns."""
    a = list(a)
    if not a and ncols is None:
        raise ValueError("ncols required for empty matrix")
    n = len(a[0]) if a else ncols
    pivots = _eliminate(a, reduce=True)[1]
    pivot_cols = {c for c, _ in pivots}
    basis: list[Vector] = []
    for f in range(n):
        if f in pivot_cols:
            continue
        v = list(vec_zero(n))
        v[f] = Fraction(1)
        for c, row in pivots:
            v[c] = Fraction(-row[f], row[c])
        basis.append(tuple(v))
    return basis


class IntegerSolver:
    """A x = b / q for one integer matrix A, any integer b and any q > 0,
    after one tracked elimination of A's rows.

    ``chosen`` holds the rows the pass chose and ``pivots`` their pivot
    columns, so A's rank is their count and A is injective when it equals
    A's width. Reduced, chosen row k reads v_c x_c = E_k . b_chosen / q at
    its pivot column c, E_k being its tracked columns, so x_c is
    W_k . b_chosen / (q D), with D the lcm of the pivots and W_k = D E_k / v_c.
    """

    __slots__ = ("width", "chosen", "pivots", "_weights", "_scale", "_rest")

    def __init__(self, rows: Iterable[Sequence[int]]):
        rows = list(rows)
        n = self.width = len(rows[0]) if rows else 0
        self.chosen, reduced = _eliminate(rows, reduce=True, track=True)
        self._scale = math.lcm(*(v[c] for c, v in reduced))
        self.pivots = [c for c, _ in reduced]
        r = len(reduced)
        self._weights = [[self._scale // v[c] * x for x in v[n:n + r]] for c, v in reduced]
        taken = set(self.chosen)
        self._rest = [(i, row) for i, row in enumerate(rows) if i not in taken]

    def solve(self, b: Sequence[int], q: int = 1) -> tuple[list[int], int] | None:
        """x with A x = b / q and every free variable 0, as integers over one
        positive denominator; None when the rows not chosen refuse it, as
        b / q is then outside the range of A."""
        if len(b) != len(self.chosen) + len(self._rest):
            raise ValueError("row count mismatch")
        rhs = [b[i] for i in self.chosen]
        x = [0] * self.width
        for c, w in zip(self.pivots, self._weights):
            x[c] = sum(map(mul, w, rhs))
        d = self._scale
        if any(sum(map(mul, row, x)) != d * b[i] for i, row in self._rest):
            return None
        return x, q * d

    def inverse(self) -> tuple[list[list[int]], int] | None:
        """The inverse of the chosen rows, square when A is injective, as
        integer rows over one positive scale; None when A is not."""
        if len(self.chosen) < self.width:
            return None
        return [w for _, w in sorted(zip(self.pivots, self._weights))], self._scale


def invert(a: Sequence[Sequence]) -> Matrix | None:
    """Exact inverse of a square matrix, or None if singular."""
    a = list(a)
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix not square")
    rows, q = integer_rows(a)
    inv = IntegerSolver(rows).inverse()
    if inv is None:
        return None
    w, d = inv
    return tuple(tuple(Fraction(q * x, d) for x in row) for row in w)
