"""Exact Gaussian elimination: linear solve, rank, nullspace, inverse."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .._kernel import Tableau
from .qarith import Matrix, Vector, as_matrix, as_vector, integral, vec_zero


def _rref(tab: Tableau, cols: int) -> list[tuple[int, int]]:
    """Gauss-Jordan over the first ``cols`` columns; returns (row, col) pivots.

    Rows are never swapped; each column pivots on the first unused row with a
    nonzero entry, which keeps the procedure deterministic.
    """
    pivots: list[tuple[int, int]] = []
    used: set[int] = set()
    for c in range(cols):
        prow = -1
        for i in range(tab.nrows):
            if i not in used and tab.sign(i, c) != 0:
                prow = i
                break
        if prow < 0:
            continue
        tab.pivot(prow, c)
        used.add(prow)
        pivots.append((prow, c))
    return pivots


def independent_rows(a: Sequence[Sequence]) -> list[int]:
    """Indices of the rows of A independent of all the rows before them.

    This is the first maximal independent subset, taken greedily, found in
    one fraction-free elimination pass: each row is scaled once to integers,
    reduced against the rows chosen so far by cross-multiplication and
    divided by its gcd. A chosen row is zero in the pivot columns of the
    rows chosen before it, so one sweep in order reduces a row fully.
    """
    rows = [integral(row) for row in a]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    ncols = len(rows[0]) if rows else 0
    chosen: list[int] = []
    basis: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    for i, v in enumerate(rows):
        if len(basis) == ncols:
            break
        for c, b in basis:
            x = v[c]
            if x:
                p = b[c]
                v = [p * e - x * f for e, f in zip(v, b)]
                g = math.gcd(*v)
                if g > 1:
                    v = [e // g for e in v]
        c = next((j for j, e in enumerate(v) if e), -1)
        if c >= 0:
            basis.append((c, v))
            chosen.append(i)
    return chosen


def rank(a: Sequence[Sequence]) -> int:
    return len(independent_rows(a))


def solve_linear(a: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One exact solution of A x = b, or None if the system is inconsistent."""
    mat = as_matrix(a)
    rhs = as_vector(b)
    if len(mat) != len(rhs):
        raise ValueError("row count mismatch")
    if not mat:
        return ()
    n = len(mat[0])
    tab = Tableau([row + (rhs[i],) for i, row in enumerate(mat)])
    pivots = _rref(tab, n)
    pivot_rows = {r for r, _ in pivots}
    for i in range(tab.nrows):
        if i not in pivot_rows and tab.sign(i, n) != 0:
            return None
    x = list(vec_zero(n))
    for r, c in pivots:
        x[c] = tab.entry(r, n)
    return tuple(x)


def nullspace(a: Sequence[Sequence], ncols: int | None = None) -> list[Vector]:
    """Deterministic basis of the kernel of A (one vector per free column)."""
    mat = as_matrix(a)
    if not mat:
        if ncols is None:
            raise ValueError("ncols required for empty matrix")
        n = ncols
        pivots: list[tuple[int, int]] = []
        tab = None
    else:
        n = len(mat[0])
        tab = Tableau(mat)
        pivots = _rref(tab, n)
    pivot_cols = {c for _, c in pivots}
    basis: list[Vector] = []
    for f in range(n):
        if f in pivot_cols:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in pivots:
            assert tab is not None
            v[c] = -tab.entry(r, f)
        basis.append(tuple(v))
    return basis


def invert(a: Sequence[Sequence]) -> Matrix | None:
    """Exact inverse of a square matrix, or None if singular."""
    mat = as_matrix(a)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix not square")
    if n == 0:
        return ()
    aug = [
        row + tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i, row in enumerate(mat)
    ]
    tab = Tableau(aug)
    pivots = _rref(tab, n)
    if len(pivots) < n:
        return None
    row_of_col = {c: r for r, c in pivots}
    return tuple(
        tuple(tab.entry(row_of_col[i], n + j) for j in range(n)) for i in range(n)
    )
