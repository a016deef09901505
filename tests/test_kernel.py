"""Tests of the rational pivot kernel.

The tableau must behave exactly like Gauss-Jordan elimination over
Fractions: same entries, same signs, same errors, on every pivot sequence.
It is built either from rational entries or from the integer pairs the
simplex writes, and the two must agree. The sequences here are seeded so
failures reproduce.
"""

import math
import random
from fractions import Fraction

import pytest

from polysteer._kernel import BACKEND, Tableau


def tableau_row(t, i):
    """Row i of the tableau as Fractions, read through `entry`."""
    return [t.entry(i, j) for j in range(t.ncols)]


def reference_pivot(rows, r, c):
    """Gauss-Jordan pivot on a list of Fraction rows, in place."""
    p = rows[r][c]
    rows[r] = [x / p for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]


def random_entry(rng, scale=9):
    """An int, Fraction or "p/q" string; about a third of entries are zero."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-scale, scale)
    if kind == 2:
        return Fraction(rng.randint(-scale, scale), rng.randint(1, scale))
    return f"{rng.randint(-scale, scale)}/{rng.randint(1, scale)}"


def test_seeded_pivot_walks_match_fraction_reference():
    rng = random.Random(20240901)
    negative_pivots = zero_columns = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        tab = Tableau(rows)
        ref = [[Fraction(x) for x in row] for row in rows]
        for _ in range(6):
            options = [(i, j) for i in range(nrows) for j in range(ncols) if ref[i][j]]
            if not options:
                break
            r, c = rng.choice(options)
            negative_pivots += ref[r][c] < 0
            zero_columns += 0 in ref[r]
            reference_pivot(ref, r, c)
            tab.pivot(r, c)
            assert [tableau_row(tab, i) for i in range(nrows)] == ref
            # The simplex prices and ratio-tests on the stored numerators' signs.
            assert [[(n > 0) - (n < 0) for n in nums] for nums in tab.nums] == [
                [(x > 0) - (x < 0) for x in row] for row in ref
            ]
            # The stored pairs stay reduced, or their ints would grow unchecked.
            for nums, dens in zip(tab.nums, tab.dens):
                assert all(d > 0 and math.gcd(n, d) == 1 for n, d in zip(nums, dens))
    assert negative_pivots > 100 and zero_columns > 100


def test_entries_are_fractions_in_lowest_terms():
    t = Tableau([[Fraction(3, 7), -2, "6/4"], [5, Fraction(-1, 3), 0]])
    t.pivot(0, 0)
    t.pivot(1, 1)
    for i in range(t.nrows):
        for x in tableau_row(t, i):
            assert type(x) is Fraction
            assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    assert tableau_row(t, 0) == [1, 0, Fraction(-7, 138)]
    assert tableau_row(t, 1) == [0, 1, Fraction(-35, 46)]


def reduced_pairs(rows):
    """The numerator and denominator lists of rows of rational entries."""
    rows = [[Fraction(x) for x in row] for row in rows]
    nums = [[x.numerator for x in row] for row in rows]
    return nums, [[x.denominator for x in row] for row in rows]


def test_pair_constructor_matches_fraction_constructor_through_pivot_walks():
    """A tableau built from reduced pairs, with positive denominators, is the
    tableau of the same Fractions, and stays so through every pivot.

    The pairs are taken as they are, so reducing them is the caller's job:
    `pivot` reads pn == pd as a pivot of 1, which holds only for reduced
    pairs with positive denominators.
    """
    rng = random.Random(20261018)
    walks = 0
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        nums, dens = reduced_pairs(rows)
        paired = Tableau(nums, dens)
        built = Tableau(rows)
        assert (paired.nrows, paired.ncols) == (built.nrows, built.ncols)
        for _ in range(6):
            assert [tableau_row(paired, i) for i in range(nrows)] == [
                tableau_row(built, i) for i in range(nrows)
            ]
            assert (paired.nums, paired.dens) == (built.nums, built.dens)
            options = [(i, j) for i in range(nrows) for j in range(ncols) if built.nums[i][j]]
            if not options:
                break
            r, c = rng.choice(options)
            paired.pivot(r, c)
            built.pivot(r, c)
            walks += 1
    assert walks > 500


def test_pair_constructor_takes_the_lists_and_checks_shape():
    nums, dens = [[1, -3, 0], [2, 5, 7]], [[2, 4, 1], [1, 3, 9]]
    t = Tableau(nums, dens)
    assert tableau_row(t, 0) == [Fraction(1, 2), Fraction(-3, 4), 0]
    assert tableau_row(t, 1) == [2, Fraction(5, 3), Fraction(7, 9)]
    t.pivot(0, 0)
    assert t.nums is nums and nums[0] == [1, -3, 0] and dens[0] == [1, 2, 1]
    with pytest.raises(ValueError, match="ragged"):
        Tableau([[1, 2], [3, 4]], [[1, 1], [1]])
    with pytest.raises(ValueError, match="ragged"):
        Tableau([[1, 2], [3, 4]], [[1, 1]])


@pytest.mark.parametrize("factory", [Tableau])
def test_tableau_error_behavior(factory):
    with pytest.raises(ValueError, match="ragged"):
        factory([[1, 2], [3]])
    t = factory([[0, 1], [2, 3]])
    with pytest.raises(ZeroDivisionError):
        t.pivot(0, 0)
    empty = factory([])
    assert (empty.nrows, empty.ncols) == (0, 0)


@pytest.mark.parametrize("factory", [Tableau])
def test_pivot_normalizes_pivot_row_and_clears_column(factory):
    t = factory([[2, 4, 6], [1, 1, 1], [-3, 0, 3]])
    t.pivot(0, 0)
    assert tableau_row(t, 0) == [1, 2, 3]
    assert tableau_row(t, 1) == [0, -1, -2]
    assert tableau_row(t, 2) == [0, 6, 12]
    assert t.nums[1][0] == 0 and t.nums[2][0] == 0


def test_backend_selection_reports_a_known_backend():
    assert BACKEND == "pure"
