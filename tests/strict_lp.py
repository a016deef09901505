"""Strict feasibility by the gap program, for the LP references of the tests.

polysteer's LPs have no strict rows. The references that decide
{a.x = b, g.x >= h, k.x > l} by LP maximize a gap variable t instead:
k.x - t >= l on the strict rows, 0 <= t <= 1, so that the system is
strictly feasible exactly when the optimum is positive.
"""

from fractions import Fraction

from polysteer.ratlin import LinearProgram, as_vector, integer_row, lp_optimize


def strict_witness(n, eq=(), ge=(), gt=()):
    """A point satisfying the eq and ge rows with every gt row strict, or
    None when there is none."""

    def widened(rows, t):
        return [integer_row(as_vector(lhs) + (Fraction(t),), rhs) for lhs, rhs in rows]

    t_row = (Fraction(0),) * n + (Fraction(1),)
    bounds = [integer_row(t_row, 0), integer_row(tuple(-c for c in t_row), -1)]
    gap = LinearProgram(
        n + 1, eq=widened(eq, 0), ge=widened(ge, 0) + widened(gt, -1) + bounds,
        objective=t_row,
    )
    out = lp_optimize(gap)
    if out.status == "optimal" and out.value > 0:
        return out.witness[:n]
    return None
