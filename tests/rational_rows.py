"""LP rows read at their rational values, and the Fraction vector
difference, for the Fraction-row references of the tests."""

from fractions import Fraction


def rational_rows(rows):
    """Integer rows (A, b, s), each checked to be one, read as rational
    pairs (A / s, b / s)."""
    out = []
    for lhs, b, s in rows:
        assert type(lhs) is tuple and all(type(x) is int for x in (*lhs, b, s)) and s > 0
        out.append((tuple(Fraction(a, s) for a in lhs), Fraction(b, s)))
    return out


def vec_sub(u, v):
    """u - v entry by entry, for vectors of one length."""
    return tuple(a - b for a, b in zip(u, v, strict=True))
