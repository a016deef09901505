"""Rational scalars, vectors and matrices.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator). Vectors are tuples of Fractions, matrices
tuples of row tuples; the tuple length is the dimension.

Sums of products accumulate in integers: each operand vector is scaled once
by the lcm of its denominators, the integer products are summed with
``sum(map(mul, ...))``, and one Fraction is built per output entry. Integer
rows kept over one scale (``integer_rows``) go to ``int_mat_vec`` as is.

Integer input crosses into integer rows as it is: a vector whose entries are
all ``int`` passes ``integral_with_scale`` (and so ``integral``,
``integer_rows`` and ``primitive``) at scale 1, copied but never rebuilt
through ``Fraction``.

Literals are checked a vector at a time: ``are_rational_literals`` matches
the vector's strings joined by commas in one pass, and ``literal_row``
reads checked literals once, as integers over the lcm of their
denominators. ``is_rational_literal`` is the same grammar for one literal.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

# One literal, 'p/q' or 'p', matched whole after strip(). A vector's
# literals joined by commas match _LITERALS_RE, where Unicode \s is exactly
# the whitespace str.strip() removes (str.isspace()); one literal is a vector
# of one, with no comma.
_LITERAL = r"[+-]?[0-9]+(?:/[1-9][0-9]*)?"
_LITERALS_RE = re.compile(rf"\s*{_LITERAL}\s*(?:,\s*{_LITERAL}\s*)*")
# The interpreter's limit on the digits int() reads from a string (Python
# 3.10.7 on; before that there is none, read as 0). A nonzero limit is never
# below the threshold, so a literal no longer than it passes any limit.
_int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_SHORT = getattr(sys.int_info, "str_digits_check_threshold", 640)


def _digits_over_limit(literal: str) -> int:
    """The digit count of the longer part of a stripped literal, numerator
    or denominator, when it exceeds the digits ``int()`` reads from a
    string (``sys.get_int_max_str_digits()``, no bound when 0); else 0."""
    limit = _int_str_limit()
    num, _, den = literal.lstrip("+-").partition("/")
    longest = max(len(num), len(den))
    return longest if limit and longest > limit else 0


def is_rational_literal(text) -> bool:
    """Whether text is a rational literal: 'p/q' or 'p' after strip(),
    with a positive denominator and no leading zero in it, and neither p
    nor q longer than the interpreter's limit on the digits of an integer
    string, ``sys.get_int_max_str_digits()`` (none when 0). Floats,
    exponents and negative denominators are refused."""
    return are_rational_literals([text])


def _literal_digit_error(text) -> str | None:
    """Why a text of the literal pattern is still refused: its numerator or
    denominator has more digits than ``int()`` reads; None for any other
    text, which ``is_rational_literal`` accepts or refuses by pattern."""
    text = text.strip() if isinstance(text, str) else ""
    if "," in text or not _LITERALS_RE.fullmatch(text) or not (n := _digits_over_limit(text)):
        return None
    return (
        f"a part of {n} digits exceeds the {_int_str_limit()}-digit "
        "limit on integer strings (sys.get_int_max_str_digits())"
    )


def are_rational_literals(values: Sequence) -> bool:
    """Whether every entry of values is a string ``is_rational_literal``
    accepts, checked in one pass: the entries joined by commas match the
    literal pattern once per entry, with no comma but the joins, and only
    an entry longer than ``_SHORT`` has its digits counted. False when an
    entry is not a string, bare integers included."""
    if not values:
        return True
    try:
        text = ",".join(values)
    except TypeError:
        return False
    if _LITERALS_RE.fullmatch(text) is None or text.count(",") != len(values) - 1:
        return False
    return len(text) <= _SHORT or not any(
        len(v) > _SHORT and _digits_over_limit(v.strip()) for v in values
    )


def literal_row(values: Sequence) -> tuple[list[int], int]:
    """Literals already checked, each a string ``is_rational_literal``
    accepts or an ``int``, as integers over one positive scale s, the lcm
    of their denominators: values = ints / s, and s = 1 for integers."""
    try:
        return [int(v) for v in values], 1
    except ValueError:  # a denominator, or whitespace int() does not strip
        pass
    parts = [v.strip().partition("/") if type(v) is str else (v, "", "") for v in values]
    dens = [int(d or 1) for _, _, d in parts]
    scale = math.lcm(*dens)
    return [int(n) * (scale // d) for (n, _, _), d in zip(parts, dens)], scale


def format_rational(x: Fraction) -> str:
    """Canonical textual form: 'p/q' in lowest terms, or 'p' for integers."""
    return str(Fraction(x))


def as_vector(entries: Iterable) -> Vector:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(as_vector(row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return mat


def vec_zero(n: int) -> Vector:
    return (Fraction(0),) * n


def vec_scale(c, v: Sequence[Fraction]) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def _dot_over(a: Sequence[int], b: Sequence[int], den: int) -> Fraction:
    if len(a) != len(b):
        raise ValueError("vector lengths differ")
    return Fraction(sum(map(mul, a, b)), den)


def vec_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    a, s = integral_with_scale(u)
    b, t = integral_with_scale(v)
    return _dot_over(a, b, s * t)


def int_mat_vec(rows: Sequence[Sequence[int]], x: Sequence[int], den: int) -> Vector:
    """The integer rows times the integer vector x, each entry over den > 0."""
    return tuple(_dot_over(r, x, den) for r in rows)


def mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    b, t = integral_with_scale(v)
    return tuple(_dot_over(a, b, s * t) for a, s in map(integral_with_scale, m))


def mat_transpose(m: Sequence[Sequence[Fraction]]) -> Matrix:
    return tuple(zip(*m, strict=True))


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


_denominator = attrgetter("denominator")


def integral(v: Iterable) -> list[int]:
    """v scaled by the lcm of its denominators, a positive integer.

    The scale is positive, so the result keeps every sign of v and of its
    products with integer vectors.
    """
    return integral_with_scale(v)[0]


def integral_with_scale(v: Iterable) -> tuple[list[int], int]:
    """integral(v) and the scale s it multiplied by: v = integral(v) / s.

    A v whose entries are all ``int`` (not ``bool``) passes through as a new
    list at scale 1; any other v is read entry by entry as Fractions.
    """
    q = list(v)
    if q and type(q[0]) is int and all(type(x) is int for x in q):
        return q, 1
    q = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in q]
    scale = math.lcm(*map(_denominator, q))
    if scale == 1:
        return [x.numerator for x in q], 1
    return [x.numerator * (scale // x.denominator) for x in q], scale


def integer_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """The rows of a matrix scaled to integers by one positive q, and q."""
    w = len(m[0]) if m else 0
    if any(len(row) != w for row in m):
        raise ValueError("ragged matrix")
    ints, q = integral_with_scale(x for row in m for x in row)
    return [ints[k * w:(k + 1) * w] for k in range(len(m))], q


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale v by the unique positive rational giving integer entries, gcd 1.

    This is the canonical representative of v under positive scaling, used to
    store cone rays and facet normals so that set equality is syntactic. An
    all-int v passes ``integral`` at scale 1, so only its gcd is taken, and
    an already primitive v is returned without a division.
    """
    ints = integral(v)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(ints) if g == 1 else tuple(n // g for n in ints)
