"""Rational scalars, vectors and matrices.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator). Vectors are tuples of Fractions, matrices
tuples of row tuples; the tuple length is the dimension.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p'. Rejects floats, exponents and negative denominators."""
    literal = text.strip() if isinstance(text, str) else None
    if literal is None or not _RATIONAL_RE.match(literal):
        raise ValueError(f"not a rational literal: {text!r}")
    # The literal is validated, so int() reads its parts; that is about twice
    # as fast as Fraction's own string parser.
    num, _, den = literal.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


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


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Sequence[Fraction]) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def vec_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    bt = mat_transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def mat_transpose(m: Sequence[Sequence[Fraction]]) -> Matrix:
    return tuple(zip(*m, strict=True))


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def integral(v: Iterable) -> list[int]:
    """v scaled by the lcm of its denominators, a positive integer.

    The scale is positive, so the result keeps every sign of v and of its
    products with integer vectors.
    """
    q = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    scale = math.lcm(*(x.denominator for x in q))
    return [x.numerator * (scale // x.denominator) for x in q]


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale v by the unique positive rational giving integer entries, gcd 1.

    This is the canonical representative of v under positive scaling, used to
    store cone rays and facet normals so that set equality is syntactic.
    """
    ints = integral(v)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(n // g for n in ints)
