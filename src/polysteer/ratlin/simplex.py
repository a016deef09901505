"""Exact simplex over the rationals with certificate-producing outcomes.

Programs have free variables; all sign information lives in the rows.
Every verdict carries a certificate that re-substitutes exactly: a witness
point, a nonnegative-multiplier infeasibility vector, or an improving ray.
Pivoting uses Bland's rule throughout, so the method terminates on every
input.

Every row is stored once, as integers over one positive denominator: the
triple (A, b, s) reads A.x = b or A.x >= b, both sides over s. Program
builders write their rows in this form, and `integer_row` converts a
rational (lhs, rhs) pair for callers whose data is rational. A row keeps
its exact rational value, never rescaled to primitive form: the tableau
holds the reduced pairs of its entries A_j / s, and the phase-1 row, hence
Bland's pivot path and the Farkas multipliers, depend on those values.

The tableau holds each entry as a reduced integer numerator/denominator pair
(`_kernel.Tableau`), written from (A, s) with one gcd per nonzero entry.
Pricing reads numerator signs and the ratio test cross-multiplies, so no
Fraction is built between reading the program and writing the certificate.
Certificates are checked on the same integer rows: a point is scaled once
to integers and only signs of integer dot products are compared.

The standard form x = p - q with slacks and artificials has the virtual
column layout [p | q | slacks | artificials | rhs], in which the basis, the
pricing order and the ratio test's tie-break are read. The tableau stores
only [p | artificials | rhs]; the rest are mirrors, with sigma_k the sign
row k was written with and e the number of eq rows:

    q_j     = -p_j                              in every row,
    slack_k = -sigma_{e+k} a_{e+k}              in every row but phase 1's,
    slack_k = -sigma_{e+k} (a_{e+k} - 1)        in the phase-1 row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .._kernel import Tableau
from .qarith import Vector, as_vector, integral, integral_with_scale

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A row (A, b, s): integer coefficients A and right-hand side b, both over
# the positive integer s.
Row = tuple[tuple[int, ...], int, int]


def integer_row(lhs, rhs) -> Row:
    """The rational row lhs.x (= or >=) rhs as a triple (A, b, s), with s the
    lcm of the denominators, so that lhs = A / s and rhs = b / s exactly."""
    ints, s = integral_with_scale((*lhs, rhs))
    return tuple(ints[:-1]), ints[-1], s


class LinearProgram:
    """max objective.x subject to eq rows (=) and ge rows (>=).

    Every row is an integer triple (A, b, s) with s > 0, read A.x = b or
    A.x >= b over s; the program keeps the row tuples it is given. The
    objective is a vector of Fractions.
    """

    __slots__ = ("n_vars", "eq", "ge", "objective")

    def __init__(self, n_vars: int, eq=(), ge=(), objective=None):
        self.n_vars = int(n_vars)
        self.eq = tuple(eq)
        self.ge = tuple(ge)
        for a, _, s in self.eq + self.ge:
            if len(a) != self.n_vars:
                raise ValueError("row width mismatch")
            if s <= 0:
                raise ValueError("row denominator must be positive")
        self.objective = None if objective is None else as_vector(objective)
        if self.objective is not None and len(self.objective) != self.n_vars:
            raise ValueError("objective width mismatch")

    def row_count(self) -> int:
        return len(self.eq) + len(self.ge)


@dataclass(frozen=True)
class LPOutcome:
    """Solver verdict plus the exact certificate backing it.

    farkas holds one multiplier per row in [eq, ge] order; ge multipliers
    are nonnegative and recombine the rows, each read at its rational value
    A / s and b / s, into an impossible inequality 0 >= r with r > 0.
    """

    status: str
    witness: Vector | None = None
    farkas: Vector | None = None
    ray: Vector | None = None
    value: Fraction | None = None

    @staticmethod
    def feasible(witness) -> "LPOutcome":
        return LPOutcome("feasible", witness=as_vector(witness))

    @staticmethod
    def infeasible(farkas) -> "LPOutcome":
        return LPOutcome("infeasible", farkas=as_vector(farkas))

    @staticmethod
    def optimal(point, value) -> "LPOutcome":
        return LPOutcome("optimal", witness=as_vector(point), value=Fraction(value))

    @staticmethod
    def unbounded(ray) -> "LPOutcome":
        return LPOutcome("unbounded", ray=as_vector(ray))

    def check(self, lp: LinearProgram) -> bool:
        """Re-substitute the certificate into the program's integer rows.

        A point x is scaled once to integers as (X, w) with x = X / w, w > 0,
        so a row (A, b, s) holds at x as A.X - b w compares with 0. Farkas
        multipliers y_k are scaled once to integers as positive multiples of
        y_k / s_k, which recombine the integer rows as y does the rational
        ones.
        """
        if self.status in ("feasible", "optimal"):
            x = self.witness
            if x is None or len(x) != lp.n_vars:
                return False
            # The dot products stop at len(a), before w.
            xs = integral((*x, 1))
            w = xs[-1]
            ok = (
                all(sum(map(mul, a, xs)) == b * w for a, b, _ in lp.eq)
                and all(sum(map(mul, a, xs)) >= b * w for a, b, _ in lp.ge)
            )
            if self.status == "optimal":
                ok = (
                    ok
                    and lp.objective is not None
                    and self.value is not None
                    and sum(map(mul, integral((*lp.objective, -self.value)), xs)) == 0
                )
            return ok
        if self.status == "infeasible":
            y = self.farkas
            e = len(lp.eq)
            if y is None or len(y) != lp.row_count():
                return False
            if any(v < 0 for v in y[e:]):
                return False
            used = [(v, row) for v, row in zip(y, lp.eq + lp.ge) if v]
            if not used:
                return False
            # y_k / s_k = n_k / d_k, over the common multiple scale of the d_k.
            dens = [v.denominator * s for v, (_, _, s) in used]
            scale = lcm(*dens)
            ys = [v.numerator * (scale // d) for (v, _), d in zip(used, dens)]
            # Column j of the used rows, dotted with ys, is the combination's
            # coefficient j; their right-hand sides give its r.
            if any(sum(map(mul, col, ys)) for col in zip(*(a for _, (a, _, _) in used))):
                return False
            return sum(map(mul, (b for _, (_, b, _) in used), ys)) > 0
        if self.status == "unbounded":
            r = self.ray
            if r is None or len(r) != lp.n_vars or lp.objective is None:
                return False
            rs = integral(r)
            return (
                all(sum(map(mul, a, rs)) == 0 for a, _, _ in lp.eq)
                and all(sum(map(mul, a, rs)) >= 0 for a, _, _ in lp.ge)
                and sum(map(mul, integral(lp.objective), rs)) > 0
            )
        return False


class _Simplex:
    """Two-phase simplex on the standard form x = p - q, slacks, artificials.

    Virtual layout: constraint rows, then the phase-2 objective row, then the
    phase-1 objective row; columns are [p | q | slacks | artificials | rhs].
    Basis indices, Bland's pricing order and the ratio test's tie-break are
    all read in this layout. Both objective rows ride along through every
    pivot, so switching phases never rebuilds the tableau.

    Stored layout: the tableau keeps only [p | artificials | rhs], and the
    q and slack columns are read through the three mirror identities of the
    module docstring. They hold as the rows are written, and row operations
    keep them as long as the phase-1 row is never scaled or added to another
    row, which no pivot does. A pivot on a mirror column is therefore a
    pivot on its stored column, then, for a slack, the pivot row added into
    the phase-1 row (where the mirror reads a - 1), and the pivot row
    negated where the mirror's scale is -1. Pivots, bases and certificates
    are those of the full layout, entry for entry.
    """

    def __init__(self, n_vars: int, eq_rows, ge_rows, objective=None):
        self.n = n_vars
        self.g = len(ge_rows)
        self.e = len(eq_rows)
        self.m = self.e + self.g
        self.n_real = 2 * n_vars + self.g
        self.rhs_col = n_vars + self.m
        self.obj2_row = self.m
        self.obj1_row = self.m + 1
        self.sigma: list[int] = []

        width = self.rhs_col + 1
        nums: list[list[int]] = []
        dens: list[list[int]] = []
        basis: list[int] = []
        # Phase 1 minimizes the sum of artificials: its row is 1 on every
        # artificial column less the rows that start on an artificial.
        obj1n = [0] * n_vars + [1] * self.m + [0]
        obj1d = [1] * width
        specs = [(a, b, s, None) for a, b, s in eq_rows]
        specs += [(a, b, s, i) for i, (a, b, s) in enumerate(ge_rows)]
        for k, (a, b, s, slack) in enumerate(specs):
            # A ge row with rhs <= 0 is flipped so its slack has coefficient
            # +1 and can start in the basis; everything else starts on its
            # artificial. Fewer basic artificials means fewer phase-1 pivots.
            on_slack = slack is not None and b <= 0
            sign = -1 if on_slack or b < 0 else 1
            # Entries are written as the reduced pairs of A_j / s and b / s,
            # the flip applied to the numerator; zeros stay 0/1.
            rn = [0] * width
            rd = [1] * width
            written = [j for j, c in enumerate(a) if c]
            for j in written:
                c = a[j]
                g = gcd(c, s)
                rn[j] = sign * c // g
                rd[j] = s // g
            g = gcd(b, s)
            rn[self.rhs_col] = sign * b // g
            rd[self.rhs_col] = s // g
            rn[n_vars + k] = 1
            self.sigma.append(sign)
            basis.append(2 * n_vars + slack if on_slack else self.n_real + k)
            nums.append(rn)
            dens.append(rd)
            if on_slack:
                continue
            # The row starts on its artificial: subtract it from the phase-1
            # row on the columns it wrote, its zeros leaving the rest as is.
            written += [n_vars + k, self.rhs_col] if b else [n_vars + k]
            for j in written:
                p, q, d = rn[j], rd[j], obj1d[j]
                num, den = obj1n[j] * q - p * d, d * q
                g = gcd(num, den)
                obj1n[j], obj1d[j] = num // g, den // g

        obj2n = [0] * width
        obj2d = [1] * width
        if objective is not None:
            for j, c in enumerate(objective):
                if c:
                    obj2n[j] = -c.numerator
                    obj2d[j] = c.denominator

        self.tab = Tableau(nums + [obj2n, obj1n], dens + [obj2d, obj1d])
        self.basis = basis
        self.active = [True] * self.m

    def _column(self, v: int) -> tuple[int, int]:
        """The stored column and the scale that virtual column v is read by
        in the constraint rows."""
        n = self.n
        if v < n:
            return v, 1
        if v < 2 * n:
            return v - n, -1
        if v < self.n_real:
            k = self.e + v - 2 * n
            return n + k, -self.sigma[k]
        return v - self.n_real + n, 1

    def _price(self, obj_row: int) -> int:
        """The first virtual column with a negative entry in obj_row, or -1.
        Artificials compete, and slacks read the phase-1 correction, only in
        the phase-1 row."""
        phase1 = obj_row == self.obj1_row
        obj, den = self.tab.nums[obj_row], self.tab.dens[obj_row]
        n, e = self.n, self.e
        for j in range(n):
            if obj[j] < 0:
                return j
        for j in range(n):
            if obj[j] > 0:
                return n + j
        # slack_k < 0 exactly when sigma * (a - 1) > 0 in the phase-1 row,
        # and when sigma * a > 0 elsewhere; a = num/den with den > 0.
        for k in range(self.g):
            c = n + e + k
            if self.sigma[e + k] * (obj[c] - den[c] if phase1 else obj[c]) > 0:
                return 2 * n + k
        if phase1:
            for k in range(self.m):
                if obj[n + k] < 0:
                    return self.n_real + k
        return -1

    def _pivot(self, r: int, v: int) -> None:
        """Pivot on row r and virtual column v, which becomes r's basic."""
        tab = self.tab
        col, scale = self._column(v)
        tab.pivot(r, col)
        pn, pd = tab.nums[r], tab.dens[r]
        if 2 * self.n <= v < self.n_real:
            on, od = tab.nums[self.obj1_row], tab.dens[self.obj1_row]
            for j, p in enumerate(pn):
                if p:
                    q, b = pd[j], od[j]
                    num = on[j] * q + p * b
                    if num:
                        den = b * q
                        g = gcd(num, den)
                        on[j], od[j] = num // g, den // g
                    else:
                        on[j], od[j] = 0, 1
        if scale < 0:
            pn[:] = [-x for x in pn]
        self.basis[r] = v

    def _bland(self, obj_row: int) -> str:
        """Pivot until the driving objective row is optimal. Bland's rule.

        With rhs_i = n/d and a_i = n'/d', the ratio test compares
        rhs_i / a_i = (n * d') / (d * n') by cross-multiplication; every
        denominator is positive, since only rows with a_i > 0 compete.
        """
        nums, dens = self.tab.nums, self.tab.dens
        rhs, basis, active = self.rhs_col, self.basis, self.active
        while True:
            enter = self._price(obj_row)
            if enter < 0:
                return "optimal"
            col, scale = self._column(enter)
            leave = -1
            best_n = best_d = 0
            for i in range(self.m):
                a = scale * nums[i][col]
                if a > 0 and active[i]:
                    rd = dens[i]
                    n, d = nums[i][rhs] * rd[col], rd[rhs] * a
                    if leave >= 0:
                        # The sign of rhs_i / a_i less the best ratio so far.
                        cmp = n * best_d - best_n * d
                        if cmp > 0 or (cmp == 0 and basis[i] > basis[leave]):
                            continue
                    best_n, best_d, leave = n, d, i
            if leave < 0:
                self._unbounded_col = enter
                return "unbounded"
            self._pivot(leave, enter)

    def phase1(self) -> bool:
        status = self._bland(self.obj1_row)
        assert status == "optimal", "phase 1 is always bounded"
        return self.tab.nums[self.obj1_row][self.rhs_col] == 0

    def phase1_farkas(self) -> Vector:
        """Row multipliers certifying infeasibility, in original row order:
        sigma_k (1 - a) for the phase-1 row's entry a = n/d on artificial k,
        that is sigma_k (d - n) / d, already reduced."""
        cols = slice(self.n, self.n + self.m)
        nums, dens = self.tab.nums[self.obj1_row][cols], self.tab.dens[self.obj1_row][cols]
        return tuple(
            Fraction(sign * (d - n), d) for sign, n, d in zip(self.sigma, nums, dens)
        )

    def drive_out_artificials(self) -> None:
        """Pivot each basic artificial out on the row's first nonzero real
        column; a row with none is redundant and drops out. Each q_j is
        nonzero exactly where p_j is, so the first is a p or a slack."""
        n, e = self.n, self.e
        for i in range(self.m):
            if self.basis[i] < self.n_real:
                continue
            row = self.tab.nums[i]
            col = next((j for j in range(n) if row[j]), -1)
            if col < 0:
                col = next((2 * n + k for k in range(self.g) if row[n + e + k]), -1)
            if col < 0:
                self.active[i] = False
            else:
                self._pivot(i, col)

    def phase2(self) -> str:
        return self._bland(self.obj2_row)

    def objective_value(self) -> Fraction:
        return self.tab.entry(self.obj2_row, self.rhs_col)

    def solution(self) -> Vector:
        x = [_ZERO] * self.n
        for i in range(self.m):
            if not self.active[i]:
                continue
            b = self.basis[i]
            if b < self.n:
                x[b] += self.tab.entry(i, self.rhs_col)
            elif b < 2 * self.n:
                x[b - self.n] -= self.tab.entry(i, self.rhs_col)
        return tuple(x)

    def ray(self) -> Vector:
        enter = self._unbounded_col
        col, scale = self._column(enter)
        d = [_ZERO] * self.n
        if enter < self.n:
            d[enter] += _ONE
        elif enter < 2 * self.n:
            d[enter - self.n] -= _ONE
        for i in range(self.m):
            if not self.active[i]:
                continue
            b = self.basis[i]
            coeff = scale * self.tab.entry(i, col)
            if not coeff:
                continue
            if b < self.n:
                d[b] -= coeff
            elif b < 2 * self.n:
                d[b - self.n] += coeff
        return tuple(d)


def _certified(out: LPOutcome, lp: LinearProgram) -> LPOutcome:
    if not out.check(lp):
        raise RuntimeError(f"internal: {out.status} certificate failed re-substitution")
    return out


def lp_optimize(lp: LinearProgram) -> LPOutcome:
    """Maximize lp.objective. Returns optimal(point, value) | unbounded(ray) | infeasible(farkas)."""
    if lp.objective is None:
        raise ValueError("lp_optimize requires an objective")
    sx = _Simplex(lp.n_vars, lp.eq, lp.ge, objective=lp.objective)
    if not sx.phase1():
        return _certified(LPOutcome.infeasible(sx.phase1_farkas()), lp)
    sx.drive_out_artificials()
    if sx.phase2() == "unbounded":
        return _certified(LPOutcome.unbounded(sx.ray()), lp)
    point = sx.solution()
    return _certified(LPOutcome.optimal(point, sx.objective_value()), lp)


def lp_feasible(lp: LinearProgram) -> LPOutcome:
    """Decide feasibility. Returns feasible(witness) | infeasible(farkas)."""
    sx = _Simplex(lp.n_vars, lp.eq, lp.ge)
    if sx.phase1():
        return _certified(LPOutcome.feasible(sx.solution()), lp)
    return _certified(LPOutcome.infeasible(sx.phase1_farkas()), lp)
