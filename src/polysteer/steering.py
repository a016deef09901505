"""Ensemble lifting and steering decisions for bipartite states.

A bipartite state steers its B marginal when every ensemble for that
marginal is produced by measuring some observable on the A side. Over
polyhedral cones the ensembles of a fixed length form a polytope whose
vertices can be enumerated exactly, and the liftable ensembles form a
convex subset, so checking the vertices decides each length outright.
Verdicts therefore come qualified by the depth searched, and every
verdict carries certificates: lifted observables on success, an
unliftable ensemble with an exact infeasibility vector on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterator, Sequence

from .composite import BipartiteState, is_isomorphism_state, marginal_b, purify
from .cone import face_of, is_extremal
from .dd import polytope_vertices
from .ratlin import (
    LinearProgram,
    Row,
    Vector,
    as_vector,
    independent_rows,
    integer_row,
    integral_with_scale,
    lp_feasible,
    lp_optimize,
    mat_identity,
    mat_transpose,
    mat_vec,
    nullspace,
    primitive,
    solve_linear,
    vec_dot,
    vec_scale,
    vec_sub,
    vec_zero,
)
from .space import (
    Effect,
    HomogeneityVerdict,
    Observable,
    StateSpace,
    effects_interval,
    is_homogeneous,
    is_weakly_self_dual,
    order_interval_vertices,
)


@dataclass(frozen=True)
class Ensemble:
    """A finite list of cone elements; the state it splits is their sum."""

    space: StateSpace
    parts: tuple[Vector, ...]

    def __post_init__(self) -> None:
        parts = tuple(as_vector(p) for p in self.parts)
        if not parts:
            raise ValueError("an ensemble needs at least one part")
        for p in parts:
            if not self.space.cone.contains(p):
                raise ValueError(f"ensemble part {p} is not in the cone")
        object.__setattr__(self, "parts", parts)

    def total(self) -> Vector:
        return tuple(sum(col) for col in zip(*self.parts))

    def is_for(self, target: Sequence) -> bool:
        return self.total() == as_vector(target)

    def canonical_parts(self) -> tuple[Vector, ...]:
        return tuple(sorted(self.parts))


@dataclass(frozen=True)
class LiftResult:
    """Either an observable realizing the ensemble or a Farkas vector."""

    observable: Observable | None
    farkas: Vector | None

    def __bool__(self) -> bool:
        return self.observable is not None


def ensemble_lift_program(omega: BipartiteState, e: Ensemble) -> LinearProgram:
    """The feasibility program behind lift_ensemble, over stacked effect
    coordinates. Exposed so an infeasibility certificate can be re-checked
    against the very rows it claims to combine.

    Its rows are integer already: the A rays, the unit's rows over their
    denominators, and the state's rows, scaled to integers once, over the
    lcm of their scale and the part's entry."""
    space_a = omega.space_a
    da = space_a.dim
    k = len(e.parts)
    n = k * da

    def block(i: int, coeffs) -> tuple[int, ...]:
        return (0,) * (i * da) + tuple(coeffs) + (0,) * (n - (i + 1) * da)

    ge = [(block(i, r), 0, 1) for i in range(k) for r in space_a.cone.rays]
    eq = []
    for c, u in enumerate(space_a.unit):
        row = tuple(u.denominator if j % da == c else 0 for j in range(n))
        eq.append((row, u.numerator, u.denominator))
    matrix = [integral_with_scale(row) for row in omega.matrix]
    for i, part in enumerate(e.parts):
        for (ints, t), p in zip(matrix, part):
            s = lcm(t, p.denominator)
            row = block(i, (x * (s // t) for x in ints))
            eq.append((row, p.numerator * (s // p.denominator), s))
    return LinearProgram(n, eq=eq, ge=ge)


def lift_ensemble(omega: BipartiteState, e: Ensemble) -> LiftResult:
    """An observable {a_i} on A with each image omega-hat(a_i) = e.parts[i].

    One exact feasibility LP over the stacked effect coordinates: every a_i
    must be nonnegative on the rays of the A cone, the a_i must sum to the
    order unit, and each must map onto its part.
    """
    target = marginal_b(omega).vector
    if not e.is_for(target):
        raise ValueError("the ensemble does not sum to the B marginal")
    space_a = omega.space_a
    da = space_a.dim
    k = len(e.parts)
    out = lp_feasible(ensemble_lift_program(omega, e))
    if out.status != "feasible":
        return LiftResult(None, out.farkas)
    w = out.witness
    effects = tuple(
        Effect(space_a, tuple(w[i * da + c] for c in range(da))) for i in range(k)
    )
    return LiftResult(Observable(space_a, effects), None)


def _is_convex_combination(point: Sequence, generators: Sequence[Vector]) -> bool:
    """Whether point is a convex combination of the generators: one LP."""
    n = len(generators)
    eq = [integer_row([g[c] for g in generators], point[c]) for c in range(len(point))]
    eq.append(((1,) * n, 1, 1))
    ge = [(tuple(int(i == j) for i in range(n)), 0, 1) for j in range(n)]
    return lp_feasible(LinearProgram(n, eq=eq, ge=ge)).status == "feasible"


def image_interval(omega: BipartiteState) -> tuple[Vector, ...]:
    """Extreme points of the image of the A-side effect interval."""
    images = []
    for v in effects_interval(omega.space_a).vertices:
        img = omega.apply(v)
        if img not in images:
            images.append(img)
    extreme = []
    for i, p in enumerate(images):
        others = [q for j, q in enumerate(images) if j != i]
        if not others or not _is_convex_combination(p, others):
            extreme.append(p)
    return tuple(sorted(extreme))


def face_condition(omega: BipartiteState) -> bool:
    """Whether the images of the dual extreme rays generate the face of the
    B marginal; necessary for steering but not sufficient."""
    target = marginal_b(omega).vector
    face = face_of(omega.space_b.cone, target)
    images = [omega.apply(f) for f in omega.space_a.cone.facets]
    if not all(face.contains(img) for img in images):
        return False
    # An extreme ray of the face is a nonnegative combination of points of
    # the face only through positive multiples of itself.
    hits = {primitive(img) for img in images if any(img)}
    return all(primitive(fr) in hits for fr in face.rays())


@dataclass(frozen=True)
class LiftedEnsemble:
    ensemble: Ensemble
    observable: Observable


@dataclass(frozen=True)
class SteeringVerdict:
    """Outcome of the depth-bounded steering decision.

    status is "steering_up_to" when every extremal ensemble with at most
    `depth` parts lifted, "not_steering" when some ensemble provably fails,
    and "undecided" is reserved for callers that abandon the search early.
    """

    status: str
    depth: int
    lifted: tuple[LiftedEnsemble, ...] = ()
    counterexample: Ensemble | None = None
    farkas: Vector | None = None

    def __bool__(self) -> bool:
        return self.status == "steering_up_to"


def ensemble_polytope_vertices(
    space: StateSpace, target: Sequence, k: int
) -> list[tuple[Vector, ...]]:
    """Vertices of the polytope of k-part splittings of target in the cone.

    A splitting is given by its first k - 1 parts. For each facet g its k - 1
    rows g.p_i >= 0 and its closing row g.(target - sum p_i) >= 0 sum to zero
    and are all tight at p_i = target/k exactly when g.target = 0, so that
    point certifies the hull."""
    target = as_vector(target)
    if not space.cone.contains(target):
        raise ValueError("the split target must lie in the cone")
    db = space.dim
    n = (k - 1) * db
    ge = [
        ((0,) * (i * db) + g + (0,) * (n - (i + 1) * db), 0)
        for i in range(k - 1)
        for g in space.cone.facets
    ]
    ge += [(tuple(-c for c in g) * (k - 1), -vec_dot(g, target)) for g in space.cone.facets]
    out = []
    for v in polytope_vertices(ge, vec_scale(Fraction(1, k), target) * (k - 1)):
        parts = [tuple(v[i * db + c] for c in range(db)) for i in range(k - 1)]
        rest = target
        for p in parts:
            rest = vec_sub(rest, p)
        parts.append(rest)
        out.append(tuple(parts))
    return out


def extremal_ensembles(
    space: StateSpace, target: Sequence, depth: int
) -> Iterator[tuple[int, Ensemble]]:
    """The nonzero parts of each vertex of the k-part splitting polytopes of
    target, k = 2..depth, as ensembles in search order, each once, with the k
    that first meets it."""
    if depth < 2:
        raise ValueError("the search depth must be at least 2")
    seen: set[tuple[Vector, ...]] = set()
    for k in range(2, depth + 1):
        for parts in ensemble_polytope_vertices(space, target, k):
            nonzero = tuple(p for p in parts if any(x != 0 for x in p))
            if not nonzero:
                continue
            e = Ensemble(space, nonzero)
            key = e.canonical_parts()
            if key not in seen:
                seen.add(key)
                yield k, e


def decide_steering(omega: BipartiteState, depth: int = 3) -> SteeringVerdict:
    """Check every extremal ensemble of the B marginal with up to `depth`
    parts. All lift: steering up to that depth. Any failure: not steering,
    with the unliftable ensemble and its infeasibility certificate."""
    lifted: list[LiftedEnsemble] = []
    for k, e in extremal_ensembles(omega.space_b, marginal_b(omega).vector, depth):
        result = lift_ensemble(omega, e)
        if not result:
            return SteeringVerdict(
                "not_steering",
                depth=k,
                lifted=tuple(lifted),
                counterexample=Ensemble(omega.space_b, e.canonical_parts()),
                farkas=result.farkas,
            )
        lifted.append(LiftedEnsemble(e, result.observable))
    return SteeringVerdict("steering_up_to", depth=depth, lifted=tuple(lifted))


@dataclass(frozen=True)
class AffineSection:
    """An affine right inverse of the state's map over [0, marginal].

    Stored by its values on an affine basis of the interval's hull; apply
    reconstructs the value anywhere on that hull by solving for affine
    coordinates.
    """

    base_points: tuple[Vector, ...]
    images: tuple[Vector, ...]

    def coordinates(self, y: Sequence) -> Vector:
        """The weights on the base points that sum to 1 and combine to y."""
        ones = (1,) * len(self.base_points)
        lam = solve_linear(mat_transpose(self.base_points) + (ones,), (*y, 1))
        if lam is None:
            raise ValueError("point is outside the section's affine hull")
        return lam

    def apply(self, y: Sequence) -> Vector:
        return mat_vec(mat_transpose(self.images), self.coordinates(y))

    def verify(self, omega: BipartiteState) -> bool:
        """Whether this is a section of omega over section_program's basis:
        the same base points in the same order, one image each, holding
        there as _holds_on checks."""
        verts = order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)
        ok = tuple(self.base_points) == tuple(_affine_basis(verts))
        return ok and len(self.images) == len(self.base_points) and self._holds_on(omega, verts)

    def _holds_on(self, omega: BipartiteState, verts: Sequence[Vector]) -> bool:
        """Each interval vertex goes to an effect mapping onto it, and each
        face ray to a step nonnegative on the A rays, so chains map to chains."""
        for y in verts:
            x = self.apply(y)
            if omega.apply(x) != y or not omega.space_a.is_effect(x):
                return False
        target = marginal_b(omega).vector
        base = self.apply(vec_zero(len(target)))
        for fr in face_of(omega.space_b.cone, target).rays():
            step = vec_sub(self.apply(fr), base)
            if any(vec_dot(step, as_vector(r)) < 0 for r in omega.space_a.cone.rays):
                return False
        return True


@dataclass(frozen=True)
class SectionSearch:
    """Feasibility report for affine sections over the marginal's interval."""

    section: AffineSection | None
    dimension: int | None = None
    alternate: AffineSection | None = None
    farkas: Vector | None = None

    def __bool__(self) -> bool:
        return self.section is not None


def _affine_basis(points: Sequence[Vector]) -> list[Vector]:
    diffs = [vec_sub(p, points[0]) for p in points[1:]]
    return [points[0]] + [points[1 + i] for i in independent_rows(diffs)]


SectionProgram = tuple[LinearProgram, Callable[[Vector], AffineSection]]


def _weighted_rows(
    weights: tuple[list[int], int], functionals: Sequence
) -> list[tuple[list[int], int, int, int]]:
    """Each functional ((F, t), (C, u)), coefficients F / t over one block of
    unknowns and constants C / u per basis point, weighed by L / s over the
    basis points: block i of its row is L_i F over s t, and its constant
    sum_i L_i C_i over s u. Returns (row, s t, constant, s u) per functional."""
    lam, s = weights
    out = []
    for (f, t), (c, u) in functionals:
        width = len(f)
        row = [0] * (len(lam) * width)
        for i, li in enumerate(lam):
            if li:
                row[i * width:(i + 1) * width] = [li * fc for fc in f]
        out.append((row, s * t, sum(map(mul, lam, c)), s * u))
    return out


def _row_over(lhs: Sequence[int], d: int, num: int, den: int) -> Row:
    """The row lhs / d against num / den, over the lcm of d and den."""
    s = lcm(d, den)
    f = s // d
    return tuple(x * f for x in lhs) if f > 1 else tuple(lhs), num * (s // den), s


def _section_rows(
    omega: BipartiteState,
    verts: Sequence[Vector],
    basis: Sequence[Vector],
    rays: Sequence,
    values: Sequence = (),
) -> tuple[list[Row], list[Row]]:
    """The eq and ge rows of a section program, one block of unknowns per
    basis point, read by each A ray through `rays` and by each row of the
    state's matrix through `values`.

    At each interval vertex, the image sum_i lam_i x_i over its affine
    coordinates must map to the vertex and lie in [0, u_A]. Each face ray
    of the marginal, weighed by coordinates(fr) - coordinates(0) (the
    interval's hull is a linear space holding every face ray), must go to
    a functional nonnegative on the A rays."""
    space_a = omega.space_a
    frame = AffineSection(tuple(basis), ())
    bounds = [vec_dot(space_a.unit, as_vector(r)) for r in space_a.cone.rays]
    eq: list[Row] = []
    ge: list[Row] = []
    for y in verts:
        lam = integral_with_scale(frame.coordinates(y))
        # Value rows: row = y_j - constant; ray rows: 0 <= row + constant <= bound.
        for (row, d, c, u), yj in zip(_weighted_rows(lam, values), y):
            q = yj.denominator
            eq.append(_row_over(row, d, yj.numerator * u - c * q, q * u))
        for (row, d, c, u), bound in zip(_weighted_rows(lam, rays), bounds):
            q = bound.denominator
            ge.append(_row_over(row, d, -c, u))
            ge.append(_row_over([-x for x in row], d, c * q - bound.numerator * u, q * u))
    target = marginal_b(omega).vector
    origin = frame.coordinates(vec_zero(len(target)))
    for fr in face_of(omega.space_b.cone, target).rays():
        weights = integral_with_scale(vec_sub(frame.coordinates(fr), origin))
        ge += [_row_over(row, d, -c, u) for row, d, c, u in _weighted_rows(weights, rays)]
    return eq, ge


def _section_decoder(
    basis: Sequence[Vector], w: Sequence[Vector], kernel: Sequence[Vector]
) -> Callable[[Vector], AffineSection]:
    """The map from a section program's unknowns to its section: basis point
    i goes to x_i = w_i + K xi_i, with xi_i the i-th block of len(kernel)
    unknowns."""
    kappa = len(kernel)

    def decode(xi: Vector) -> AffineSection:
        images = tuple(
            mat_vec(mat_transpose([wi, *kernel]), (1, *xi[i * kappa:(i + 1) * kappa]))
            for i, wi in enumerate(w)
        )
        return AffineSection(tuple(basis), images)

    return decode


def _section_search_full(
    omega: BipartiteState, verts: Sequence[Vector], basis: Sequence[Vector]
) -> SectionProgram:
    """The section program with w = 0 and K = I, whose unknowns are the basis
    images themselves. Used when the reduced parametrization does not apply.
    K = I does not enforce omega-hat x_i = p_i, so the program keeps the
    value rows, read by the rows of the state's matrix, and its farkas
    certificate covers them explicitly."""
    da = omega.space_a.dim
    m = len(basis)
    # Each functional (r K, r.w_i) is (r, 0) here, written on integers as is.
    zero = ([0] * m, 1)
    rays = [((r, 1), zero) for r in omega.space_a.cone.rays]
    values = [(integral_with_scale(row), zero) for row in omega.matrix]
    eq, ge = _section_rows(omega, verts, basis, rays, values)
    decode = _section_decoder(basis, [vec_zero(da)] * m, mat_identity(da))
    return LinearProgram(m * da, eq=eq, ge=ge), decode


def section_program(omega: BipartiteState) -> SectionProgram:
    """The feasibility program behind affine_section_search, and the map
    from its points to sections. Exposed so an infeasibility certificate can
    be re-checked against the very rows it claims to combine.

    Every section program has one parametrization: the image of basis point
    i is x_i = w_i + K xi_i, and the program's unknowns are the xi. Here w
    holds particular preimages of the basis points and K's columns span the
    kernel of the state's map, so a ray r reads r.x_i = r.w_i + (r K).xi_i:
    the rows are _section_search_full's inequality rows under that
    substitution, row for row, from the functionals (r K, r.w_i). Its value
    rows vanish identically, so the program runs over kernel coefficients
    only. With a trivial kernel, K = () and the program decodes to the one
    candidate, checked as AffineSection.verify checks a section before any
    row is written: if it holds, the program has no unknowns and no rows.
    When a basis point has no preimage, or that candidate fails, the program
    is _section_search_full's instead, with w = 0 and K = I.
    """
    verts = order_interval_vertices(omega.space_b.cone, marginal_b(omega).vector)
    basis = _affine_basis(verts)
    particular: list[Vector] = []
    for p in basis:
        w0 = solve_linear(omega.matrix, p)
        if w0 is None:
            return _section_search_full(omega, verts, basis)
        particular.append(w0)
    kernel = nullspace(omega.matrix, ncols=omega.space_a.dim)
    decode = _section_decoder(basis, particular, kernel)
    if not kernel:
        if not decode(())._holds_on(omega, verts):
            return _section_search_full(omega, verts, basis)
        return LinearProgram(0), decode
    rays = [
        (
            integral_with_scale([vec_dot(k, r) for k in kernel]),
            integral_with_scale([vec_dot(w, r) for w in particular]),
        )
        for r in omega.space_a.cone.rays
    ]
    _, ge = _section_rows(omega, verts, basis, rays)
    return LinearProgram(len(basis) * len(kernel), ge=ge), decode


def _polytope_dimension(lp: LinearProgram) -> tuple[int, tuple[Vector, Vector] | None]:
    """Dimension of the nonempty, bounded polytope cut out by lp's rows, and
    the minimizer and maximizer of the first functional that varies on it.

    Each step maximizes and minimizes a functional c orthogonal to every row
    of `found`. If c varies, the gap between its optima joins `found`;
    otherwise c does. Gaps lie in the polytope's direction space and the
    constant functionals in its orthogonal complement, and each step adds a
    row independent of the others, so after n steps the gaps number exactly
    the dimension. Until the first gap, c runs through e1, e2, ... in order.
    Every program shares lp's row tuples; only the objective changes.
    """
    n = lp.n_vars
    found: list[Vector] = []
    dimension = 0
    first = None
    for _ in range(n):
        c = nullspace(found, ncols=n)[0]
        hi = lp_optimize(LinearProgram(n, eq=lp.eq, ge=lp.ge, objective=c))
        lo = lp_optimize(LinearProgram(n, eq=lp.eq, ge=lp.ge, objective=vec_scale(-1, c)))
        if hi.status != "optimal" or lo.status != "optimal":
            raise RuntimeError("internal: the polytope must be nonempty and bounded")
        if hi.value == -lo.value:
            found.append(c)
            continue
        found.append(vec_sub(hi.witness, lo.witness))
        dimension += 1
        if first is None:
            first = (lo.witness, hi.witness)
    return dimension, first


def affine_section_search(omega: BipartiteState) -> SectionSearch:
    """Search for an affine, order-preserving right inverse of the state's
    map from [0, marginal] into [0, u_A]; such a section forces every
    ensemble of every length to lift. Reports the feasible set's dimension
    and, when it is positive, a second distinct section.
    """
    program, decode = section_program(omega)
    out = lp_feasible(program)
    if out.status != "feasible":
        return SectionSearch(None, farkas=out.farkas)
    dimension, first = _polytope_dimension(program)
    if first is None:
        return SectionSearch(decode(out.witness), dimension=0)
    lo, hi = first
    return SectionSearch(decode(lo), dimension=dimension, alternate=decode(hi))


def adjoint_state(omega: BipartiteState) -> BipartiteState:
    """The same bilinear form read in the other order: the map B* -> A.

    Steering of the A marginal is steering of this state's B marginal."""
    return BipartiteState(
        omega.space_b, omega.space_a, mat_transpose(omega.matrix)
    )


def bisteering(
    omega: BipartiteState, depth: int = 3
) -> tuple[SteeringVerdict, SteeringVerdict]:
    """Steering verdicts for the A marginal and the B marginal, in that order:
    the paper's steering, of either marginal."""
    return (
        decide_steering(adjoint_state(omega), depth),
        decide_steering(omega, depth),
    )


def injective_steering_implies_iso(omega: BipartiteState, depth: int = 2) -> bool:
    """Cross-check: an injective map steering an interior marginal must be an
    order isomorphism. Returns whether that implication held here.

    This is the lemma behind acceptance criterion 9 and the interior-state
    step of the paper's theorem: a state on two copies of A that steers an
    interior state is an isomorphism state."""
    if nullspace(list(omega.matrix), ncols=omega.space_a.dim):
        raise ValueError("the cross-check needs an injective map")
    target = marginal_b(omega).vector
    if not omega.space_b.cone.interior_contains(target):
        raise ValueError("the cross-check needs an interior marginal")
    steering = bool(decide_steering(omega, depth))
    iso = is_isomorphism_state(omega) is not None
    return iso or not steering


@dataclass(frozen=True)
class ScanEntry:
    state: Vector
    status: str
    verdict: SteeringVerdict | None = None


@dataclass(frozen=True)
class SelfSteeringReport:
    """Grid survey of which states arise as marginals of steering states on
    two copies of the space, cross-checked against the structural criteria
    that predict when the survey can succeed everywhere."""

    entries: tuple[ScanEntry, ...]
    homogeneous: HomogeneityVerdict
    weakly_self_dual: bool
    predicted_universal: bool
    all_steered: bool
    consistent: bool


def universal_self_steering_scan(
    space: StateSpace, grid: Sequence[Sequence], depth: int = 2
) -> SelfSteeringReport:
    entries: list[ScanEntry] = []
    for raw in grid:
        alpha = as_vector(raw)
        if vec_dot(space.unit, alpha) != 1 or not space.cone.contains(alpha):
            raise ValueError("grid entries must be normalized states")
        if space.cone.interior_contains(alpha):
            omega = purify(space, alpha)
            if omega is None:
                entries.append(ScanEntry(alpha, "no_purification"))
                continue
            verdict = decide_steering(omega, depth)
            status = "steered" if verdict else "purification_not_steering"
            entries.append(ScanEntry(alpha, status, verdict))
        elif is_extremal(space.cone, alpha):
            omega = BipartiteState.from_products(
                space, space, [(Fraction(1), alpha, alpha)]
            )
            verdict = decide_steering(omega, depth)
            status = "steered" if verdict else "product_not_steering"
            entries.append(ScanEntry(alpha, status, verdict))
        else:
            entries.append(ScanEntry(alpha, "no_witness_found"))
    hom = is_homogeneous(space)
    wsd = is_weakly_self_dual(space) is not None
    predicted = hom.status == "yes" and wsd
    all_steered = all(e.status == "steered" for e in entries)
    interior = [
        e
        for e in entries
        if space.cone.interior_contains(e.state)
    ]
    # Only the positive prediction is refutable by a finite grid: when the
    # structural criteria hold, every interior grid state must steer. A grid
    # where all samples steer never contradicts a negative prediction, since
    # the failing marginal may simply lie off the grid.
    consistent = not predicted or all(e.status == "steered" for e in interior)
    return SelfSteeringReport(
        entries=tuple(entries),
        homogeneous=hom,
        weakly_self_dual=wsd,
        predicted_universal=predicted,
        all_steered=all_steered,
        consistent=consistent,
    )
