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
from typing import Callable, Iterator, Sequence

from .composite import BipartiteState, is_isomorphism_state, marginal_b, purify
from .cone import PolyhedralCone, face_of, is_extremal
from .dd import polytope_vertices
from .ratlin import (
    LinearProgram,
    Vector,
    as_vector,
    independent_rows,
    integral_with_scale,
    lp_feasible,
    lp_optimize,
    mat_transpose,
    mat_vec,
    nullspace,
    solve_linear,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .space import (
    Effect,
    HomogeneityVerdict,
    Observable,
    StateSpace,
    effects_interval,
    is_homogeneous,
    is_weakly_self_dual,
)

_ZERO = Fraction(0)


def order_interval_vertices(cone: PolyhedralCone, top: Sequence) -> tuple[Vector, ...]:
    """Vertices of the order interval [0, top] = {y : y >= 0, top - y >= 0}.

    Its rows come in pairs g.y >= 0, -g.y >= -g.top that are both tight at
    top/2 exactly when g.top = 0, so top/2 certifies the hull."""
    top = as_vector(top)
    if not cone.contains(top):
        raise ValueError("interval top must lie in the cone")
    rows = []
    for g in cone.facets:
        rows.append((g, 0))
        rows.append((tuple(-c for c in g), -vec_dot(g, top)))
    return tuple(polytope_vertices(rows, vec_scale(Fraction(1, 2), top)))


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
    against the very rows it claims to combine."""
    space_a = omega.space_a
    da, db = space_a.dim, omega.space_b.dim
    k = len(e.parts)
    n = k * da
    ge: list[tuple[Vector, Fraction]] = []
    for i in range(k):
        for r in space_a.cone.rays:
            row = [Fraction(0)] * n
            for c in range(da):
                row[i * da + c] = Fraction(r[c])
            ge.append((tuple(row), Fraction(0)))
    eq: list[tuple[Vector, Fraction]] = []
    for c in range(da):
        row = [Fraction(0)] * n
        for i in range(k):
            row[i * da + c] = Fraction(1)
        eq.append((tuple(row), Fraction(space_a.unit[c])))
    for i, part in enumerate(e.parts):
        for j in range(db):
            row = [Fraction(0)] * n
            for c in range(da):
                row[i * da + c] = omega.matrix[j][c]
            eq.append((tuple(row), part[j]))
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


def _is_conic_combination(
    point: Sequence, generators: Sequence[Vector], convex: bool = False
) -> bool:
    """Whether point is a nonnegative combination of the generators, with
    weights summing to one when convex: one feasibility LP."""
    n = len(generators)
    eq = [(tuple(g[c] for g in generators), point[c]) for c in range(len(point))]
    if convex:
        eq.append(((1,) * n, 1))
    ge = [(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]
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
        if not others or not _is_conic_combination(p, others, convex=True):
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
    return all(_is_conic_combination(fr, images) for fr in face.rays())


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
        target = marginal_b(omega).vector
        for y in order_interval_vertices(omega.space_b.cone, target):
            x = self.apply(y)
            if omega.apply(x) != y or not omega.space_a.is_effect(x):
                return False
        # Monotonicity: the linear part must carry face directions to
        # nonnegative functionals, so chains map to chains.
        face = face_of(omega.space_b.cone, target)
        zero = (Fraction(0),) * omega.space_b.dim
        base = self.apply(zero)
        for fr in face.rays():
            step = vec_sub(self.apply(fr), base)
            for r in omega.space_a.cone.rays:
                if vec_dot(step, as_vector(r)) < 0:
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


def _section_search_full(
    omega: BipartiteState, verts: Sequence[Vector], basis: Sequence[Vector]
) -> SectionProgram:
    """The section program over the raw basis images, one block of unknowns
    per basis point. Used when the reduced parametrization does not apply;
    its farkas certificate covers the value constraints explicitly.

    Each row j of the state's matrix is scaled once to integers M_j / t_j,
    and each vertex's affine coordinates to L / s; the rays of the A cone
    are integers already. Every entry is then one reduced Fraction, as
    Fraction(L_i * M_jc, s * t_j) or Fraction(L_i * r_c, s).
    """
    space_a, space_b = omega.space_a, omega.space_b
    da = space_a.dim
    m = len(basis)
    n = m * da
    frame = AffineSection(tuple(basis), ())
    matrix = [integral_with_scale(row) for row in omega.matrix]
    rays = space_a.cone.rays
    bounds = [vec_dot(space_a.unit, as_vector(r)) for r in rays]

    eq: list[tuple[Vector, Fraction]] = []
    ge: list[tuple[Vector, Fraction]] = []
    for y in verts:
        lam, s = integral_with_scale(frame.coordinates(y))
        for (mj, t), yj in zip(matrix, y):
            row = [_ZERO] * n
            for i, li in enumerate(lam):
                if li:
                    for c, mc in enumerate(mj, i * da):
                        if mc:
                            row[c] = Fraction(li * mc, s * t)
            eq.append((tuple(row), Fraction(yj)))
        for r, bound in zip(rays, bounds):
            low = [_ZERO] * n
            high = [_ZERO] * n
            for i, li in enumerate(lam):
                if li:
                    for c, rc in enumerate(r, i * da):
                        if rc:
                            low[c] = Fraction(li * rc, s)
                            high[c] = Fraction(-li * rc, s)
            ge.append((tuple(low), _ZERO))
            ge.append((tuple(high), -bound))
    face = face_of(space_b.cone, marginal_b(omega).vector)
    diffs = mat_transpose([vec_sub(p, basis[0]) for p in basis[1:]])
    for fr in face.rays():
        coeff = solve_linear(diffs, fr)
        if coeff is None:
            continue
        # Basis point i > 0 weighs the ray by coeff[i - 1] = C / s, and the
        # base point by minus their sum.
        weights, s = integral_with_scale(coeff)
        weights.insert(0, -sum(weights))
        for r in rays:
            row = [_ZERO] * n
            for i, w in enumerate(weights):
                if w:
                    for c, rc in enumerate(r, i * da):
                        if rc:
                            row[c] = Fraction(w * rc, s)
            ge.append((tuple(row), _ZERO))

    def decode(w: Vector) -> AffineSection:
        images = tuple(
            tuple(w[i * da + c] for c in range(da)) for i in range(m)
        )
        return AffineSection(tuple(basis), images)

    return LinearProgram(n, eq=eq, ge=ge), decode


def section_program(omega: BipartiteState) -> SectionProgram:
    """The feasibility program behind affine_section_search, and the map
    from its points to sections. Exposed so an infeasibility certificate can
    be re-checked against the very rows it claims to combine.

    The unknown image of each basis point is written as one particular
    preimage plus a combination of kernel directions of the state's map.
    That substitution satisfies the value constraints identically (an affine
    map that inverts the state's map on an affine basis inverts it on the
    whole hull), so the program runs over kernel coefficients only and keeps
    just the membership and monotonicity inequalities. When a basis point
    has no preimage, or the kernel is trivial and the one candidate breaks a
    row, the program is _section_search_full's instead.
    """
    target = marginal_b(omega).vector
    space_a, space_b = omega.space_a, omega.space_b
    da = space_a.dim
    verts = order_interval_vertices(space_b.cone, target)
    basis = _affine_basis(verts)
    m = len(basis)
    frame = AffineSection(tuple(basis), ())

    particular: list[Vector] = []
    for p in basis:
        w0 = solve_linear(omega.matrix, p)
        if w0 is None:
            return _section_search_full(omega, verts, basis)
        particular.append(w0)
    kernel = nullspace(omega.matrix, ncols=da)
    kappa = len(kernel)
    n = m * kappa

    # Rows over the kernel coefficients: image of each interval vertex sits
    # in [0, u_A], and the linear part sends the marginal's face into the
    # positive cone.
    ge: list[tuple[Vector, Fraction]] = []
    particular_cols = mat_transpose(particular)
    for y in verts:
        lam = frame.coordinates(y)
        base_pt = mat_vec(particular_cols, lam)
        for r in space_a.cone.rays:
            rv = as_vector(r)
            bound = vec_dot(space_a.unit, rv)
            const = vec_dot(base_pt, rv)
            low = [_ZERO] * n
            for i in range(m):
                for t in range(kappa):
                    low[i * kappa + t] = lam[i] * vec_dot(kernel[t], rv)
            ge.append((tuple(low), -const))
            ge.append((tuple(-x for x in low), const - bound))
    face = face_of(space_b.cone, target)
    diffs = mat_transpose([vec_sub(p, basis[0]) for p in basis[1:]])
    steps = mat_transpose([vec_sub(w, particular[0]) for w in particular[1:]])
    for fr in face.rays():
        coeff = solve_linear(diffs, fr)
        if coeff is None:
            continue
        step = mat_vec(steps, coeff)
        for r in space_a.cone.rays:
            rv = as_vector(r)
            const = vec_dot(step, rv)
            row = [_ZERO] * n
            for i in range(1, m):
                for t in range(kappa):
                    kr = coeff[i - 1] * vec_dot(kernel[t], rv)
                    row[i * kappa + t] += kr
                    row[0 * kappa + t] -= kr
            ge.append((tuple(row), -const))
    # With a trivial kernel the rows have no unknowns: they hold exactly
    # when no right-hand side is positive, and then nothing is left to solve.
    if kappa == 0:
        if any(rhs > 0 for _, rhs in ge):
            return _section_search_full(omega, verts, basis)
        ge = []

    def decode(xi: Vector) -> AffineSection:
        # Basis point i maps to its particular preimage plus the kernel
        # combination with coefficients xi[i * kappa:(i + 1) * kappa].
        images = tuple(
            mat_vec(mat_transpose([w, *kernel]), (1, *xi[i * kappa:(i + 1) * kappa]))
            for i, w in enumerate(particular)
        )
        return AffineSection(tuple(basis), images)

    return LinearProgram(n, ge=ge), decode


def _polytope_dimension(lp: LinearProgram) -> tuple[int, tuple[Vector, Vector] | None]:
    """Dimension of the nonempty, bounded polytope cut out by lp's rows, and
    the minimizer and maximizer of the first functional that varies on it.

    Each step maximizes and minimizes a functional c orthogonal to every row
    of `found`. If c varies, the gap between its optima joins `found`;
    otherwise c does. Gaps lie in the polytope's direction space and the
    constant functionals in its orthogonal complement, and each step adds a
    row independent of the others, so after n steps the gaps number exactly
    the dimension. Until the first gap, c runs through e1, e2, ... in order.
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
