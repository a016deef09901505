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
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterator, Sequence

from .composite import BipartiteState, is_isomorphism_state, marginal_b, purify
from .cone import cone_from_rays, face_of, is_extremal
from .dd import IntVec, int_dot, polytope_vertices
from .ratlin import (
    IntegerSolver,
    LinearProgram,
    Row,
    Vector,
    as_vector,
    independent_rows,
    int_mat_vec,
    integer_rows,
    integral_with_scale,
    lp_feasible,
    lp_optimize,
    mat_identity,
    mat_transpose,
    mat_vec,
    nullspace,
    primitive,
    rank,
    solve_linear,
    vec_dot,
    vec_scale,
    vec_zero,
)
from .space import (
    Effect,
    HomogeneityVerdict,
    Observable,
    StateSpace,
    _splittings,
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
    denominators, and the state's integer rows over the lcm of their scale
    and the part's entry."""
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
    rows, q = omega._rows
    for i, part in enumerate(e.parts):
        for ints, p in zip(rows, part):
            s = lcm(q, p.denominator)
            row = block(i, (x * (s // q) for x in ints))
            eq.append((row, p.numerator * (s // p.denominator), s))
    return LinearProgram(n, eq=eq, ge=ge)


def _forced_lift(omega: BipartiteState, e: Ensemble) -> list[Vector] | None:
    """The preimages of the parts under an injective omega-hat, one per
    part, when every part has one and every preimage is nonnegative on the
    A rays; None otherwise.

    The parts sum to the marginal omega-hat(u_A), so the preimages sum to
    u_A, and each is below u_A because the others are positive: they are
    the lift program's only feasible point. With the matrix Q / q, part
    P / s has preimage q y, where Q y = P / s is solved by the state's
    solver."""
    solver = omega.solver()
    if len(solver.chosen) < omega.space_a.dim:
        return None
    q = omega._rows[1]
    out = []
    for p in e.parts:
        y = solver.solve(*integral_with_scale(p))
        if y is None or not omega.space_a.cone.dual_contains(y[0]):
            return None
        out.append(tuple(Fraction(q * x, y[1]) for x in y[0]))
    return out


def lift_ensemble(omega: BipartiteState, e: Ensemble) -> LiftResult:
    """An observable {a_i} on A with each image omega-hat(a_i) = e.parts[i].

    When omega-hat is injective the lift is forced, a_i = omega-hat^-1 of
    part i, and stands when each a_i is nonnegative on the A rays. Any other
    case runs one exact feasibility LP over the stacked effect coordinates:
    every a_i must be nonnegative on the rays of the A cone, the a_i must
    sum to the order unit, and each must map onto its part. A forced lift
    is that LP's only feasible point, so only refutations and maps with a
    kernel run it, and every failure carries the LP's Farkas vector.
    """
    target = marginal_b(omega).vector
    if not e.is_for(target):
        raise ValueError("the ensemble does not sum to the B marginal")
    space_a = omega.space_a
    lifts = _forced_lift(omega, e)
    if lifts is None:
        out = lp_feasible(ensemble_lift_program(omega, e))
        if out.status != "feasible":
            return LiftResult(None, out.farkas)
        da, w = space_a.dim, out.witness
        lifts = [w[i * da:(i + 1) * da] for i in range(len(e.parts))]
    effects = tuple(Effect(space_a, x) for x in lifts)
    return LiftResult(Observable(space_a, effects), None)


def image_interval(omega: BipartiteState) -> tuple[Vector, ...]:
    """Extreme points of the image of the A-side effect interval.

    An image p is extreme exactly when (p, 1) spans an extreme ray of the
    cone the lifted images generate. Keeping only coordinates independent
    on the lifted images maps that cone one to one onto a regular cone,
    whose extreme rays double description finds; no LP runs."""
    images = list(dict.fromkeys(omega.apply(v) for v in effects_interval(omega.space_a).vertices))
    lifted = [(*p, 1) for p in images]
    cols = independent_rows(mat_transpose(lifted))
    coords = [primitive([v[c] for c in cols]) for v in lifted]
    extreme = set(cone_from_rays(coords, len(cols)).rays)
    return tuple(sorted(p for p, c in zip(images, coords) if c in extreme))


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

    A splitting is given by its first k - 1 parts: for each facet g, the rows
    g.p_i >= 0 and the closing row g.(target - sum p_i) >= 0."""
    verts, scale = _splittings(space.cone, target, k)
    return [_over(parts, scale) for parts in verts]


def _over(parts: Sequence[IntVec], scale: int) -> tuple[Vector, ...]:
    """Integer parts over one positive scale as Fraction parts."""
    return tuple(tuple(Fraction(x, scale) for x in p) for p in parts)


def extremal_ensembles(
    space: StateSpace, target: Sequence, depth: int
) -> Iterator[tuple[int, Ensemble]]:
    """The nonzero parts of each vertex of the k-part splitting polytopes of
    target, k = 2..depth, as ensembles in search order, each once, with the k
    that first meets it.

    The vertices stay integer parts over a common scale. An ensemble's key
    is its sorted nonzero parts and scale, divided by their gcd, so it is
    the same at every k; only an ensemble yielded is built as Fractions.

    No k past max(2, dim B) meets a new ensemble. If the spans of the faces
    whose relative interiors hold a vertex's nonzero parts had dims summing
    past dim B, some d_i in them, not all 0, would sum to 0, and the parts
    +- t d_i would show the vertex a midpoint. So a vertex has at most dim B
    nonzero parts, and they form a vertex at k = max(2, their count)."""
    if depth < 2:
        raise ValueError("the search depth must be at least 2")
    seen: set[tuple[int, tuple[IntVec, ...]]] = set()
    for k in range(2, min(depth, max(2, space.dim)) + 1):
        verts, scale = _splittings(space.cone, target, k)
        for parts in verts:
            nonzero = [p for p in parts if any(p)]
            if not nonzero:
                continue
            g = gcd(scale, *(x for p in nonzero for x in p))
            key = (scale // g, tuple(sorted(tuple(x // g for x in p) for p in nonzero)))
            if key not in seen:
                seen.add(key)
                yield k, Ensemble(space, _over(nonzero, scale))


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

    def __post_init__(self) -> None:
        # Built by the first solve; not a field.
        object.__setattr__(self, "_built", None)

    def _system(self) -> tuple[IntegerSolver, list[int], tuple[list[list[int]], int]]:
        """The solver of [base pointsᵀ; 1] lam = (y, 1), row i scaled to
        integers by s_i, the s_i, and the images as integer columns over one
        positive scale: row c holds coordinate c of every image."""
        built = self._built
        if built is None:
            m = len(self.base_points)
            rows = [integral_with_scale(r) for r in (*mat_transpose(self.base_points), (1,) * m)]
            images = integer_rows(mat_transpose(self.images))
            built = IntegerSolver([a for a, _ in rows]), [s for _, s in rows], images
            object.__setattr__(self, "_built", built)
        return built

    def _weights(self, y: Sequence) -> tuple[list[int], int]:
        """coordinates(y) as integers over one positive denominator."""
        t, q = integral_with_scale((*y, 1))
        return self._weights_over(t, q)

    def _weights_over(self, t: Sequence[int], q: int) -> tuple[list[int], int]:
        """The affine coordinates of the point y with (y, 1) = t / q, t
        integer and q > 0, as integers over one positive denominator. Raises
        ValueError for a point off the base points' affine hull."""
        solver, scales, _ = self._system()
        lam = solver.solve([s * x for s, x in zip(scales, t, strict=True)], q)
        if lam is None:
            raise ValueError("point is outside the section's affine hull")
        return lam

    def coordinates(self, y: Sequence) -> Vector:
        """The weights on the base points that sum to 1 and combine to y."""
        lam, den = self._weights(y)
        return tuple(Fraction(x, den) for x in lam)

    def apply(self, y: Sequence) -> Vector:
        lam, den = self._weights(y)
        rows, q = self._system()[2]
        return int_mat_vec(rows, lam, q * den)

    def verify(self, omega: BipartiteState) -> bool:
        """Whether this is a section of omega over omega's section frame:
        the frame's base points in the same order, one image each, holding
        as _holds checks. The frame is kept on omega, so [0, marginal] is
        enumerated once per state, however many sections are searched for
        and verified on it."""
        ok = tuple(self.base_points) == _interval_basis(omega)[2].base_points
        return ok and len(self.images) == len(self.base_points) and self._holds(omega)

    def _holds(self, omega: BipartiteState) -> bool:
        """Whether every y in [0, marginal] goes to an effect x(y) mapping
        onto y, checked at the interval's ends, for a section over the base
        points of omega's section frame (verify checks that first).

        Each image maps onto its base point, so omega-hat x = id on the
        interval's hull by affinity. Each face ray of the marginal goes to a
        step nonnegative on the A rays, so the linear part L of x is positive
        on the marginal's face F. Every y in [0, marginal] has y and
        marginal - y in F, so x(0) <= x(0) + L y = x(y) <= x(marginal), and
        x(y) is an effect once x(0) and x(marginal) are."""
        target, _, _, steps = _interval_basis(omega)
        rows = self._system()[2][0]  # refuses ragged images before any check
        if any(omega.apply(x) != p for x, p in zip(self.images, self.base_points)):
            return False
        zero = vec_zero(len(target))
        if not all(omega.space_a.is_effect(self.apply(y)) for y in (zero, target)):
            return False
        # Each step apply(fr) - apply(0), times a positive scale.
        dual_contains = omega.space_a.cone.dual_contains
        return all(dual_contains([sum(map(mul, row, lam)) for row in rows]) for lam, _ in steps)


@dataclass(frozen=True)
class SectionSearch:
    """Feasibility report for affine sections over the marginal's interval."""

    section: AffineSection | None
    dimension: int | None = None
    alternate: AffineSection | None = None
    farkas: Vector | None = None

    def __bool__(self) -> bool:
        return self.section is not None


SectionProgram = tuple[LinearProgram, Callable[[Vector], AffineSection]]
# Integer rows over one positive scale: row / scale is the rational row.
ScaledRows = tuple[Sequence[Sequence[int]], int]
# A state's marginal, interval, affine basis and face-ray step weights.
SectionFrame = tuple[Vector, ScaledRows, AffineSection, list[tuple[list[int], int]]]


def _affine_basis(points: Sequence[Sequence]) -> list[int]:
    """The indices of the points affinely independent of the points before
    them: p_0..p_k are affinely independent exactly when the rows (p_i, 1)
    are linearly independent. Scaling every point by one positive factor
    keeps that, so integer rows over a common scale pick the points they
    stand for."""
    return independent_rows([(*p, 1) for p in points])


def _interval_basis(omega: BipartiteState) -> SectionFrame:
    """omega's section frame, derived on the first call and kept on omega:
    its marginal on B, the vertices of [0, marginal] as integer rows over one
    positive scale, the affine basis they give as an AffineSection with no
    images (its coordinates are the frame's), and per face ray fr of the
    marginal the step weights coordinates(fr) - coordinates(0) as integers
    over one positive scale. The interval is enumerated once, and read as
    integer rows once."""
    frame = omega._frame
    if frame is None:
        target = marginal_b(omega).vector
        verts = order_interval_vertices(omega.space_b.cone, target)
        rows, s = integer_rows(verts)
        coords = AffineSection(tuple(verts[i] for i in _affine_basis(rows)), ())
        base, b = coords._weights_over((0,) * len(target) + (1,), 1)
        steps = []
        for fr in face_of(omega.space_b.cone, target).rays():
            lam, d = coords._weights_over((*fr, 1), 1)
            steps.append(([x * b - y * d for x, y in zip(lam, base)], b * d))
        frame = target, (rows, s), coords, steps
        object.__setattr__(omega, "_frame", frame)
    return frame


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
    omega: BipartiteState, rays: Sequence, values: Sequence = ()
) -> tuple[list[Row], list[Row]]:
    """The eq and ge rows of a section program over omega's section frame,
    one block of unknowns per basis point, read by each A ray through `rays`
    and by each row of the state's matrix through `values`. The interval's
    vertices come as integer rows v over one positive scale s, so each
    vertex is read as (v / s, 1) = (v, s) / s for its affine coordinates,
    with no Fraction built.

    At each interval vertex, the image sum_i lam_i x_i over its affine
    coordinates must map to the vertex and lie in [0, u_A], the bound u_A.r
    read off ``StateSpace._unit_on_rays``. Each face ray of the marginal,
    weighed by its step weights (the interval's hull is a linear space
    holding every face ray), must go to a functional nonnegative on the A
    rays. Every row has the rational value the Fraction builders wrote, at
    some integer scale."""
    _, (verts, s), coords, steps = _interval_basis(omega)
    units, t = omega.space_a._unit_on_rays
    eq: list[Row] = []
    ge: list[Row] = []
    for v in verts:
        lam = coords._weights_over((*v, s), s)
        # Value rows: row = v_j / s - constant; ray rows: 0 <= row + constant <= U_r / t.
        for (row, d, c, u), x in zip(_weighted_rows(lam, values), v):
            eq.append(_row_over(row, d, x * u - c * s, s * u))
        for (row, d, c, u), bound in zip(_weighted_rows(lam, rays), units):
            ge.append(_row_over(row, d, -c, u))
            ge.append(_row_over([-x for x in row], d, c * t - bound * u, t * u))
    for step in steps:
        ge += [_row_over(row, w, -c, u) for row, w, c, u in _weighted_rows(step, rays)]
    return eq, ge


def _parametrized_program(
    omega: BipartiteState, w: Sequence[Vector], kernel: Sequence[Vector], values: Sequence = ()
) -> SectionProgram:
    """The section program whose unknowns xi send basis point i to
    x_i = w_i + K xi_i, xi_i the i-th block of len(kernel) unknowns and K's
    columns the kernel vectors, and the map from its points to sections. A
    ray r reads r.x_i = r.w_i + (r K).xi_i, so the ge rows are
    _section_rows' from the functionals (r K, r.w_i), each read on K and w
    scaled to integers once; `values` passes through as the value
    functionals."""
    k_rows, k_scale = integer_rows(kernel)
    w_rows, w_scale = integer_rows(w)
    rays = [
        (([int_dot(k, r) for k in k_rows], k_scale), ([int_dot(x, r) for x in w_rows], w_scale))
        for r in omega.space_a.cone.rays
    ]
    eq, ge = _section_rows(omega, rays, values)
    basis, kappa = _interval_basis(omega)[2].base_points, len(kernel)

    def decode(xi: Vector) -> AffineSection:
        images = tuple(
            mat_vec(mat_transpose([wi, *kernel]), (1, *xi[i * kappa:(i + 1) * kappa]))
            for i, wi in enumerate(w)
        )
        return AffineSection(basis, images)

    return LinearProgram(len(w) * kappa, eq=eq, ge=ge), decode


def _section_search_full(omega: BipartiteState) -> SectionProgram:
    """The parametrized program at w = 0 and K = I, whose unknowns are the
    basis images themselves, on omega's section frame. Used when the
    reduced parametrization does not apply.
    K = I does not enforce omega-hat x_i = p_i, so the program keeps the
    value rows, read by the rows of the state's matrix, and its farkas
    certificate covers them explicitly."""
    da = omega.space_a.dim
    m = len(_interval_basis(omega)[2].base_points)
    # Each value functional (row K, row.w_i) is (row, 0) here.
    rows, q = omega._rows
    values = [((row, q), ([0] * m, 1)) for row in rows]
    return _parametrized_program(omega, [vec_zero(da)] * m, mat_identity(da), values)


def section_program(omega: BipartiteState) -> SectionProgram:
    """The feasibility program behind affine_section_search, and the map
    from its points to sections. Exposed so an infeasibility certificate can
    be re-checked against the very rows it claims to combine.

    Every section program has _parametrized_program's parametrization on
    omega's section frame: the image of basis point i is x_i = w_i + K xi_i,
    and the program's unknowns are the xi. Here w holds particular
    preimages of the basis points and K's columns span the kernel of the
    state's map, so the value rows vanish identically and the program runs
    over kernel coefficients only. With a trivial kernel, K = () and the one
    candidate section sends each basis point to its preimage; it is checked
    by AffineSection._holds, as verify checks a section, before any row is
    written: if it holds, the program has no unknowns and no rows and
    decodes to that candidate. When a basis point has no preimage, or that
    candidate fails, the program is _section_search_full's instead, with
    w = 0 and K = I and the value rows.
    """
    basis = _interval_basis(omega)[2].base_points
    particular: list[Vector] = []
    for p in basis:
        w0 = solve_linear(omega.matrix, p)
        if w0 is None:
            return _section_search_full(omega)
        particular.append(w0)
    kernel = nullspace(omega.matrix, ncols=omega.space_a.dim)
    if kernel:
        return _parametrized_program(omega, particular, kernel)
    candidate = AffineSection(basis, tuple(particular))
    if not candidate._holds(omega):
        return _section_search_full(omega)
    return LinearProgram(0), lambda xi: candidate


def _polytope_dimension(lp: LinearProgram) -> tuple[int, tuple[Vector, Vector] | None]:
    """Dimension of the nonempty, bounded polytope cut out by lp's rows, and
    the minimizer and maximizer of the first coordinate that varies on it.

    The dimension is that of the affine hull of the polytope's vertices, an
    eq row entering their enumeration as a pair of opposite rows. The first
    coordinate e_k on which two vertices differ is optimized both ways over
    lp's own rows: the only two LPs that run.
    """
    n = lp.n_vars
    rows = [(a, b) for a, b, _ in lp.ge]
    rows += [r for a, b, _ in lp.eq for r in ((a, b), (tuple(-x for x in a), -b))]
    verts = polytope_vertices(rows, n)
    if len(verts) == 1:
        return 0, None
    k = next(c for c in range(n) if any(v[c] != verts[0][c] for v in verts))
    e = tuple(int(i == k) for i in range(n))
    hi = lp_optimize(LinearProgram(n, eq=lp.eq, ge=lp.ge, objective=e))
    lo = lp_optimize(LinearProgram(n, eq=lp.eq, ge=lp.ge, objective=vec_scale(-1, e)))
    return rank([(*v, 1) for v in verts]) - 1, (lo.witness, hi.witness)


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
    if len(omega.solver().chosen) < omega.space_a.dim:
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
