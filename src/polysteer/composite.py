"""Bipartite states as positive maps, tensor cones, purity, purification.

A bipartite state over state spaces A and B is stored as the matrix of the
map A* -> B it induces; pairing against an A-effect and a B-facet is matrix
arithmetic. The two canonical composite cones (largest and smallest) are
built from facet products and ray products respectively, and purity in the
largest composite is decided as extremality of the induced map, by the rank
of the decomposition polytope's tight rows; at most one exact LP runs, only
to find a refuted map's summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .cone import (
    Face,
    IntVec,
    PackedRows,
    PolyhedralCone,
    _integral,
    all_faces,
    cone_from_facets,
    cone_from_rays,
    dual_cone,
    face_of,
    is_extremal,
)
from .dd import Start, int_dot, simplicial_start
from .ratlin import (
    IntegerSolver,
    LinearProgram,
    Matrix,
    Vector,
    as_matrix,
    as_vector,
    independent_rows,
    int_mat_vec,
    integer_rows,
    integral_with_scale,
    invert,
    lp_optimize,
    mat_mul,
    mat_transpose,
    mat_vec,
    nullspace,
    vec_dot,
    vec_scale,
    vec_zero,
)
from .space import (
    Effect,
    OrderIsoWitness,
    State,
    StateSpace,
    isomorphism_carrying,
    pair_ray_images,
)


def kron_vec(x: Sequence, y: Sequence) -> Vector | IntVec:
    """Flatten x (x) y with the B index running fastest.

    When every entry of both factors is a plain ``int`` (not ``bool``), as
    in stored rays and facets, the products are ``int``s; otherwise both
    factors are read with ``as_vector`` and the products are Fractions."""
    x, y = tuple(x), tuple(y)
    if {*map(type, x), *map(type, y)} != {int}:
        x, y = as_vector(x), as_vector(y)
    return tuple([xi * yj for xi in x for yj in y])


@dataclass(frozen=True)
class TensorSpace:
    factor_a: StateSpace
    factor_b: StateSpace
    kind: str
    cone: PolyhedralCone
    unit: Vector

    def state_space(self) -> StateSpace:
        return StateSpace(self.cone, self.unit)


def _products(fs: Sequence[IntVec], gs: Sequence[IntVec]) -> list[IntVec]:
    """Every f (x) g as an integer tuple, B index fastest: what ``kron_vec``
    gives each pair, with no per-pair type check, since the stored rays and
    facets are all ``int``.

    The products come in blocks, one per row of the outer factor, the one
    with fewer rows (fs on a tie): every product of its first row, then of
    its second, and so on. Double description in input order runs well over
    such blocks (see ``dd``), and better with fewer, larger blocks: from the
    first independent product rows, min cube (x) octahedron, in dimension
    16, takes 0.05 s with the octahedron's 6 rays outer and 0.25 s with the
    cube's 8."""
    if len(gs) < len(fs):
        return [tuple(x * y for x in f for y in g) for g in gs for f in fs]
    return [tuple(x * y for x in f for y in g) for f in fs for g in gs]


def _seeded_products(
    fs: Sequence[IntVec],
    gs: Sequence[IntVec],
    f_duals: Sequence[IntVec],
    g_duals: Sequence[IntVec],
) -> tuple[list[IntVec], Start]:
    """The rows ``_products(fs, gs)`` and a start of double description on
    them: the cone that the outer factor's independent rows' blocks cut out.

    fs and gs are the rows of two regular cones, and f_duals and g_duals
    the extreme rays of the cones those rows cut out: a factor's stored
    rays when its rows are its facets, its facets when they are its rays.
    Let O be the outer factor and N the other, I the rows of O that
    ``dd.simplicial_start`` picks and R_i its rays, so that R_i.o_j = 0 for
    j in I but i and R_i.o_i > 0. Every x is the sum of R_i (x) y_i over I
    for one set of y_i, and (o_j (x) n).x = (o_j.R_j)(n.y_j), so the rows
    of the blocks of I cut out the direct sum of |I| copies of N's cone.
    Its extreme rays are R_i (x) h, h running over N's duals; each is
    primitive, as the gcd of a product is the product of the gcds, and is
    tight on the row of (o_j, n) exactly when j != i or n.h = 0. Double
    description then inserts only the blocks of O's other rows; when O is
    simplicial there are none and the start is the whole cone.
    """
    rows = _products(fs, gs)
    swap = len(gs) < len(fs)
    outer, inner, duals = (gs, fs, f_duals) if swap else (fs, gs, g_duals)
    base, outer_rays, _ = simplicial_start(outer, len(outer[0]))
    k = len(inner)
    block = (1 << k) - 1
    full = sum(block << j * k for j in base)
    tight = [sum(1 << l for l, n in enumerate(inner) if int_dot(n, h) == 0) for h in duals]
    rays, masks = [], []
    for i, r in zip(base, outer_rays):
        rest = full ^ block << i * k
        for h, t in zip(duals, tight):
            a, b = (h, r) if swap else (r, h)
            rays.append(tuple(x * y for x in a for y in b))
            masks.append(rest | t << i * k)
    return rows, ([j * k + l for j in base for l in range(k)], rays, masks)


def max_tensor(a: StateSpace, b: StateSpace) -> TensorSpace:
    """The largest composite: everything nonnegative on product effects.

    Its facet rows are the integer products of the factors' stored facets.
    Those are primitive, and so is each product, since the gcd of the
    entries f_i g_j is gcd(f) gcd(g) = 1; no rational arithmetic runs.
    Double description starts from the direct sum ``_seeded_products``
    builds and inserts the other blocks in order: max square (x) cube
    inserts only the last square facet's block, 24 rays to 128, in 2.2 ms,
    against 2.6 ms block by block from the first independent product rows.
    Max octahedron² takes 0.2 s either way, as its last blocks cost the
    most; it took 16 to 20 s when each next row was the one that cuts off
    the most."""
    facets, start = _seeded_products(a.cone.facets, b.cone.facets, a.cone.rays, b.cone.rays)
    cone = cone_from_facets(facets, a.dim * b.dim, start)
    return TensorSpace(a, b, "max", cone, kron_vec(a.unit, b.unit))


def min_tensor(a: StateSpace, b: StateSpace) -> TensorSpace:
    """The smallest composite: generated by the product states.

    Its generator rows are the integer products of the factors' stored
    rays, primitive for the reason given in ``max_tensor``, and double
    description starts from the direct sum of copies of the inner factor's
    dual cone that ``_seeded_products`` builds. Min cube², 64 rays in
    dimension 16, then inserts 32 rows instead of 48 and still peaks at
    1,044 intermediate rays; it peaked at 10,516 when each next row was
    the one that cuts off the most."""
    rays, start = _seeded_products(a.cone.rays, b.cone.rays, a.cone.facets, b.cone.facets)
    cone = cone_from_rays(rays, a.dim * b.dim, start)
    return TensorSpace(a, b, "min", cone, kron_vec(a.unit, b.unit))


def intermediate_tensor(
    a: StateSpace, b: StateSpace, rays: Sequence[Sequence]
) -> TensorSpace:
    """A user-chosen composite cone, validated to lie between min and max.

    This is the paper's composite AB: any cone between the min and max
    tensor products that contains every product state. The largest
    composite is cut out by the product facets, so each ray is tested
    against them, packed once, with no conversion of the largest
    composite."""
    dim = a.dim * b.dim
    product_facets = PackedRows(_products(a.cone.facets, b.cone.facets))
    for r in rays:
        if not product_facets.holds(_integral(r, dim)):
            raise ValueError(f"ray {tuple(r)} falls outside the largest composite")
    cone = cone_from_rays(rays, dim)
    if not all(cone.contains(p) for p in _products(a.cone.rays, b.cone.rays)):
        raise ValueError("composite cone does not contain all product states")
    return TensorSpace(a, b, "custom", cone, kron_vec(a.unit, b.unit))


@dataclass(frozen=True)
class BipartiteState:
    """A positive bilinear form, held as the matrix of the map A* -> B."""

    space_a: StateSpace
    space_b: StateSpace
    matrix: Matrix

    def __post_init__(self) -> None:
        m = as_matrix(self.matrix)
        if len(m) != self.space_b.dim or any(
            len(row) != self.space_a.dim for row in m
        ):
            raise ValueError("matrix shape must be dim(B) x dim(A)")
        # One positive scale makes the matrix integral and keeps the sign of
        # every facet of B on the image of every facet of A.
        rows, q = integer_rows(m)
        facets_b = self.space_b.cone._packed_facets
        for f in self.space_a.cone.facets:
            if not facets_b.holds([int_dot(row, f) for row in rows]):
                raise ValueError(
                    "map sends a dual extreme ray outside the B cone; "
                    "the form is not positive"
                )
        object.__setattr__(self, "matrix", m)
        # matrix = rows / q; not a field, so not in eq, hash or repr.
        object.__setattr__(self, "_rows", (rows, q))
        object.__setattr__(self, "_solver", None)  # built by solver()
        object.__setattr__(self, "_frame", None)  # built by steering._interval_basis

    def solver(self) -> IntegerSolver:
        """The solver of the map's integer rows, built on the first call."""
        if self._solver is None:
            object.__setattr__(self, "_solver", IntegerSolver(self._rows[0]))
        return self._solver

    def apply(self, a: Sequence) -> Vector:
        rows, q = self._rows
        x, t = integral_with_scale(a)
        return int_mat_vec(rows, x, q * t)

    def pairing(self, a: Sequence, b: Sequence) -> Fraction:
        return vec_dot(as_vector(b), self.apply(a))

    @property
    def normalization(self) -> Fraction:
        return self.pairing(self.space_a.unit, self.space_b.unit)

    def as_tensor_vector(self) -> Vector:
        db = self.space_b.dim
        return tuple(
            self.matrix[j][i]
            for i in range(self.space_a.dim)
            for j in range(db)
        )

    @classmethod
    def from_tensor_vector(
        cls, a: StateSpace, b: StateSpace, flat: Sequence
    ) -> "BipartiteState":
        flat = as_vector(flat)
        if len(flat) != a.dim * b.dim:
            raise ValueError("tensor vector has the wrong length")
        m = tuple(
            tuple(flat[i * b.dim + j] for i in range(a.dim)) for j in range(b.dim)
        )
        return cls(a, b, m)

    @classmethod
    def from_products(
        cls,
        a: StateSpace,
        b: StateSpace,
        terms: Sequence[tuple[Fraction, Sequence, Sequence]],
    ) -> "BipartiteState":
        """Sum of weighted product states: each term is (weight, alpha, beta)."""
        terms = [(Fraction(w), as_vector(alpha), as_vector(beta)) for w, alpha, beta in terms]
        for n, (_, alpha, beta) in enumerate(terms):
            if (len(alpha), len(beta)) != (a.dim, b.dim):
                raise ValueError(f"product term {n} has lengths ({len(alpha)}, {len(beta)}), "
                                 f"not the dimensions ({a.dim}, {b.dim})")
        m = [[sum(w * beta[j] * alpha[i] for w, alpha, beta in terms) for i in range(a.dim)]
             for j in range(b.dim)]
        return cls(a, b, m)


def marginal_b(omega: BipartiteState) -> State:
    return State(omega.space_b, omega.apply(omega.space_a.unit))


def marginal_a(omega: BipartiteState) -> State:
    """The A marginal omega^A, the state that steering of A splits."""
    mt = mat_transpose(omega.matrix)
    return State(omega.space_a, mat_vec(mt, omega.space_b.unit))


def conditional_state(
    omega: BipartiteState, effect: Union[Effect, Sequence]
) -> State | None:
    """The conditional state omega_{B|a} of the paper's steering definition:
    the image of the effect a, normalized; None when a has probability 0."""
    f = effect.functional if isinstance(effect, Effect) else as_vector(effect)
    if not omega.space_a.is_effect(f):
        raise ValueError("conditioning requires an effect on the A side")
    v = omega.apply(f)
    if all(x == 0 for x in v):
        return None
    total = vec_dot(omega.space_b.unit, v)
    return State(omega.space_b, vec_scale(Fraction(1) / total, v))


def is_isomorphism_state(omega: BipartiteState) -> OrderIsoWitness | None:
    """Witness that the induced map is an order isomorphism A* -> B, if it is."""
    source = dual_cone(omega.space_a.cone)
    target = omega.space_b.cone
    rows, q = omega._rows
    pairing = pair_ray_images(rows, q, source.rays, target.rays)
    if pairing is None:
        return None
    witness = OrderIsoWitness(omega.matrix, *pairing)
    return witness if witness.verify(source, target) else None


@dataclass(frozen=True)
class ExtremalityResult:
    extremal: bool
    witness: Matrix | None = None

    def __bool__(self) -> bool:
        return self.extremal


def _summand_by_ray_pinning(
    phi: Matrix, source: PolyhedralCone, target: PolyhedralCone
) -> Matrix | None:
    """A proper summand of a map that is not extremal and carries every
    extreme ray of the source to zero or onto an extreme ray of the target;
    None when some ray image is neither zero nor extremal.

    A summand psi <= phi is then pinned to psi(r_j) = t_j phi(r_j) on each
    ray (faces are closed under decomposition, and the face of an extreme
    point is its ray). Since the rays span, psi is determined by t, so the
    summands are the solutions (psi, t) of a homogeneous linear system, and
    one whose t is not constant, scaled into the polytope around phi/2, is
    the summand.
    """
    dt, ds = len(phi), len(phi[0])
    images = [mat_vec(phi, r) for r in source.rays]
    if any(any(img) and not is_extremal(target, img) for img in images):
        return None
    images = [img if any(img) else None for img in images]
    t_index = {j: ds * dt + k for k, j in enumerate(
        j for j, img in enumerate(images) if img is not None
    )}
    n = ds * dt + len(t_index)
    rows = []
    for j, r in enumerate(source.rays):
        for c in range(dt):
            row = [0] * n
            row[c * ds:(c + 1) * ds] = r
            if images[j] is not None:
                row[t_index[j]] = -images[j][c]
            rows.append(row)
    t_cols = sorted(t_index.values())
    for vec in nullspace(rows, ncols=n):
        ts = [vec[col] for col in t_cols]
        mean = sum(ts) / len(ts)
        spread = max(abs(x - mean) for x in ts)
        if spread == 0:
            continue
        eps = Fraction(1, 2) / spread
        return tuple(
            tuple(p / 2 + eps / 2 * (vec[c * ds + i] - mean * p) for i, p in enumerate(row))
            for c, row in enumerate(phi)
        )
    return None


def decomposition_program(
    phi: Matrix, source: PolyhedralCone, target: PolyhedralCone
) -> LinearProgram:
    """The decomposition polytope {psi : psi and phi - psi positive} over
    psi's entries, row-major: for each source ray r and target facet g, in
    that order, the rows g.psi(r) >= 0 and -g.psi(r) >= -g.phi(r). Each row's
    coefficients are the products g_j r_i; with phi = P / q scaled to
    integers once, the second row is written over q."""
    dt, ds = len(phi), len(phi[0])
    p, q = integer_rows(phi)
    ge = []
    for r in source.rays:
        image = [int_dot(row, r) for row in p]
        for g in target.facets:
            row = tuple(gj * ri for gj in g for ri in r)
            ge += [(row, 0, 1), (tuple(-q * c for c in row), -int_dot(g, image), q)]
    return LinearProgram(dt * ds, ge=ge)


def map_is_extremal(
    phi: Matrix, source: PolyhedralCone, target: PolyhedralCone
) -> ExtremalityResult:
    """Decide whether phi spans an extremal ray of the positive-map cone.

    The decomposition polytope D (decomposition_program) always contains
    the segment from 0 to phi. A row pair whose right-hand side g.phi(r) is
    0 forces g.psi(r) = 0 on D, and phi/2 meets every other row strictly,
    so the affine hull of D is the null space N of those tight rows, and
    phi is extremal exactly when N is phi's line: one ``nullspace``
    decides, with no LP. A refuted map's summand comes from
    ``_summand_by_ray_pinning`` when phi carries rays onto rays, otherwise
    from one LP: the maximum over D of the first entry direction
    e_ji - (phi_ji / phi_j0i0) e_j0i0 not constant on N, which vanishes at
    phi/2 and so is positive somewhere on D.
    """
    phi = as_matrix(phi)
    dt, ds = len(phi), len(phi[0])
    if ds != source.ambient_dim or dt != target.ambient_dim:
        raise ValueError("matrix shape does not match the cones")
    ge = decomposition_program(phi, source, target).ge
    # -g.psi(r) >= -g.phi(r) has a positive right-hand side iff g.phi(r) < 0.
    if any(b > 0 for _, b, _ in ge[1::2]):
        raise ValueError("map is not positive on the source cone")
    flat = [x for row in phi for x in row]
    pivot = next((c for c, x in enumerate(flat) if x), None)
    if pivot is None:
        return ExtremalityResult(False)
    n = dt * ds
    hull = nullspace([a for a, b, _ in ge[1::2] if b == 0], ncols=n)
    if len(hull) <= 1:
        return ExtremalityResult(True)
    psi = _summand_by_ray_pinning(phi, source, target)
    if psi is not None:
        return ExtremalityResult(False, psi)
    for c in range(n):
        obj = [Fraction(0)] * n
        obj[c] = Fraction(1)
        obj[pivot] -= flat[c] / flat[pivot]
        if any(vec_dot(obj, k) for k in hull):
            break
    w = lp_optimize(LinearProgram(n, ge=ge, objective=tuple(obj))).witness
    return ExtremalityResult(False, tuple(tuple(w[j * ds:(j + 1) * ds]) for j in range(dt)))


def is_pure_in_max(omega: BipartiteState) -> ExtremalityResult:
    """Purity of omega in the largest composite = extremality of its map."""
    return map_is_extremal(
        omega.matrix, dual_cone(omega.space_a.cone), omega.space_b.cone
    )


@dataclass(frozen=True)
class Factorization:
    face: Face
    idempotent: Matrix
    target_face: Face
    ray_bijection: tuple[int, ...]
    scales: tuple[Fraction, ...]


def factors_isomorphically_through(
    phi: Matrix, source: PolyhedralCone, target: PolyhedralCone
) -> Factorization | None:
    """A face F of the source with span(F) complementary to ker(phi), a
    positive idempotent onto F along the kernel, and phi restricted to F an
    order isomorphism onto a face of the target; None when no face works."""
    phi = as_matrix(phi)
    for r in source.rays:
        if not target.contains(mat_vec(phi, as_vector(r))):
            raise ValueError("map is not positive on the source cone")
    d = source.ambient_dim
    kern = nullspace(list(phi))
    rk = len(phi[0]) - len(kern)
    if rk == 0:
        return None
    rows, q = integer_rows(phi)
    for face in all_faces(source):
        face_rays = [as_vector(r) for r in face.rays()]
        if not face_rays or face.span_dim() != rk:
            continue
        span_basis = [face_rays[i] for i in independent_rows(face_rays)]
        cols_inv = invert(mat_transpose(span_basis + kern))
        if cols_inv is None:
            continue
        # The idempotent keeps span(F) and kills the kernel.
        p = mat_mul(mat_transpose(span_basis + [vec_zero(d)] * len(kern)), cols_inv)
        if any(not face.contains(mat_vec(p, as_vector(r))) for r in source.rays):
            continue
        total = mat_vec(phi, tuple(map(sum, zip(*face_rays))))
        target_face = face_of(target, total)
        if target_face.span_dim() != rk:
            continue
        pairing = pair_ray_images(rows, q, face.rays(), target_face.rays())
        if pairing is None:
            continue
        return Factorization(face, p, target_face, *pairing)
    return None


def purify(space: StateSpace, alpha: Union[State, Sequence]) -> BipartiteState | None:
    """A bipartite state on two copies of the space whose map is an order
    isomorphism eta: A* -> A with eta(u_A) = alpha, so that its B marginal
    is alpha; None when no order isomorphism from the dual cone onto the
    cone carries the unit u_A to alpha.

    A state on two copies of A steers an interior alpha exactly when its map
    is such an eta, so this is one isomorphism search pinned by u_A -> alpha:
    the first eta in pairing order."""
    v = as_vector(alpha.vector if isinstance(alpha, State) else alpha)
    if not space.cone.interior_contains(v):
        raise ValueError("purification needs an interior state")
    if vec_dot(space.unit, v) != 1:
        raise ValueError("purification needs a normalized state")
    eta = isomorphism_carrying(dual_cone(space.cone), space.cone, space.unit, v)
    return None if eta is None else BipartiteState(space, space, eta.matrix)
