"""Bipartite states as positive maps, tensor cones, purity, purification.

A bipartite state over state spaces A and B is stored as the matrix of the
map A* -> B it induces; pairing against an A-effect and a B-facet is matrix
arithmetic. The two canonical composite cones (largest and smallest) are
built from facet products and ray products respectively, and purity in the
largest composite is decided as extremality of the induced map, by a family
of exact LPs over the decomposition polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .cone import (
    Face,
    IntVec,
    PolyhedralCone,
    _integral,
    all_faces,
    cone_from_facets,
    cone_from_rays,
    dual_cone,
    face_of,
    is_extremal,
)
from .dd import int_dot
from .ratlin import (
    LinearProgram,
    Matrix,
    Vector,
    as_matrix,
    as_vector,
    independent_rows,
    integral,
    invert,
    lp_optimize,
    mat_mul,
    mat_transpose,
    mat_vec,
    nullspace,
    rank,
    vec_dot,
    vec_scale,
    vec_zero,
)
from .space import (
    Effect,
    OrderIsoWitness,
    State,
    StateSpace,
    _integer_rows,
    isomorphism_carrying,
    pair_ray_images,
)


def kron_vec(x: Sequence, y: Sequence) -> Vector:
    """Flatten x (x) y with the B index running fastest."""
    x, y = as_vector(x), as_vector(y)
    return tuple(xi * yj for xi in x for yj in y)


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
    """Every f (x) g as an integer tuple, B index fastest, f slowest."""
    return [tuple(x * y for x in f for y in g) for f in fs for g in gs]


def max_tensor(a: StateSpace, b: StateSpace) -> TensorSpace:
    """The largest composite: everything nonnegative on product effects.

    Its facet rows are the integer products of the factors' stored facets.
    Those are primitive, and so is each product, since the gcd of the
    entries f_i g_j is gcd(f) gcd(g) = 1; no rational arithmetic runs."""
    facets = _products(a.cone.facets, b.cone.facets)
    cone = cone_from_facets(facets, a.dim * b.dim)
    return TensorSpace(a, b, "max", cone, kron_vec(a.unit, b.unit))


def min_tensor(a: StateSpace, b: StateSpace) -> TensorSpace:
    """The smallest composite: generated by the product states.

    Its generator rows are the integer products of the factors' stored
    rays, primitive for the reason given in ``max_tensor``."""
    rays = _products(a.cone.rays, b.cone.rays)
    cone = cone_from_rays(rays, a.dim * b.dim)
    return TensorSpace(a, b, "min", cone, kron_vec(a.unit, b.unit))


def intermediate_tensor(
    a: StateSpace, b: StateSpace, rays: Sequence[Sequence]
) -> TensorSpace:
    """A user-chosen composite cone, validated to lie between min and max.

    This is the paper's composite AB: any cone between the min and max
    tensor products that contains every product state. The largest
    composite is cut out by the product facets, so each ray is tested
    against them directly, with no conversion of the largest composite."""
    dim = a.dim * b.dim
    product_facets = _products(a.cone.facets, b.cone.facets)
    for r in rays:
        x = _integral(r, dim)
        if any(int_dot(f, x) < 0 for f in product_facets):
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
        flat = integral(x for row in m for x in row)
        da = self.space_a.dim
        rows = [flat[i:i + da] for i in range(0, len(flat), da)]
        facets_b = self.space_b.cone.facets
        for f in self.space_a.cone.facets:
            image = [int_dot(row, f) for row in rows]
            if any(int_dot(g, image) < 0 for g in facets_b):
                raise ValueError(
                    "map sends a dual extreme ray outside the B cone; "
                    "the form is not positive"
                )
        object.__setattr__(self, "matrix", m)

    def apply(self, a: Sequence) -> Vector:
        return mat_vec(self.matrix, as_vector(a))

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
        m = [[Fraction(0)] * a.dim for _ in range(b.dim)]
        for weight, alpha, beta in terms:
            alpha, beta = as_vector(alpha), as_vector(beta)
            w = Fraction(weight)
            for j in range(b.dim):
                for i in range(a.dim):
                    m[j][i] += w * beta[j] * alpha[i]
        return cls(a, b, tuple(tuple(row) for row in m))


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
    rows, q = _integer_rows(omega.matrix)
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


def _extremal_by_ray_pinning(
    phi: Matrix, source: PolyhedralCone, target: PolyhedralCone
) -> ExtremalityResult | None:
    """LP-free extremality for maps carrying extreme rays onto extreme rays.

    When phi maps every extreme ray of the source to zero or onto an extreme
    ray of the target, a summand psi <= phi is pinned to psi(r_j) = t_j
    phi(r_j) on each ray (faces are closed under decomposition, and the face
    of an extreme point is its ray). Since the rays span, psi is determined
    by t, so the decomposition polytope flattens to the solution space of a
    homogeneous linear system in (psi, t): phi is extremal exactly when that
    space is the line through (phi, 1, ..., 1). Returns None when some ray
    image is neither zero nor extremal, leaving the general LP probing to
    decide.
    """
    dt, ds = len(phi), len(phi[0])
    images = []
    for r in source.rays:
        img = mat_vec(phi, as_vector(r))
        if any(img):
            if not is_extremal(target, img):
                return None
            images.append(img)
        else:
            images.append(None)
    t_index = {j: ds * dt + k for k, j in enumerate(
        j for j, img in enumerate(images) if img is not None
    )}
    n = ds * dt + len(t_index)
    rows = []
    for j, r in enumerate(source.rays):
        rv = as_vector(r)
        for c in range(dt):
            row = [Fraction(0)] * n
            for i in range(ds):
                row[c * ds + i] = rv[i]
            if images[j] is not None:
                row[t_index[j]] = -images[j][c]
            rows.append(row)
    basis = nullspace(rows, ncols=n)
    if len(basis) <= 1:
        return ExtremalityResult(True)
    t_cols = sorted(t_index.values())
    for vec in basis:
        ts = [vec[col] for col in t_cols]
        mean = sum(ts) / len(ts)
        delta = [x - mean for x in ts]
        spread = max(abs(d) for d in delta)
        if spread == 0:
            continue
        eps = Fraction(1, 2) / spread
        half = Fraction(1, 2)
        flat = [
            half * Fraction(phi[k // ds][k % ds])
            + (eps * half) * (vec[k] - mean * Fraction(phi[k // ds][k % ds]))
            for k in range(ds * dt)
        ]
        psi = tuple(
            tuple(flat[c * ds + i] for i in range(ds)) for c in range(dt)
        )
        return ExtremalityResult(False, psi)
    return ExtremalityResult(True)


def decomposition_program(
    phi: Matrix, source: PolyhedralCone, target: PolyhedralCone
) -> LinearProgram:
    """The decomposition polytope {psi : psi and phi - psi positive} over
    psi's entries, row-major: for each source ray r and target facet g, in
    that order, the rows g.psi(r) >= 0 and -g.psi(r) >= -g.phi(r). Each row's
    coefficients are the products g_j r_i; with phi = P / q scaled to
    integers once, the second row is written over q."""
    dt, ds = len(phi), len(phi[0])
    p, q = _integer_rows(phi)
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

    The decomposition polytope (decomposition_program) always contains the
    segment from 0 to phi; phi is extremal exactly when the polytope is
    that segment. Maps that carry extreme rays onto extreme rays flatten to
    a pure linear-algebra test; otherwise each matrix entry gives one
    projection direction transverse to the segment, the polytope has zero
    width in all of them iff it is the segment, and each direction costs
    two LPs over that program's rows, a nonzero optimum handing back a
    decomposition witness.
    """
    phi = as_matrix(phi)
    dt, ds = len(phi), len(phi[0])
    if ds != source.ambient_dim or dt != target.ambient_dim:
        raise ValueError("matrix shape does not match the cones")
    for r in source.rays:
        if not target.contains(mat_vec(phi, as_vector(r))):
            raise ValueError("map is not positive on the source cone")
    pivot = next(
        ((j, i) for j in range(dt) for i in range(ds) if phi[j][i] != 0), None
    )
    if pivot is None:
        return ExtremalityResult(False)
    pinned = _extremal_by_ray_pinning(phi, source, target)
    if pinned is not None:
        return pinned
    j0, i0 = pivot
    n = dt * ds
    ge = decomposition_program(phi, source, target).ge
    for j in range(dt):
        for i in range(ds):
            if (j, i) == (j0, i0):
                continue
            obj = [Fraction(0)] * n
            obj[j * ds + i] = Fraction(1)
            obj[j0 * ds + i0] -= phi[j][i] / phi[j0][i0]
            for direction in (tuple(obj), tuple(-c for c in obj)):
                out = lp_optimize(LinearProgram(n, ge=ge, objective=direction))
                if out.status == "optimal" and out.value > 0:
                    w = out.witness
                    psi = tuple(
                        tuple(w[jj * ds + ii] for ii in range(ds))
                        for jj in range(dt)
                    )
                    return ExtremalityResult(False, psi)
    return ExtremalityResult(True)


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
    rk = rank(list(phi))
    if rk == 0:
        return None
    d = source.ambient_dim
    kern = nullspace(list(phi))
    rows, q = _integer_rows(phi)
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
