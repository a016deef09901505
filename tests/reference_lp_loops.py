"""The LP loops `steering.image_interval` and `steering._polytope_dimension`
ran before they read vertices, and the LP `steering.lift_ensemble` ran for
every ensemble before an injective map's lifts were forced, and the LP
loop `composite.map_is_extremal` ran before one rank decided it, kept as the
references the tests pin them against.

`image_interval` kept an image unless one LP wrote it as a convex
combination of the other images. `polytope_dimension` optimized 2n
functionals both ways, each orthogonal to the gaps and constant
functionals found before it. `lift_ensemble` read the lift program's
witness as the effects, or returned its Farkas vector. `map_is_extremal`
first pinned a map carrying rays onto rays to one homogeneous system in
(psi, t), and otherwise optimized each entry direction transverse to the
segment [0, phi] both ways, 2(n - 1) LPs at most, a positive optimum
handing back a summand.
"""

from fractions import Fraction
from typing import Sequence

from polysteer.composite import (
    BipartiteState,
    ExtremalityResult,
    decomposition_program,
    marginal_b,
)
from polysteer.cone import PolyhedralCone, is_extremal
from polysteer.ratlin import (
    LinearProgram,
    Matrix,
    Vector,
    as_matrix,
    as_vector,
    integer_row,
    lp_feasible,
    lp_optimize,
    mat_vec,
    nullspace,
    vec_scale,
)
from polysteer.space import Effect, Observable, effects_interval
from polysteer.steering import Ensemble, LiftResult, ensemble_lift_program
from rational_rows import vec_sub


def is_convex_combination(point: Sequence, generators: Sequence[Vector]) -> bool:
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
        if not others or not is_convex_combination(p, others):
            extreme.append(p)
    return tuple(sorted(extreme))


def polytope_dimension(lp: LinearProgram) -> tuple[int, tuple[Vector, Vector] | None]:
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
            raise RuntimeError("the polytope must be nonempty and bounded")
        if hi.value == -lo.value:
            found.append(c)
            continue
        found.append(vec_sub(hi.witness, lo.witness))
        dimension += 1
        if first is None:
            first = (lo.witness, hi.witness)
    return dimension, first


def lift_ensemble(omega: BipartiteState, e: Ensemble) -> LiftResult:
    """An observable on A lifting the ensemble, from one feasibility LP,
    whether or not the map is injective."""
    if not e.is_for(marginal_b(omega).vector):
        raise ValueError("the ensemble does not sum to the B marginal")
    space_a = omega.space_a
    da = space_a.dim
    out = lp_feasible(ensemble_lift_program(omega, e))
    if out.status != "feasible":
        return LiftResult(None, out.farkas)
    w = out.witness
    effects = tuple(
        Effect(space_a, tuple(w[i * da + c] for c in range(da))) for i in range(len(e.parts))
    )
    return LiftResult(Observable(space_a, effects), None)


def _extremal_by_ray_pinning(
    phi: Matrix, source: PolyhedralCone, target: PolyhedralCone
) -> ExtremalityResult | None:
    """LP-free extremality for maps carrying extreme rays onto extreme rays:
    a summand psi <= phi is pinned to psi(r_j) = t_j phi(r_j) on each ray,
    so phi is extremal exactly when the solutions (psi, t) are the line
    through (phi, 1, ..., 1). None when some ray image is neither zero nor
    extremal."""
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
        psi = tuple(
            tuple(p / 2 + eps / 2 * (vec[c * ds + i] - mean * p) for i, p in enumerate(row))
            for c, row in enumerate(phi)
        )
        return ExtremalityResult(False, psi)
    return ExtremalityResult(True)


def map_is_extremal(
    phi: Matrix, source: PolyhedralCone, target: PolyhedralCone
) -> ExtremalityResult:
    """Extremality of phi in the positive-map cone: ray pinning when it
    applies, otherwise two LPs over the decomposition polytope per entry
    direction e_ji - (phi_ji / phi_j0i0) e_j0i0, the first positive
    optimum's point returned as the summand."""
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
