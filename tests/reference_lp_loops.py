"""The LP loops `steering.image_interval` and `steering._polytope_dimension`
ran before they read vertices, and the LP `steering.lift_ensemble` ran for
every ensemble before an injective map's lifts were forced, kept as the
references the tests pin them against.

`image_interval` kept an image unless one LP wrote it as a convex
combination of the other images. `polytope_dimension` optimized 2n
functionals both ways, each orthogonal to the gaps and constant
functionals found before it. `lift_ensemble` read the lift program's
witness as the effects, or returned its Farkas vector.
"""

from typing import Sequence

from polysteer.composite import BipartiteState, marginal_b
from polysteer.ratlin import (
    LinearProgram,
    Vector,
    integer_row,
    lp_feasible,
    lp_optimize,
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
