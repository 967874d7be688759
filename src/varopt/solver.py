"""Constrained minimization of the two energies over norm spheres.

Both problems are solved by projected gradient descent with retraction to the
constraint sphere after every step: the mass sphere ||u||_2^2 = a for the
Schrodinger functional, the sphere ||u||_q^q = a for the Sobolev quotient.
Iterates are kept nonnegative (replacing u by |u| never increases either
energy), steps are backtracked until the energy is non-increasing, and the
run stops when the Euler-Lagrange residual drops below tolerance. Multistart
over a deterministic seed plan guards against local minima; the best restart
wins by (energy, residual, lexicographic centre of mass).
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .calculus import (Field, _abs_pow, _dirichlet, _edge_diff, _kinetic, _minus_p_laplacian, _signed_pow,
                       _weighted_laplacian, box_inverse)
from .errors import InvalidExponent, InvalidSpec, TooLarge
from .lattice import Graph, _is_finite

NLS = "nls"
SOBOLEV = "sobolev"

# default boundary mode per problem kind: constants are free in drop mode,
# which makes the finite Sobolev problem degenerate at 0
DEFAULT_BOUNDARY = {NLS: "drop", SOBOLEV: "dirichlet"}

_STEP_INIT = 0.1        # trial step until Barzilai-Borwein has curvature information
_STEP_MAX = 1.0e3
_STEP_MIN = 1.0e-18
_SMOOTHING_EPS = 1e-8   # p = 1 Sobolev gradient smoothing; p < 2 metric regularization


@dataclass(frozen=True)
class ProblemSpec:
    """Which functional to minimize and on which constraint sphere.

    kind "nls": minimize the Schrodinger energy over ||u||_2^2 = a, p > 2, q unset.
    kind "sobolev": minimize the p-Dirichlet energy over ||u||_q^q = a;
    admissible means 1 <= p < d, q >= d p / (d - p) and a dirichlet-mode graph,
    whose phantom edges make its energies those of the zero extension to the
    lattice: in drop mode constants give J = 0. ``allow_subcritical`` relaxes
    all three, for exploratory sobolev runs on small, low-d or drop-mode graphs.
    """

    kind: str
    a: float
    p: float
    q: float | None = None
    allow_subcritical: bool = False

    def validate_for(self, graph: Graph) -> None:
        if self.kind not in (NLS, SOBOLEV):
            raise InvalidSpec(f"unknown problem kind {self.kind!r}")
        if not all(_is_finite(x) for x in (self.a, self.p, self.q) if x is not None):
            raise InvalidSpec(f"a, p and q must be finite numbers, not booleans, got a={self.a!r}, "
                              f"p={self.p!r}, q={self.q!r}")
        if not (self.a > 0):
            raise InvalidSpec(f"mass a must be positive, got {self.a}")
        if not isinstance(self.allow_subcritical, (bool, np.bool_)):
            raise InvalidSpec(f"allow_subcritical must be true or false, got {self.allow_subcritical!r}")
        if self.kind == NLS:
            if self.q is not None or self.allow_subcritical:
                name = "q" if self.q is not None else "allow_subcritical"
                raise InvalidSpec(f"nls problem reads no {name}, got {name}={getattr(self, name)!r}")
            if self.p <= 2:
                raise InvalidExponent(f"nls problem needs p > 2, got {self.p}")
        else:
            if self.q is None:
                raise InvalidSpec("sobolev problem needs an exponent q")
            if self.p < 1 or self.q < 1:
                raise InvalidExponent(f"sobolev problem needs p, q >= 1, got p={self.p}, q={self.q}")
            if not self.allow_subcritical:
                d = graph.d
                if not (1 <= self.p < d):
                    raise InvalidSpec(
                        f"sobolev-admissible needs 1 <= p < d, got p={self.p}, d={d} "
                        "(set allow_subcritical to explore)")
                critical = d * self.p / (d - self.p)
                if self.q < critical - 1e-12:
                    raise InvalidSpec(
                        f"sobolev-admissible needs q >= dp/(d-p) = {critical}, got q={self.q} "
                        "(set allow_subcritical to explore)")
                if graph.boundary != "dirichlet":
                    raise InvalidSpec(
                        f"sobolev-admissible needs a dirichlet-mode graph, got {graph!r}: in drop mode "
                        "constants give J = 0 (set allow_subcritical to explore)")


@dataclass
class SolverConfig:
    max_iters: int = 50000
    tol_grad: float = 1e-8
    restarts: int = 6
    seeds: list | None = None          # descriptors or arrays; overrides the default plan
    rng_seed: int = 0
    record_trace: bool = False

    def validate(self) -> None:
        counts = (self.max_iters, self.restarts)
        if any(isinstance(x, (bool, np.bool_)) for x in counts + (self.tol_grad,)):
            raise InvalidSpec(f"solver config takes numbers, not booleans: max_iters="
                              f"{self.max_iters}, restarts={self.restarts}, tol_grad={self.tol_grad}")
        if not all(isinstance(c, numbers.Integral) and c >= 1 for c in counts):
            raise InvalidSpec(f"solver config needs whole numbers max_iters >= 1 and restarts >= 1, "
                              f"got max_iters={self.max_iters}, restarts={self.restarts}")
        if not (isinstance(self.tol_grad, numbers.Real) and 0 < self.tol_grad < np.inf):
            raise InvalidSpec(f"solver config needs a finite tol_grad > 0, got {self.tol_grad}")
        if not isinstance(self.record_trace, (bool, np.bool_)):
            raise InvalidSpec(f"record_trace must be true or false, got {self.record_trace!r}")
        if self.seeds is not None and not (isinstance(self.seeds, (list, tuple)) and self.seeds):
            raise InvalidSpec(f"seeds must be a nonempty list of seed descriptors or arrays, "
                              f"got {self.seeds!r}")


@dataclass
class Localization:
    """Where the mass of a minimizer sits inside the box."""

    center_of_mass: tuple
    probe_radius: int
    mass_in_ball: float
    boundary_mass_fraction: float


@dataclass
class SolveResult:
    minimizer: Field
    energy: float
    multiplier: float
    el_residual: float
    converged: bool
    # how the descent stopped: "converged", "zero direction", "no step", "stagnation" or "capped"
    stop_reason: str
    localization: Localization
    problem: ProblemSpec
    n_iters: int
    seed_label: str
    # set on the winner: (seed_label, energy, el_residual, converged) per restart
    restart_summary: list = field(default_factory=list)
    trace: np.ndarray | None = None    # columns: iter, energy, residual, step


def _power(problem: ProblemSpec) -> float:
    """The exponent of the constraint sphere: ||u||_2^2 = a for nls, ||u||_q^q = a for sobolev."""
    return 2.0 if problem.kind == NLS else problem.q


def _constraint_weight(problem: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Per-vertex mass density of the active constraint."""
    return _abs_pow(u, _power(problem))


def _project(problem: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Rescale onto the constraint sphere."""
    exponent = 1.0 / _power(problem)
    # the nls norm stays a dot product, which rounds differently from the sobolev sum
    norm = (math.sqrt(np.dot(u, u)) if problem.kind == NLS
            else np.add.reduce(_abs_pow(u, problem.q)) ** exponent)
    if norm == 0.0:
        raise InvalidSpec("cannot project the zero field onto a constraint sphere")
    return u * (problem.a ** exponent / norm)


def _localize(graph: Graph, weight: np.ndarray, probe_radius: int) -> Localization:
    total = float(np.sum(weight))
    if total <= 0:
        return Localization((0.0,) * graph.d, probe_radius, 0.0, 0.0)
    com = tuple(float(c) for c in (graph.coords.T @ weight) / total)
    radii = graph.sup_distance()
    in_ball = float(np.sum(weight[radii < probe_radius]))
    ring = float(np.sum(weight[radii >= graph.extent - 1])) if graph.extent >= 1 else total
    return Localization(com, probe_radius, in_ball, ring / total)


def _default_probe_radius(graph: Graph) -> int:
    R = None if graph.spec is None else graph.spec.perturbation_radius()
    return max(1, (graph.extent + 1) // 2) if R is None else R


# ---------------------------------------------------------------------------
# seed plan

# the form of each seed head: the parts it takes, "@" a centre and ":" a width
_SEED_FORMS = {"delta": "[@centre]", "gauss": "[@centre][:width]", "widegauss": "[@centre][:width]",
               "ball": "[@centre][:radius]", "corner+": "[:width]", "corner-": "[:width]",
               "uniform": "", "random": ""}


def _seed_recipe(graph: Graph, descriptor, power=1) -> tuple:
    """Read and check a seed descriptor against the graph, building no field, and return
    (build, label), where build(rng) makes the raw field. A Gaussian's top value to the
    constraint exponent power must be a normal number, and an explicit array's values to
    that power must not all vanish, so that the field projects. minimize checks its plan
    this way."""
    if isinstance(descriptor, (np.ndarray, list)):
        values = np.asarray(descriptor, dtype=np.float64)
        if values.shape != (graph.n,) or not np.all(np.isfinite(values)):
            raise InvalidSpec(f"explicit seed needs {graph.n} finite values, got shape {values.shape}")
        if not _abs_pow(values, power).any():
            raise InvalidSpec(f"explicit seed vanishes at the constraint power {power:g}, "
                              "so it cannot be projected")
        return lambda rng: np.abs(values), "explicit"
    name = str(descriptor)
    head, colon, width_part = name.partition(":")
    head, at, at_part = head.partition("@")
    if head not in _SEED_FORMS:
        raise InvalidSpec(f"unknown seed descriptor {descriptor!r}")
    try:  # a part is malformed if it is empty or its head does not take it
        if any(sep and not (part and sep in _SEED_FORMS[head])
               for sep, part in ((at, at_part), (colon, width_part))):
            raise ValueError
        centre = tuple(int(c) for c in at_part.split(",")) if at else None
        width = (int if head == "ball" else float)(width_part) if colon else None
    except ValueError:
        raise InvalidSpec(f"seed {name!r} does not read as {head}{_SEED_FORMS[head]}") from None
    if centre is not None and len(centre) != graph.d:
        raise InvalidSpec(f"seed {name!r} needs a centre of dimension d={graph.d}")
    if head in ("corner+", "corner-"):
        centre = (graph.extent if head == "corner+" else -graph.extent,) * graph.d
    elif centre is None:  # the origin, or the middle of a box without it
        origin, middle = (0,) * graph.d, np.unravel_index(graph.n // 2, graph.shape)
        centre = origin if origin in graph else tuple(a + int(i) for a, i in zip(graph.lo, middle))
    if width is None:
        width = (max(2.0, graph.extent / 2.0) if head == "widegauss"
                 else _default_probe_radius(graph) if head == "ball" else 1.5)
    if not (0 < width < np.inf):  # for the whole radius of a ball: >= 1
        raise InvalidSpec(f"seed {name!r} needs a finite width > 0")
    if head in ("delta", "ball") and centre not in graph:
        raise InvalidSpec(f"seed {name!r} needs a centre inside the box {graph.lo} + [0, {graph.shape})")
    if head == "delta":
        build = lambda rng: np.eye(1, graph.n, graph.vertex_id(centre))[0]  # one 1.0 at the centre
    elif head == "ball":  # it holds its centre, so it is never empty
        build = lambda rng: (graph.sup_distance(centre) < width).astype(np.float64)
    elif head == "uniform":
        build = lambda rng: np.ones(graph.n)
    elif head == "random":
        build = lambda rng: np.abs(rng.standard_normal(graph.n))
    else:  # gauss, widegauss and the corners
        # the top value exp(-t) to the power must be a normal number (power * t < 708), no quotient
        # may overflow and width ** 2 must be finite: checked by products, before any division
        near = sum(max(a - c, 0, c - a - m + 1) ** 2 for a, m, c in zip(graph.lo, graph.shape, centre))
        far = sum(max(c - a, a + m - 1 - c) ** 2 for a, m, c in zip(graph.lo, graph.shape, centre))
        w2 = width * width
        if not (power * near < 1416.0 * w2 and far < 1e300 * w2 and w2 < np.inf):
            raise InvalidSpec(f"seed {name!r} has no usable values on this graph "
                              f"(width {width:g}, centre {centre}, constraint power {power:g})")
        build = lambda rng: np.exp(-0.5 * sum(o * o for o in graph.offsets(centre)).ravel() / width ** 2)
    return build, name


def make_seed(graph: Graph, descriptor, rng: np.random.Generator) -> tuple[np.ndarray, str]:
    """Turn a seed descriptor (a head of _SEED_FORMS in its form, or an explicit
    array) into a raw (unnormalized) nonnegative field and its label."""
    build, label = _seed_recipe(graph, descriptor)
    return build(rng), label


def default_seed_plan(restarts: int) -> list:
    plan = ["delta", "gauss:2.0", "widegauss", "corner+", "corner-", "uniform", "ball"]
    while len(plan) < restarts:
        plan.append("random")
    return plan[:restarts]


# ---------------------------------------------------------------------------
# core descent

def _functional(graph: Graph, problem: ProblemSpec):
    """Return (energy, gradient, residual) closures over raw value arrays.

    energy(u) -> (E, parts, d): the energy, the sums the multiplier needs
    ((kinetic, potential) for nls, E itself for sobolev) and the edge
    differences d, which gradient(u, d) reuses. residual(u, g, parts) ->
    (multiplier, residual_vector) with the sign conventions
    -Lu + lambda u - |u|^(p-2) u  (nls)  and  -L_p u - lambda |u|^(q-2) u
    (sobolev), both l2-orthogonal to the field by the choice of multiplier.
    Built from the calculus kernels, so they agree bit for bit with
    nls_energy, nls_gradient, dirichlet_energy and dirichlet_gradient.
    """
    if problem.kind == NLS:
        p = problem.p

        def energy(u):
            d = _edge_diff(graph, u)
            kin, pot = _kinetic(graph, u, d), np.add.reduce(_abs_pow(u, p))
            return 0.5 * kin - pot / p, (kin, pot), d

        def gradient(u, d=None):
            g = _minus_p_laplacian(graph, u, 2.0, 0.0, d)
            g -= _signed_pow(u, p - 1.0)
            return g

        def residual(u, g, parts):
            kin, pot = parts
            lam = (pot - kin) / problem.a
            res = lam * u
            res += g
            return lam, res

        return energy, gradient, residual

    p, q = problem.p, problem.q

    def energy(u):
        d = _edge_diff(graph, u)
        E = _dirichlet(graph, u, p, d)
        return E, E, d

    def gradient(u, d=None):
        return p * _minus_p_laplacian(graph, u, p, _SMOOTHING_EPS, d)

    def residual(u, g, parts):
        lam = parts / problem.a
        return lam, g / p - lam * _signed_pow(u, q - 1.0)

    return energy, gradient, residual


def _constraint_normal(problem: ProblemSpec, u: np.ndarray) -> np.ndarray:
    power = _power(problem)
    return power * _signed_pow(u, power - 1.0)


_CG_TOL = 3e-2      # relative accuracy of the p < 2 metric: ||L_w P v - v|| <= _CG_TOL ||v||
_CG_MAX_ITERS = 50  # CG steps per solve at most


def _cg(apply, precondition, v):
    """x with apply(x) ~ v, by preconditioned conjugate gradients from zero. It stops
    when ||r|| <= _CG_TOL ||v|| / sqrt(2), after _CG_MAX_ITERS steps, or at a search
    direction without positive curvature. From a zero start every iterate has <v, x> > 0.
    It updates in place, so the first direction is a copy: precondition may return r itself."""
    x = np.zeros_like(v)
    r = v.copy()
    scaled = np.empty_like(v)
    stop = _CG_TOL * math.sqrt(0.5 * np.dot(v, v))
    direction = rz = None
    for _ in range(_CG_MAX_ITERS):
        if math.sqrt(np.dot(r, r)) <= stop:
            break
        z = precondition(r)
        rz, rz_prev = float(np.dot(r, z)), rz
        if rz == 0:
            break  # a zero step, after which the next would divide by zero
        if direction is None:
            direction = z.copy()
        else:
            direction *= rz / rz_prev
            direction += z
        a_dir = apply(direction)
        curvature = float(np.dot(direction, a_dir))
        if curvature <= 0:
            break
        alpha = rz / curvature
        x += np.multiply(direction, alpha, out=scaled)
        r -= np.multiply(a_dir, alpha, out=scaled)
    return x


def _newton_metric(graph: Graph, problem: ProblemSpec, solve_box):
    """metric(u, d) -> P ~ L_w^{-1}, with L_w the weighted Laplacian of
    calculus._weighted_laplacian at u: a Newton-CG metric (Huang, Li & Liu,
    J. Sci. Comput. 32 (2007)). _cg solves L_w x = v with the preconditioner s B s,
    B the box inverse and s = (2d / diagonal(L_w))^(1/2).

    P solves v's part along the constraint normal n and the rest apart, and n's
    solution once per point. Near a critical point the gradient is nearly parallel
    to n, so one inexact solve of it would bury the residual under the solve's
    error; solved apart, the tangent direction's error shrinks with the residual.
    Each part is solved to _CG_TOL / sqrt(2), so that P meets _CG_TOL.
    """
    p = problem.p

    def metric(u, d):
        apply, diagonal = _weighted_laplacian(graph, u, p, _SMOOTHING_EPS, d)
        s = np.sqrt((2.0 * graph.d) / diagonal)
        solve = lambda v: _cg(apply, lambda r: s * solve_box(s * r), v)
        normal = _constraint_normal(problem, u)
        nn, x_n = np.dot(normal, normal), solve(normal)

        def precondition(v):
            c = np.dot(normal, v) / nn
            rest = v - c * normal
            # zero for the normal itself, where c = 1 exactly; CG would return zero for it
            return c * x_n + solve(rest) if rest.any() else c * x_n
        return precondition
    return metric


def _preconditioner(graph: Graph, problem: ProblemSpec):
    """The metric of the descent direction, as metric(u, d) -> P for the point u
    with edge differences d; None (the identity everywhere) unless the problem is
    Sobolev with p <= 2 on a dirichlet-mode build_graph truncation.

    There P is the box inverse at every point for p = 2, which inverts the
    2-Dirichlet form up to the perturbation, and the Newton-CG metric of
    _newton_metric for p < 2.
    """
    if problem.kind != SOBOLEV or problem.p > 2.0 or graph.boundary != "dirichlet" or graph.box is None:
        return None
    solve = box_inverse(graph)
    return (lambda u, d: solve) if problem.p == 2.0 else _newton_metric(graph, problem, solve)


def _tangent_direction(g, normal, precondition):
    """Pg - (<n, Pg>/<n, Pn>) Pn: the gradient in the metric of P^{-1}, tangent
    to the constraint sphere; with P the identity, the Euclidean projection."""
    pg, pn = (g, normal) if precondition is None else (precondition(g), precondition(normal))
    npn = float(np.dot(normal, pn))
    return pg - (float(np.dot(pg, normal)) / npn) * pn if npn > 0 else pg


_STAGNATION_LIMIT = 200
_TIE_ULPS = 4.0 * np.finfo(np.float64).eps  # near-tie width relative to max(1, |E|)


def _spectral_step(du, dg, step):
    """The Barzilai-Borwein step for the displacement du and the direction change
    dg, clamped; the persistent step while dg shows no curvature."""
    denom = float(np.dot(du, dg))
    return min(max(float(np.dot(du, du)) / denom, 1e-12), _STEP_MAX) if denom > 0 else step


def _descend(graph, problem, cfg, seed_values, label, metric, radius) -> SolveResult:
    # the path's arrays are gone by the time the localization builds its coordinates
    u, E_u, lam, res_norm, stop, it, trace = _descent_path(graph, problem, cfg, seed_values, metric)
    return SolveResult(Field(graph, u), float(E_u), float(lam), res_norm, stop == "converged", stop,
                       _localize(graph, _constraint_weight(problem, u), radius), problem, it, label,
                       trace=trace)


def _descent_path(graph, problem, cfg, seed_values, metric):
    """Descend from the seed; return the last point, its energy, multiplier and
    residual norm, the stop reason (SolveResult.stop_reason), the iteration count
    and the trace. A last point within tol_grad has converged, whichever exit fired."""
    energy, gradient, residual = _functional(graph, problem)

    def stationarity(u, parts, d):
        g = gradient(u, d)
        lam, res = residual(u, g, parts)
        return g, lam, math.sqrt(np.dot(res, res))

    # each point is evaluated once: energy at the trial, stationarity at acceptance or
    # tie test; res_norm is None until the current point's is known
    u = _project(problem, np.abs(seed_values))
    E_u, parts, d = energy(u)
    E = E_u  # the monotone envelope, which the backtracking compares against
    res_norm = None
    step = _STEP_INIT
    trace = [] if cfg.record_trace else None
    stop = None
    stagnation = 0
    prev_u = prev_dir = None
    it = 0
    for it in range(cfg.max_iters):
        if res_norm is None:
            g, lam, res_norm = stationarity(u, parts, d)
        if trace is not None:
            trace.append((it, E, res_norm, step))
        if res_norm <= cfg.tol_grad:
            break
        # the metric only where the descent moves from; no trial reads the gradient,
        # the metric or the old differences, so none outlives the direction
        direction = _tangent_direction(g, _constraint_normal(problem, u),
                                       None if metric is None else metric(u, d))
        g = d = None
        if not np.count_nonzero(direction):
            stop = "zero direction"
            break
        # spectral (Barzilai-Borwein) trial step, clamped, falling back to the
        # persistent step while no curvature information is available
        s = step if prev_u is None else _spectral_step(u - prev_u, direction - prev_dir, step)
        prev_u, prev_dir = u, direction
        # backtrack on the energy; once energy differences fall below float
        # resolution, accept near-ties (a few ulps) that reduce the residual
        tie_tol = _TIE_ULPS * max(1.0, abs(E))
        while s > _STEP_MIN:
            d_v = None  # with d = None above: no old differences outlive a new trial's gather
            v = direction * s  # u - s direction and its abs in place; the projection replaces it
            v = _project(problem, np.abs(np.subtract(u, v, out=v), out=v))
            Ev, parts_v, d_v = energy(v)
            if Ev < E:
                improved, res_norm = True, None
                break
            if Ev - E <= tie_tol and (v != u).any():
                g, lam_v, res_v = stationarity(v, parts_v, d_v)
                if res_v < res_norm:
                    improved, lam, res_norm = res_v <= 0.9 * res_norm, lam_v, res_v
                    break
                g = None
            s *= 0.5
        else:
            stop = "no step"  # no admissible step at machine precision
            break
        u, E_u, parts, d = v, Ev, parts_v, d_v
        E = min(Ev, E)  # report the monotone envelope
        step = min(s * 1.3, _STEP_MAX)
        if improved:
            stagnation = 0
        else:
            stagnation += 1
            if stagnation >= _STAGNATION_LIMIT:
                stop = "stagnation"
                break
    else:
        it, stop = cfg.max_iters, "capped"
    if res_norm is None:
        _, lam, res_norm = stationarity(u, parts, d)
    if res_norm <= cfg.tol_grad:
        stop = "converged"
    if trace is not None:
        trace.append((it, E_u, res_norm, step))
        trace = np.array(trace)
    return u, E_u, lam, res_norm, stop, it, trace


def minimize(graph: Graph, problem: ProblemSpec, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize the problem's functional on its constraint sphere, multistart.

    Each seed is built just before its descent, and each restart is ranked as it
    ends; only the winner's result and every restart's summary are kept. A seed whose
    field has the sha256 digest of an earlier restart's is not descended again: every
    seed field is nonnegative and the descent, deterministic, reads only its absolute
    values, so its summary row is the earlier restart's under its own label, and the
    earlier restart, ranked first, wins any tie.
    """
    cfg = cfg or SolverConfig()
    problem.validate_for(graph)
    cfg.validate()
    plan = list(cfg.seeds) if cfg.seeds else default_seed_plan(cfg.restarts)

    # a bad descriptor anywhere in the plan fails before any descent
    for descriptor in plan:
        _seed_recipe(graph, descriptor, _power(problem))

    metric = _preconditioner(graph, problem)
    radius = _default_probe_radius(graph)
    best = best_key = None
    summary = []
    rows = {}  # seed field digest -> (energy, el_residual, converged) of the restart that descended from it
    for k, descriptor in enumerate(plan):
        values, label = make_seed(graph, descriptor, np.random.default_rng([cfg.rng_seed, k]))
        digest = hashlib.sha256(values).digest()
        if digest in rows:
            summary.append((label, *rows[digest]))
            continue
        outcome = _descend(graph, problem, cfg, values, label, metric, radius)
        summary.append((outcome.seed_label, outcome.energy, outcome.el_residual, outcome.converged))
        rows[digest] = summary[-1][1:]
        key = (outcome.energy, outcome.el_residual, outcome.localization.center_of_mass)
        if best is None or key < best_key:  # strict: the first of equal restarts wins, as with min
            best, best_key = outcome, key
        del outcome, values  # a losing restart's arrays go before the next seed is built
    best.restart_summary = summary
    return best


def minimize_nls(graph: Graph, problem: ProblemSpec, cfg: SolverConfig | None = None) -> SolveResult:
    """Ground state of the Schrodinger energy on the mass sphere ||u||_2^2 = a."""
    if problem.kind != NLS:
        raise InvalidSpec(f"minimize_nls got a problem of kind {problem.kind!r}")
    return minimize(graph, problem, cfg)


def minimize_sobolev(graph: Graph, problem: ProblemSpec, cfg: SolverConfig | None = None) -> SolveResult:
    """Best p-Dirichlet energy on the sphere ||u||_q^q = a (Sobolev extremal)."""
    if problem.kind != SOBOLEV:
        raise InvalidSpec(f"minimize_sobolev got a problem of kind {problem.kind!r}")
    return minimize(graph, problem, cfg)


# ---------------------------------------------------------------------------
# exhaustive oracle for tiny graphs

_ORACLE_BLOCK = 1 << 14  # grid points per block: 128 KiB per array stays in cache


def _leading_directions(cos_axes: list[np.ndarray], sin_axes: list[np.ndarray]):
    """Sphere coordinates fixed by all angles but the last, on their full grid.

    Returns the first n-2 coordinates as columns of one row per leading grid
    point, and the product of the leading sines, which scales the last two.
    """
    cols = np.empty((1, 0))
    sin_prod = np.ones(1)
    for c, s in zip(cos_axes, sin_axes):
        cols = np.column_stack([np.repeat(cols, c.size, axis=0), np.multiply.outer(sin_prod, c).ravel()])
        sin_prod = np.multiply.outer(sin_prod, s).ravel()
    return cols, sin_prod


def brute_force_oracle(graph: Graph, problem: ProblemSpec, grid: dict | None = None) -> float:
    """Exhaustive minimum of the functional over an angle grid on the sphere.

    Independent verification path: parametrizes the constraint sphere by
    hyperspherical angles at the requested resolution and evaluates the
    energy directly from the edge list, without the solver or the calculus
    module. Only for graphs with at most 4 vertices. A block of leading-angle
    grid points is broadcast against the full grid of the last angle, and the
    energy is summed one edge and one vertex at a time, in edge-list order.
    """
    problem.validate_for(graph)
    n = graph.n
    if n > 4:
        raise TooLarge(f"oracle is exhaustive; {n} vertices exceed the limit of 4")
    if n < 2:
        raise InvalidSpec("oracle needs at least 2 vertices")
    grid = {} if grid is None else grid
    res = grid.get("resolution", 1e-3) if isinstance(grid, dict) else None
    if not (_is_finite(res) and res > 0 and set(grid) <= {"resolution"}):
        raise InvalidSpec(f"grid must be None or {{'resolution': a finite number > 0}}, got {grid!r}")
    edges = graph.edges.tolist()
    phantom = graph.phantom if graph.boundary == "dirichlet" else None

    cos_axes = []
    sin_axes = []
    for k in range(n - 1):
        top = 2 * np.pi if k == n - 2 else np.pi
        axis = np.linspace(0.0, top, max(2, int(np.ceil(top / res)) + 1))
        cos_axes.append(np.cos(axis))
        sin_axes.append(np.sin(axis))
    cols, sin_prod = _leading_directions(cos_axes[:-1], sin_axes[:-1])
    cos_last, sin_last = cos_axes[-1], sin_axes[-1]
    block = max(1, _ORACLE_BLOCK // cos_last.size)
    best = np.inf
    for start in range(0, sin_prod.size, block):
        s = sin_prod[start:start + block, None]
        w = [cols[start:start + block, k, None] for k in range(n - 2)] + [s * cos_last, s * sin_last]
        if problem.kind == NLS:
            u = [np.sqrt(problem.a) * x for x in w]
            e = (0.5 * sum((u[j] - u[i]) ** 2 for i, j in edges)
                 - sum(np.abs(x) ** problem.p for x in u) / problem.p)
            if phantom is not None:
                e = e + 0.5 * sum(x ** 2 * c for x, c in zip(u, phantom))
        else:
            q = problem.q
            scale = problem.a ** (1.0 / q) / sum(np.abs(x) ** q for x in w) ** (1.0 / q)
            u = [x * scale for x in w]
            e = sum(np.abs(u[j] - u[i]) ** problem.p for i, j in edges)
            if phantom is not None:
                e = e + sum(np.abs(x) ** problem.p * c for x, c in zip(u, phantom))
        m = float(np.min(e))
        if m < best:
            best = m
    return best


_SPECTRAL_DENSE_LIMIT = 3000


def spectral_oracle(graph: Graph) -> float:
    """Smallest eigenvalue of minus the dirichlet-mode graph Laplacian.

    Exact value of the p = q = 2 Sobolev problem per unit mass: its minimum
    over ||u||_2^2 = a is a times this. For a build_graph truncation whose
    BoxEdges delete and add no edge it is the closed form d (2 - 2 cos(pi / 2L));
    otherwise the dense Laplacian is assembled from the edge list, without the
    solver or the calculus module, and handed to numpy.linalg.eigvalsh, up to
    3,000 vertices.
    """
    if graph.boundary != "dirichlet":
        raise InvalidSpec("the spectral oracle needs a graph in dirichlet mode")
    box = graph.box
    if box is not None and all(slots is None for slots in box.deleted) and not len(box.heads):
        return graph.d * (2.0 - 2.0 * np.cos(np.pi / (2 * graph.L)))
    n = graph.n
    if n > _SPECTRAL_DENSE_LIMIT:
        raise TooLarge(f"dense eigensolve; {n} vertices exceed the limit of {_SPECTRAL_DENSE_LIMIT}")
    lap = np.diag(graph.phantom + np.bincount(graph.edges.ravel(), minlength=n))  # phantom plus degree
    np.add.at(lap, (graph.tails, graph.heads), -1.0)
    np.add.at(lap, (graph.heads, graph.tails), -1.0)
    return float(np.linalg.eigvalsh(lap)[0])
