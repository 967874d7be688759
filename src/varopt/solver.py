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

from dataclasses import dataclass, field

import numpy as np

from .calculus import Field, _abs_pow, _dirichlet, _kinetic, _minus_p_laplacian, _signed_pow
from .errors import InvalidExponent, InvalidSpec, TooLarge
from .lattice import Graph

NLS = "nls"
SOBOLEV = "sobolev"

_STEP_MAX = 1.0e3
_STEP_MIN = 1.0e-18


@dataclass(frozen=True)
class ProblemSpec:
    """Which functional to minimize and on which constraint sphere.

    kind "nls": minimize the Schrodinger energy over ||u||_2^2 = a, p > 2.
    kind "sobolev": minimize the p-Dirichlet energy over ||u||_q^q = a;
    admissible means 1 <= p < d and q >= d p / (d - p), relaxed by
    ``allow_subcritical`` for exploratory runs on small or low-d graphs.
    """

    kind: str
    a: float
    p: float
    q: float | None = None
    allow_subcritical: bool = False

    def validate_for(self, graph: Graph) -> None:
        if self.kind not in (NLS, SOBOLEV):
            raise InvalidSpec(f"unknown problem kind {self.kind!r}")
        if not all(np.isfinite(x) for x in (self.a, self.p, self.q) if x is not None):
            raise InvalidSpec(f"a, p and q must be finite, got a={self.a}, p={self.p}, q={self.q}")
        if not (self.a > 0):
            raise InvalidSpec(f"mass a must be positive, got {self.a}")
        if self.kind == NLS:
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


@dataclass
class SolverConfig:
    max_iters: int = 50000
    step: float = 0.1
    tol_grad: float = 1e-8
    restarts: int = 6
    seeds: list | None = None          # descriptors or arrays; overrides the default plan
    step_rule: str = "backtracking"    # "backtracking" | "fixed"
    rng_seed: int = 0
    smoothing_eps: float = 1e-8        # p = 1 Sobolev gradient smoothing
    record_trace: bool = False

    def validate(self) -> None:
        if self.max_iters < 1 or self.tol_grad <= 0 or self.restarts < 1:
            raise InvalidSpec("solver config needs max_iters >= 1, tol_grad > 0, restarts >= 1")
        if self.step_rule not in ("backtracking", "fixed"):
            raise InvalidSpec(f"unknown step rule {self.step_rule!r}")
        if not (0 < self.step < np.inf and 0 < self.smoothing_eps < np.inf):
            raise InvalidSpec(f"solver config needs finite step > 0 and smoothing_eps > 0, "
                              f"got step={self.step}, smoothing_eps={self.smoothing_eps}")


@dataclass
class Localization:
    """Where the mass of a minimizer sits inside the box."""

    center_of_mass: tuple
    probe_radius: int
    mass_in_ball: float
    boundary_mass_fraction: float

    def to_json_dict(self) -> dict:
        return {
            "center_of_mass": list(self.center_of_mass),
            "probe_radius": self.probe_radius,
            "mass_in_ball": self.mass_in_ball,
            "boundary_mass_fraction": self.boundary_mass_fraction,
        }


@dataclass
class SolveResult:
    minimizer: Field
    energy: float
    multiplier: float
    el_residual: float
    converged: bool
    localization: Localization
    problem: ProblemSpec
    n_iters: int
    seed_label: str
    restart_summary: list = field(default_factory=list)
    trace: np.ndarray | None = None    # columns: iter, energy, residual, step

    @property
    def graph(self) -> Graph:
        return self.minimizer.graph


def _constraint_weight(problem: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Per-vertex mass density of the active constraint."""
    if problem.kind == NLS:
        return u * u
    return np.abs(u) ** problem.q


def _project(problem: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Rescale onto the constraint sphere."""
    if problem.kind == NLS:
        norm = np.sqrt(np.dot(u, u))
        exponent = 0.5
    else:
        norm = np.sum(np.abs(u) ** problem.q) ** (1.0 / problem.q)
        exponent = 1.0 / problem.q
    if norm == 0.0:
        raise InvalidSpec("cannot project the zero field onto a constraint sphere")
    return u * (problem.a ** exponent / norm)


def _localize(graph: Graph, weight: np.ndarray, probe_radius: int) -> Localization:
    total = float(np.sum(weight))
    if total <= 0:
        com = (0.0,) * graph.d
        return Localization(com, probe_radius, 0.0, 0.0)
    com = tuple(float(c) for c in (graph.coords.T @ weight) / total)
    radii = np.max(np.abs(graph.coords), axis=1)
    in_ball = float(np.sum(weight[radii < probe_radius]))
    ring = float(np.sum(weight[radii >= graph.extent - 1])) if graph.extent >= 1 else total
    return Localization(com, probe_radius, in_ball, ring / total)


def localization_report(result: SolveResult, probe_radius: int) -> Localization:
    """Recompute the localization of a solve at a chosen probe radius."""
    weight = _constraint_weight(result.problem, result.minimizer.values)
    return _localize(result.graph, weight, probe_radius)


def _default_probe_radius(graph: Graph) -> int:
    spec = graph.spec
    if spec is not None and spec.perturbation_radius() is not None:
        return spec.perturbation_radius()
    return max(1, (graph.extent + 1) // 2)


# ---------------------------------------------------------------------------
# seed plan

def make_seed(graph: Graph, descriptor, rng: np.random.Generator) -> tuple[np.ndarray, str]:
    """Turn a seed descriptor into a raw (unnormalized) nonnegative field.

    Descriptors: "delta[@c1,c2,...]", "gauss[@c1,...][:width]", "uniform",
    "ball[:radius]", "corner+", "corner-", "random", or an explicit array.
    """
    if isinstance(descriptor, (np.ndarray, list)):
        values = np.asarray(descriptor, dtype=np.float64)
        if values.shape != (graph.n,):
            raise InvalidSpec(f"explicit seed has shape {values.shape}, expected ({graph.n},)")
        return np.abs(values), "explicit"
    name = str(descriptor)
    head, _, width_part = name.partition(":")
    head, _, at_part = head.partition("@")
    centre = None
    if at_part:
        centre = tuple(int(c) for c in at_part.split(","))
    ext = graph.extent
    if head == "corner+":
        head, centre = "gauss", (ext,) * graph.d
    elif head == "corner-":
        head, centre = "gauss", (-ext,) * graph.d
    if centre is None:
        centre = (0,) * graph.d
        if centre not in graph:
            centre = tuple(graph.coords[graph.n // 2].tolist())
    if head == "delta":
        u = np.zeros(graph.n)
        u[graph.vertex_id(centre)] = 1.0
        return u, name
    if head in ("gauss", "widegauss"):
        if width_part:
            width = float(width_part)
        elif head == "widegauss":
            width = max(2.0, graph.extent / 2.0)
        else:
            width = 1.5
        dist2 = np.sum((graph.coords - np.asarray(centre)) ** 2, axis=1)
        return np.exp(-0.5 * dist2 / width ** 2), name
    if head == "uniform":
        return np.ones(graph.n), name
    if head == "ball":
        radius = int(width_part) if width_part else _default_probe_radius(graph)
        radii = np.max(np.abs(graph.coords), axis=1)
        u = (radii < radius).astype(np.float64)
        if not u.any():
            u[:] = 1.0
        return u, name
    if head == "random":
        return np.abs(rng.standard_normal(graph.n)), name
    raise InvalidSpec(f"unknown seed descriptor {descriptor!r}")


def default_seed_plan(restarts: int) -> list:
    plan = ["delta", "gauss:2.0", "widegauss", "corner+", "corner-", "uniform", "ball"]
    while len(plan) < restarts:
        plan.append("random")
    return plan[:restarts]


# ---------------------------------------------------------------------------
# core descent

def _functional(graph: Graph, problem: ProblemSpec, smoothing_eps: float):
    """Return (energy, gradient, residual) closures over raw value arrays.

    residual(u) -> (multiplier, residual_vector) with the sign conventions
    -Lu + lambda u - |u|^(p-2) u  (nls)  and  -L_p u - lambda |u|^(q-2) u
    (sobolev), both l2-orthogonal to the field by the choice of multiplier.
    Built from the calculus kernels, so they agree bit for bit with
    nls_energy, nls_gradient, dirichlet_energy and dirichlet_gradient.
    """
    if problem.kind == NLS:
        p = problem.p

        def energy(u):
            return 0.5 * _kinetic(graph, u) - np.sum(_abs_pow(u, p)) / p

        def gradient(u):
            return _minus_p_laplacian(graph, u, 2.0, 0.0) - _signed_pow(u, p - 1.0)

        def residual(u, g):
            lam = (np.sum(_abs_pow(u, p)) - _kinetic(graph, u)) / problem.a
            return lam, g + lam * u

        return energy, gradient, residual

    p, q = problem.p, problem.q

    def energy(u):
        return _dirichlet(graph, u, p)

    def gradient(u):
        return p * _minus_p_laplacian(graph, u, p, smoothing_eps)

    def residual(u, g):
        lam = energy(u) / problem.a
        return lam, g / p - lam * _signed_pow(u, q - 1.0)

    return energy, gradient, residual


def _constraint_normal(problem: ProblemSpec, u: np.ndarray) -> np.ndarray:
    if problem.kind == NLS:
        return 2.0 * u
    return problem.q * np.sign(u) * np.abs(u) ** (problem.q - 1.0)


_STAGNATION_LIMIT = 200


def _descend(graph, problem, cfg, seed_values, label):
    energy, gradient, residual = _functional(graph, problem, cfg.smoothing_eps)
    u = _project(problem, np.abs(seed_values))
    E = energy(u)
    step = cfg.step
    trace = [] if cfg.record_trace else None
    converged = False
    lam, res_norm = 0.0, np.inf
    stagnation = 0
    prev_u = None
    prev_dir = None
    it = 0
    for it in range(cfg.max_iters):
        g = gradient(u)
        lam, res = residual(u, g)
        res_norm = float(np.sqrt(np.dot(res, res)))
        if trace is not None:
            trace.append((it, E, res_norm, step))
        if res_norm <= cfg.tol_grad:
            converged = True
            break
        normal = _constraint_normal(problem, u)
        nn = np.dot(normal, normal)
        direction = g - (np.dot(g, normal) / nn) * normal if nn > 0 else g
        if not np.any(direction):
            break
        if cfg.step_rule == "fixed":
            u = _project(problem, np.abs(u - step * direction))
            E = energy(u)
            continue
        # spectral (Barzilai-Borwein) trial step, clamped, falling back to the
        # persistent step while no curvature information is available
        s = step
        if prev_u is not None:
            du = u - prev_u
            dg = direction - prev_dir
            denom = np.dot(du, dg)
            if denom > 0:
                s = min(max(np.dot(du, du) / denom, 1e-12), _STEP_MAX)
        prev_u = u
        prev_dir = direction
        # backtrack on the energy; once energy differences fall below float
        # resolution, accept near-ties (a few ulps) that reduce the residual
        accepted = False
        improved = False
        tie_tol = 4.0 * np.finfo(np.float64).eps * max(1.0, abs(E))
        while s > _STEP_MIN:
            v = _project(problem, np.abs(u - s * direction))
            Ev = energy(v)
            if Ev < E:
                accepted = improved = True
                break
            if Ev - E <= tie_tol and not np.array_equal(v, u):
                lam_v, res_v = residual(v, gradient(v))
                rvn = float(np.sqrt(np.dot(res_v, res_v)))
                if rvn < res_norm:
                    accepted = True
                    improved = rvn <= 0.9 * res_norm
                    Ev = min(Ev, E)  # report the monotone envelope
                    break
            s *= 0.5
        if not accepted:
            break  # no admissible step at machine precision
        u, E = v, Ev
        step = min(s * 1.3, _STEP_MAX)
        if improved:
            stagnation = 0
        else:
            stagnation += 1
            if stagnation >= _STAGNATION_LIMIT:
                break
    else:
        it = cfg.max_iters
    E = energy(u)
    g = gradient(u)
    lam, res = residual(u, g)
    res_norm = float(np.sqrt(np.dot(res, res)))
    converged = converged or res_norm <= cfg.tol_grad
    if trace is not None:
        trace.append((it, E, res_norm, step))
    return {
        "values": u,
        "energy": float(E),
        "multiplier": float(lam),
        "el_residual": res_norm,
        "converged": converged,
        "n_iters": it,
        "label": label,
        "trace": np.array(trace) if trace is not None else None,
    }


def _minimize(graph: Graph, problem: ProblemSpec, cfg: SolverConfig) -> SolveResult:
    problem.validate_for(graph)
    cfg.validate()
    plan = list(cfg.seeds) if cfg.seeds else default_seed_plan(cfg.restarts)
    seeds = []
    for k, descriptor in enumerate(plan):
        rng = np.random.default_rng([cfg.rng_seed, k])
        seeds.append(make_seed(graph, descriptor, rng))

    outcomes = [_descend(graph, problem, cfg, values, label) for values, label in seeds]

    def sort_key(out):
        weight = _constraint_weight(problem, out["values"])
        total = np.sum(weight)
        com = tuple((graph.coords.T @ weight) / total) if total > 0 else (0.0,) * graph.d
        return (out["energy"], out["el_residual"], com)

    best = min(outcomes, key=sort_key)
    weight = _constraint_weight(problem, best["values"])
    loc = _localize(graph, weight, _default_probe_radius(graph))
    return SolveResult(
        minimizer=Field(graph, best["values"]),
        energy=best["energy"],
        multiplier=best["multiplier"],
        el_residual=best["el_residual"],
        converged=best["converged"],
        localization=loc,
        problem=problem,
        n_iters=best["n_iters"],
        seed_label=best["label"],
        restart_summary=[(o["label"], o["energy"], o["el_residual"], o["converged"])
                         for o in outcomes],
        trace=best["trace"],
    )


def minimize_nls(graph: Graph, problem: ProblemSpec, cfg: SolverConfig | None = None) -> SolveResult:
    """Ground state of the Schrodinger energy on the mass sphere ||u||_2^2 = a."""
    if problem.kind != NLS:
        raise InvalidSpec(f"minimize_nls got a problem of kind {problem.kind!r}")
    return _minimize(graph, problem, cfg or SolverConfig())


def minimize_sobolev(graph: Graph, problem: ProblemSpec, cfg: SolverConfig | None = None) -> SolveResult:
    """Best p-Dirichlet energy on the sphere ||u||_q^q = a (Sobolev extremal)."""
    if problem.kind != SOBOLEV:
        raise InvalidSpec(f"minimize_sobolev got a problem of kind {problem.kind!r}")
    return _minimize(graph, problem, cfg or SolverConfig())


def minimize(graph: Graph, problem: ProblemSpec, cfg: SolverConfig | None = None) -> SolveResult:
    """Dispatch on the problem kind."""
    if problem.kind == NLS:
        return minimize_nls(graph, problem, cfg)
    return minimize_sobolev(graph, problem, cfg)


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
    grid = grid or {}
    res = float(grid.get("resolution", 1e-3))
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
            e = (0.5 * sum(_abs_pow(u[j] - u[i], 2.0) for i, j in edges)
                 - sum(_abs_pow(x, problem.p) for x in u) / problem.p)
            if phantom is not None:
                e = e + 0.5 * sum(_abs_pow(x, 2.0) * c for x, c in zip(u, phantom))
        else:
            q = problem.q
            scale = problem.a ** (1.0 / q) / sum(_abs_pow(x, q) for x in w) ** (1.0 / q)
            u = [x * scale for x in w]
            e = sum(_abs_pow(u[j] - u[i], problem.p) for i, j in edges)
            if phantom is not None:
                e = e + sum(_abs_pow(x, problem.p) * c for x, c in zip(u, phantom))
        m = float(np.min(e))
        if m < best:
            best = m
    return best
