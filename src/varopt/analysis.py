"""Executable verification procedures built on top of the solver.

Each routine turns one qualitative statement about the two variational
problems into a reproducible numerical check: threshold location by
bisection in the mass, energy comparisons between perturbed and unperturbed
truncations, homogeneity and subadditivity of the Sobolev value, the
cut-sphere upper-bound construction, and the escape / multiplier diagnostics
for the star-addition graphs. Reports carry every probe so that verdicts can
be recomputed from the record alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import Field, dirichlet_energy, lp_norm, nls_energy, p_laplacian, translate
from .errors import InconclusiveProbe, InvalidRange, InvalidSpec, NotConverged
from .lattice import Graph, GraphSpec, build_graph, sphere_deletion_spec, star_addition_spec
from .solver import (
    NLS,
    SOBOLEV,
    ProblemSpec,
    SolverConfig,
    _constraint_weight,
    minimize,
    minimize_sobolev,
)


def _solve(graph, problem, cfg):
    return minimize(graph, problem, cfg or SolverConfig())


def _graph_label(graph: Graph) -> str:
    spec = graph.spec
    if spec is None:
        return f"graph-n{graph.n}"
    kind = "lattice"
    if spec.deletions:
        kind = f"del{len(spec.deletions)}"
    elif spec.additions:
        kind = f"add{len(spec.additions)}"
    return f"{kind}-d{spec.d}-L{spec.L}"


# ---------------------------------------------------------------------------
# threshold bisection

@dataclass
class ProbeRecord:
    a: float
    energy: float
    converged: bool
    negative: bool


@dataclass
class ThresholdResult:
    """Bisection bracket for the smallest mass with strictly negative energy.

    status is "bracketed" when alpha_lo < alpha_hi hold probe energies of
    opposite classification, "all_negative" / "all_nonnegative" when every
    probe in the range classified the same way, "inconclusive" when the
    solver failed to settle a needed probe.
    """

    p: float
    graph_id: str
    tol_neg: float
    bracket_tol: float
    status: str
    alpha_lo: float | None
    alpha_hi: float | None
    probes: list = field(default_factory=list)


def estimate_threshold(graph_family, p, a_range, levels=(12,), bracket_tol=0.25,
                       tol_neg=1e-6, solver_cfg=None, max_probes=60) -> ThresholdResult:
    """Bisect the mass axis for the sign change of the ground-state energy.

    graph_family maps a truncation radius L to a Graph; probes run on the
    largest level. A probe classifies as negative when its energy estimate
    drops below -tol_neg; a negative estimate is sound even without residual
    convergence (the iterate is feasible, so its energy is an upper bound),
    while a nonnegative classification is only accepted from a converged
    solve. Unsettled probes are recorded and retried at nudged masses; if the
    range endpoints themselves cannot be settled the run raises
    InconclusiveProbe, and a mid-bisection failure returns the partial
    bracket with status "inconclusive".
    """
    a_min, a_max = float(a_range[0]), float(a_range[1])
    if not (0 < a_min < a_max):
        raise InvalidRange(f"need 0 < a_min < a_max, got {a_range}")
    graph = graph_family(max(levels))
    probes: list[ProbeRecord] = []

    def probe(a):
        res = _solve(graph, ProblemSpec(kind=NLS, a=a, p=p), solver_cfg)
        rec = ProbeRecord(a=a, energy=res.energy, converged=res.converged,
                          negative=res.energy < -tol_neg)
        probes.append(rec)
        return rec

    def settled_probe(a, lo, hi):
        # a negative energy estimate is a feasible-point upper bound, hence a
        # sound classification even when the residual tolerance was not met;
        # a nonnegative estimate is only trusted from a converged solve
        rec = probe(a)
        if rec.converged or rec.negative:
            return rec
        for nudge in (0.02, -0.02, 0.05):
            a_try = a + nudge * (hi - lo)
            if lo < a_try < hi:
                rec = probe(a_try)
                if rec.converged or rec.negative:
                    return rec
        return None

    label = _graph_label(graph)
    first = settled_probe(a_min, a_min, a_max)
    last = settled_probe(a_max, a_min, a_max)
    if first is None or last is None:
        raise InconclusiveProbe(
            f"could not classify the range endpoints of {a_range} on {label}; "
            f"{len(probes)} probes recorded")
    if first.negative and last.negative:
        return ThresholdResult(p, label, tol_neg, bracket_tol, "all_negative",
                               None, first.a, probes)
    if not first.negative and not last.negative:
        return ThresholdResult(p, label, tol_neg, bracket_tol, "all_nonnegative",
                               last.a, None, probes)
    lo, hi = (first.a, last.a) if not first.negative else (last.a, first.a)
    # invariant: probe(lo) classified nonnegative, probe(hi) negative
    count = 0
    while hi - lo > bracket_tol and count < max_probes:
        rec = settled_probe(0.5 * (lo + hi), min(lo, hi), max(lo, hi))
        count += 1
        if rec is None:
            return ThresholdResult(p, label, tol_neg, bracket_tol, "inconclusive",
                                   lo, hi, probes)
        if rec.negative:
            hi = rec.a
        else:
            lo = rec.a
    return ThresholdResult(p, label, tol_neg, bracket_tol, "bracketed", lo, hi, probes)


# ---------------------------------------------------------------------------
# perturbed-vs-base comparison

@dataclass
class ComparisonReport:
    """Energies of the same problem on a perturbed and an unperturbed graph
    over a mass grid, with one verdict per grid point."""

    kind: str
    p: float
    q: float | None
    a_grid: list
    perturbed: list
    base: list
    margins: list
    verdicts: list
    tol: float
    strict_margin: float
    converged: list = field(default_factory=list)

    @staticmethod
    def verdict(margin: float, tol: float, strict_margin: float) -> str:
        if margin > tol:
            return "violated"
        if margin < -strict_margin:
            return "strict"
        return "<= holds"


def compare_energies(graph_perturbed: Graph, graph_base: Graph, problem_template: ProblemSpec,
                     a_grid, solver_cfg=None, tol=1e-8, strict_margin=None,
                     raise_on_nonconverged=True) -> ComparisonReport:
    """Solve the template problem on both graphs for every mass in the grid.

    The margin at each point is E_perturbed - E_base; "<= holds" allows tol
    of solver noise and "strict" requires clearing strict_margin (default
    ten times the solver residual tolerance).
    """
    if graph_perturbed.d != graph_base.d or graph_perturbed.L != graph_base.L:
        raise InvalidSpec("comparison graphs must share dimension and truncation radius")
    cfg = solver_cfg or SolverConfig()
    if strict_margin is None:
        strict_margin = 10.0 * cfg.tol_grad
    perturbed, base_vals, margins, verdicts, conv = [], [], [], [], []
    for a in a_grid:
        problem = replace(problem_template, a=float(a))
        rp = _solve(graph_perturbed, problem, cfg)
        rb = _solve(graph_base, problem, cfg)
        if raise_on_nonconverged and not (rp.converged and rb.converged):
            raise NotConverged(f"comparison probe at a={a} did not converge",
                               result=rp if not rp.converged else rb)
        perturbed.append(rp.energy)
        base_vals.append(rb.energy)
        margins.append(rp.energy - rb.energy)
        verdicts.append(ComparisonReport.verdict(margins[-1], tol, strict_margin))
        conv.append(rp.converged and rb.converged)
    return ComparisonReport(problem_template.kind, problem_template.p, problem_template.q,
                            [float(a) for a in a_grid], perturbed, base_vals, margins,
                            verdicts, tol, strict_margin, conv)


# ---------------------------------------------------------------------------
# property suites

@dataclass
class CheckRecord:
    name: str
    lhs: float
    rhs: float
    margin: float   # lhs - rhs; passing checks keep this below the tolerance
    passed: bool


@dataclass
class PropertyReport:
    checks: list
    values: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def verify_E_properties(graph: Graph, p, a_grid, solver_cfg=None,
                        zero_tol=1e-8, tol=1e-6) -> PropertyReport:
    """Check the ground-state energy curve over a mass grid: nonpositive,
    non-increasing, and subadditive on every pair that sums into the grid."""
    a_grid = sorted(float(a) for a in a_grid)
    energies = {}
    for a in a_grid:
        energies[a] = _solve(graph, ProblemSpec(kind=NLS, a=a, p=p), solver_cfg).energy
    checks = []
    for a in a_grid:
        checks.append(CheckRecord(f"E(a={a:g}) <= 0", energies[a], 0.0,
                                  energies[a], energies[a] <= zero_tol))
    for lo, hi in zip(a_grid, a_grid[1:]):
        margin = energies[hi] - energies[lo]
        checks.append(CheckRecord(f"E({hi:g}) <= E({lo:g})", energies[hi], energies[lo],
                                  margin, margin <= tol))
    grid_set = set(a_grid)
    for i, a in enumerate(a_grid):
        for b in a_grid[i:]:
            tot = a + b
            match = next((c for c in grid_set if abs(c - tot) < 1e-12), None)
            if match is None:
                continue
            margin = energies[match] - (energies[a] + energies[b])
            checks.append(CheckRecord(f"E({match:g}) <= E({a:g}) + E({b:g})",
                                      energies[match], energies[a] + energies[b],
                                      margin, margin <= tol))
    return PropertyReport(checks, values=energies)


def verify_J_properties(graph: Graph, p, q, a_grid, solver_cfg=None,
                        rel_tol=1e-4, thetas=(2.0, 4.0),
                        allow_subcritical=False) -> PropertyReport:
    """Check the Sobolev value curve: exact mass-homogeneity J(a) = a^(p/q) J(1),
    strict sublinearity J(theta a) < theta J(a), and strict subadditivity on
    grid pairs that sum into the grid.

    Each solve after the first is seeded with the mass-rescaled minimizer of
    the previous one (an exactly feasible point), plus fresh restarts.
    """
    a_grid = sorted(float(a) for a in a_grid)
    cfg = solver_cfg or SolverConfig()
    values_min: dict[float, float] = {}
    carry = None

    def solve(a):
        nonlocal carry
        local_cfg = cfg
        if carry is not None:
            seed = carry[0] * (a / carry[1]) ** (1.0 / q)
            plan = [seed] + list(cfg.seeds or ["gauss:2.0", "ball", "random"])
            local_cfg = replace(cfg, seeds=plan)
        res = minimize_sobolev(graph, ProblemSpec(kind=SOBOLEV, a=a, p=p, q=q,
                                                  allow_subcritical=allow_subcritical),
                               local_cfg)
        carry = (res.minimizer.values.copy(), a)
        return res.energy

    def j_of(a):
        a = float(a)
        key = next((k for k in values_min if abs(k - a) < 1e-12), None)
        if key is None:
            values_min[a] = solve(a)
            key = a
        return values_min[key]

    checks = []
    a0 = a_grid[0]
    r0 = j_of(a0) / a0 ** (p / q)
    for a in a_grid:
        ratio = j_of(a) / a ** (p / q)
        rel = abs(ratio - r0) / max(abs(r0), 1e-300)
        checks.append(CheckRecord(f"J({a:g})/a^(p/q) ratio vs a={a0:g}", ratio, r0,
                                  rel, rel <= rel_tol))
    for theta in thetas:
        lhs = j_of(theta * a0)
        rhs = theta * j_of(a0)
        checks.append(CheckRecord(f"J({theta:g}*{a0:g}) < {theta:g} J({a0:g})",
                                  lhs, rhs, lhs - rhs, lhs < rhs))
    for i, a in enumerate(a_grid):
        for b in a_grid[i:]:
            tot = a + b
            match = next((c for c in a_grid if abs(c - tot) < 1e-12), None)
            if match is None:
                continue
            lhs, rhs = j_of(match), j_of(a) + j_of(b)
            checks.append(CheckRecord(f"J({match:g}) < J({a:g}) + J({b:g})",
                                      lhs, rhs, lhs - rhs, lhs < rhs))
    return PropertyReport(checks, values=values_min)


# ---------------------------------------------------------------------------
# Sobolev constants and the cut-sphere gap construction

def estimate_sobolev_constant(graph: Graph, p, q, solver_cfg=None,
                              allow_subcritical=False) -> float:
    """Best constant of the discrete Sobolev inequality on this truncation,
    from the extremal problem at unit mass: S = J(1)^(1/p)."""
    res = minimize_sobolev(graph, ProblemSpec(kind=SOBOLEV, a=1.0, p=p, q=q,
                                              allow_subcritical=allow_subcritical),
                           solver_cfg)
    if not res.converged:
        raise NotConverged("Sobolev constant estimate did not converge", result=res)
    return res.energy ** (1.0 / p)


def ball_indicator_field(graph: Graph, R: int, q) -> Field:
    """The unit-l^q normalized indicator of B_R: value |B_R|^(-1/q) inside."""
    radii = np.max(np.abs(graph.coords), axis=1)
    inside = radii < R
    count = int(np.sum(inside))
    if count == 0:
        raise InvalidSpec(f"B_{R} contains no vertices of the graph")
    return Field(graph, inside.astype(np.float64) * count ** (-1.0 / q))


@dataclass
class GapRecord:
    R: int
    bound_formula: float
    bound_evaluated: float
    witness: bool


@dataclass
class GapReport:
    d: int
    p: float
    q: float
    L: int
    j_unperturbed: float
    records: list
    witness_R: int | None
    margin: float | None


def sobolev_critical_gap(d, p, R_list, L, solver_cfg=None, boundary="dirichlet") -> GapReport:
    """Find a cut-sphere radius whose flat-profile energy beats the
    unperturbed extremal estimate at the critical exponent q = dp/(d-p).

    For each R the sphere-deletion graph keeps a single edge across the shell
    of B_R, and the normalized indicator of B_R is feasible at unit mass with
    p-Dirichlet energy |B_R|^(-p/q). The first R where that bound falls below
    the solver's unperturbed estimate witnesses the strict comparison that
    makes the critical problem attainable on the cut graph.
    """
    if not (1 <= p < d):
        raise InvalidSpec(f"critical exponent needs 1 <= p < d, got p={p}, d={d}")
    R_list = sorted(int(R) for R in R_list)
    if R_list and R_list[-1] >= L / 2:
        raise InvalidSpec(f"largest R={R_list[-1]} must stay below L/2={L / 2}")
    q = d * p / (d - p)
    base = build_graph(GraphSpec(d=d, L=L), boundary=boundary)
    res = minimize_sobolev(base, ProblemSpec(kind=SOBOLEV, a=1.0, p=p, q=q), solver_cfg)
    if not res.converged:
        raise NotConverged("unperturbed Sobolev estimate did not converge", result=res)
    j_est = res.energy
    records = []
    witness_R = None
    margin = None
    for R in R_list:
        cut = build_graph(sphere_deletion_spec(d, R, L), boundary=boundary)
        f_R = ball_indicator_field(cut, R, q)
        evaluated = dirichlet_energy(cut, f_R, p)
        formula = float((2 * R - 1) ** d) ** (-p / q)
        witness = evaluated < j_est
        records.append(GapRecord(R, formula, evaluated, witness))
        if witness and witness_R is None:
            witness_R = R
            margin = j_est - evaluated
    return GapReport(d, p, q, L, j_est, records, witness_R, margin)


# ---------------------------------------------------------------------------
# star-addition nonattainment diagnostics

@dataclass
class StarProbeRecord:
    L: int
    energy_perturbed: float
    energy_base: float
    energy_gap: float
    com_inf: float
    median_radius: int
    multiplier: float
    origin_power: float
    multiplier_gap: float
    converged: bool


@dataclass
class StarProbeReport:
    d: int
    R: int
    p: float
    q: float | None
    a: float
    equality_tol: float
    multiplier_floor: float
    records: list

    @property
    def equality_ok(self) -> bool:
        """Strict flag: every L has |gap| <= equality_tol. On a small
        truncation the gap is a true positive property of the functional
        (see ``star_nonattainment_probe``), so this can be False while the
        gap vanishes as L grows."""
        return all(r.energy_gap <= self.equality_tol for r in self.records)

    @property
    def escape_trend_ok(self) -> bool:
        coms = [r.com_inf for r in self.records]
        return all(b >= a - 1e-9 for a, b in zip(coms, coms[1:]))

    @property
    def multiplier_ok(self) -> bool:
        return all(r.multiplier_gap >= self.multiplier_floor for r in self.records)


def _weighted_median_radius(graph: Graph, weight: np.ndarray) -> int:
    radii = np.max(np.abs(graph.coords), axis=1)
    order = np.argsort(radii, kind="stable")
    cum = np.cumsum(weight[order])
    total = cum[-1]
    if total <= 0:
        return 0
    k = int(np.searchsorted(cum, 0.5 * total))
    return int(radii[order[min(k, len(order) - 1)]])


def star_nonattainment_probe(d, R, p, q, L_list, a, solver_cfg=None,
                             equality_tol=2e-6, boundary=None,
                             raise_on_nonconverged=True) -> StarProbeReport:
    """Escape diagnostics on star-addition graphs over growing truncations.

    For each L the problem is solved on the star graph and on the plain
    truncation. The witness bundle consists of (i) near-equal energies,
    (ii) a centre of mass drifting outward with L, and (iii) a multiplier
    that stays far from the value an interior minimizer would force: for the
    Schrodinger problem that value is u(0)^(p-2); for the Sobolev problem an
    interior minimizer would force the multiplier itself to vanish, so the
    reference value is zero.

    On a finite truncation the star infimum is not yet the lattice one: the
    minimizer escapes towards the box end, and its tail still reaches back
    into B_R, so the energy gap is positive and decays with L - R. For the
    Schrodinger problem it follows the ground-state tail exp(-2 kappa (L-R)),
    cosh(kappa) = 1 + lambda/2 with lambda the multiplier. ``energy_gap`` is
    the absolute gap; the signed one is ``energy_perturbed - energy_base``.
    """
    kind = NLS if q is None else SOBOLEV
    if boundary is None:
        boundary = "drop" if kind == NLS else "dirichlet"
    cfg = solver_cfg or SolverConfig()
    records = []
    origin = (0,) * d
    for L in sorted(int(x) for x in L_list):
        star = build_graph(star_addition_spec(d, R, L), boundary=boundary)
        base = build_graph(GraphSpec(d=d, L=L), boundary=boundary)
        problem = ProblemSpec(kind=kind, a=a, p=p, q=q)
        rp = _solve(star, problem, cfg)
        rb = _solve(base, problem, cfg)
        if raise_on_nonconverged and not (rp.converged and rb.converged):
            raise NotConverged(f"star probe at L={L} did not converge",
                               result=rp if not rp.converged else rb)
        u = rp.minimizer.values
        weight = _constraint_weight(problem, u)
        origin_power = float(np.abs(u[star.vertex_id(origin)]) ** (p - 2.0)) if kind == NLS else 0.0
        com = (star.coords.T @ weight) / np.sum(weight)
        records.append(StarProbeRecord(
            L=L,
            energy_perturbed=rp.energy,
            energy_base=rb.energy,
            energy_gap=abs(rp.energy - rb.energy),
            com_inf=float(np.max(np.abs(com))),
            median_radius=_weighted_median_radius(star, weight),
            multiplier=rp.multiplier,
            origin_power=origin_power,
            multiplier_gap=abs(rp.multiplier - origin_power),
            converged=rp.converged and rb.converged,
        ))
    return StarProbeReport(d, R, p, q, a, equality_tol, 10.0 * cfg.tol_grad, records)


# ---------------------------------------------------------------------------
# random-field lemma suite

def _random_field(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(graph.n)


def _split_pair(graph: Graph, rng: np.random.Generator):
    """A corner bump v and a centred bump w whose translate lands in the
    opposite corner, supports separated by at least two lattice steps."""
    ext = graph.extent
    radius = max(1, ext // 3)
    c = np.ones(graph.d, dtype=np.int64) * (ext - radius)
    d1 = np.max(np.abs(graph.coords + c), axis=1)
    d2 = np.max(np.abs(graph.coords), axis=1)
    v = np.where(d1 < radius, rng.standard_normal(graph.n), 0.0)
    w = np.where(d2 < radius, rng.standard_normal(graph.n), 0.0)
    return v, w, tuple(-c)


def verify_lemma_suite(graph: Graph, p=4.0, q=6.0, n_fields=100, rng_seed=0,
                       nesting_tol=1e-12, lower_tol=1e-12,
                       brezis_lieb_tol=1e-10, parts_tol=1e-10) -> PropertyReport:
    """Random-field checks of the basic inequalities and identities:
    l^q-in-l^p norm nesting, the mass lower bound for the Schrodinger energy,
    the exact norm and Dirichlet splitting for far-apart bumps, and the
    summation-by-parts identity for the p-Laplacian."""
    rng = np.random.default_rng(rng_seed)
    worst = {"nesting": 0.0, "lower_bound": -np.inf, "brezis_lieb": 0.0, "parts": 0.0}
    exponent_pairs = [(1.0, 1.5), (1.0, 2.0), (2.0, 3.0), (2.0, q), (3.0, 17.0), (2.0, np.inf)]
    parts_exponents = [2.0, 2.5, 3.0, p]
    for i in range(n_fields):
        u = _random_field(graph, rng)
        for lo, hi in exponent_pairs:
            worst["nesting"] = max(worst["nesting"], lp_norm(u, hi) - lp_norm(u, lo))
        mass = float(rng.uniform(0.25, 8.0))
        v = u * math.sqrt(mass) / lp_norm(u, 2)
        gap = nls_energy(graph, v, p) - (-(mass ** (p / 2.0)) / p)
        worst["lower_bound"] = max(worst["lower_bound"], -gap)
        bump_v, bump_w, shift = _split_pair(graph, rng)
        moved = translate(Field(graph, bump_w), shift).values
        combined = bump_v + moved
        lhs = lp_norm(combined, q) ** q - lp_norm(combined - bump_v, q) ** q
        rhs = lp_norm(bump_v, q) ** q
        worst["brezis_lieb"] = max(worst["brezis_lieb"], abs(lhs - rhs))
        lhs_d = (dirichlet_energy(graph, combined, q)
                 - dirichlet_energy(graph, combined - bump_v, q))
        worst["brezis_lieb"] = max(worst["brezis_lieb"], abs(lhs_d - dirichlet_energy(graph, bump_v, q)))
        pe = parts_exponents[i % len(parts_exponents)]
        energy = dirichlet_energy(graph, u, pe)
        pairing = -float(np.dot(u, p_laplacian(graph, u, pe).values))
        worst["parts"] = max(worst["parts"], abs(pairing - energy) / max(abs(energy), 1e-300))
    checks = [
        CheckRecord("norm nesting ||u||_q <= ||u||_p", worst["nesting"], 0.0,
                    worst["nesting"], worst["nesting"] <= nesting_tol),
        CheckRecord("energy lower bound Phi >= -a^(p/2)/p", -worst["lower_bound"], 0.0,
                    worst["lower_bound"], worst["lower_bound"] <= lower_tol),
        CheckRecord("norm and Dirichlet splitting for far bumps", worst["brezis_lieb"], 0.0,
                    worst["brezis_lieb"], worst["brezis_lieb"] <= brezis_lieb_tol),
        CheckRecord("summation by parts <u, -L_p u> = D_p(u)", worst["parts"], 0.0,
                    worst["parts"], worst["parts"] <= parts_tol),
    ]
    return PropertyReport(checks)
