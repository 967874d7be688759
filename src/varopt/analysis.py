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
from .errors import InconclusiveProbe, InvalidExponent, InvalidRange, InvalidSpec, NotConverged
from .lattice import (Graph, GraphSpec, _is_finite, _is_int, _is_number, build_graph, sphere_deletion_spec,
                      star_addition_spec)
from .solver import (
    DEFAULT_BOUNDARY,
    NLS,
    SOBOLEV,
    ProblemSpec,
    SolverConfig,
    _constraint_weight,
    minimize,
    minimize_sobolev,
)


def _check_tolerances(**tolerances) -> None:
    """Reject a tolerance that is a boolean, not a number, negative or not finite."""
    for name, x in tolerances.items():
        if not (_is_number(x) and 0 <= x < math.inf):
            raise InvalidSpec(f"{name} must be a finite number >= 0, not a boolean, got {x!r}")


def _mass_grid(a_grid) -> list:
    """The masses of a grid as floats, in the caller's order; at least one."""
    try:
        a_grid = list(a_grid)
    except TypeError:  # a scalar, say
        raise InvalidSpec(f"a_grid must list at least one mass, got {a_grid!r}") from None
    if not (a_grid and all(map(_is_number, a_grid))):
        raise InvalidSpec(f"a_grid must list at least one mass, all numbers, got {a_grid!r}")
    return [float(a) for a in a_grid]


def _sorted_radii(radii, name: str, what: str) -> list:
    """The radii in increasing order: at least one, and none twice, which would repeat a probe."""
    try:
        radii = sorted(radii)
    except TypeError:  # a scalar, or entries that do not compare
        raise InvalidSpec(f"{name} must list at least one {what}, got {radii!r}") from None
    if not radii:
        raise InvalidSpec(f"{name} must list at least one {what}")
    twice = next((r for r, s in zip(radii, radii[1:]) if r == s), None)
    if twice is not None:
        raise InvalidSpec(f"{name} lists {twice!r} twice, got {radii!r}")
    return radii


def _graph_label(graph: Graph) -> str:
    spec = graph.spec
    if spec is None:
        return f"graph-n{graph.n}"
    kind = "lattice"
    if len(spec.deletion_array):
        kind = f"del{len(spec.deletion_array)}"
    elif len(spec.addition_array):
        kind = f"add{len(spec.addition_array)}"
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
    solver failed to settle a needed probe, or when a_min classified negative
    and a_max nonnegative, which a non-increasing energy rules out (alpha_lo
    and alpha_hi then hold those two masses, alpha_lo > alpha_hi).
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

    graph_family maps a truncation radius L to a Graph; probes run on the one
    L that levels lists. A probe classifies as negative when its energy
    estimate drops below -tol_neg; a negative estimate is sound even without
    residual convergence (the iterate is feasible, so its energy is an upper
    bound), while a nonnegative classification is only accepted from a
    converged solve. Unsettled probes are recorded and retried at nudged masses; if the
    range endpoints themselves cannot be settled the run raises
    InconclusiveProbe, and a mid-bisection failure returns the partial
    bracket with status "inconclusive".
    """
    _check_tolerances(bracket_tol=bracket_tol, tol_neg=tol_neg)
    if not (_is_int(max_probes) and max_probes >= 0):
        raise InvalidSpec(f"max_probes must be a whole number >= 0, got {max_probes!r}")
    if not (isinstance(levels, (list, tuple)) and len(levels) == 1):
        raise InvalidSpec(f"levels must list exactly one truncation radius L, got {levels!r}")
    if not (isinstance(a_range, (list, tuple)) and len(a_range) == 2
            and all(map(_is_finite, a_range))):
        raise InvalidRange(f"a_range must be a list or tuple of two finite numbers [a_min, a_max], "
                           f"got {a_range!r}")
    a_min, a_max = float(a_range[0]), float(a_range[1])
    if not (0 < a_min < a_max):
        raise InvalidRange(f"need 0 < a_min < a_max, got {a_range}")
    graph = graph_family(levels[0])
    probes: list[ProbeRecord] = []

    def probe(a):
        res = minimize(graph, ProblemSpec(kind=NLS, a=a, p=p), solver_cfg)
        rec = ProbeRecord(a=a, energy=res.energy, converged=res.converged,
                          negative=res.energy < -tol_neg)
        probes.append(rec)
        return rec

    def settled_probe(a, lo, hi):
        # a negative energy estimate is a feasible-point upper bound, hence a
        # sound classification even when the residual tolerance was not met;
        # a nonnegative estimate is only trusted from a converged solve
        for nudge in (0.0, 0.02, -0.02, 0.05):  # a itself, then the nudges inside the range
            a_try = a + nudge * (hi - lo)
            if nudge == 0.0 or lo < a_try < hi:
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
    # invariant: lo is the largest mass classified nonnegative, hi the smallest classified negative
    lo = max((rec.a for rec in (first, last) if not rec.negative), default=None)
    hi = min((rec.a for rec in (first, last) if rec.negative), default=None)
    status = ("all_negative" if lo is None else "all_nonnegative" if hi is None
              else "bracketed" if lo < hi else "inconclusive")
    for _ in range(max_probes):
        if status != "bracketed" or hi - lo <= bracket_tol:
            break
        rec = settled_probe(0.5 * (lo + hi), lo, hi)
        if rec is None:
            status = "inconclusive"
            break
        lo, hi = (lo, rec.a) if rec.negative else (rec.a, hi)
    return ThresholdResult(p, label, tol_neg, bracket_tol, status, lo, hi, probes)


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


def _paired_solve(graph_perturbed: Graph, graph_base: Graph, problem: ProblemSpec, cfg: SolverConfig,
                  required: bool, where: str) -> tuple:
    """Solve the problem on the perturbed graph, then on the base. With required
    set, an unconverged solve raises NotConverged naming where, with that result attached."""
    rp = minimize(graph_perturbed, problem, cfg)
    rb = minimize(graph_base, problem, cfg)
    if required and not (rp.converged and rb.converged):
        raise NotConverged(f"{where} did not converge", result=rp if not rp.converged else rb)
    return rp, rb


def compare_energies(graph_perturbed: Graph, graph_base: Graph, problem_template: ProblemSpec,
                     a_grid, solver_cfg=None, tol=1e-8, strict_margin=None,
                     raise_on_nonconverged=True) -> ComparisonReport:
    """Solve the template problem on both graphs for every mass in the grid.

    The margin at each point is E_perturbed - E_base; "<= holds" allows tol
    of solver noise and "strict" requires clearing strict_margin (default
    ten times the solver residual tolerance).
    """
    _check_tolerances(tol=tol, **({} if strict_margin is None else {"strict_margin": strict_margin}))
    shapes = [(g.d, g.L, g.boundary) for g in (graph_perturbed, graph_base)]
    if shapes[0] != shapes[1]:
        raise InvalidSpec(f"comparison graphs must share (d, L, boundary), got {shapes[0]} and {shapes[1]}")
    a_grid = _mass_grid(a_grid)
    cfg = solver_cfg or SolverConfig()
    if strict_margin is None:
        strict_margin = 10.0 * cfg.tol_grad
    perturbed, base_vals, margins, verdicts, conv = [], [], [], [], []
    for a in a_grid:
        rp, rb = _paired_solve(graph_perturbed, graph_base, replace(problem_template, a=a), cfg,
                               raise_on_nonconverged, f"comparison probe at a={a}")
        perturbed.append(rp.energy)
        base_vals.append(rb.energy)
        margins.append(rp.energy - rb.energy)
        verdicts.append(ComparisonReport.verdict(margins[-1], tol, strict_margin))
        conv.append(rp.converged and rb.converged)
    return ComparisonReport(problem_template.kind, problem_template.p, problem_template.q,
                            a_grid, perturbed, base_vals, margins,
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
    n_fields: int | None = None     # random fields per check, for the lemma suite

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _grid_sums(a_grid):
    """(a, b, c) for each pair a <= b of the sorted grid whose sum lies within
    1e-12 of a grid mass c, the first such mass in order."""
    for i, a in enumerate(a_grid):
        for b in a_grid[i:]:
            c = next((c for c in a_grid if abs(c - (a + b)) < 1e-12), None)
            if c is not None:
                yield a, b, c


def _solved_as(masses) -> dict:
    """Each mass -> the first listed mass within 1e-12 of it, which is the one solved."""
    solved_as = {}
    for a in masses:
        solved_as[a] = next((m for m in solved_as.values() if abs(m - a) < 1e-12), a)
    return solved_as


def _distinct_masses(a_grid) -> list:
    """The grid's masses in increasing order, each once: a mass within 1e-12 of a
    smaller one is that mass."""
    return list(dict.fromkeys(_solved_as(sorted(_mass_grid(a_grid))).values()))


def verify_E_properties(graph: Graph, p, a_grid, solver_cfg=None) -> PropertyReport:
    """Check the ground-state energy curve over a mass grid: nonpositive (to 1e-8),
    non-increasing and subadditive on every pair that sums into the grid (both to 1e-6)."""
    a_grid = _distinct_masses(a_grid)
    energies = {a: minimize(graph, ProblemSpec(kind=NLS, a=a, p=p), solver_cfg).energy for a in a_grid}
    checks = [CheckRecord(f"E(a={a:g}) <= 0", energies[a], 0.0, energies[a], energies[a] <= 1e-8)
              for a in a_grid]
    for lo, hi in zip(a_grid, a_grid[1:]):
        margin = energies[hi] - energies[lo]
        checks.append(CheckRecord(f"E({hi:g}) <= E({lo:g})", energies[hi], energies[lo],
                                  margin, margin <= 1e-6))
    for a, b, c in _grid_sums(a_grid):
        margin = energies[c] - (energies[a] + energies[b])
        checks.append(CheckRecord(f"E({c:g}) <= E({a:g}) + E({b:g})", energies[c],
                                  energies[a] + energies[b], margin, margin <= 1e-6))
    return PropertyReport(checks, values=energies)


def verify_J_properties(graph: Graph, p, q, a_grid, solver_cfg=None, thetas=(2.0, 4.0)) -> PropertyReport:
    """Check the Sobolev value curve: mass-homogeneity J(a) = a^(p/q) J(1) to a
    relative 1e-4, strict sublinearity J(theta a) < theta J(a) for thetas > 1,
    and strict subadditivity on grid pairs that sum into the grid.

    Each solve after the first is seeded with the mass-rescaled minimizer of
    the previous one (an exactly feasible point), plus fresh restarts.
    """
    a_grid = _distinct_masses(a_grid)
    if not all(_is_finite(theta) and theta > 1 for theta in thetas):  # theta <= 1 states a false inequality
        raise InvalidSpec(f"thetas must be finite numbers > 1, not booleans, got {thetas!r}")
    cfg = solver_cfg or SolverConfig()
    a0 = a_grid[0]
    solved_as = _solved_as(a_grid + [float(theta * a0) for theta in thetas])  # each mass the checks read
    masses = list(dict.fromkeys(solved_as.values()))
    values = {}
    for prev, a in zip([None] + masses, masses):
        plan = cfg
        if prev is not None:  # res is the solve at prev
            seed = res.minimizer.values * (a / prev) ** (1.0 / q)
            plan = replace(cfg, seeds=[seed] + list(cfg.seeds or ["gauss:2.0", "ball", "random"]))
        res = minimize_sobolev(graph, ProblemSpec(kind=SOBOLEV, a=a, p=p, q=q), plan)
        values[a] = res.energy
    j = {a: values[m] for a, m in solved_as.items()}

    checks = []
    r0 = j[a0] / a0 ** (p / q)
    for a in a_grid:
        ratio = j[a] / a ** (p / q)
        rel = abs(ratio - r0) / max(abs(r0), 1e-300)
        checks.append(CheckRecord(f"J({a:g})/a^(p/q) ratio vs a={a0:g}", ratio, r0,
                                  rel, rel <= 1e-4))
    for theta in thetas:
        lhs, rhs = j[float(theta * a0)], theta * j[a0]
        checks.append(CheckRecord(f"J({theta:g}*{a0:g}) < {theta:g} J({a0:g})",
                                  lhs, rhs, lhs - rhs, lhs < rhs))
    for a, b, c in _grid_sums(a_grid):
        lhs, rhs = j[c], j[a] + j[b]
        checks.append(CheckRecord(f"J({c:g}) < J({a:g}) + J({b:g})", lhs, rhs, lhs - rhs, lhs < rhs))
    return PropertyReport(checks, values=values)


# ---------------------------------------------------------------------------
# Sobolev constants and the cut-sphere gap construction

def estimate_sobolev_constant(graph: Graph, p, q, solver_cfg=None) -> float:
    """Best constant of the discrete Sobolev inequality on this truncation,
    from the extremal problem at unit mass: S = J(1)^(1/p)."""
    res = minimize_sobolev(graph, ProblemSpec(kind=SOBOLEV, a=1.0, p=p, q=q), solver_cfg)
    if not res.converged:
        raise NotConverged("Sobolev constant estimate did not converge", result=res)
    return res.energy ** (1.0 / p)


def ball_indicator_field(graph: Graph, R: int, q) -> Field:
    """The unit-l^q normalized indicator of B_R: value |B_R|^(-1/q) inside."""
    if not _is_int(R):  # a whole R < 1 leaves B_R empty, which is refused below
        raise InvalidSpec(f"ball indicator needs a whole radius R, not a boolean, got {R!r}")
    if not (_is_number(q) and q >= 1):
        raise InvalidExponent(f"ball indicator needs q = inf or a number q >= 1, not a boolean, got {q!r}")
    inside = graph.sup_distance() < R
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


def sobolev_critical_gap(d, p, R_list, L, solver_cfg=None) -> GapReport:
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
    R_list = _sorted_radii(R_list, "R_list", "sphere radius R")
    if R_list[-1] >= L / 2:
        raise InvalidSpec(f"largest R={R_list[-1]} must stay below L/2={L / 2}")
    q = d * p / (d - p)
    base = build_graph(GraphSpec(d=d, L=L), boundary="dirichlet")
    cuts = [sphere_deletion_spec(d, R, L) for R in R_list]  # checks every R before the solve
    res = minimize_sobolev(base, ProblemSpec(kind=SOBOLEV, a=1.0, p=p, q=q), solver_cfg)
    if not res.converged:
        raise NotConverged("unperturbed Sobolev estimate did not converge", result=res)
    j_est = res.energy
    records = []
    witness_R = None
    margin = None
    for R, spec in zip(R_list, cuts):
        cut = build_graph(spec, boundary="dirichlet")
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
        """A consistency check: com_inf does not fall as L grows, which the plain box passes too."""
        coms = [r.com_inf for r in self.records]
        return all(b >= a - 1e-9 for a, b in zip(coms, coms[1:]))

    @property
    def multiplier_ok(self) -> bool:
        """A consistency check: for NLS, lambda = u(0)^(p-2) + (Delta u)(0)/u(0) at the origin,
        so it only tests (Delta u)(0) != 0; for Sobolev, lambda = D_p(u)/a > 0 on every graph."""
        return all(r.multiplier_gap >= self.multiplier_floor for r in self.records)


def _weighted_median_radius(graph: Graph, weight: np.ndarray) -> int:
    radii = graph.sup_distance()
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
    compared with u(0)^(p-2), the value an interior NLS minimizer would force,
    or with zero for Sobolev, where pairing -Delta_p u = lambda u^(q-1) with u
    gives lambda = D_p(u) / a. (ii) and (iii) are consistency checks, which
    the plain box in place of the star passes too.

    On a finite truncation the star infimum is not yet the lattice one: the
    minimizer escapes towards the box end, and its tail still reaches back
    into B_R, so the energy gap is positive and decays with L - R. For the
    Schrodinger problem it follows the ground-state tail exp(-2 kappa (L-R)),
    cosh(kappa) = 1 + lambda/2 with lambda the multiplier. ``energy_gap`` is
    the absolute gap; the signed one is ``energy_perturbed - energy_base``.
    """
    _check_tolerances(equality_tol=equality_tol)
    kind = NLS if q is None else SOBOLEV
    boundary = DEFAULT_BOUNDARY[kind] if boundary is None else boundary
    cfg = solver_cfg or SolverConfig()
    L_list = _sorted_radii(L_list, "L_list", "truncation radius L")
    records = []
    for L in L_list:
        star = build_graph(star_addition_spec(d, R, L), boundary=boundary)
        base = build_graph(GraphSpec(d=d, L=L), boundary=boundary)
        problem = ProblemSpec(kind=kind, a=a, p=p, q=q)
        rp, rb = _paired_solve(star, base, problem, cfg, raise_on_nonconverged, f"star probe at L={L}")
        u = rp.minimizer.values
        origin_power = float(np.abs(u[star.vertex_id((0,) * d)]) ** (p - 2.0)) if kind == NLS else 0.0
        records.append(StarProbeRecord(
            L=L,
            energy_perturbed=rp.energy,
            energy_base=rb.energy,
            energy_gap=abs(rp.energy - rb.energy),
            com_inf=max(abs(c) for c in rp.localization.center_of_mass),
            median_radius=_weighted_median_radius(star, _constraint_weight(problem, u)),
            multiplier=rp.multiplier,
            origin_power=origin_power,
            multiplier_gap=abs(rp.multiplier - origin_power),
            converged=rp.converged and rb.converged,
        ))
    return StarProbeReport(d, R, p, q, a, equality_tol, 10.0 * cfg.tol_grad, records)


# ---------------------------------------------------------------------------
# random-field lemma suite

def _split_pair(graph: Graph, rng: np.random.Generator):
    """A corner bump v and a centred bump w whose translate lands in the
    opposite corner, supports separated by at least two lattice steps."""
    ext = graph.extent
    radius = max(1, ext // 3)
    c = np.ones(graph.d, dtype=np.int64) * (ext - radius)
    v = np.where(graph.sup_distance(-c) < radius, rng.standard_normal(graph.n), 0.0)
    w = np.where(graph.sup_distance() < radius, rng.standard_normal(graph.n), 0.0)
    return v, w, tuple(-c)


def verify_lemma_suite(graph: Graph, p=4.0, q=6.0, n_fields=100, rng_seed=0) -> PropertyReport:
    """Random-field checks of the basic inequalities and identities:
    l^q-in-l^p norm nesting, the mass lower bound for the Schrodinger energy
    (both to 1e-12), the exact norm and Dirichlet splitting for far-apart
    bumps, and the summation-by-parts identity for the p-Laplacian (both to
    1e-10)."""
    if not (_is_int(n_fields) and n_fields >= 1):
        raise InvalidSpec(f"n_fields must be a whole number >= 1, got {n_fields!r}")
    if not all(map(_is_finite, (p, q))):  # inf makes NaN margins, which pass max
        raise InvalidSpec(f"p and q must be finite numbers, not booleans, got p={p!r}, q={q!r}")
    if not (_is_int(rng_seed) and rng_seed >= 0):
        raise InvalidSpec(f"rng_seed must be a whole number >= 0, not a boolean, got {rng_seed!r}")
    rng = np.random.default_rng(rng_seed)
    worst = {"nesting": 0.0, "lower_bound": -np.inf, "brezis_lieb": 0.0, "parts": 0.0}
    exponent_pairs = [(1.0, 1.5), (1.0, 2.0), (2.0, 3.0), (2.0, q), (3.0, 17.0), (2.0, np.inf)]
    parts_exponents = [2.0, 2.5, 3.0, p]
    for i in range(n_fields):
        u = rng.standard_normal(graph.n)
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
                    worst["nesting"], worst["nesting"] <= 1e-12),
        CheckRecord("energy lower bound Phi >= -a^(p/2)/p", -worst["lower_bound"], 0.0,
                    worst["lower_bound"], worst["lower_bound"] <= 1e-12),
        CheckRecord("norm and Dirichlet splitting for far bumps", worst["brezis_lieb"], 0.0,
                    worst["brezis_lieb"], worst["brezis_lieb"] <= 1e-10),
        CheckRecord("summation by parts <u, -L_p u> = D_p(u)", worst["parts"], 0.0,
                    worst["parts"], worst["parts"] <= 1e-10),
    ]
    return PropertyReport(checks, n_fields=n_fields)
