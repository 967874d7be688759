"""Threshold bisection, comparisons, property suites, escape diagnostics."""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from varopt import (
    GraphSpec,
    InvalidExponent,
    InvalidSpec,
    ProblemSpec,
    SolverConfig,
    build_graph,
    path_graph,
    sphere_deletion_spec,
    star_addition_spec,
)
from varopt.analysis import (
    ComparisonReport,
    ball_indicator_field,
    compare_energies,
    estimate_sobolev_constant,
    estimate_threshold,
    sobolev_critical_gap,
    star_nonattainment_probe,
    verify_E_properties,
    verify_J_properties,
    verify_lemma_suite,
)
from varopt import analysis, cli, solver

CFG = SolverConfig(restarts=6, tol_grad=1e-8, max_iters=30000)


def lattice_family(d):
    return lambda L: build_graph(GraphSpec(d=d, L=L))


# ---------------------------------------------------------------------------
# thresholds

def test_threshold_all_negative_for_subcritical_power():
    result = estimate_threshold(lattice_family(1), 4.0, (0.1, 6.0), levels=(12,),
                                solver_cfg=CFG)
    assert result.status == "all_negative"
    assert result.alpha_hi == 0.1
    assert all(pr.negative for pr in result.probes)


def test_threshold_all_nonnegative_at_tiny_mass():
    result = estimate_threshold(lattice_family(1), 7.0, (0.001, 0.01), levels=(10,),
                                solver_cfg=CFG)
    assert result.status == "all_nonnegative"
    assert result.alpha_lo == 0.01


def test_threshold_brackets_sign_change():
    result = estimate_threshold(lattice_family(1), 7.0, (0.01, 20.0), levels=(10,),
                                bracket_tol=0.5, solver_cfg=CFG)
    assert result.status == "bracketed"
    assert result.alpha_lo < result.alpha_hi
    assert result.alpha_hi - result.alpha_lo <= 0.5
    # bisection soundness: endpoint classifications are carried by real probes
    lo_probe = min((pr for pr in result.probes if not pr.negative),
                   key=lambda pr: abs(pr.a - result.alpha_lo))
    hi_probe = min((pr for pr in result.probes if pr.negative),
                   key=lambda pr: abs(pr.a - result.alpha_hi))
    assert lo_probe.a == result.alpha_lo and lo_probe.energy >= -result.tol_neg
    assert hi_probe.a == result.alpha_hi and hi_probe.energy < -result.tol_neg


def test_threshold_range_validation():
    from varopt import InvalidRange
    with pytest.raises(InvalidRange):
        estimate_threshold(lattice_family(1), 4.0, (0.0, 1.0), solver_cfg=CFG)
    with pytest.raises(InvalidRange):
        estimate_threshold(lattice_family(1), 4.0, (2.0, 1.0), solver_cfg=CFG)


def test_threshold_a_range_needs_two_masses():
    # [0.5] once surfaced as a bare IndexError
    from varopt import InvalidRange
    for bad in ([0.5], [], [0.5, 1.0, 2.0]):
        with pytest.raises(InvalidRange, match="a_range"):
            estimate_threshold(lattice_family(1), 4.0, bad, solver_cfg=CFG)


def test_threshold_a_range_must_be_two_numbers():
    # 5 once raised a bare TypeError from len(), "ab" a ValueError from float()
    from varopt import InvalidRange
    for bad in (5, "ab", [0.5, "x"], [True, 2.0], (0.5, np.bool_(True))):
        with pytest.raises(InvalidRange, match="a_range"):
            estimate_threshold(lattice_family(1), 4.0, bad, solver_cfg=CFG)


def test_threshold_a_range_must_be_finite_before_any_solve(monkeypatch):
    # [0.5, inf] once ran a full probe at a=0.5 and then failed naming a=inf, not a_range
    from varopt import InvalidRange, analysis
    solves = []
    monkeypatch.setattr(analysis, "minimize", lambda *args: solves.append(args))
    for bad in ([0.5, math.inf], (-math.inf, 1.0), [0.5, math.nan], (np.float64(0.5), np.inf)):
        with pytest.raises(InvalidRange, match="a_range"):
            estimate_threshold(lattice_family(1), 4.0, bad, solver_cfg=CFG)
    assert solves == []


def test_property_suites_check_their_inputs():
    # an empty grid passed vacuously (E) or raised a bare IndexError (J)
    g = build_graph(GraphSpec(d=1, L=4))
    with pytest.raises(InvalidSpec, match="a_grid"):
        verify_E_properties(g, 4.0, [], solver_cfg=CFG)
    with pytest.raises(InvalidSpec, match="a_grid"):
        verify_J_properties(build_graph(GraphSpec(d=3, L=3), boundary="dirichlet"), 2.0, 6.0, [],
                            solver_cfg=CFG)
    for bad in ([True, 1.0], ["2"]):  # True once ran as the mass 1.0
        with pytest.raises(InvalidSpec, match="a_grid"):
            verify_E_properties(g, 4.0, bad, solver_cfg=CFG)


def test_threshold_levels_must_not_be_empty():
    # an empty tuple once surfaced as max()'s bare ValueError
    with pytest.raises(InvalidSpec, match="levels"):
        estimate_threshold(lattice_family(1), 4.0, (0.5, 6.0), levels=(), solver_cfg=CFG)


@pytest.mark.parametrize("levels", [(8, 12), [10, 10], 12, {12}])
def test_threshold_levels_must_list_one_L(monkeypatch, levels):
    # (8, 12) once ran on L=12 alone and dropped 8 without a word
    solves = []
    monkeypatch.setattr(analysis, "minimize", lambda *args: solves.append(args))
    with pytest.raises(InvalidSpec, match="levels must list exactly one"):
        estimate_threshold(lattice_family(1), 4.0, (0.5, 6.0), levels=levels)
    assert solves == []


def test_threshold_inconclusive_endpoints_raise():
    from varopt import InconclusiveProbe
    # one iteration cannot settle a nonnegative classification at tiny mass
    crippled = SolverConfig(restarts=1, seeds=["delta"], tol_grad=1e-18, max_iters=1)
    with pytest.raises(InconclusiveProbe):
        estimate_threshold(lattice_family(1), 7.0, (0.001, 0.002), levels=(8,),
                           solver_cfg=crippled)


def scripted_minimize(converged, negative):
    """A stand-in for analysis.minimize: energy -1 where negative(a), else 0, and the
    converged flag converged(a); every call's mass is recorded in .masses."""
    def minimize(graph, problem, cfg):
        minimize.masses.append(problem.a)
        return SimpleNamespace(energy=-1.0 if negative(problem.a) else 0.0, converged=converged(problem.a))
    minimize.masses = []
    return minimize


def test_threshold_endpoint_settled_by_a_nudge(monkeypatch):
    # a_min and its first nudge stay unsettled, the nudge below a_min is skipped and
    # the third nudge settles the endpoint; the bisection starts from the settled mass
    fake = scripted_minimize(converged=lambda a: a >= 1.15, negative=lambda a: a >= 2.5)
    monkeypatch.setattr(analysis, "minimize", fake)
    result = estimate_threshold(lattice_family(1), 4.0, (1.0, 5.0), levels=(3,), bracket_tol=1.0)
    settled = 1.0 + 0.05 * (5.0 - 1.0)
    mid1 = 0.5 * (settled + 5.0)
    mid2 = 0.5 * (settled + mid1)
    assert fake.masses == [1.0, 1.0 + 0.02 * (5.0 - 1.0), settled, 5.0, mid1, mid2]
    assert [pr.a for pr in result.probes] == fake.masses
    assert (result.status, result.alpha_lo, result.alpha_hi) == ("bracketed", mid2, mid1)


def test_threshold_unsettled_midpoint_is_inconclusive(monkeypatch):
    # the first midpoint and all three nudges are nonnegative and unconverged: the
    # run returns the bracket it had, with status "inconclusive"
    fake = scripted_minimize(converged=lambda a: a < 2.5, negative=lambda a: a >= 3.5)
    monkeypatch.setattr(analysis, "minimize", fake)
    result = estimate_threshold(lattice_family(1), 4.0, (1.0, 5.0), levels=(3,))
    mid = 0.5 * (1.0 + 5.0)
    assert fake.masses == [1.0, 5.0, mid, mid + 0.02 * 4.0, mid - 0.02 * 4.0, mid + 0.05 * 4.0]
    assert [pr.a for pr in result.probes] == fake.masses
    assert (result.status, result.alpha_lo, result.alpha_hi) == ("inconclusive", 1.0, 5.0)


@pytest.mark.parametrize("family, label", [
    (path_graph, "graph-n5"),
    (lambda L: build_graph(sphere_deletion_spec(2, 1, L)), "del3-d2-L5"),
    (lambda L: build_graph(star_addition_spec(1, 2, L)), "add1-d1-L5"),
], ids=["path", "deletion", "addition"])
def test_threshold_graph_id_names_the_family(monkeypatch, family, label):
    # a graph with no spec is named by its size; a perturbed one by its perturbation count
    monkeypatch.setattr(analysis, "minimize", scripted_minimize(converged=lambda a: True, negative=lambda a: True))
    assert estimate_threshold(family, 4.0, (1.0, 5.0), levels=(5,)).graph_id == label


def test_threshold_endpoints_in_the_wrong_order_are_inconclusive(monkeypatch, tmp_path):
    # a_min negative and a_max nonnegative once returned "bracketed" with alpha_lo > alpha_hi;
    # a non-increasing energy rules that order out, so the run says it cannot tell
    from varopt.cli import ExperimentConfig, run
    fake = scripted_minimize(converged=lambda a: True, negative=lambda a: a < 3.0)
    monkeypatch.setattr(analysis, "minimize", fake)
    result = estimate_threshold(lattice_family(1), 4.0, (1.0, 5.0), levels=(3,))
    assert fake.masses == [1.0, 5.0]
    assert (result.status, result.alpha_lo, result.alpha_hi) == ("inconclusive", 5.0, 1.0)
    cfg = ExperimentConfig.from_dict({"experiment": "threshold", "graph": {"d": 1, "L": 3},
                                      "params": {"p": 4.0, "a_range": [1.0, 5.0]},
                                      "output_dir": str(tmp_path)})
    assert run(cfg) == 3


def test_threshold_probe_consistent_with_subpath_oracle():
    # the box energy sits below any value attainable on a 3-site subpath
    from varopt import brute_force_oracle, minimize, path_graph
    a, p = 0.01, 7.0
    upper = brute_force_oracle(path_graph(3), ProblemSpec(kind="nls", a=a, p=p), 2e-3)
    g = build_graph(GraphSpec(d=1, L=20))
    probe = minimize(g, ProblemSpec(kind="nls", a=a, p=p), CFG)
    assert probe.energy <= upper + 1e-9


# ---------------------------------------------------------------------------
# comparisons

def test_compare_identical_graphs():
    g1 = build_graph(GraphSpec(d=1, L=10))
    g2 = build_graph(GraphSpec(d=1, L=10))
    report = compare_energies(g1, g2, ProblemSpec(kind="nls", a=1.0, p=4),
                              [1.0, 2.0], solver_cfg=CFG)
    assert all(abs(m) <= 1e-10 for m in report.margins)
    assert all(v != "violated" for v in report.verdicts)


def test_compare_deletion_graph_never_higher():
    perturbed = build_graph(GraphSpec(d=2, L=8, deletions={((0, 0), (1, 0))}))
    base = build_graph(GraphSpec(d=2, L=8))
    report = compare_energies(perturbed, base, ProblemSpec(kind="nls", a=1.0, p=4),
                              [1.0, 4.0], solver_cfg=CFG)
    assert all(v != "violated" for v in report.verdicts)


def test_empty_grids_are_rejected_before_any_solve():
    # each once reported vacuous success: all_hold true, all three *_ok flags
    # true, or (the gap) a full base solve and then no records
    g = build_graph(GraphSpec(d=1, L=6))
    for bad in ([], [True], [1.0, "x"]):  # True once ran as the mass 1.0, "x" raised ValueError
        with pytest.raises(InvalidSpec, match="a_grid"):
            compare_energies(g, g, ProblemSpec(kind="nls", a=1.0, p=4), bad, solver_cfg=CFG)
    with pytest.raises(InvalidSpec, match="L_list"):
        star_nonattainment_probe(1, 4, 4.0, None, [], 3.0, solver_cfg=CFG)
    with pytest.raises(InvalidSpec, match="R_list"):
        sobolev_critical_gap(3, 2.0, [], 6, solver_cfg=CFG)


def test_repeated_radii_are_rejected_before_any_build_or_solve(monkeypatch):
    # [8, 8] once wrote two identical rows, and escape_trend_ok held on the repeat
    calls = []
    monkeypatch.setattr(analysis, "build_graph", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(analysis, "minimize", lambda *args: calls.append(args))
    with pytest.raises(InvalidSpec, match=r"^L_list lists 8 twice, got \[7, 8, 8\]"):
        star_nonattainment_probe(1, 4, 4.0, None, [8, 7, 8], 3.0, solver_cfg=CFG)
    with pytest.raises(InvalidSpec, match=r"^R_list lists 2 twice, got \[2, 2\]"):
        sobolev_critical_gap(3, 2.0, [2, 2], 6, solver_cfg=CFG)
    assert calls == []


@pytest.mark.parametrize("call,named", [
    (lambda g: compare_energies(g, g, ProblemSpec(kind="nls", a=1.0, p=4), 5.0, solver_cfg=CFG),
     "a_grid must list at least one mass, got 5.0"),
    (lambda g: verify_E_properties(g, 4.0, 2, solver_cfg=CFG), "a_grid must list at least one mass, got 2"),
    (lambda g: star_nonattainment_probe(1, 4, 4.0, None, 9, 3.0, solver_cfg=CFG),
     "L_list must list at least one truncation radius L, got 9"),
    (lambda g: star_nonattainment_probe(1, 4, 4.0, None, [9, "x"], 3.0, solver_cfg=CFG), "L_list"),
    (lambda g: sobolev_critical_gap(3, 2.0, 2, 6, solver_cfg=CFG),
     "R_list must list at least one sphere radius R, got 2"),
], ids=["compare-a_grid", "verify-E-a_grid", "star-L_list", "star-L_list-mixed", "gap-R_list"])
def test_a_scalar_grid_names_its_parameter_before_any_build_or_solve(monkeypatch, call, named):
    # each once raised TypeError: 'float' object is not iterable (or 'int')
    g = build_graph(GraphSpec(d=1, L=6))
    calls = []
    monkeypatch.setattr(analysis, "build_graph", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(analysis, "minimize", lambda *args: calls.append(args))
    with pytest.raises(InvalidSpec, match=re.escape(named)):
        call(g)
    assert calls == []


def test_seeds_numpy_cannot_take_are_refused(monkeypatch):
    # -1 once raised numpy's "expected non-negative integer", 1.5 its TypeError at the
    # first seed, and True ran as seed 1
    g = build_graph(GraphSpec(d=1, L=4))
    descents = []
    monkeypatch.setattr(solver, "_descend", lambda *args: descents.append(args))
    for bad in (-1, 1.5, True, np.True_, "0", None):
        with pytest.raises(InvalidSpec, match="^rng_seed must be a whole number >= 0"):
            SolverConfig(rng_seed=bad).validate()
        with pytest.raises(InvalidSpec, match="^rng_seed must be a whole number >= 0"):
            solver.minimize(g, ProblemSpec(kind="nls", a=1.0, p=4.0), SolverConfig(rng_seed=bad))
        with pytest.raises(InvalidSpec, match="^rng_seed must be a whole number >= 0"):
            verify_lemma_suite(g, n_fields=1, rng_seed=bad)
    assert descents == []
    SolverConfig(rng_seed=np.int64(3)).validate()
    assert verify_lemma_suite(g, n_fields=1, rng_seed=2**70).all_passed


def test_compare_verdict_flips_between_a_cut_and_the_box_itself():
    # the control for "strict": one cut edge lowers the dirichlet NLS energy well
    # past the strict margin, and the box against itself has margin exactly 0
    cut = build_graph(GraphSpec(d=2, L=12, deletions={((0, 0), (1, 0))}), boundary="dirichlet")
    box = build_graph(GraphSpec(d=2, L=12), boundary="dirichlet")
    nls = ProblemSpec(kind="nls", a=5.0, p=4.0)
    report = compare_energies(cut, box, nls, [5.0], solver_cfg=CFG)
    assert report.verdicts == ["strict"]
    assert report.perturbed[0] == pytest.approx(-0.14001846185285238, abs=1e-10)
    assert report.base[0] == pytest.approx(0.05903478142855016, abs=1e-10)
    itself = compare_energies(box, box, nls, [5.0], solver_cfg=CFG)
    assert itself.verdicts == ["<= holds"] and itself.margins == [0.0]


def test_compare_keeps_the_callers_grid_order():
    g = build_graph(GraphSpec(d=1, L=4))
    report = compare_energies(g, g, ProblemSpec(kind="nls", a=1.0, p=4), (2, 1.0), solver_cfg=CFG)
    assert report.a_grid == [2.0, 1.0]
    assert report.perturbed[0] < report.perturbed[1]


def test_compare_requires_matching_boxes():
    with pytest.raises(InvalidSpec):
        compare_energies(build_graph(GraphSpec(d=1, L=8)),
                         build_graph(GraphSpec(d=1, L=10)),
                         ProblemSpec(kind="nls", a=1.0, p=4), [1.0], solver_cfg=CFG)
    # a dirichlet-mode graph once compared against a drop-mode box of the same d and L
    with pytest.raises(InvalidSpec, match="boundary"):
        compare_energies(build_graph(GraphSpec(d=1, L=8), boundary="dirichlet"),
                         build_graph(GraphSpec(d=1, L=8)),
                         ProblemSpec(kind="nls", a=1.0, p=4), [1.0], solver_cfg=CFG)


def test_verdicts_recomputable_from_record():
    report = ComparisonReport(kind="nls", p=4, q=None, a_grid=[1.0], perturbed=[-2.0],
                              base=[-1.0], margins=[-1.0], verdicts=["strict"],
                              tol=1e-8, strict_margin=1e-7)
    for margin, verdict in zip(report.margins, report.verdicts):
        assert ComparisonReport.verdict(margin, report.tol, report.strict_margin) == verdict
    assert ComparisonReport.verdict(1.0, 1e-8, 1e-7) == "violated"
    assert ComparisonReport.verdict(0.0, 1e-8, 1e-7) == "<= holds"


# ---------------------------------------------------------------------------
# property suites

def test_E_properties_small_grid():
    g = build_graph(GraphSpec(d=1, L=10))
    report = verify_E_properties(g, 4.0, [0.5, 1.0, 1.5], solver_cfg=CFG)
    assert report.all_passed, [c.name for c in report.failures()]
    names = [c.name for c in report.checks]
    assert "E(1) <= E(0.5) + E(0.5)" in names or any("E(1)" in n and "+" in n for n in names)


def test_E_properties_single_point_grid_is_vacuous():
    g = build_graph(GraphSpec(d=1, L=8))
    report = verify_E_properties(g, 4.0, [1.0], solver_cfg=CFG)
    assert report.all_passed
    assert len(report.checks) == 1  # only the sign check; nothing to compare


@pytest.mark.parametrize("grid", [[1.0, 1.0, 2.0], [2.0, 1.0, 1.0 + 5e-13], [1.0, 2.0, 1.0, 2.0]])
def test_E_properties_solve_each_distinct_mass_once(monkeypatch, grid):
    # [1.0, 1.0, 2.0] once ran three solves and listed E(2) <= E(1) + E(1) three times
    solved, solve = [], analysis.minimize

    def counting(graph, problem, cfg=None):
        solved.append(problem.a)
        return solve(graph, problem, cfg)

    monkeypatch.setattr(analysis, "minimize", counting)
    report = verify_E_properties(build_graph(GraphSpec(d=1, L=6)), 4.0, grid, solver_cfg=CFG)
    assert solved == [1.0, 2.0]
    assert sorted(report.values) == [1.0, 2.0]
    assert [c.name for c in report.checks] == ["E(a=1) <= 0", "E(a=2) <= 0", "E(2) <= E(1)",
                                              "E(2) <= E(1) + E(1)"]
    assert report.all_passed, [c.name for c in report.failures()]


def test_J_properties_homogeneity_small():
    g = build_graph(GraphSpec(d=3, L=4), boundary="dirichlet")
    report = verify_J_properties(g, 2.0, 6.0, [1.0, 8.0], solver_cfg=CFG, thetas=(2.0,))
    assert report.all_passed, [(c.name, c.margin) for c in report.failures()]
    assert report.values[8.0] == pytest.approx(2.0 * report.values[1.0], rel=1e-4)


@pytest.mark.parametrize("grid", [[1.0, 1.0, 2.0], [2.0, 1.0, 1.0 + 5e-13]])
def test_J_properties_list_each_distinct_mass_once(monkeypatch, grid):
    # [1.0, 1.0, 2.0] once listed the J(1) ratio twice and J(2) < J(1) + J(1) three times
    solved, solve = [], analysis.minimize_sobolev

    def counting(graph, problem, cfg=None):
        solved.append(problem.a)
        return solve(graph, problem, cfg)

    monkeypatch.setattr(analysis, "minimize_sobolev", counting)
    g = build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")
    report = verify_J_properties(g, 2.0, 6.0, grid, solver_cfg=CFG, thetas=())
    assert solved == [1.0, 2.0]
    assert sorted(report.values) == [1.0, 2.0]
    assert [c.name for c in report.checks] == ["J(1)/a^(p/q) ratio vs a=1", "J(2)/a^(p/q) ratio vs a=1",
                                              "J(2) < J(1) + J(1)"]
    assert report.all_passed, [c.name for c in report.failures()]


def test_J_properties_refuse_thetas_not_above_one_before_any_solve(monkeypatch):
    # theta <= 1 (True ran as 1) made a sublinearity check no J can pass, and nan
    # failed only after a solve, with a message about the mass a=nan
    solves = []
    monkeypatch.setattr(analysis, "minimize_sobolev", lambda *args: solves.append(args))
    g = build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")
    for bad in [(True,), (np.True_,), (0.5,), (1.0,), (2.0, 1), (math.nan,), (math.inf,), ("3",)]:
        with pytest.raises(InvalidSpec, match="thetas"):
            verify_J_properties(g, 2.0, 6.0, [1.0], solver_cfg=CFG, thetas=bad)
    assert solves == []


def test_J_properties_subadditivity_pairs():
    g = build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")
    report = verify_J_properties(g, 2.0, 6.0, [1.0, 2.0, 3.0], solver_cfg=CFG, thetas=())
    sub = [c for c in report.checks if "+" in c.name]
    assert sub and all(c.passed for c in sub)


# ---------------------------------------------------------------------------
# Sobolev constants and the gap construction

def test_sobolev_constant_upper_bounds():
    g = build_graph(GraphSpec(d=3, L=4), boundary="dirichlet")
    s = estimate_sobolev_constant(g, 2.0, 6.0, solver_cfg=CFG)
    assert s <= (2 * 3) ** 0.5 + 1e-9  # feasible delta gives J(1) <= 2d
    cut = build_graph(sphere_deletion_spec(3, 2, 6), boundary="dirichlet")
    cfg = SolverConfig(restarts=3, seeds=["ball:2", "gauss:2.0", "delta"],
                       tol_grad=1e-8, max_iters=30000)
    s_cut = estimate_sobolev_constant(cut, 2.0, 6.0, solver_cfg=cfg)
    assert s_cut <= 3 ** (-0.5) + 1e-9


def test_ball_indicator_field_normalization():
    g = build_graph(GraphSpec(d=3, L=6))
    f = ball_indicator_field(g, 2, 6.0)
    assert np.sum(np.abs(f.values) ** 6) == pytest.approx(1.0, rel=1e-14)
    inside = np.max(np.abs(g.coords), axis=1) < 2
    assert np.all(f.values[inside] == 27 ** (-1 / 6))
    assert np.all(f.values[~inside] == 0.0)
    with pytest.raises(InvalidSpec, match="B_0 contains no vertices"):
        ball_indicator_field(g, 0, 6.0)


def test_ball_indicator_field_checks_radius_and_exponent():
    # q=0 once raised ZeroDivisionError, q=-1 gave values of 3.0, True ran as 1 (R and q),
    # and R=1.5 gave B_2
    g = build_graph(GraphSpec(d=1, L=4))
    for R in (1.5, True, np.True_, "2"):
        with pytest.raises(InvalidSpec, match="^ball indicator needs a whole radius R"):
            ball_indicator_field(g, R, 3.0)
    with pytest.raises(InvalidSpec, match="B_-1 contains no vertices"):
        ball_indicator_field(g, -1, 3.0)
    for q in (0, -1.0, 0.5, True, np.True_, math.nan, "3"):
        with pytest.raises(InvalidExponent, match="^ball indicator needs q = inf or a number q >= 1"):
            ball_indicator_field(g, 2, q)
    assert ball_indicator_field(g, np.int64(2), math.inf).values.tolist() == [0, 0, 1, 1, 1, 0, 0]
    assert ball_indicator_field(g, 1, 1).values.tolist() == [0, 0, 0, 1, 0, 0, 0]


def test_sobolev_critical_gap_witness():
    report = sobolev_critical_gap(3, 2.0, [2, 3], 8, solver_cfg=CFG)
    assert report.q == 6.0
    assert [r.bound_formula for r in report.records] == pytest.approx([1 / 3, 1 / 5])
    for rec in report.records:
        assert rec.bound_evaluated == pytest.approx(rec.bound_formula, abs=1e-12)
    # bounds decrease in R, and the unperturbed estimate sits far above
    assert report.records[0].bound_formula > report.records[1].bound_formula
    assert report.witness_R == 2
    assert report.margin > 0


def test_sobolev_critical_gap_validation():
    with pytest.raises(InvalidSpec):
        sobolev_critical_gap(3, 2.0, [4], 8, solver_cfg=CFG)  # R >= L/2
    with pytest.raises(InvalidSpec):
        sobolev_critical_gap(2, 2.0, [2], 8, solver_cfg=CFG)  # needs p < d


def test_sobolev_problem_needs_phantom_edges(tmp_path, capsys):
    # without phantom edges constants have zero p-Dirichlet energy, so J = 0; an
    # admissible problem there is refused, whichever entry point it comes through
    prob = ProblemSpec(kind="sobolev", a=1.0, p=2.0, q=6.0)
    box = build_graph(GraphSpec(d=3, L=4))
    for call in (lambda: analysis.minimize(box, prob, CFG),
                 lambda: analysis.minimize(build_graph(sphere_deletion_spec(3, 2, 4)), prob, CFG),
                 lambda: star_nonattainment_probe(3, 2, 2.0, 6.0, [4], 1.0, solver_cfg=CFG, boundary="drop"),
                 lambda: compare_energies(box, box, prob, [1.0], solver_cfg=CFG)):
        with pytest.raises(InvalidSpec, match="allow_subcritical"):
            call()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": {"d": 3, "L": 4, "boundary": "drop"},
                                "problem": {"a": 1.0, "p": 2.0, "q": 6.0}}))
    assert cli.main(["solve-sobolev", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "allow_subcritical" in json.loads(capsys.readouterr().err)["message"]
    # allowed, the problem has the value 0, which the uniform seed attains
    res = analysis.minimize(box, ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0, allow_subcritical=True))
    assert res.energy == 0.0 and res.seed_label == "uniform"


# ---------------------------------------------------------------------------
# star probes

def test_star_probe_nls_escape_witness():
    report = star_nonattainment_probe(1, 5, 4.0, None, [8, 10], 4.0, solver_cfg=CFG,
                                      equality_tol=1e-3)
    assert [r.L for r in report.records] == [8, 10]
    assert report.escape_trend_ok
    assert report.multiplier_ok
    assert report.equality_ok
    for rec in report.records:
        assert rec.converged
        assert rec.energy_perturbed >= rec.energy_base - 1e-12  # added edges cannot help
        assert rec.median_radius >= rec.L - 3


def test_star_probe_base_graph_control():
    # the same masses on the unperturbed graph: interior seed stays put
    g = build_graph(GraphSpec(d=1, L=10))
    cfg = SolverConfig(restarts=1, seeds=["delta"], tol_grad=1e-9, max_iters=20000)
    from varopt import minimize
    res = minimize(g, ProblemSpec(kind="nls", a=4.0, p=4), cfg)
    assert abs(res.localization.center_of_mass[0]) <= 1e-6


@pytest.mark.parametrize("boundary,com_inf,multiplier_gap", [
    ("drop", [13.968, 18.968, 23.968], 4.022), ("dirichlet", [0.0, 0.0, 0.0], 1.561),
])
def test_star_probe_consistency_flags_hold_without_a_star(monkeypatch, boundary, com_inf, multiplier_gap):
    # the control that cannot flip them: criterion 9's probe on the plain box in place of
    # the star. escape_trend_ok holds at the wall (drop) and at the centre (dirichlet),
    # whose com_inf does not grow; multiplier_ok only tests that (Delta u)(0) != 0, since
    # lambda = u(0)^(p-2) + (Delta u)(0)/u(0) at the origin. Both are consistency checks.
    monkeypatch.setattr(analysis, "star_addition_spec", lambda d, R, L: GraphSpec(d=d, L=L))
    report = star_nonattainment_probe(1, 11, 4.0, None, [15, 20, 25], 5.0, boundary=boundary)
    assert report.escape_trend_ok and report.multiplier_ok
    assert [r.energy_gap for r in report.records] == [0.0, 0.0, 0.0]
    assert [r.com_inf for r in report.records] == pytest.approx(com_inf, abs=1e-3)
    assert [r.multiplier_gap for r in report.records] == pytest.approx([multiplier_gap] * 3, abs=1e-3)


def test_star_probe_sobolev_multiplier_stays_positive():
    report = star_nonattainment_probe(3, 3, 2.0, 6.0, [5], 1.0,
                                      solver_cfg=SolverConfig(restarts=3, tol_grad=1e-7,
                                                              max_iters=40000),
                                      equality_tol=1.0)
    rec = report.records[0]
    assert rec.origin_power == 0.0
    assert rec.multiplier > 0.1  # an interior extremal would force it to 0


# ---------------------------------------------------------------------------
# random-field lemma suite

def test_lemma_suite_passes_everywhere():
    g = build_graph(GraphSpec(d=1, L=16))
    report = verify_lemma_suite(g, n_fields=30, rng_seed=5)
    assert report.all_passed, [(c.name, c.margin) for c in report.failures()]
    g2 = build_graph(GraphSpec(d=2, L=6))
    report2 = verify_lemma_suite(g2, n_fields=15, rng_seed=6)
    assert report2.all_passed, [(c.name, c.margin) for c in report2.failures()]


@pytest.mark.parametrize("bad", [True, False, np.True_, math.nan, math.inf, -1.0, "0.1"])
def test_analysis_tolerances_must_be_numbers(bad):
    # a boolean tolerance once ran as 1 or 0; every check fires before the first solve
    line = build_graph(GraphSpec(d=1, L=6))
    nls = ProblemSpec(kind="nls", a=1.0, p=4.0)
    for name in ("bracket_tol", "tol_neg"):
        with pytest.raises(InvalidSpec, match=name):
            estimate_threshold(lattice_family(1), 4.0, (0.5, 6.0), **{name: bad})
    with pytest.raises(InvalidSpec, match="tol"):
        compare_energies(line, line, nls, [1.0], tol=bad)
    with pytest.raises(InvalidSpec, match="strict_margin"):
        compare_energies(line, line, nls, [1.0], strict_margin=bad)
    with pytest.raises(InvalidSpec, match="equality_tol"):
        star_nonattainment_probe(1, 3, 4.0, None, [6], 3.0, equality_tol=bad)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, -1, "4"])
def test_threshold_max_probes_must_be_a_whole_number(bad):
    with pytest.raises(InvalidSpec, match="max_probes"):
        estimate_threshold(lattice_family(1), 4.0, (0.5, 6.0), max_probes=bad)


@pytest.mark.parametrize("bad", [0, -1, 2.5, 3.0, True, np.True_, "4"])
def test_lemma_suite_n_fields_must_be_a_whole_number(bad):
    # zero fields once reported all_passed with -inf margins
    with pytest.raises(InvalidSpec, match="n_fields"):
        verify_lemma_suite(build_graph(GraphSpec(d=1, L=6)), n_fields=bad)


@pytest.mark.parametrize("name,bad", [("p", True), ("q", True), ("p", np.True_), ("p", math.inf),
                                      ("q", math.inf), ("q", -math.inf), ("p", math.nan), ("q", "6")],
                         ids=["p-bool", "q-bool", "p-numpy-bool", "p-inf", "q-inf", "q-minus-inf", "p-nan", "q-str"])
def test_lemma_suite_exponents_must_be_finite_numbers(monkeypatch, name, bad):
    # q = True once ran at q = 1 and failed; p or q = inf gave NaN margins that passed
    drawn = []
    monkeypatch.setattr(analysis, "_split_pair", lambda *args: drawn.append(args))
    with pytest.raises(InvalidSpec, match=f"p and q must be finite numbers.*{name}={bad!r}"):
        verify_lemma_suite(build_graph(GraphSpec(d=1, L=6)), n_fields=2, **{name: bad})
    assert drawn == []
