"""Constrained solver: closed forms, oracle cross-checks, invariants."""

import math

import numpy as np
import pytest

from varopt import (
    Field,
    GraphSpec,
    InvalidExponent,
    InvalidSpec,
    ProblemSpec,
    SolveResult,
    SolverConfig,
    TooLarge,
    brute_force_oracle,
    build_graph,
    dirichlet_energy,
    dirichlet_gradient,
    localization_report,
    lp_norm,
    minimize,
    minimize_nls,
    minimize_sobolev,
    nls_energy,
    nls_gradient,
    path_graph,
    sphere_deletion_spec,
    star_addition_spec,
    translate,
)
from varopt.solver import _functional, make_seed

CFG = SolverConfig(restarts=4, tol_grad=1e-9, max_iters=30000)


def test_two_vertex_closed_form():
    g = path_graph(2)
    res = minimize_nls(g, ProblemSpec(kind="nls", a=1.0, p=4), CFG)
    assert res.converged
    assert res.energy == pytest.approx(-0.125, abs=1e-9)
    assert np.allclose(np.sort(res.minimizer.values), math.sqrt(0.5), atol=1e-5)
    # multiplier from the closed form: lambda = ||u||_4^4 - ||grad u||_2^2 = 1/2
    assert res.multiplier == pytest.approx(0.5, abs=1e-6)


def test_oracle_two_vertex():
    g = path_graph(2)
    val = brute_force_oracle(g, ProblemSpec(kind="nls", a=1.0, p=4), {"resolution": 1e-4})
    assert val == pytest.approx(-0.125, abs=1e-6)
    sob = brute_force_oracle(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6,
                                            allow_subcritical=True), {"resolution": 1e-3})
    assert sob == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("a,p", [(1.0, 4.0), (2.0, 3.0), (0.5, 6.0)])
def test_oracle_matches_solver_three_vertices(a, p):
    g = path_graph(3)
    prob = ProblemSpec(kind="nls", a=a, p=p)
    oracle = brute_force_oracle(g, prob, {"resolution": 1e-3})
    res = minimize_nls(g, prob, CFG)
    assert abs(oracle - res.energy) <= 1e-5


def test_oracle_size_limit():
    g = build_graph(GraphSpec(d=1, L=3))  # 5 vertices
    with pytest.raises(TooLarge):
        brute_force_oracle(g, ProblemSpec(kind="nls", a=1.0, p=4))


def test_constraint_feasibility():
    g = build_graph(GraphSpec(d=1, L=8))
    res = minimize_nls(g, ProblemSpec(kind="nls", a=2.5, p=4), CFG)
    assert lp_norm(res.minimizer, 2) ** 2 == pytest.approx(2.5, rel=1e-10)
    g3 = build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")
    res3 = minimize_sobolev(g3, ProblemSpec(kind="sobolev", a=4.0, p=2, q=6), CFG)
    assert lp_norm(res3.minimizer, 6) ** 6 == pytest.approx(4.0, rel=1e-10)
    assert res3.energy == pytest.approx(dirichlet_energy(g3, res3.minimizer, 2), abs=1e-12)


def test_energy_matches_functional_on_minimizer():
    g = build_graph(GraphSpec(d=1, L=10))
    res = minimize_nls(g, ProblemSpec(kind="nls", a=3.0, p=4), CFG)
    assert res.energy == pytest.approx(nls_energy(g, res.minimizer, 4), abs=1e-12)


def test_descent_is_monotone():
    g = build_graph(GraphSpec(d=1, L=10))
    cfg = SolverConfig(restarts=1, seeds=["random"], tol_grad=1e-9,
                       max_iters=5000, record_trace=True)
    res = minimize_nls(g, ProblemSpec(kind="nls", a=2.0, p=4), cfg)
    energies = res.trace[:, 1]
    assert np.all(np.diff(energies) <= 0.0)


def test_minimizer_nonnegative_and_positive_when_converged():
    g = build_graph(star_addition_spec(1, 3, 10))
    res = minimize_nls(g, ProblemSpec(kind="nls", a=4.0, p=4), CFG)
    u = res.minimizer.values
    assert np.all(u >= 0)
    assert res.converged
    # no exact interior zero adjacent to live mass on a connected graph
    for i, j in g.edges:
        if u[i] == 0.0:
            assert u[j] <= res.el_residual * 10
        if u[j] == 0.0:
            assert u[i] <= res.el_residual * 10


def test_multiplier_identity_nls():
    g = build_graph(GraphSpec(d=2, L=5))
    a = 3.0
    res = minimize_nls(g, ProblemSpec(kind="nls", a=a, p=4), CFG)
    u = res.minimizer
    identity = dirichlet_energy(g, u, 2) + res.multiplier * a - lp_norm(u, 4) ** 4
    assert abs(identity) <= 1e-8


def test_multiplier_identity_sobolev():
    g = build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")
    a = 2.0
    res = minimize_sobolev(g, ProblemSpec(kind="sobolev", a=a, p=2, q=6), CFG)
    assert res.multiplier == pytest.approx(res.energy / a, rel=1e-12)


def test_delta_upper_bound_large_mass():
    g = build_graph(GraphSpec(d=1, L=15))
    res = minimize_nls(g, ProblemSpec(kind="nls", a=5.0, p=4), CFG)
    assert res.energy <= 1 * 5.0 - 5.0 ** 2 / 4 + 1e-12  # feasible delta bound -1.25


def test_delta_seed_respects_feasible_bound():
    g = build_graph(GraphSpec(d=2, L=6))
    a, p = 2.0, 4.0
    cfg = SolverConfig(restarts=1, seeds=["delta"], tol_grad=1e-9, max_iters=20000)
    res = minimize_nls(g, ProblemSpec(kind="nls", a=a, p=p), cfg)
    assert res.energy <= 2 * a - a ** (p / 2) / p + 1e-12


def test_sobolev_cut_sphere_upper_bound():
    g = build_graph(sphere_deletion_spec(3, 2, 6), boundary="dirichlet")
    cfg = SolverConfig(restarts=3, seeds=["ball:2", "gauss:2.0", "delta"],
                       tol_grad=1e-8, max_iters=30000)
    res = minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6), cfg)
    assert res.energy <= 27 ** (-1 / 3) + 1e-9


def test_truncation_monotonicity_nls():
    energies = []
    for L in (8, 10, 12):
        g = build_graph(GraphSpec(d=1, L=L))
        energies.append(minimize_nls(g, ProblemSpec(kind="nls", a=3.0, p=4), CFG).energy)
    assert energies[1] <= energies[0] + 1e-9
    assert energies[2] <= energies[1] + 1e-9


def test_truncation_monotonicity_sobolev():
    energies = []
    for L in (3, 4, 5):
        g = build_graph(GraphSpec(d=3, L=L), boundary="dirichlet")
        energies.append(minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6),
                                         CFG).energy)
    assert energies[1] <= energies[0] + 1e-9
    assert energies[2] <= energies[1] + 1e-9


def test_localization_center_and_boundary():
    g = build_graph(GraphSpec(d=1, L=8))
    cfg = SolverConfig(restarts=1, seeds=["delta"], tol_grad=1e-9, max_iters=20000)
    res = minimize_nls(g, ProblemSpec(kind="nls", a=4.0, p=4), cfg)
    assert abs(res.localization.center_of_mass[0]) <= 1e-6
    assert res.localization.boundary_mass_fraction <= 1e-6
    # a delta parked two sites from the wall counts as pure boundary mass
    moved = translate(Field(g, res.minimizer.values * 0 + delta_like(g)), (-(g.L - 2),))
    fake = SolveResult(minimizer=moved, energy=0.0, multiplier=0.0, el_residual=0.0,
                       converged=True, localization=res.localization,
                       problem=res.problem, n_iters=0, seed_label="manual")
    loc = localization_report(fake, 3)
    assert loc.boundary_mass_fraction == pytest.approx(1.0)
    assert loc.center_of_mass[0] == pytest.approx(g.L - 2)


def delta_like(g):
    u = np.zeros(g.n)
    u[g.vertex_id((0,) * g.d)] = 1.0
    return u


def test_localization_probe_mass():
    g = build_graph(GraphSpec(d=2, L=5))
    u = Field(g, delta_like(g))
    fake = SolveResult(minimizer=u, energy=0.0, multiplier=0.0, el_residual=0.0,
                       converged=True, localization=None,
                       problem=ProblemSpec(kind="nls", a=1.0, p=4), n_iters=0,
                       seed_label="manual")
    loc = localization_report(fake, 2)
    assert loc.mass_in_ball == pytest.approx(1.0)
    assert loc.probe_radius == 2


def test_not_converged_flag():
    g = build_graph(GraphSpec(d=1, L=10))
    cfg = SolverConfig(restarts=1, seeds=["random"], tol_grad=1e-14, max_iters=3)
    res = minimize_nls(g, ProblemSpec(kind="nls", a=2.0, p=4), cfg)
    assert not res.converged


def test_problem_validation():
    g = path_graph(3)
    with pytest.raises(InvalidSpec):
        minimize_nls(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6), CFG)
    with pytest.raises(InvalidExponent):
        minimize_nls(g, ProblemSpec(kind="nls", a=1.0, p=2.0), CFG)
    with pytest.raises(InvalidSpec):
        minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6), CFG)  # d=1 < p
    with pytest.raises(InvalidSpec):
        minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=None,
                                        allow_subcritical=True), CFG)
    with pytest.raises(InvalidSpec):
        minimize_nls(g, ProblemSpec(kind="nls", a=-1.0, p=4), CFG)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="sobolev", a=1.0, p=2, q=4).validate_for(build_graph(GraphSpec(d=3, L=2)))
    for a, p in [(1.0, math.nan), (1.0, math.inf), (math.inf, 4.0), (math.nan, 4.0)]:
        with pytest.raises(InvalidSpec):
            minimize_nls(g, ProblemSpec(kind="nls", a=a, p=p), CFG)
    for p, q in [(2.0, math.nan), (2.0, math.inf), (math.nan, 6.0), (math.inf, 6.0)]:
        with pytest.raises(InvalidSpec):
            minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=p, q=q, allow_subcritical=True), CFG)


def test_determinism_across_runs():
    g = build_graph(GraphSpec(d=1, L=8))
    prob = ProblemSpec(kind="nls", a=2.0, p=4)
    cfg1 = SolverConfig(restarts=8, tol_grad=1e-9, max_iters=20000, rng_seed=11)
    res_a = minimize_nls(g, prob, cfg1)
    res_b = minimize_nls(g, prob, cfg1)
    assert res_a.energy == res_b.energy
    assert np.array_equal(res_a.minimizer.values, res_b.minimizer.values)


def test_fixed_step_rule_runs():
    g = path_graph(3)
    cfg = SolverConfig(restarts=1, seeds=["gauss:1.0"], step=0.01, step_rule="fixed",
                       tol_grad=1e-7, max_iters=20000)
    res = minimize_nls(g, ProblemSpec(kind="nls", a=1.0, p=4), cfg)
    assert res.energy == pytest.approx(-0.08333333, abs=1e-5)


def test_minimize_dispatch():
    g = path_graph(2)
    assert minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), CFG).energy == pytest.approx(-0.125, abs=1e-8)
    val = minimize(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6, allow_subcritical=True), CFG)
    assert val.energy == pytest.approx(0.0, abs=1e-10)


def test_solver_config_validation():
    with pytest.raises(InvalidSpec):
        SolverConfig(max_iters=0).validate()
    with pytest.raises(InvalidSpec):
        SolverConfig(step_rule="newton").validate()
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidSpec):
            SolverConfig(step=bad).validate()
        with pytest.raises(InvalidSpec):
            SolverConfig(smoothing_eps=bad).validate()


def test_explicit_seed_must_match_the_graph():
    g = path_graph(3)
    rng = np.random.default_rng(0)
    values, label = make_seed(g, [0.5, -1.0, 2.0], rng)
    assert label == "explicit" and np.array_equal(values, [0.5, 1.0, 2.0])
    for bad in ([1.0, 1.0], np.ones(4), np.ones((3, 1))):
        with pytest.raises(InvalidSpec):
            make_seed(g, bad, rng)
    with pytest.raises(InvalidSpec):
        minimize_nls(g, ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds=[np.ones(2)]))


@pytest.mark.parametrize("boundary", ["drop", "dirichlet"])
def test_solver_functional_is_the_calculus_functions(boundary):
    # one implementation: the solver's closures equal the public functions bit for bit
    g = build_graph(GraphSpec(d=2, L=6), boundary=boundary)
    rng = np.random.default_rng(5)
    eps = 1e-8
    for _ in range(3):
        u = rng.standard_normal(g.n)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0):
            prob = ProblemSpec(kind="sobolev", a=1.0, p=p, q=6.0, allow_subcritical=True)
            energy, gradient, _ = _functional(g, prob, eps)
            assert energy(u) == dirichlet_energy(g, u, p)
            assert np.array_equal(gradient(u), dirichlet_gradient(g, u, p, eps))
        for p in (3.0, 4.0, 6.0):
            energy, gradient, _ = _functional(g, ProblemSpec(kind="nls", a=1.0, p=p), eps)
            assert energy(u) == nls_energy(g, u, p)
            assert np.array_equal(gradient(u), nls_gradient(g, u, p))
