"""Constrained solver: closed forms, oracle cross-checks, invariants."""

import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varopt import (
    DisconnectedGraph,
    Field,
    Graph,
    GraphSpec,
    InvalidExponent,
    InvalidSpec,
    ProblemSpec,
    SolveResult,
    SolverConfig,
    TooLarge,
    brute_force_oracle,
    box_inverse,
    box_vertices,
    build_graph,
    dirichlet_energy,
    dirichlet_gradient,
    lp_norm,
    minimize,
    minimize_sobolev,
    nls_energy,
    nls_gradient,
    path_graph,
    spectral_oracle,
    sphere_deletion_spec,
    star_addition_spec,
    translate,
)
from varopt import calculus, solver
from varopt.calculus import _abs_pow, _kinetic, _signed_pow
from varopt.solver import _constraint_normal, _functional, _preconditioner, _tangent_direction, make_seed

CFG = SolverConfig(restarts=4, tol_grad=1e-9, max_iters=30000)


def test_two_vertex_closed_form():
    g = path_graph(2)
    res = minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), CFG)
    assert res.converged
    assert res.energy == pytest.approx(-0.125, abs=1e-9)
    assert np.allclose(np.sort(res.minimizer.values), math.sqrt(0.5), atol=1e-5)
    # multiplier from the closed form: lambda = ||u||_4^4 - ||grad u||_2^2 = 1/2
    assert res.multiplier == pytest.approx(0.5, abs=1e-6)


def test_oracle_two_vertex():
    g = path_graph(2)
    val = brute_force_oracle(g, ProblemSpec(kind="nls", a=1.0, p=4), 1e-4)
    assert val == pytest.approx(-0.125, abs=1e-6)
    sob = brute_force_oracle(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6,
                                            allow_subcritical=True), 1e-3)
    assert sob == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("a,p", [(1.0, 4.0), (2.0, 3.0), (0.5, 6.0)])
def test_oracle_matches_solver_three_vertices(a, p):
    # the d=1 L=2 dirichlet box runs the oracle's phantom terms, which a path lacks
    box = build_graph(GraphSpec(d=1, L=2), boundary="dirichlet")
    for g in (path_graph(3), box):
        prob = ProblemSpec(kind="nls", a=a, p=p)
        oracle = brute_force_oracle(g, prob, 1e-3)
        res = minimize(g, prob, CFG)
        assert abs(oracle - res.energy) <= 1e-5
    # p = q = 2 has the exact value a * lambda_min
    sob = ProblemSpec(kind="sobolev", a=a, p=2.0, q=2.0, allow_subcritical=True)
    assert abs(brute_force_oracle(box, sob, 1e-3) - a * spectral_oracle(box)) <= 1e-5


def test_oracle_size_limit():
    g = build_graph(GraphSpec(d=1, L=3))  # 5 vertices
    with pytest.raises(TooLarge):
        brute_force_oracle(g, ProblemSpec(kind="nls", a=1.0, p=4))


@pytest.mark.parametrize("resolution", [-1, 0, math.nan, math.inf, True, "0.1", [0.1]],
                         ids=["negative", "zero", "nan", "inf", "bool", "str", "list"])
def test_oracle_refuses_a_grid_it_cannot_use(resolution):
    # a resolution of -1 once gave 0.25 against the minimum near -0.0833
    problem = ProblemSpec(kind="nls", a=1.0, p=4.0)
    with pytest.raises(InvalidSpec, match="resolution must be a finite number > 0"):
        brute_force_oracle(path_graph(3), problem, resolution)
    assert brute_force_oracle(path_graph(3), problem, 0.01) < -0.08


def test_constraint_feasibility():
    g = build_graph(GraphSpec(d=1, L=8))
    res = minimize(g, ProblemSpec(kind="nls", a=2.5, p=4), CFG)
    assert lp_norm(res.minimizer, 2) ** 2 == pytest.approx(2.5, rel=1e-10)
    g3 = build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")
    res3 = minimize_sobolev(g3, ProblemSpec(kind="sobolev", a=4.0, p=2, q=6), CFG)
    assert lp_norm(res3.minimizer, 6) ** 6 == pytest.approx(4.0, rel=1e-10)
    assert res3.energy == pytest.approx(dirichlet_energy(g3, res3.minimizer, 2), abs=1e-12)


@pytest.mark.parametrize("problem", [ProblemSpec(kind="nls", a=1.0, p=4.0),
                                     ProblemSpec(kind="sobolev", a=2.0, p=2.0, q=6.0)],
                         ids=["nls", "sobolev"])
def test_projecting_the_zero_field_is_invalid(problem):
    # the zero field has no direction to rescale along; a nan field must not come back
    with pytest.raises(InvalidSpec, match="cannot project the zero field onto a constraint sphere"):
        solver._project(problem, np.zeros(7))
    u = solver._project(problem, np.eye(1, 7, 3)[0])
    assert u[3] == problem.a ** (1.0 / solver._power(problem)) and np.count_nonzero(u) == 1


def test_energy_matches_functional_on_minimizer():
    g = build_graph(GraphSpec(d=1, L=10))
    res = minimize(g, ProblemSpec(kind="nls", a=3.0, p=4), CFG)
    assert res.energy == pytest.approx(nls_energy(g, res.minimizer, 4), abs=1e-12)


def test_descent_is_monotone():
    g = build_graph(GraphSpec(d=1, L=10))
    cfg = SolverConfig(restarts=1, seeds=["random"], tol_grad=1e-9,
                       max_iters=5000, record_trace=True)
    res = minimize(g, ProblemSpec(kind="nls", a=2.0, p=4), cfg)
    energies = res.trace[:, 1]
    assert np.all(np.diff(energies) <= 0.0)


def test_minimizer_nonnegative_and_positive_when_converged():
    g = build_graph(star_addition_spec(1, 3, 10))
    res = minimize(g, ProblemSpec(kind="nls", a=4.0, p=4), CFG)
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
    res = minimize(g, ProblemSpec(kind="nls", a=a, p=4), CFG)
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
    res = minimize(g, ProblemSpec(kind="nls", a=5.0, p=4), CFG)
    assert res.energy <= 1 * 5.0 - 5.0 ** 2 / 4 + 1e-12  # feasible delta bound -1.25


def test_delta_seed_respects_feasible_bound():
    g = build_graph(GraphSpec(d=2, L=6))
    a, p = 2.0, 4.0
    cfg = SolverConfig(restarts=1, seeds=["delta"], tol_grad=1e-9, max_iters=20000)
    res = minimize(g, ProblemSpec(kind="nls", a=a, p=p), cfg)
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
        energies.append(minimize(g, ProblemSpec(kind="nls", a=3.0, p=4), CFG).energy)
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
    res = minimize(g, ProblemSpec(kind="nls", a=4.0, p=4), cfg)
    assert abs(res.localization.center_of_mass[0]) <= 1e-6
    assert res.localization.boundary_mass_fraction <= 1e-6
    # a delta parked two sites from the wall counts as pure boundary mass
    moved = translate(Field(g, delta_like(g)), (-(g.L - 2),)).values
    loc = solver._localize(g, solver._constraint_weight(res.problem, moved), 3)
    assert loc.boundary_mass_fraction == pytest.approx(1.0)
    assert loc.center_of_mass[0] == pytest.approx(g.L - 2)


def delta_like(g):
    u = np.zeros(g.n)
    u[g.vertex_id((0,) * g.d)] = 1.0
    return u


def test_localization_probe_mass():
    g = build_graph(GraphSpec(d=2, L=5))
    problem = ProblemSpec(kind="nls", a=1.0, p=4)
    loc = solver._localize(g, solver._constraint_weight(problem, delta_like(g)), 2)
    assert loc.mass_in_ball == pytest.approx(1.0)
    assert loc.probe_radius == 2


def test_not_converged_flag():
    g = build_graph(GraphSpec(d=1, L=10))
    cfg = SolverConfig(restarts=1, seeds=["random"], tol_grad=1e-14, max_iters=3)
    res = minimize(g, ProblemSpec(kind="nls", a=2.0, p=4), cfg)
    assert not res.converged


def test_problem_validation():
    g = path_graph(3)
    with pytest.raises(InvalidSpec):
        minimize(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6), CFG)
    with pytest.raises(InvalidExponent):
        minimize(g, ProblemSpec(kind="nls", a=1.0, p=2.0), CFG)
    with pytest.raises(InvalidSpec):
        minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6), CFG)  # d=1 < p
    with pytest.raises(InvalidSpec):
        minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=None,
                                        allow_subcritical=True), CFG)
    with pytest.raises(InvalidSpec):
        minimize(g, ProblemSpec(kind="nls", a=-1.0, p=4), CFG)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="sobolev", a=1.0, p=2, q=4).validate_for(build_graph(GraphSpec(d=3, L=2)))
    for a, p in [(1.0, math.nan), (1.0, math.inf), (math.inf, 4.0), (math.nan, 4.0),
                 (True, 4.0), (1.0, True)]:
        with pytest.raises(InvalidSpec):
            minimize(g, ProblemSpec(kind="nls", a=a, p=p), CFG)
    for p, q in [(2.0, math.nan), (2.0, math.inf), (math.nan, 6.0), (math.inf, 6.0),
                 (True, 2.0), (2.0, True), ("2", 2.0)]:
        with pytest.raises(InvalidSpec):
            minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=p, q=q, allow_subcritical=True), CFG)


@pytest.mark.parametrize("fields,message", [
    ({"q": 3.0}, "reads no q, got q=3.0"), ({"q": 0}, "reads no q, got q=0"),
    ({"allow_subcritical": True}, "reads no allow_subcritical, got allow_subcritical=True"),
    ({"q": 3, "allow_subcritical": True}, "reads no q, got q=3"),
], ids=["q", "q-zero", "allow_subcritical", "both"])
def test_an_nls_problem_refuses_the_fields_it_never_reads(fields, message):
    # the solve never reads q or allow_subcritical, which once went into results.csv unread
    problem = ProblemSpec(kind="nls", a=1.0, p=4.0, **fields)
    with pytest.raises(InvalidSpec, match=re.escape(f"nls problem {message}")):
        minimize(path_graph(3), problem, CFG)
    with pytest.raises(InvalidSpec, match="allow_subcritical must be true or false"):  # the type check first
        ProblemSpec(kind="nls", a=1.0, p=4.0, q=3.0, allow_subcritical="yes").validate_for(path_graph(3))


def test_determinism_across_runs():
    g = build_graph(GraphSpec(d=1, L=8))
    prob = ProblemSpec(kind="nls", a=2.0, p=4)
    cfg1 = SolverConfig(restarts=8, tol_grad=1e-9, max_iters=20000, rng_seed=11)
    res_a = minimize(g, prob, cfg1)
    res_b = minimize(g, prob, cfg1)
    assert res_a.energy == res_b.energy
    assert np.array_equal(res_a.minimizer.values, res_b.minimizer.values)


def test_minimize_dispatch():
    g = path_graph(2)
    assert minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), CFG).energy == pytest.approx(-0.125, abs=1e-8)
    val = minimize(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6, allow_subcritical=True), CFG)
    assert val.energy == pytest.approx(0.0, abs=1e-10)


def test_solver_config_validation():
    with pytest.raises(InvalidSpec):
        SolverConfig(max_iters=0).validate()
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidSpec):
            SolverConfig(tol_grad=bad).validate()
    for bad in (0, 2.5, 3.0, math.inf, math.nan, True, False, np.True_):
        with pytest.raises(InvalidSpec):
            SolverConfig(max_iters=bad).validate()
        with pytest.raises(InvalidSpec):
            SolverConfig(restarts=bad).validate()
    for bad in (True, np.True_, "1e-8"):  # a JSON true or "1e-8" is no tolerance
        with pytest.raises(InvalidSpec, match="tol_grad"):
            SolverConfig(tol_grad=bad).validate()
    SolverConfig(max_iters=np.int64(5), restarts=np.int64(2)).validate()


def test_seeds_must_be_a_list_or_tuple():
    # a string was once split into one-letter descriptors: "unknown seed descriptor 'd'"
    for bad in ("delta", np.ones((2, 3)), 3, {"delta": 1}, [], ()):  # [] once ran the default plan
        with pytest.raises(InvalidSpec, match="seeds"):
            SolverConfig(seeds=bad).validate()
    g = path_graph(3)
    with pytest.raises(InvalidSpec, match="seeds"):
        minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds="delta"))
    res = minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds=("delta", [1.0, 2.0, 1.0])))
    assert [r[0] for r in res.restart_summary] == ["delta", "explicit"]


def test_each_restart_is_a_solve_result(monkeypatch):
    # the winner is the record its restart built, and the summary lists every restart's
    outcomes = []
    descend = solver._descend

    def kept(*args):
        outcomes.append(descend(*args))
        return outcomes[-1]

    monkeypatch.setattr(solver, "_descend", kept)
    g = build_graph(GraphSpec(d=1, L=6))
    res = minimize(g, ProblemSpec(kind="nls", a=2.0, p=4.0), CFG)
    assert len(outcomes) == 4
    assert res.restart_summary == [(o.seed_label, o.energy, o.el_residual, o.converged) for o in outcomes]
    assert all(isinstance(o, SolveResult) and o.minimizer.graph is g for o in outcomes)
    assert res is min(outcomes, key=lambda o: (o.energy, o.el_residual, o.localization.center_of_mass))


def test_explicit_seed_must_match_the_graph():
    g = path_graph(3)
    rng = np.random.default_rng(0)
    values, label = make_seed(g, [0.5, -1.0, 2.0], rng)
    assert label == "explicit" and np.array_equal(values, [0.5, 1.0, 2.0])
    for bad in ([1.0, 1.0], np.ones(4), np.ones((3, 1))):
        with pytest.raises(InvalidSpec):
            make_seed(g, bad, rng)
    for bad in ([1.0, np.nan, 0.0], [1.0, np.inf, 0.0], [-np.inf, 1.0, 0.0]):
        with pytest.raises(InvalidSpec):
            make_seed(g, bad, rng)
    with pytest.raises(InvalidSpec):
        minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds=[np.ones(2)]))


def test_seed_descriptor_must_fit_the_graph():
    g2 = build_graph(GraphSpec(d=2, L=3))
    rng = np.random.default_rng(0)
    values, _ = make_seed(g2, "gauss@1,-1:0.5", rng)
    assert np.argmax(values) == g2.vertex_id((1, -1))
    assert make_seed(g2, "gauss:1e150", rng)[0].min() == 1.0  # flat, and its width squares finitely
    for bad in ("gauss@1", "delta@1", "widegauss@1,2,3", "uniform@0", "ball@1,1,1",
                "gauss:0", "gauss:-1", "gauss:inf", "gauss:nan", "widegauss:0", "corner+:0"):
        with pytest.raises(InvalidSpec):
            make_seed(g2, bad, rng)
    with pytest.raises(InvalidSpec):
        minimize(g2, ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds=["gauss:0", "delta"]))


@pytest.mark.parametrize("bad", ["nonsense", "gauss:1e-300", "gauss@60,60"])
def test_every_seed_is_checked_before_the_first_descent(monkeypatch, bad):
    # a bad descriptor anywhere in the plan raises before any restart runs; gauss:1e-300
    # once descended on NaNs, and gauss@60,60 failed its projection mid-solve
    descents = []
    monkeypatch.setattr(solver, "_descend", lambda *args: descents.append(args))
    g = build_graph(GraphSpec(d=2, L=4))
    with pytest.raises(InvalidSpec, match=re.escape(repr(bad))):
        minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds=["delta", "gauss:2.0", bad]))
    assert descents == []


@pytest.mark.parametrize("descriptor", ["gauss:abc", "delta@1,x", "gauss@,1", "delta@0.5,0", "ball:1.5",
                                        "ball:inf", "ball:0", "ball:-2", "corner-:wide", "delta@9,9",
                                        "gauss:1e-300", "gauss@60,60", "widegauss:1e-160", "gauss:1e200"])
def test_malformed_seed_descriptor_is_invalid_spec(descriptor):
    g2 = build_graph(GraphSpec(d=2, L=3))
    with pytest.raises(InvalidSpec, match=re.escape(repr(descriptor))):
        make_seed(g2, descriptor, np.random.default_rng(0))


@pytest.mark.parametrize("descriptor", ["delta:5", "uniform:7", "uniform@3,3", "random@1,1:3", "corner+@1,1",
                                        "ball:", "gauss@", "gauss:", "delta@"])
def test_a_part_the_head_does_not_take_is_invalid_spec(monkeypatch, descriptor):
    # each of these once ran as if the part were not there
    g = build_graph(GraphSpec(d=2, L=4))
    with pytest.raises(InvalidSpec, match=re.escape(repr(descriptor))):
        make_seed(g, descriptor, np.random.default_rng(0))
    descents = []
    monkeypatch.setattr(solver, "_descend", lambda *args: descents.append(args))
    with pytest.raises(InvalidSpec, match=re.escape(repr(descriptor))):
        minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds=["delta", descriptor]))
    assert descents == []


def test_ball_seed_takes_a_centre():
    g = build_graph(GraphSpec(d=2, L=4))
    u, label = make_seed(g, "ball@2,2:1", np.random.default_rng(0))
    assert label == "ball@2,2:1" and np.flatnonzero(u).tolist() == [g.vertex_id((2, 2))] and u.max() == 1.0
    assert np.array_equal(make_seed(g, "ball@0,0:2", None)[0], make_seed(g, "ball:2", None)[0])
    with pytest.raises(InvalidSpec, match=re.escape(repr("ball@4,0:1"))):
        make_seed(g, "ball@4,0:1", None)  # the centre must lie in the box
    # a box without the origin centres the ball in its middle, as it does a delta
    off = Graph((1, 1), (3, 3), np.zeros((0, 2), dtype=np.int64))
    assert np.array_equal(make_seed(off, "ball:1", None)[0], make_seed(off, "delta", None)[0])


def test_gaussian_seed_is_checked_at_the_constraint_power(monkeypatch):
    # its top value exp(-867/4.5) ~ 1.4e-84 is normal, but its sixth power underflows
    # to 0: the solve once failed mid-plan, naming no seed
    g = build_graph(GraphSpec(d=3, L=4), boundary="dirichlet")
    assert make_seed(g, "gauss@20,20,20", None)[0].max() > 0
    descents = []
    monkeypatch.setattr(solver, "_descend", lambda *args: descents.append(args))
    with pytest.raises(InvalidSpec, match=re.escape(repr("gauss@20,20,20"))):
        minimize(g, ProblemSpec(kind="sobolev", a=1.0, p=2, q=6), SolverConfig(seeds=["delta", "gauss@20,20,20"]))
    assert descents == []


@pytest.mark.parametrize("problem,seed", [
    (ProblemSpec(kind="nls", a=1.0, p=4), np.zeros(11)),
    (ProblemSpec(kind="sobolev", a=1.0, p=2, q=6, allow_subcritical=True), [1e-200] + [0.0] * 10),
], ids=["zeros", "underflows-at-q6"])
def test_an_explicit_seed_that_vanishes_fails_before_any_descent(monkeypatch, problem, seed):
    # these once ran the delta and Gaussian restarts, then failed to project, naming no seed
    descents = []
    monkeypatch.setattr(solver, "_descend", lambda *args: descents.append(args))
    g = build_graph(GraphSpec(d=1, L=6))
    with pytest.raises(InvalidSpec, match="explicit seed vanishes"):
        minimize(g, problem, SolverConfig(seeds=["delta", "gauss:2.0", seed]))
    assert descents == []


@pytest.mark.parametrize("seed", [["x"] * 11, [[1.0, 2.0], [3.0]], [1.0] * 10 + [{}]],
                         ids=["strings", "ragged", "dict"])
def test_an_explicit_seed_that_is_not_numbers_fails_before_any_descent(monkeypatch, seed):
    # the strings once raised numpy's bare ValueError "could not convert string to float"
    descents = []
    monkeypatch.setattr(solver, "_descend", lambda *args: descents.append(args))
    g = build_graph(GraphSpec(d=1, L=6))
    with pytest.raises(InvalidSpec, match=r"^explicit seed needs 11 finite values, got \["):
        minimize(g, ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds=["delta", seed]))
    with pytest.raises(InvalidSpec, match="explicit seed"):
        make_seed(g, seed, np.random.default_rng(0))
    assert descents == []


@pytest.mark.parametrize("call,error,fragment", [
    (lambda g: minimize(g, ProblemSpec(kind="heat", a=1.0, p=4)), InvalidSpec, "unknown problem kind 'heat'"),
    (lambda g: minimize(g, ProblemSpec(kind="sobolev", a=1.0, p=0.5, q=6, allow_subcritical=True)),
     InvalidExponent, "p, q >= 1"),
    (lambda g: minimize_sobolev(g, ProblemSpec(kind="nls", a=1.0, p=4)), InvalidSpec,
     "minimize_sobolev got a problem of kind 'nls'"),
    (lambda g: brute_force_oracle(path_graph(1), ProblemSpec(kind="nls", a=1.0, p=4)), InvalidSpec,
     "at least 2 vertices"),
], ids=["unknown-kind", "sobolev-p-below-1", "sobolev-of-nls", "oracle-one-vertex"])
def test_problem_checks_name_their_cause(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(path_graph(3))


@pytest.mark.parametrize("boundary", ["drop", "dirichlet"])
def test_solver_functional_is_the_calculus_functions(boundary):
    # one implementation: the solver's closures equal the public functions bit for bit
    g = build_graph(GraphSpec(d=2, L=6), boundary=boundary)
    rng = np.random.default_rng(5)
    eps = solver._SMOOTHING_EPS
    assert eps == 1e-8
    for _ in range(3):
        u = rng.standard_normal(g.n)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0):
            prob = ProblemSpec(kind="sobolev", a=1.0, p=p, q=6.0, allow_subcritical=True)
            energy, gradient, _ = _functional(g, prob)
            E, parts, d = energy(u)
            assert E == dirichlet_energy(g, u, p) and parts == E
            assert np.array_equal(d, u[g.heads] - u[g.tails])
            assert np.array_equal(gradient(u, d), dirichlet_gradient(g, u, p, eps))
        for p in (3.0, 4.0, 6.0):
            energy, gradient, _ = _functional(g, ProblemSpec(kind="nls", a=1.0, p=p))
            E, (kin, pot), d = energy(u)
            assert E == nls_energy(g, u, p) and kin == _kinetic(g, u) and pot == np.sum(_abs_pow(u, p))
            assert np.array_equal(d, u[g.heads] - u[g.tails])
            assert np.array_equal(gradient(u, d), nls_gradient(g, u, p))


# pinned solves that end each way the descent can end: (spec, boundary, problem, config, exit)
P15 = ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0, allow_subcritical=True)
EXITS = {
    "nls-drop-converged": (GraphSpec(d=1, L=8), "drop", ProblemSpec(kind="nls", a=2.0, p=4),
                           SolverConfig(restarts=1, seeds=["delta"], tol_grad=1e-9), "converged"),
    "nls-dirichlet-converged": (GraphSpec(d=1, L=8), "dirichlet", ProblemSpec(kind="nls", a=2.0, p=4), CFG,
                                "converged"),
    "nls-dirichlet-capped": (GraphSpec(d=2, L=4), "dirichlet", ProblemSpec(kind="nls", a=2.0, p=3),
                             SolverConfig(restarts=1, seeds=["random"], max_iters=4), "capped"),
    "sobolev-p2-dirichlet-converged": (GraphSpec(d=3, L=4), "dirichlet",
                                       ProblemSpec(kind="sobolev", a=1.0, p=2.0, q=6.0),
                                       SolverConfig(restarts=1, seeds=["delta"]), "converged"),
    "sobolev-drop-converged": (GraphSpec(d=3, L=3), "drop", P15,
                               SolverConfig(restarts=1, seeds=["gauss:2.0"]), "converged"),
    "sobolev-dirichlet-converged": (GraphSpec(d=3, L=3), "dirichlet", P15,
                                    SolverConfig(restarts=1, seeds=["gauss:2.0"]), "converged"),
    # the star's hub is far from the box that the metric's preconditioner inverts
    "sobolev-dirichlet-stagnation": (star_addition_spec(3, 2, 3), "dirichlet", P15,
                                     SolverConfig(restarts=1, seeds=["corner+"]), "stagnation"),
    "sobolev-drop-no-step": (GraphSpec(d=2, L=3), "drop", P15, SolverConfig(restarts=1, seeds=["delta"]),
                             "no step"),
    "sobolev-dirichlet-capped": (GraphSpec(d=3, L=3), "dirichlet", P15,
                                 SolverConfig(restarts=1, seeds=["gauss:2.0"], max_iters=5), "capped"),
}


def descent_exit(res, cfg):
    """How a one-restart solve ended, read off its trace: a row (iter, envelope,
    residual, step) before each step, then one for the returned point."""
    if res.converged:
        return "converged"
    if res.n_iters == cfg.max_iters:
        return "capped"
    rows = res.trace
    if rows[-1, 2] == rows[-2, 2]:
        return "no step"  # the last point did not move
    # the last _STAGNATION_LIMIT accepted steps lowered neither the envelope nor
    # the residual by a tenth
    tail = rows[-(solver._STAGNATION_LIMIT + 1):]
    if np.all(tail[:-1, 1] == tail[0, 1]) and tail[-1, 1] >= tail[-2, 1] \
            and np.all(tail[1:, 2] > 0.9 * tail[:-1, 2]):
        return "stagnation"
    return "unknown"


@pytest.mark.parametrize("case", list(EXITS))
def test_returned_values_are_a_fresh_evaluation_at_the_minimizer(case):
    # the energy, multiplier and residual a solve reports are those of the field it
    # returns, bit for bit, however the descent ended
    spec, boundary, prob, cfg, exit_ = EXITS[case]
    g = build_graph(spec, boundary=boundary)
    res = minimize(g, prob, replace(cfg, record_trace=True))
    u = res.minimizer.values
    if prob.kind == "nls":
        energy = nls_energy(g, u, prob.p)
        lam = (np.sum(_abs_pow(u, prob.p)) - _kinetic(g, u)) / prob.a
        r = nls_gradient(g, u, prob.p) + lam * u
    else:
        energy = dirichlet_energy(g, u, prob.p)
        lam = energy / prob.a
        r = dirichlet_gradient(g, u, prob.p, solver._SMOOTHING_EPS) / prob.p - lam * _signed_pow(u, prob.q - 1)
    assert res.energy == energy
    assert res.multiplier == lam
    assert res.el_residual == float(np.sqrt(np.dot(r, r)))
    assert res.converged == (exit_ == "converged")
    assert (res.n_iters == cfg.max_iters) == (exit_ == "capped")
    assert descent_exit(res, cfg) == exit_
    assert res.stop_reason == exit_


@pytest.mark.parametrize("case", ["nls-drop-converged", "sobolev-dirichlet-stagnation"])
def test_each_descent_point_is_evaluated_once(monkeypatch, case):
    spec, boundary, prob, cfg, _ = EXITS[case]
    g = build_graph(spec, boundary=boundary)
    points, index, energies, gradients = [], {}, [], []
    counts = {"project": 0, "gather": 0}
    in_residual, in_metric = [False], [False]

    def count(name, fn):
        def wrapped(*args):
            if in_metric[0]:  # a metric's solves gather search directions, never a descent point
                assert id(args[-1]) not in index
            else:
                counts[name] += 1
            return fn(*args)
        return wrapped

    def kernel(fn):
        def wrapped(*args):
            assert not in_residual[0]
            return fn(*args)
        return wrapped

    real_functional = solver._functional

    def functional(graph, problem):
        energy, gradient, residual = real_functional(graph, problem)

        def counted_energy(u):
            out = energy(u)
            index[id(u)] = len(points)
            points.append(u)  # kept alive, so ids are not reused
            energies.append(out[0])
            return out

        def counted_gradient(u, d=None):
            gradients.append(index[id(u)])
            return gradient(u, d)

        def counted_residual(u, g, parts):
            in_residual[0] = True
            try:
                return residual(u, g, parts)
            finally:
                in_residual[0] = False

        return counted_energy, counted_gradient, counted_residual

    real_preconditioner = solver._preconditioner

    def preconditioner(graph, problem):
        metric = real_preconditioner(graph, problem)

        def flagged(fn):
            def wrapped(*args):
                in_metric[0] = True
                try:
                    return fn(*args)
                finally:
                    in_metric[0] = False
            return wrapped
        return None if metric is None else flagged(lambda u, d: flagged(metric(u, d)))

    monkeypatch.setattr(solver, "_functional", functional)
    monkeypatch.setattr(solver, "_preconditioner", preconditioner)
    monkeypatch.setattr(solver, "_project", count("project", solver._project))
    gather = count("gather", calculus._edge_diff)  # in the solver and inside the kernels
    monkeypatch.setattr(solver, "_edge_diff", gather)
    monkeypatch.setattr(calculus, "_edge_diff", gather)
    for name in ("_dirichlet", "_kinetic", "_minus_p_laplacian"):
        monkeypatch.setattr(solver, name, kernel(getattr(solver, name)))
    minimize(g, prob, cfg)

    # one projection, one gather and one energy per trial point
    assert counts["project"] == counts["gather"] == len(points) > 1
    # backtracking accepts every trial below the envelope, the running minimum of all
    # trial energies; the other points with a gradient are the tie tests
    envelope = np.minimum.accumulate(energies)
    strict = [True] + [e < m for e, m in zip(energies[1:], envelope[:-1])]
    assert len(set(gradients)) == len(gradients)
    assert all(k in gradients for k in range(len(points)) if strict[k])
    ties = [k for k in gradients if not strict[k]]
    assert len(gradients) == sum(strict) + len(ties)
    assert ties


@pytest.mark.parametrize("case", ["sobolev-dirichlet-stagnation", "sobolev-dirichlet-converged"])
def test_metric_is_built_once_per_step_taken(monkeypatch, case):
    spec, boundary, prob, cfg, exit_ = EXITS[case]
    g = build_graph(spec, boundary=boundary)
    # the edge kernels gather and bincount over contiguous endpoint arrays
    assert all(a.flags.c_contiguous and a.dtype == np.int64 for a in (g.tails, g.heads))
    assert np.array_equal(g.edges, np.stack([g.tails, g.heads], axis=1))
    calls, gradients = [], [0]
    real_preconditioner, real_functional = solver._preconditioner, solver._functional

    def preconditioner(graph, problem):
        metric = real_preconditioner(graph, problem)

        def recorded(u, d):
            calls.append((u.copy(), d.copy()))
            return metric(u, d)
        return recorded

    def functional(graph, problem):
        energy, gradient, residual = real_functional(graph, problem)

        def counted(u, d=None):
            gradients[0] += 1
            return gradient(u, d)
        return energy, counted, residual

    monkeypatch.setattr(solver, "_preconditioner", preconditioner)
    monkeypatch.setattr(solver, "_functional", functional)
    res = minimize(g, prob, replace(cfg, record_trace=True))

    # one call per trace row but the last, and none at a converged point
    assert len(calls) == len(res.trace) - 1 - res.converged > 0
    # call k is made at the point of trace row k, with that point's edge differences,
    # and the descent then moved to another point
    energy, gradient, residual = real_functional(g, prob)
    for (u, d), row in zip(calls, res.trace):
        assert np.array_equal(d, u[g.heads] - u[g.tails])
        _, parts, _ = energy(u)
        _, r = residual(u, gradient(u, d), parts)
        assert float(np.sqrt(np.dot(r, r))) == row[2]
    moved_to = [u for u, _ in calls[1:]] + [res.minimizer.values]
    assert all((v != u).any() for (u, _), v in zip(calls, moved_to))
    if exit_ == "stagnation":
        # each accepted point and the returned one take one gradient; the rest are
        # tie tests, which build no metric
        assert gradients[0] > len(calls) + 1


# ---------------------------------------------------------------------------
# spectral oracle: p = q = 2 has the exact value a * lambda_min

SUBCRITICAL_P2 = ProblemSpec(kind="sobolev", a=1.5, p=2.0, q=2.0, allow_subcritical=True)


@pytest.mark.parametrize("d,L", [(2, 10), (3, 6)])
def test_spectral_oracle_plain_box(d, L):
    g = build_graph(GraphSpec(d=d, L=L), boundary="dirichlet")
    exact = SUBCRITICAL_P2.a * spectral_oracle(g)
    assert spectral_oracle(g) == d * (2.0 - 2.0 * math.cos(math.pi / (2 * L)))
    res = minimize_sobolev(g, SUBCRITICAL_P2)
    assert res.converged
    assert abs(res.energy - exact) <= 1e-12 * exact


@pytest.mark.parametrize("spec", [sphere_deletion_spec(3, 2, 6), star_addition_spec(2, 2, 8)],
                         ids=["sphere-deletion-3-2-6", "star-addition-2-2-8"])
def test_spectral_oracle_perturbed(spec):
    g = build_graph(spec, boundary="dirichlet")
    res = minimize_sobolev(g, SUBCRITICAL_P2)
    assert res.converged
    assert abs(res.energy - SUBCRITICAL_P2.a * spectral_oracle(g)) <= 1e-12 * SUBCRITICAL_P2.a


def test_spectral_oracle_dense_matches_closed_form_and_limits():
    # the same plain box built directly, without BoxEdges, takes the dense eigvalsh path
    g = build_graph(GraphSpec(d=2, L=4), boundary="dirichlet")
    plain = Graph(g.lo, g.shape, g.edges, boundary="dirichlet")
    assert abs(spectral_oracle(plain) - spectral_oracle(g)) <= 1e-13
    with pytest.raises(InvalidSpec):
        spectral_oracle(build_graph(GraphSpec(d=2, L=4)))
    with pytest.raises(TooLarge):
        spectral_oracle(build_graph(sphere_deletion_spec(3, 2, 9), boundary="dirichlet"))


@st.composite
def perturbed_specs(draw):
    """A d=2 box with L in {3, 4, 5} or the d=3 L=3 box, less 1-5 base edges inside
    B_{L-1} or plus 1-5 non-base pairs of box vertices."""
    d, L = draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 3)]))
    if draw(st.booleans()):
        inner = np.array(box_vertices(d, L - 1))
        x = inner[draw(st.lists(st.integers(0, len(inner) - 1), min_size=1, max_size=5))]
        steps = np.eye(d, dtype=int)[draw(st.lists(st.integers(0, d - 1), min_size=len(x), max_size=len(x)))]
        ends = [(a, b) for a, b in zip(x.tolist(), (x + steps).tolist()) if max(map(abs, b)) < L - 1]
        assume(ends)
        return GraphSpec(d=d, L=L, deletions=ends)
    vertex = st.tuples(*[st.integers(1 - L, L - 1)] * d)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: sum(abs(a - b) for a, b in zip(*e)) > 1),
                          min_size=1, max_size=5))
    return GraphSpec(d=d, L=L, additions=pairs)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perturbed_specs())
def test_spectral_oracle_matches_both_metrics_on_random_perturbations(spec):
    # p = q = 2 is a times the oracle's eigenvalue: through the box-inverse metric on the
    # truncation, and through the identity metric on the same graph built directly
    try:
        g = build_graph(spec, boundary="dirichlet")
    except DisconnectedGraph:
        assume(False)
    exact = SUBCRITICAL_P2.a * spectral_oracle(g)
    for graph in (g, Graph(g.lo, g.shape, g.edges, "dirichlet")):
        res = minimize_sobolev(graph, SUBCRITICAL_P2)
        assert res.converged
        assert abs(res.energy - exact) <= 1e-12 * SUBCRITICAL_P2.a


SPECTRAL_CUT_SCRIPT = """
from varopt import Graph, GraphSpec, build_graph
from varopt.solver import spectral_oracle
g = build_graph(GraphSpec(d=2, L=26, deletions={((0, 0), (1, 0))}), boundary="dirichlet")
print(g.n, spectral_oracle(g).hex(), spectral_oracle(Graph(g.lo, g.shape, g.edges, boundary="dirichlet")).hex())
"""


def test_spectral_oracle_on_a_truncation_that_keeps_no_edge_list():
    # n = 2,601 is above the cut-off, so the dense Laplacian is assembled from the
    # rebuilt edge list; eigvalsh's bits depend on the BLAS thread count, so pin it
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SPECTRAL_CUT_SCRIPT], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["2601", "0x1.de445141fab18p-8", "0x1.de445141fab18p-8"]


SPECTRAL_THREADS_SCRIPT = """
from varopt import build_graph, sphere_deletion_spec, star_addition_spec
from varopt.solver import spectral_oracle
for spec in (star_addition_spec(2, 2, 8), sphere_deletion_spec(3, 2, 6)):
    print(spectral_oracle(build_graph(spec, boundary="dirichlet")).hex())
"""


def test_spectral_oracle_spread_over_blas_threads():
    # eigvalsh's bits move with the thread count (884 and 2,703 ulps between 1 and 2
    # threads on these n = 225 and 1,331 graphs); the solves it checks are held to
    # 1e-12 * a, about 100x wider than the spread pinned here
    src = os.path.dirname(os.path.dirname(solver.__file__))
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", SPECTRAL_THREADS_SCRIPT], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        values.append([float.fromhex(x) for x in run.stdout.split()])
    assert len(values[0]) == len(values[1]) == 2
    assert max(abs(a - b) for a, b in zip(*values)) <= 1e-13


# ---------------------------------------------------------------------------
# preconditioned descent direction

def sobolev(p):
    return ProblemSpec(kind="sobolev", a=1.0, p=p, q=6.0, allow_subcritical=True)


def test_preconditioner_picks_the_metric_per_problem():
    box = build_graph(GraphSpec(d=2, L=4), boundary="dirichlet")
    rng = np.random.default_rng(3)
    u, v = np.abs(rng.standard_normal(box.n)) + 0.1, rng.standard_normal(box.n)
    d = u[box.heads] - u[box.tails]
    # p = 2: the box inverse at every point, on dirichlet-mode build_graph truncations
    assert np.array_equal(_preconditioner(box, sobolev(2.0))(u, d)(v), box_inverse(box)(v))
    assert _preconditioner(build_graph(sphere_deletion_spec(2, 2, 4), boundary="dirichlet"),
                           sobolev(2.0)) is not None
    # p < 2 on dirichlet-mode build_graph truncations: the weighted Laplacian at the point
    # solved to within _CG_TOL, for any vector and for the constraint normal and vectors near it
    for g in (box, build_graph(sphere_deletion_spec(2, 2, 4), boundary="dirichlet")):
        u = np.abs(rng.standard_normal(g.n)) + 0.1
        d = u[g.heads] - u[g.tails]
        for p in (1.0, 1.5):
            apply, _ = calculus._weighted_laplacian(g, u, p, solver._SMOOTHING_EPS, d)
            metric = _preconditioner(g, sobolev(p))(u, d)
            normal = _constraint_normal(sobolev(p), u)
            for v in (rng.standard_normal(g.n), normal, 3.0 * normal + 1e-6 * rng.standard_normal(g.n)):
                assert np.linalg.norm(apply(metric(v)) - v) <= solver._CG_TOL * np.linalg.norm(v)
    # p <= 2 elsewhere (drop mode, the box built directly without BoxEdges, a path): the identity
    direct = Graph(box.lo, box.shape, box.edges, boundary="dirichlet")
    for g in (build_graph(GraphSpec(d=2, L=4)), build_graph(sphere_deletion_spec(2, 2, 4)), direct, path_graph(5)):
        for p in (1.0, 1.5, 2.0):
            assert _preconditioner(g, sobolev(p)) is None
    # the identity for p > 2 and the Schrodinger problem
    assert _preconditioner(box, sobolev(3.0)) is None
    assert _preconditioner(box, ProblemSpec(kind="nls", a=1.0, p=4.0)) is None


@pytest.mark.parametrize("spec", [GraphSpec(d=1, L=9), GraphSpec(d=2, L=5), GraphSpec(d=3, L=4),
                                  sphere_deletion_spec(3, 2, 5)])
def test_preconditioned_direction_is_tangent_and_descending(spec):
    g = build_graph(spec, boundary="dirichlet")
    rng = np.random.default_rng(11)
    for p in (1.0, 1.5, 2.0):
        prob = sobolev(p)
        energy, gradient, _ = _functional(g, prob)
        metric = _preconditioner(g, prob)
        for _ in range(3):
            u = np.abs(rng.standard_normal(g.n)) + 0.1
            _, _, d = energy(u)
            grad, normal = gradient(u, d), _constraint_normal(prob, u)
            direction = _tangent_direction(grad, normal, metric(u, d))
            assert abs(np.dot(normal, direction)) <= 1e-12 * np.linalg.norm(normal) * np.linalg.norm(direction)
            assert np.dot(grad, direction) > 0


def test_preconditioned_sobolev_regression_guard():
    # default config on the d=3 L=6 dirichlet box: 127 iterations without the box inverse
    g = build_graph(GraphSpec(d=3, L=6), boundary="dirichlet")
    res = minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=2.0, q=6.0))
    assert res.converged
    assert abs(res.energy - 4.139937920183505) <= 1e-12
    assert res.n_iters <= 20


def test_newton_metric_regression_guard(monkeypatch):
    # default config on the d=3 L=5 dirichlet box at p=1.5, q=3: with the identity metric
    # the corner restarts stopped unconverged after 13,216 and 12,504 iterations, and with
    # the Jacobi metric after 1,098 and 1,197
    g = build_graph(GraphSpec(d=3, L=5), boundary="dirichlet")
    iters = []
    descend = solver._descend

    def counted(*args):
        out = descend(*args)
        iters.append(out.n_iters)
        return out

    monkeypatch.setattr(solver, "_descend", counted)
    res = minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0))
    assert res.converged and all(converged for *_, converged in res.restart_summary)
    assert abs(res.energy - 5.839032386416408) <= 1e-12
    # widegauss is gauss:2.0 on this box, so six restarts take five descents
    assert len(iters) == 5 and len(res.restart_summary) == 6 and max(iters) <= 150


# the default solve on the d=3 L=5 dirichlet box at p=1.5, q=3: float.hex of the energy,
# and each restart's (seed label, energy, el_residual, converged)
P15_L5_ENERGY = "0x1.75b2b4e4fc5f2p+2"
P15_L5_SUMMARY = [
    ("delta", "0x1.75b2b4e4fc5f3p+2", "0x1.040f6a22e6bdap-29", True),
    ("gauss:2.0", "0x1.75b2b4e4fc5f2p+2", "0x1.05554429981e5p-29", True),
    ("widegauss", "0x1.75b2b4e4fc5f2p+2", "0x1.05554429981e5p-29", True),
    ("corner+", "0x1.06b7c2c1fb10cp+3", "0x1.b22337b4a7083p-29", True),
    ("corner-", "0x1.06b7c2c1fb10dp+3", "0x1.319f0c3e3c332p-27", True),
    ("uniform", "0x1.75b2b4e4fc5f3p+2", "0x1.51c69abeb56f8p-29", True),
]


def hex_rows(summary):
    return [(label, e.hex(), r.hex(), c) for label, e, r, c in summary]


def test_newton_metric_solves_no_zero_vector(monkeypatch):
    # the metric's answer for the constraint normal is its stored solve; CG of the zero
    # vector that remains once the normal's part is taken out was 195 of 585 calls
    g = build_graph(GraphSpec(d=3, L=5), boundary="dirichlet")
    real_cg, zero, calls = solver._cg, [0], [0]

    def cg(apply, precondition, v):
        calls[0] += 1
        zero[0] += not v.any()
        return real_cg(apply, precondition, v)

    monkeypatch.setattr(solver, "_cg", cg)
    res = minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0))
    assert calls[0] > 0 and zero[0] == 0
    assert (res.energy.hex(), res.seed_label, res.n_iters) == (P15_L5_ENERGY, "gauss:2.0", 34)
    assert hex_rows(res.restart_summary) == P15_L5_SUMMARY


@pytest.mark.parametrize("prob", [ProblemSpec(kind="sobolev", a=1.0, p=2.0, q=6.0), P15])
def test_each_distinct_seed_field_is_descended_once(monkeypatch, prob):
    # on the d=3 L=4 box widegauss has width max(2, extent/2) = 2, the field of gauss:2.0;
    # an explicit array's field is its absolute values, however it is given
    g = build_graph(GraphSpec(d=3, L=4), boundary="dirichlet")
    values = np.linspace(0.5, 1.5, g.n)
    plan = ["gauss:2.0", "widegauss", "delta", "gauss:2.0", values, list(-values)]
    labels = []
    descend = solver._descend

    def counted(*args):
        labels.append(args[4])
        return descend(*args)

    monkeypatch.setattr(solver, "_descend", counted)
    res = minimize(g, prob, SolverConfig(seeds=plan))
    assert labels == ["gauss:2.0", "delta", "explicit"]
    monkeypatch.undo()

    # each row is the seed's own solve, bit for bit
    alone = [minimize(g, prob, SolverConfig(seeds=[seed])) for seed in plan]
    assert hex_rows(res.restart_summary) == hex_rows([row for a in alone for row in a.restart_summary])
    # the winner is the first restart of the best field, as if every seed had descended
    first = min(range(len(plan)), key=lambda k: (alone[k].energy, alone[k].el_residual,
                                                 alone[k].localization.center_of_mass))
    assert res.seed_label == alone[first].seed_label
    assert (res.energy.hex(), res.multiplier.hex(), res.el_residual.hex(), res.n_iters) == \
        (alone[first].energy.hex(), alone[first].multiplier.hex(), alone[first].el_residual.hex(),
         alone[first].n_iters)
    assert np.array_equal(res.minimizer.values, alone[first].minimizer.values)


def test_restarts_share_equal_seed_fields(monkeypatch):
    # on the d=2 L=4 box ball:1 is delta, ball:4 covers the box and is uniform, and
    # widegauss is gauss:2.0: three fields, which no per-head key model saw all of
    g = build_graph(GraphSpec(d=2, L=4), boundary="dirichlet")
    plan = ["delta", "ball:1", "uniform", "ball:4", "gauss:2.0", "widegauss"]
    labels = []
    descend = solver._descend

    def counted(*args):
        labels.append(args[4])
        return descend(*args)

    monkeypatch.setattr(solver, "_descend", counted)
    res = minimize(g, sobolev(2.0), SolverConfig(seeds=plan))
    assert labels == ["delta", "uniform", "gauss:2.0"]
    monkeypatch.undo()

    alone = [minimize(g, sobolev(2.0), SolverConfig(seeds=[seed])) for seed in plan]
    assert hex_rows(res.restart_summary) == hex_rows([row for a in alone for row in a.restart_summary])
    first = alone[plan.index("gauss:2.0")]
    assert (res.seed_label, res.energy.hex()) == ("gauss:2.0", "0x1.fdf104255dceap+0")
    assert (res.energy.hex(), res.multiplier.hex(), res.el_residual.hex(), res.n_iters) == \
        (first.energy.hex(), first.multiplier.hex(), first.el_residual.hex(), first.n_iters)
    assert np.array_equal(res.minimizer.values, first.minimizer.values)


def test_random_seeds_are_never_shared(monkeypatch):
    # each random restart draws from its own generator, so two are two fields
    calls = [0]
    descend = solver._descend

    def counted(*args):
        calls[0] += 1
        return descend(*args)

    monkeypatch.setattr(solver, "_descend", counted)
    res = minimize(path_graph(5), ProblemSpec(kind="nls", a=1.0, p=4), SolverConfig(seeds=["random", "random"]))
    assert calls[0] == 2 and [r[0] for r in res.restart_summary] == ["random", "random"]


@pytest.mark.parametrize("n", [20, 30, 40])
def test_cg_is_the_same_when_the_preconditioner_returns_its_argument(n):
    # with the identity returning r itself, the first search direction was r, so each
    # residual update rewrote it too: at n=20 all 50 steps to a relative residual of
    # 2.3e-2, against 19 steps to 6.4e-3 with a copying identity
    tridiag = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    v = np.random.default_rng(n).standard_normal(n)
    kept = v.copy()
    runs = []
    for precondition in (lambda r: r, lambda r: r.copy()):
        steps = [0]

        def apply(x):
            steps[0] += 1
            return tridiag @ x
        x = solver._cg(apply, precondition, v)
        assert np.array_equal(v, kept)
        assert np.linalg.norm(tridiag @ x - v) <= solver._CG_TOL * np.linalg.norm(v) / math.sqrt(2)
        runs.append((steps[0], x))
    (steps_same, x_same), (steps_copy, x_copy) = runs
    assert steps_same == steps_copy < solver._CG_MAX_ITERS
    assert np.array_equal(x_same, x_copy)


def test_cg_stops_at_a_zero_step():
    # <r, z> underflows to zero while ||r|| and the curvature do not: the step is zero,
    # and the next would divide by zero
    x = solver._cg(lambda x: 1e308 * x, lambda r: 1e-290 * r, np.full(4, 1e-20))
    assert np.array_equal(x, np.zeros(4))


def test_cg_stops_at_a_direction_without_positive_curvature():
    # a negative-definite operator: the first direction has curvature < 0, so no step is taken
    calls = [0]

    def apply(x):
        calls[0] += 1
        return -2.0 * x
    x = solver._cg(apply, lambda r: r.copy(), np.arange(1.0, 5.0))
    assert calls[0] == 1 and np.array_equal(x, np.zeros(4))


def test_newton_metric_cg_solves_end_at_their_tolerance(monkeypatch):
    # on the d=3 L=5 dirichlet box at p=1.5, q=3 no CG solve of the default solve reaches
    # _CG_MAX_ITERS (the largest takes 15 steps); on the L=8 box 158 of 1,490 do
    g = build_graph(GraphSpec(d=3, L=5), boundary="dirichlet")
    real_cg, calls = solver._cg, []

    def cg(apply, precondition, v):
        curvatures, preconditioned = [], [0]

        def counted_apply(x):
            out = apply(x)
            curvatures.append(np.dot(x, out))
            return out

        def counted_precondition(r):
            preconditioned[0] += 1
            return precondition(r)
        x = real_cg(counted_apply, counted_precondition, v)
        calls.append((len(curvatures), preconditioned[0], min(curvatures, default=1.0),
                      np.linalg.norm(apply(x) - v) / np.linalg.norm(v) if v.any() else 0.0))
        return x

    monkeypatch.setattr(solver, "_cg", cg)
    res = minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0))
    assert res.converged and len(calls) > 0
    for steps, preconditioned, curvature, relative_residual in calls:
        # not the cap, not a zero step, not a direction without curvature: the tolerance
        assert steps < solver._CG_MAX_ITERS
        assert preconditioned == steps and curvature > 0
        assert relative_residual <= solver._CG_TOL


def test_newton_metric_reaches_the_L8_minimum():
    # the delta restart on the d=3 L=8 dirichlet box at p=1.5, q=3: 545 iterations with
    # the Jacobi metric
    g = build_graph(GraphSpec(d=3, L=8), boundary="dirichlet")
    res = minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0), SolverConfig(seeds=["delta"]))
    assert res.converged
    assert abs(res.energy - 5.838425941309412) <= 1e-12
    assert res.n_iters <= 60


@pytest.mark.parametrize("seed", ["delta", "ball", "random"])
def test_newton_metric_converges_on_a_sphere_deletion(seed):
    # near a critical point the gradient is nearly parallel to the constraint normal;
    # one inexact solve of it, without the normal's part solved apart, left these
    # restarts unconverged at residuals of 4.5e-8 to 1.6e-6, and the Jacobi metric took
    # 1,379-1,887 iterations
    g = build_graph(sphere_deletion_spec(3, 2, 4), boundary="dirichlet")
    res = minimize_sobolev(g, ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0), SolverConfig(seeds=[seed]))
    assert res.converged
    assert abs(res.energy - 0.1850108708623792) <= 1e-12
    assert res.n_iters <= 100


# ---------------------------------------------------------------------------
# golden bits: a speed-up must not move a single result

CUT = GraphSpec(d=2, L=6, deletions={((0, 0), (1, 0))})
GOLDEN_CFG = SolverConfig(max_iters=3000)
GOLDEN = {  # float.hex of energy, multiplier and el_residual; n_iters; seed_label
    "nls-cut-drop": ((CUT, "drop", ProblemSpec(kind="nls", a=5.0, p=4.0)),
                     ("-0x1.11986b8856ce7p+1", "0x1.82b921529145ap+1", "0x1.48a28637381d2p-27", 29, "corner+")),
    "nls-cut-dirichlet": ((CUT, "dirichlet", ProblemSpec(kind="nls", a=5.0, p=4.0)),
                          ("-0x1.1ec16bf4b6640p-3", "0x1.f7b791de4ba9bp+0", "0x1.09f6b9ff99befp-27", 23, "delta")),
    "nls-star-drop": ((star_addition_spec(1, 3, 12), "drop", ProblemSpec(kind="nls", a=2.0, p=4.0)),
                      ("-0x1.756ddcdb3d2b7p-2", "0x1.15138f857a2c3p+0", "0x1.c81f2cbee8533p-29", 30, "corner-")),
    "nls-p7-box": ((GraphSpec(d=1, L=12), "dirichlet", ProblemSpec(kind="nls", a=3.0, p=7.0)),
                   ("-0x1.efed93936d353p+1", "0x1.ac7fda62ad9d0p+3", "0x1.68365ccb1d4d8p-31", 10, "delta")),
    "sobolev-p1.5-newton-cg": ((GraphSpec(d=3, L=4), "dirichlet",
                                ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0)),
                               ("0x1.75bf7864e5dfdp+2", "0x1.75bf7864e5dfdp+2", "0x1.04a64df3429ddp-29", 14,
                                "delta")),
    "sobolev-p2-box-inverse": ((sphere_deletion_spec(3, 2, 5), "dirichlet",
                                ProblemSpec(kind="sobolev", a=1.0, p=2.0, q=6.0)),
                               ("0x1.b80cbe2d6e2fep-3", "0x1.b80cbe2d6e2fep-3", "0x1.1c37f17493100p-28", 22,
                                "delta")),
    "sobolev-p1-capped": ((GraphSpec(d=3, L=3), "dirichlet",
                           ProblemSpec(kind="sobolev", a=1.0, p=1.0, q=6.0, allow_subcritical=True)),
                          ("0x1.8000000000006p+2", "0x1.8000000000006p+2", "0x1.3988e09c0d6cbp+1", 19, "delta")),
    # above lattice._BOX_MIN_VERTICES: these pin the box layout's summation order
    "nls-cut-dirichlet-box-layout": ((GraphSpec(d=2, L=30, deletions={((0, 0), (1, 0))}), "dirichlet",
                                      ProblemSpec(kind="nls", a=5.0, p=4.0)),
                                     ("-0x1.1ec1ffd3f53a0p-3", "0x1.f7b71e2858d10p+0", "0x1.cb9e86386909fp-28", 25,
                                      "delta")),
    "sobolev-p1.5-sphere-box-layout": ((sphere_deletion_spec(3, 2, 8), "dirichlet",
                                        ProblemSpec(kind="sobolev", a=1.0, p=1.5, q=3.0),
                                        replace(GOLDEN_CFG, seeds=["uniform"])),
                                       ("0x1.7ae2ce257a72cp-3", "0x1.7ae2ce257a72cp-3", "0x1.5779f906cee17p-27", 96,
                                        "uniform")),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_bits(case):
    # every graph has under 10^4 vertices, so the BLAS thread count cannot move these
    (spec, boundary, prob, *cfg), expected = GOLDEN[case]  # a case may name its own config
    res = minimize(build_graph(spec, boundary=boundary), prob, cfg[0] if cfg else GOLDEN_CFG)
    got = (res.energy.hex(), res.multiplier.hex(), res.el_residual.hex(), res.n_iters, res.seed_label)
    assert got == expected


def traced_peak(solve):
    """Peak traced memory of one call, counted from its start."""
    gc.collect()
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec,boundary,prob", [
    (GraphSpec(d=3, L=8), "dirichlet", ProblemSpec(kind="sobolev", a=1.0, p=2.0, q=6.0)),
    (GraphSpec(d=2, L=12), "drop", ProblemSpec(kind="nls", a=2.0, p=4.0)),
], ids=["sobolev-p2-box-inverse", "nls-drop"])
def test_a_solve_holds_one_restart_at_a_time(spec, boundary, prob):
    # the six restarts of the default plan cost the one restart's working set plus
    # the running winner; keeping every seed and every restart's minimizer until
    # the ranking once cost about ten field-sized arrays more
    g = build_graph(spec, boundary=boundary)
    minimize(g, prob)  # warm numpy and the solver's caches
    one = traced_peak(lambda: minimize(g, prob, SolverConfig(seeds=["delta"])))
    six = traced_peak(lambda: minimize(g, prob))
    assert six - one <= 4 * 8 * g.n + 16 * 1024
