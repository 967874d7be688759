"""Acceptance suite: every top-level guarantee of the package, one test per
criterion, each printing a single PASS/FAIL line with its measured margins.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 asserts the vanishing of the star-graph energy gap, not
its absence: on a truncation B_L the escaped minimizer's tail still reaches
back into B_R, so the gap is positive and decays like exp(-2 kappa (L - R)),
cosh(kappa) = 1 + lambda/2 (3.5e-6 at L=15, ~7e-14 at L=20, 0 at L=25). The
criterion checks its sign, a rigorous per-L allowance, its decay in L, and
the 2e-6 tolerance at the largest L.
"""

import json
import math
import time

import numpy as np
import pytest

from varopt import (
    GraphSpec,
    ProblemSpec,
    SolverConfig,
    brute_force_oracle,
    build_graph,
    dirichlet_energy,
    minimize,
    nls_energy,
    path_graph,
    sphere_deletion_spec,
    star_addition_spec,
)
from varopt.analysis import (
    ball_indicator_field,
    compare_energies,
    sobolev_critical_gap,
    star_nonattainment_probe,
    verify_E_properties,
    verify_J_properties,
    verify_lemma_suite,
)
from varopt.cli import ExperimentConfig, run

from test_cli import CRITERION_10


def announce(k, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    cfg = SolverConfig(restarts=3, tol_grad=1e-9, max_iters=30000)
    worst = 0.0
    frozen_ok = True
    for n in (2, 3):
        g = path_graph(n)
        for p in (3.0, 4.0, 6.0):
            prob = ProblemSpec(kind="nls", a=1.0, p=p)
            oracle = brute_force_oracle(g, prob, 1e-3)
            solved = minimize(g, prob, cfg).energy
            worst = max(worst, abs(oracle - solved))
            if n == 2 and p == 4.0:
                frozen_ok = abs(solved - (-0.125)) <= 1e-9 and abs(oracle - (-0.125)) <= 1e-6
        sprob = ProblemSpec(kind="sobolev", a=1.0, p=2, q=6, allow_subcritical=True)
        oracle = brute_force_oracle(g, sprob, 1e-3)
        solved = minimize(g, sprob, cfg).energy
        worst = max(worst, abs(oracle - solved))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and frozen_ok and elapsed < 10
    announce(1, ok, f"worst |solver-oracle|={worst:.2e}, 2-vertex value -0.125 exact", elapsed, 10)
    assert worst <= 1e-5
    assert frozen_ok
    assert elapsed < 10


def test_criterion_02_delta_identity():
    t0 = time.time()
    worst = 0.0
    for d in (1, 2, 3):
        g = build_graph(GraphSpec(d=d, L=2))
        centre = g.vertex_id((0,) * d)
        for a in (0.5, 1.0, 3.0):
            for p in (2.5, 4.0, 6.0):
                u = np.zeros(g.n)
                u[centre] = math.sqrt(a)
                worst = max(worst, abs(nls_energy(g, u, p) - (d * a - a ** (p / 2) / p)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1
    announce(2, ok, f"27 cases, worst deviation {worst:.2e}", elapsed, 1)
    assert worst <= 1e-12
    assert elapsed < 1


def test_criterion_03_flat_profile_identity():
    t0 = time.time()
    worst = 0.0
    for R in (2, 3):
        g = build_graph(sphere_deletion_spec(3, R, 3 * R))
        f = ball_indicator_field(g, R, 6.0)
        worst = max(worst, abs(dirichlet_energy(g, f, 2) - 1.0 / (2 * R - 1)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1
    announce(3, ok, f"R in (2,3), worst deviation {worst:.2e}", elapsed, 1)
    assert worst <= 1e-12
    assert elapsed < 1


def test_criterion_04_lemma_suite():
    t0 = time.time()
    g = build_graph(GraphSpec(d=1, L=16))
    report = verify_lemma_suite(g, p=4.0, q=6.0, n_fields=100, rng_seed=2024)
    elapsed = time.time() - t0
    detail = ", ".join(f"{c.name.split()[0]}:{c.margin:.1e}" for c in report.checks)
    ok = report.all_passed and elapsed < 30
    announce(4, ok, f"100 fields/check, worst margins {detail}", elapsed, 30)
    assert report.all_passed, [(c.name, c.margin) for c in report.failures()]
    # nesting, lower bound, far-bump splitting, summation by parts
    for check, tol in zip(report.checks, (1e-12, 1e-12, 1e-10, 1e-10), strict=True):
        assert check.margin <= tol, (check.name, check.margin)
    assert elapsed < 30


def test_criterion_05_energy_curve_properties():
    t0 = time.time()
    g = build_graph(GraphSpec(d=1, L=20))
    cfg = SolverConfig(restarts=6, tol_grad=1e-8, max_iters=60000)
    grid = [0.5 * k for k in range(1, 11)]
    report = verify_E_properties(g, 4.0, grid, solver_cfg=cfg)
    elapsed = time.time() - t0
    n_checks = len(report.checks)
    ok = report.all_passed and elapsed < 300
    announce(5, ok, f"{n_checks} checks on a-grid 0.5..5, failures {len(report.failures())}",
             elapsed, 300)
    assert report.all_passed, [(c.name, c.margin) for c in report.failures()]
    assert elapsed < 300


def test_criterion_06_sobolev_homogeneity():
    t0 = time.time()
    g = build_graph(GraphSpec(d=3, L=10), boundary="dirichlet")
    cfg = SolverConfig(restarts=4, tol_grad=1e-8, max_iters=60000)
    report = verify_J_properties(g, 2.0, 6.0, [1.0, 8.0, 64.0], solver_cfg=cfg, thetas=(2.0,))
    elapsed = time.time() - t0
    ratios = {a: report.values[a] / a ** (1 / 3) for a in (1.0, 8.0, 64.0)}
    spread = max(ratios.values()) - min(ratios.values())
    ok = report.all_passed and elapsed < 600
    announce(6, ok, f"J(a)/a^(1/3) spread {spread:.2e}, J(2)={report.values[2.0]:.6f} "
                    f"< 2*J(1)={2 * report.values[1.0]:.6f}", elapsed, 600)
    assert report.all_passed, [(c.name, c.margin) for c in report.failures()]
    assert elapsed < 600


def test_criterion_07_comparison_theorems():
    t0 = time.time()
    cfg = SolverConfig(restarts=6, tol_grad=1e-8, max_iters=60000)
    # (i) addition graph: energies must agree with the plain lattice
    star = build_graph(star_addition_spec(1, 3, 20))
    base = build_graph(GraphSpec(d=1, L=20))
    rep_add = compare_energies(star, base, ProblemSpec(kind="nls", a=1.0, p=4.0),
                               [1.0, 4.0], solver_cfg=cfg, tol=2e-6)
    add_gap = max(abs(m) for m in rep_add.margins)
    # (ii) deletion graph: perturbed energy never above the base energy
    # (run in two dimensions: removing any edge of the one-dimensional line
    # disconnects it, so no connected deletion graph exists at d=1)
    cut = build_graph(GraphSpec(d=2, L=12, deletions={((0, 0), (1, 0))}))
    base2 = build_graph(GraphSpec(d=2, L=12))
    rep_del = compare_energies(cut, base2, ProblemSpec(kind="nls", a=1.0, p=4.0),
                               [1.0, 4.0], solver_cfg=cfg, tol=1e-8)
    del_margin = max(rep_del.margins)
    elapsed = time.time() - t0
    ok = add_gap <= 2e-6 and del_margin <= 1e-8 and elapsed < 600
    announce(7, ok, f"addition |gap|={add_gap:.2e} (tol 2e-6), deletion margin "
                    f"{del_margin:.2e} (tol 1e-8, run at d=2)", elapsed, 600)
    assert add_gap <= 2e-6
    assert del_margin <= 1e-8
    assert elapsed < 600


def test_criterion_08_sobolev_critical_gap_witness():
    t0 = time.time()
    cfg = SolverConfig(restarts=3, tol_grad=1e-8, max_iters=60000)
    report = sobolev_critical_gap(3, 2.0, [2, 3, 4], 12, solver_cfg=cfg)
    elapsed = time.time() - t0
    ok = report.witness_R is not None and report.witness_R <= 4 and elapsed < 900
    announce(8, ok, f"witness R={report.witness_R}, bound {1.0 / (2 * report.witness_R - 1):.4f} "
                    f"< J(1)={report.j_unperturbed:.4f}, margin {report.margin:.4f}",
             elapsed, 900)
    assert report.witness_R is not None and report.witness_R <= 4
    assert report.margin > 0
    assert elapsed < 900


def _escape_allowance(d, R, L, p, a, energy_base, cfg):
    """Star energy of the plain-box minimizer cut to zero on B_R and rescaled
    to mass a, minus the plain-box energy: a rigorous bound on the star gap,
    since the cut field is feasible on the star graph."""
    star = build_graph(star_addition_spec(d, R, L), boundary="drop")
    base = build_graph(GraphSpec(d=d, L=L), boundary="drop")
    u = minimize(base, ProblemSpec(kind="nls", a=a, p=p), cfg).minimizer.values.copy()
    u[np.max(np.abs(base.coords), axis=1) < R] = 0.0
    u *= math.sqrt(a / np.sum(u * u))
    return nls_energy(star, u, p) - energy_base


def test_criterion_09_star_nonattainment_witness():
    t0 = time.time()
    cfg = SolverConfig(restarts=6, tol_grad=1e-8, max_iters=60000)
    report = star_nonattainment_probe(1, 11, 4.0, None, [15, 20, 25], 5.0,
                                      solver_cfg=cfg, equality_tol=2e-6)
    gaps = [r.energy_perturbed - r.energy_base for r in report.records]
    allowances = [_escape_allowance(1, 11, r.L, 4.0, 5.0, r.energy_base, cfg)
                  for r in report.records]
    elapsed = time.time() - t0
    for rec, gap, allowance in zip(report.records, gaps, allowances):
        print(f"  L={rec.L}: gap={gap:.3e} allowance={allowance:.3e} com={rec.com_inf:.3f} "
              f"multiplier_gap={rec.multiplier_gap:.3f}")
    # On a finite truncation the star infimum is not yet the lattice one: the
    # minimizer escapes towards the box end, and the gap is the cost of its
    # tail reaching back into B_R, decaying like exp(-2 kappa (L - R)) with
    # cosh(kappa) = 1 + lambda/2. The clause asserts that picture: the gap is
    # nonnegative, within the escape allowance at every L, nonincreasing in L,
    # and within the equality tolerance at the largest L.
    sign_ok = all(gap >= -1e-12 for gap in gaps)
    allowance_ok = all(gap <= allowance + 1e-12 for gap, allowance in zip(gaps, allowances))
    decay_ok = all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))
    last_ok = gaps[-1] <= report.equality_tol
    equality_ok = sign_ok and allowance_ok and decay_ok and last_ok
    ok = equality_ok and report.escape_trend_ok and report.multiplier_ok
    announce(9, ok, f"escape {report.escape_trend_ok}, multiplier {report.multiplier_ok}, "
                    f"vanishing gap {equality_ok} (gap {gaps[-1]:.2e} at L={report.records[-1].L} "
                    f"vs 2e-6)", elapsed, 600)
    assert report.escape_trend_ok
    assert report.multiplier_ok
    assert elapsed < 600
    detail = f"gaps {[f'{g:.2e}' for g in gaps]}, allowances {[f'{x:.2e}' for x in allowances]}"
    assert sign_ok, f"the star graph sits below the plain box: {detail}"
    assert allowance_ok, f"a gap exceeds its escape allowance: {detail}"
    assert decay_ok, f"the gap grows with L: {detail}"
    assert last_ok, f"the gap at the largest L exceeds 2e-6: {detail}"


def test_criterion_10_bit_identical_reruns(tmp_path):
    t0 = time.time()
    configs = [payload for payload, _ in CRITERION_10]  # the configs test_cli pins by digest
    identical = True
    for i, payload in enumerate(configs):
        blobs = []
        for rep in ("x", "y"):
            payload2 = dict(payload, output_dir=str(tmp_path / f"{i}{rep}"), seed=13)
            run(ExperimentConfig.from_dict(payload2))
            blobs.append((tmp_path / f"{i}{rep}" / "results.csv").read_bytes())
        identical = identical and blobs[0] == blobs[1]
    elapsed = time.time() - t0
    announce(10, identical, "threshold, star-probe, solve-sobolev reruns byte-compared",
             elapsed, 120)
    assert identical
