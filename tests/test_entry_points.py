"""The names perfbench/worker.py and perfbench/workloads.py wrap or call.

The benchmark harness is kept fixed between changes so that its timings stay
comparable, so an API cut that drops one of these names, or a parameter the
harness passes, must fail here rather than break the harness.
"""

import contextlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varopt import analysis, calculus, cli, lattice, solver

ENTRY_POINTS = {
    analysis: ("minimize", "minimize_sobolev", "estimate_threshold", "compare_energies",
               "star_nonattainment_probe", "verify_E_properties", "ball_indicator_field",
               "build_graph", "GraphSpec", "sphere_deletion_spec", "star_addition_spec"),
    cli: ("minimize", "run", "ExperimentConfig", "build_graph", "GraphSpec",
          "sphere_deletion_spec", "star_addition_spec"),
    solver: ("minimize_sobolev", "make_seed", "default_seed_plan", "ProblemSpec", "SolverConfig"),
    lattice: ("is_connected", "build_graph", "GraphSpec", "sphere_deletion_spec",
              "star_addition_spec"),
    calculus: ("dirichlet_energy", "laplacian", "p_laplacian", "nls_energy", "nls_gradient"),
}


@pytest.mark.parametrize("module", ENTRY_POINTS, ids=lambda m: m.__name__)
def test_benchmark_entry_points_exist(module):
    missing = [name for name in ENTRY_POINTS[module] if not callable(getattr(module, name, None))]
    assert not missing, f"{module.__name__} lacks {missing}"


# every call shape of the harness, as (function, args, kwargs); nothing runs, so any object stands in
G, CFG, PROB, SPEC, U = "graph", "solver_cfg", "problem", "spec", "u"
CALL_SHAPES = {
    "estimate_threshold": (analysis.estimate_threshold, ("family", 5.0, (0.01, 20.0)),
                           {"levels": (12,), "bracket_tol": 0.01, "solver_cfg": CFG}),
    "compare_energies": (analysis.compare_energies, (G, G, PROB, [1.0]),
                         {"solver_cfg": CFG, "raise_on_nonconverged": False}),
    "star_nonattainment_probe": (analysis.star_nonattainment_probe, (1, 11, 4.0, None, [15, 20], 5.0),
                                 {"solver_cfg": CFG, "raise_on_nonconverged": False}),
    "verify_E_properties": (analysis.verify_E_properties, (G, 4.0, [0.5, 1.0]), {"solver_cfg": CFG}),
    "sphere_deletion_spec": (lattice.sphere_deletion_spec, (3, 2, 6), {}),
    "star_addition_spec": (lattice.star_addition_spec, (3, 6, 25), {}),
    "GraphSpec": (lattice.GraphSpec, (), {"d": 2, "L": 12, "deletions": set()}),
    "build_graph": (lattice.build_graph, (SPEC,), {"boundary": "dirichlet"}),
    "ball_indicator_field": (analysis.ball_indicator_field, (G, 3, 3.0), {}),
    "minimize_sobolev": (solver.minimize_sobolev, (G, PROB, CFG), {}),
    "ProblemSpec": (solver.ProblemSpec, (), {"kind": "sobolev", "a": 1.0, "p": 2.0, "q": 6.0}),
    "SolverConfig-restarts": (solver.SolverConfig, (), {"restarts": 6, "tol_grad": 1e-8}),
    "SolverConfig-seeds": (solver.SolverConfig, (), {"seeds": ["delta"]}),
    "default_seed_plan": (solver.default_seed_plan, (6,), {}),
    "from_dict": (cli.ExperimentConfig.from_dict, ({},), {}),
    "run": (cli.run, ("config",), {}),
    "laplacian": (calculus.laplacian, (G, U), {}),
    **{name: (getattr(calculus, name), (G, U, 2.0), {})
       for name in ("dirichlet_energy", "p_laplacian", "nls_energy", "nls_gradient")},
}


@pytest.mark.parametrize("shape", CALL_SHAPES)
def test_benchmark_calls_bind_to_the_signatures(shape):
    # a cut keyword or reordered parameter would break the harness without failing a solve here
    fn, args, kwargs = CALL_SHAPES[shape]
    inspect.signature(fn).bind(*args, **kwargs)


def test_benchmark_reads_of_results_and_graphs():
    g = lattice.build_graph(lattice.GraphSpec(d=1, L=3), boundary="dirichlet")
    assert (g.n, g.n_edges, g.boundary, g.edges.shape, g.phantom.shape) == (5, 4, "dirichlet",
                                                                           (4, 2), (5,))
    res = solver.minimize_sobolev(
        g, solver.ProblemSpec(kind="sobolev", a=1.0, p=2.0, q=2.0, allow_subcritical=True),
        solver.SolverConfig(restarts=2))
    assert [len(r) for r in res.restart_summary] == [4, 4]
    assert isinstance(res.converged, bool) and isinstance(res.n_iters, int)
    assert np.isfinite([res.energy, res.multiplier]).all()
    assert calculus.p_laplacian(g, np.ones(g.n), 3.0).values.shape == (g.n,)
    assert solver.default_seed_plan(2) == ["delta", "gauss:2.0"]
    assert callable(cli.ExperimentConfig.from_dict)
    # the kernel probe's reads on a box-layout graph, which keeps no edge list (the
    # smoke run's toy perturbed-d3-L25 graphs have 3,375 vertices)
    box = lattice.build_graph(lattice.sphere_deletion_spec(3, 2, 8), boundary="dirichlet")
    assert (box.n, box.n_edges, box.edges.nbytes, box.phantom.nbytes) == (3375, 9397, 16 * 9397, 8 * 3375)


def test_build_graph_checks_connectivity_through_the_module_global(monkeypatch):
    # the harness times the check by wrapping lattice.is_connected, so build_graph
    # must look it up there, and only for deletion specs: once a build, on the ball
    # T = {|x| <= R} of the perturbation radius R plus at most one hub vertex
    calls, check = [], lattice.is_connected
    monkeypatch.setattr(lattice, "is_connected", lambda g: calls.append(g) or check(g))
    specs = [lattice.sphere_deletion_spec(2, 2, 4), lattice.sphere_deletion_spec(3, 2, 25),
             lattice.sphere_deletion_spec(1, 3, 40), lattice.sphere_deletion_spec(2, 4, 5),
             lattice.GraphSpec(d=4, L=6, deletions={((0, 0, 0, 0), (0, 1, 0, 0))})]
    for k, spec in enumerate(specs, 1):
        with contextlib.suppress(lattice.DisconnectedGraph):  # a d = 1 deletion always disconnects
            lattice.build_graph(spec)
        assert len(calls) == k
        assert calls[-1].n <= (2 * spec.perturbation_radius() + 1) ** spec.d + 1
    lattice.build_graph(lattice.GraphSpec(d=2, L=4))
    lattice.build_graph(lattice.star_addition_spec(2, 2, 4))
    assert len(calls) == len(specs)


def test_traced_perturbed_workload_runs_end_to_end():
    # the traced harness wraps the GraphSpec class and both spec factories, so a change
    # to the constructor that breaks the wrappers shows only in a whole run
    root = Path(__file__).resolve().parent.parent
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "perturbed-d3-L25", "--size", "toy",
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0, result
    assert result["metrics"]["lattice.spec_s"]["value"] > 0
