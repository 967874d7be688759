"""The names perfbench/worker.py and perfbench/workloads.py wrap or call.

The benchmark harness is kept fixed between changes so that its timings stay
comparable, so an API cut that drops one of these names must fail here
rather than break the harness.
"""

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


def test_build_graph_checks_connectivity_through_the_module_global(monkeypatch):
    # the harness times the check by wrapping lattice.is_connected, so build_graph
    # must look it up there, and only for deletion specs
    calls, check = [], lattice.is_connected
    monkeypatch.setattr(lattice, "is_connected", lambda g: calls.append(g) or check(g))
    lattice.build_graph(lattice.sphere_deletion_spec(2, 2, 4))
    assert len(calls) == 1
    lattice.build_graph(lattice.GraphSpec(d=2, L=4))
    lattice.build_graph(lattice.star_addition_spec(2, 2, 4))
    assert len(calls) == 1
