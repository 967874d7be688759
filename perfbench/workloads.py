"""The four pinned workloads.

Each workload function takes the program namespace `P` (varopt's public
entry points, possibly wrapped in spans), a size ("full" or "toy") and the
workload seed. Its body up to `return Plan(...)` is the set-up: every spec
and graph the run needs outside `cli.run`, `estimate_threshold` and
`star_nonattainment_probe`. Each task returns the outputs the reference
check compares; solves are recorded separately, one list per task.

The solver configurations are pinned so that outputs can be checked against
`reference.json`. The seed draws the random fields of `perturbed-d3-L25`
and of the kernel probe, and the order in which `sweep-nls-small` runs its
tasks.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass

import numpy as np

# summation-by-parts tolerance of varopt.analysis.verify_lemma_suite
SBP_TOL = 1e-10

# criterion-10 configs of tests/test_acceptance.py, run through varopt.cli.run
CLI_CONFIGS = [
    {"experiment": "threshold",
     "graph": {"construction": "lattice", "d": 1, "L": 10},
     "params": {"p": 4.0, "a_range": [0.5, 6.0], "levels": [10]},
     "solver": {"restarts": 8, "tol_grad": 1e-8, "max_iters": 30000}},
    {"experiment": "star-probe",
     "params": {"d": 1, "R": 4, "p": 4.0, "L_list": [7, 9], "a": 3.0},
     "solver": {"restarts": 8, "tol_grad": 1e-8, "max_iters": 30000}},
    {"experiment": "solve-sobolev",
     "graph": {"construction": "sphere_deletion", "d": 3, "R": 2, "L": 6},
     "problem": {"a": 1.0, "p": 2.0, "q": 6.0},
     "solver": {"restarts": 8, "tol_grad": 1e-7, "max_iters": 30000}},
]


@dataclass
class Plan:
    tasks: list          # (name, callable returning an outputs dict)
    probe: object        # () -> (graph, p of the Dirichlet kernels, p of the NLS kernels)
    replay: tuple = None  # (graph, problem) of a single-solve workload


def sweep_nls_small(P, size, seed, scratch):
    toy = size == "toy"
    cfg = P.SolverConfig(restarts=6, tol_grad=1e-8)
    cut = P.build_graph(P.GraphSpec(d=2, L=12, deletions={((0, 0), (1, 0))}))
    box2 = P.build_graph(P.GraphSpec(d=2, L=12))
    star = P.build_graph(P.star_addition_spec(1, 3, 20))
    box1 = P.build_graph(P.GraphSpec(d=1, L=20))

    def threshold(p):
        def task():
            res = P.estimate_threshold(lambda L: P.build_graph(P.GraphSpec(d=1, L=L)), p,
                                       (0.01, 20.0), levels=(12,),
                                       bracket_tol=1.0 if toy else 0.01, solver_cfg=cfg)
            return {"exact": {"status": res.status},
                    "floats": {"alpha_lo": res.alpha_lo, "alpha_hi": res.alpha_hi}}
        return task

    a_grid = [1.0, 4.0] if toy else [0.5 * k for k in range(1, 13)]

    # one task per grid point, so that run times take their medians at a fine grain
    def compare(perturbed, base, a):
        def task():
            rep = P.compare_energies(perturbed, base, P.ProblemSpec(kind="nls", a=1.0, p=4.0),
                                     [a], solver_cfg=cfg, raise_on_nonconverged=False)
            return {"exact": {"verdicts": rep.verdicts}}
        return task

    def star_probe():
        rep = P.star_nonattainment_probe(1, 11, 4.0, None,
                                         [15, 20] if toy else [15, 20, 25, 30, 35, 40], 5.0,
                                         solver_cfg=cfg, raise_on_nonconverged=False)
        return {"exact": {"equality_ok": rep.equality_ok,
                          "escape_trend_ok": rep.escape_trend_ok,
                          "multiplier_ok": rep.multiplier_ok},
                "floats": {f"energy_gap.L{r.L}": r.energy_gap for r in rep.records}}

    def verify_e():
        grid = [0.5, 1.0] if toy else [0.25 * k for k in range(1, 21)]
        rep = P.verify_E_properties(box1, 4.0, grid, solver_cfg=cfg)
        return {"exact": {"passed": [c.passed for c in rep.checks]}}

    def cli_configs():
        exact, identical, bytes_written = {}, {}, 0
        for i, payload in enumerate(CLI_CONFIGS[1:2] if toy else CLI_CONFIGS):
            out = os.path.join(scratch, f"cli{i}")
            code = P.cli_run(P.ExperimentConfig.from_dict(dict(payload, output_dir=out, seed=13)))
            with open(os.path.join(out, "results.csv"), "rb") as fh:
                identical[payload["experiment"]] = hashlib.sha256(fh.read()).hexdigest()
            with open(os.path.join(out, "results.json")) as fh:
                summary = json.load(fh)
            bytes_written += sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
            keep = ("status", "n_probes", "equality_ok", "escape_trend_ok", "multiplier_ok",
                    "converged")
            exact[payload["experiment"]] = {k: summary[k] for k in keep if k in summary}
            exact[payload["experiment"]]["exit_code"] = code
            shutil.rmtree(out)
        return {"exact": exact, "identical": identical, "bytes_written": bytes_written}

    tasks = [(f"threshold-p{p:g}", threshold(p)) for p in ((5.0,) if toy else (5.0, 6.0, 7.0))]
    for a in a_grid:
        tasks += [(f"compare-cut-d2-L12-a{a:g}", compare(cut, box2, a)),
                  (f"compare-star-d1-L20-a{a:g}", compare(star, box1, a))]
    tasks += [("star-probe-d1-R11", star_probe),
              ("verify-E-d1-L20", verify_e),
              ("cli-criterion10", cli_configs)]
    random.Random(seed).shuffle(tasks)
    # the largest graph of the sweep is the one the solve-sobolev config builds
    return Plan(tasks, lambda: (P.build_graph(P.sphere_deletion_spec(3, 2, 6), boundary="dirichlet"),
                                2.0, 4.0))


def _single_sobolev(P, L, p, q):
    graph = P.build_graph(P.GraphSpec(d=3, L=L), boundary="dirichlet")
    problem = P.ProblemSpec(kind="sobolev", a=1.0, p=p, q=q)

    def solve():
        P.minimize_sobolev(graph, problem, P.SolverConfig())
        return {}

    return Plan([("minimize_sobolev", solve)], lambda: (graph, p, 4.0), replay=(graph, problem))


def sobolev_d3_L20(P, size, seed, scratch):
    return _single_sobolev(P, 6 if size == "toy" else 20, 2.0, 6.0)


def sobolev_p15_d3_L5(P, size, seed, scratch):
    return _single_sobolev(P, 3 if size == "toy" else 5, 1.5, 3.0)


def perturbed_d3_L25(P, size, seed, scratch):
    L, radii, star_R = (8, (2, 3), 3) if size == "toy" else (25, (3, 6, 9), 6)
    specs = [(f"sphere-R{R}", R, P.sphere_deletion_spec(3, R, L)) for R in radii]
    specs += [(f"star-R{star_R}", star_R, P.star_addition_spec(3, star_R, L)),
              ("box", star_R, P.GraphSpec(d=3, L=L))]
    graphs = [(label, R, P.build_graph(spec, boundary="dirichlet")) for label, R, spec in specs]
    calc = P.calculus

    def identities(index, graph, R):
        def task():
            # flat-profile bound at the critical pair p=1.5, q=3 in d=3
            flat = calc.dirichlet_energy(graph, P.ball_indicator_field(graph, R, 3.0), 1.5)
            rng = np.random.default_rng([seed, index])
            fields = [rng.standard_normal(graph.n) for _ in range(8)]
            worst, bad = 0.0, 0
            for p in (1.5, 2.0, 3.0, 4.0):
                for u in fields:
                    energy = calc.dirichlet_energy(graph, u, p)
                    pairing = -float(np.dot(u, calc.p_laplacian(graph, u, p).values))
                    rel = abs(pairing - energy) / energy
                    worst = max(worst, rel)
                    bad += not rel <= SBP_TOL
            return {"exact": {"n": graph.n, "n_edges": graph.n_edges},
                    "floats": {"flat_bound_p1.5": flat},
                    "checks": 1 + 4 * len(fields), "checks_failed": bad, "worst_sbp_rel": worst}
        return task

    tasks = [(f"identities-{label}", identities(i, g, R)) for i, (label, R, g) in enumerate(graphs)]
    largest = max((g for _, _, g in graphs), key=lambda g: g.n_edges)
    return Plan(tasks, lambda: (largest, 1.5, 4.0))


WORKLOADS = {
    "sweep-nls-small": sweep_nls_small,
    "sobolev-d3-L20": sobolev_d3_L20,
    "perturbed-d3-L25": perturbed_d3_L25,
    "sobolev-p1.5-d3-L5": sobolev_p15_d3_L5,
}
