"""Run one workload in this fresh interpreter and print one JSON line.

    python3 perfbench/worker.py --workload NAME --size full|toy --seed N
                                --mode full|setup --passes K --trace 0|1 --t0 T

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` runs from interpreter start to the last graph built.
BLAS is pinned to one thread before numpy is first imported. varopt is
imported from `src/` of the checkout this file sits in, never from an
installed copy.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from hostspeed import Sampler  # noqa: E402
from tracing import ATTR, END, GC_N, GC_S, NAME, START, Tracer, nearest_ancestor, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROUTINES = ("estimate_threshold", "compare_energies", "star_nonattainment_probe",
            "verify_E_properties")
KERNELS = ("dirichlet_energy", "laplacian", "p_laplacian", "nls_energy", "nls_gradient")
PROBE_SECONDS = 0.25
PROBE_MIN_SAMPLES = 7


def load_program():
    if not (SRC / "varopt" / "__init__.py").is_file():
        sys.exit(f"worker: no varopt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import varopt
    from varopt import analysis, calculus, cli, lattice, solver
    if Path(varopt.__file__).resolve().parent != (SRC / "varopt").resolve():
        sys.exit(f"worker: imported varopt from {varopt.__file__}, not from {SRC}")
    return SimpleNamespace(analysis=analysis, calculus=calculus, cli=cli, lattice=lattice,
                           solver=solver)


class SolveLog:
    """Collects each solve's outputs into the list of the task running now:
    [energy, multiplier, converged, n_iters, restarts, restarts converged]."""

    def __init__(self):
        self.current = []

    def wrap(self, fn):
        def logged(*args, **kwargs):
            res = fn(*args, **kwargs)
            summary = res.restart_summary
            self.current.append([res.energy, res.multiplier, res.converged, res.n_iters,
                                 len(summary), sum(1 for r in summary if r[3])])
            return res
        return logged


class _TracedClass:
    """A class whose constructor call is traced; class attributes pass through."""

    def __init__(self, cls, call):
        self._cls, self._call = cls, call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._cls, name)


def instrument(m, log, tracer):
    """Wrap varopt's entry points where they are imported; return the namespace
    the workloads call. Solves are always logged; spans only under a tracer."""
    def span(name, fn, attr=None):
        return tracer.wrap(name, fn, attr) if tracer else fn

    def solve(fn):
        return span("solver.minimize", log.wrap(fn))

    def spec(fn):
        return span("lattice.spec", fn)

    def build(fn):
        return span("lattice.build_graph", fn, attr=lambda g: g.n)

    def spec_class(cls):
        return _TracedClass(cls, tracer.wrap("lattice.spec", cls)) if tracer else cls

    an, cli, lat = m.analysis, m.cli, m.lattice
    an.minimize = solve(an.minimize)
    an.minimize_sobolev = solve(an.minimize_sobolev)
    cli.minimize = solve(cli.minimize)
    for name in ROUTINES:
        setattr(an, name, span(f"analysis.{name}", getattr(an, name)))
    if tracer:
        m.solver.make_seed = span("solver.make_seed", m.solver.make_seed)
        # build_graph finds is_connected through the lattice module
        lat.is_connected = span("lattice.is_connected", lat.is_connected)
        for mod in (an, cli):
            mod.build_graph = build(mod.build_graph)
            mod.GraphSpec = spec_class(mod.GraphSpec)
            mod.sphere_deletion_spec = spec(mod.sphere_deletion_spec)
            mod.star_addition_spec = spec(mod.star_addition_spec)
    return SimpleNamespace(
        GraphSpec=spec_class(lat.GraphSpec),
        build_graph=build(lat.build_graph),
        sphere_deletion_spec=spec(lat.sphere_deletion_spec),
        star_addition_spec=spec(lat.star_addition_spec),
        minimize_sobolev=solve(m.solver.minimize_sobolev),
        cli_run=span("cli.run", cli.run),
        ProblemSpec=m.solver.ProblemSpec,
        SolverConfig=m.solver.SolverConfig,
        ExperimentConfig=cli.ExperimentConfig,
        ball_indicator_field=an.ball_indicator_field,
        calculus=m.calculus,
        **{name: getattr(an, name) for name in ROUTINES},
    )


def layer_metrics(spans, solves, bytes_written):
    """Per-layer metrics from the spans of set-up plus one traced pass."""
    own = self_times(spans)
    out = {}

    def total(name, values):
        return sum(v for s, v in zip(spans, values) if s[NAME] == name)

    durations = [s[END] - s[START] for s in spans]
    build_s = total("lattice.build_graph", own)
    built = sum(s[ATTR] for s in spans if s[NAME] == "lattice.build_graph")
    lattice_spans = [s for s in spans if s[NAME].startswith("lattice.")]
    out["lattice.spec_s"] = total("lattice.spec", own)
    out["lattice.build_s"] = build_s
    out["lattice.build_ns_per_vertex"] = build_s * 1e9 / built if built else 0.0
    out["lattice.connectivity_s"] = total("lattice.is_connected", durations)
    out["lattice.gc_s"] = sum(s[GC_S] for s in lattice_spans)
    out["lattice.gc_collections"] = sum(s[GC_N] for s in lattice_spans)
    out["solver.solve_s"] = total("solver.minimize", own)
    out["solver.seed_s"] = total("solver.make_seed", durations)
    out["solver.solves"] = sum(1 for s in spans if s[NAME] == "solver.minimize")
    out["solver.restarts_converged_frac"] = (
        sum(s[5] for s in solves) / sum(s[4] for s in solves) if solves else 0.0)
    out["solver.winner_unconverged"] = sum(1 for s in solves if not s[2])
    for name in ROUTINES:
        out[f"analysis.{name}.self_s"] = total(f"analysis.{name}", own)
        out[f"analysis.{name}.solves"] = sum(
            1 for i, s in enumerate(spans) if s[NAME] == "solver.minimize"
            and nearest_ancestor(spans, i, "analysis.") == f"analysis.{name}")
    out["cli.run.self_s"] = total("cli.run", own)
    out["cli.bytes_written"] = bytes_written
    return out


def kernel_probe(m, graph, p_dirichlet, p_nls, seed):
    """Median time of one call of each public kernel, after a warm-up."""
    import numpy as np

    u = np.random.default_rng([seed, 1]).standard_normal(graph.n)
    calc = m.calculus
    calls = {
        "dirichlet_energy": (lambda: calc.dirichlet_energy(graph, u, p_dirichlet), False),
        "laplacian": (lambda: calc.laplacian(graph, u), True),
        "p_laplacian": (lambda: calc.p_laplacian(graph, u, p_dirichlet), True),
        "nls_energy": (lambda: calc.nls_energy(graph, u, p_nls), False),
        "nls_gradient": (lambda: calc.nls_gradient(graph, u, p_nls), True),
    }
    # computed traffic: the edge list, the field, the phantom counts in
    # dirichlet mode and a vector result; temporaries and cache misses excluded
    operands = graph.edges.nbytes + u.nbytes
    if graph.boundary == "dirichlet":
        operands += graph.phantom.nbytes
    out = {"n": graph.n, "n_edges": graph.n_edges, "p_dirichlet": p_dirichlet, "p_nls": p_nls,
           "field_bytes": u.nbytes}
    for name, (call, vector) in calls.items():
        for _ in range(3):
            call()
        samples = []
        stop = time.perf_counter() + PROBE_SECONDS
        while len(samples) < PROBE_MIN_SAMPLES or time.perf_counter() < stop:
            t = time.perf_counter()
            call()
            samples.append(time.perf_counter() - t)
        out[name] = {"ns_per_edge": statistics.median(samples) * 1e9 / graph.n_edges,
                     "samples": len(samples),
                     "bytes_per_edge": (operands + (u.nbytes if vector else 0)) / graph.n_edges}
    return out


def replay_restarts(m, graph, problem):
    """Solve each seed of the default plan alone: per-restart iteration counts."""
    out = []
    for label in m.solver.default_seed_plan(m.solver.SolverConfig().restarts):
        res = m.solver.minimize_sobolev(graph, problem, m.solver.SolverConfig(seeds=[label]))
        out.append({"seed": label, "n_iters": res.n_iters, "energy": res.energy,
                    "converged": res.converged})
    return out


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup"), default="full")
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    m = load_program()
    from workloads import WORKLOADS

    log = SolveLog()
    tracer = Tracer() if args.trace else None
    P = instrument(m, log, tracer)
    scratch = ROOT / ".perfbench_out" / f"worker-{os.getpid()}"
    result = {}
    try:
        with tracer or contextlib.nullcontext():
            plan = WORKLOADS[args.workload](P, args.size, args.seed, str(scratch))
            result["setup_s"] = time.monotonic() - args.t0
            passes = [] if args.mode == "setup" else range(args.passes)
            # untraced passes sample the host's speed; traced spans stay clean
            sampler = Sampler() if passes and not tracer else None
            result["passes"], windows = [], []
            with sampler or contextlib.nullcontext():
                for _ in passes:
                    times, outputs, window = {}, {}, {}
                    for name, task in plan.tasks:
                        log.current = []
                        busy = sampler.busy_s if sampler else 0.0
                        t = time.perf_counter()
                        try:
                            out = task()
                        except Exception as exc:  # reported per task and counted as failed
                            traceback.print_exc()
                            out = {"error": f"{type(exc).__name__}: {exc}"}
                        end = time.perf_counter()
                        # time spent in host-speed slices is not the task's
                        times[name] = end - t - ((sampler.busy_s - busy) if sampler else 0.0)
                        window[name] = (t, end)
                        out["solves"] = log.current
                        outputs[name] = out
                    result["passes"].append({"times": times, "outputs": outputs})
                    windows.append(window)
            if sampler:
                for p, window in zip(result["passes"], windows):
                    p["norm_times"] = {name: sampler.normalized(p["times"][name], *window[name])
                                       for name in p["times"]}
                result["host_slices_ms"] = [round(d * 1e3, 4) for _, d in sampler.slices]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer and result["passes"]:
            outputs = result["passes"][0]["outputs"].values()
            solves = [s for out in outputs for s in out["solves"]]
            layers = layer_metrics(list(tracer.spans), solves,
                                   sum(out.get("bytes_written", 0) for out in outputs))
            if plan.replay:
                replay = replay_restarts(m, *plan.replay)
                result["replay"] = replay
                layers["solver.iters"] = sum(r["n_iters"] for r in replay)
            else:
                layers["solver.iters"] = sum(s[3] for s in solves)
            layers["solver.iter_ms"] = (layers["solver.solve_s"] * 1e3 / layers["solver.iters"]
                                        if layers["solver.iters"] else 0.0)
            probe = kernel_probe(m, *plan.probe(), args.seed)
            result["probe"] = probe
            for name in KERNELS:
                layers[f"calculus.{name}.ns_per_edge"] = probe[name]["ns_per_edge"]
                layers[f"calculus.{name}.bytes_per_edge"] = probe[name]["bytes_per_edge"]
            layers["calculus.probe_samples"] = min(probe[name]["samples"] for name in KERNELS)
            result["layers"] = layers
        result["env"] = environment()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
