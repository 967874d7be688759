"""Command-line front end: JSON experiment configs in, JSON + CSV results out.

Usage:
    varopt <experiment> --config <file.json> [--out <dir>] [--seed <int>] [--emit-field]
    varopt plot-data --results <results.csv> --kind <kind> [--out <file.csv>]

Experiments are the choices of <experiment> in the usage line. Every run
writes results.json (summary) and results.csv (one row per probe / grid
point) into the output directory; identical (config, seed) pairs produce
bit-identical CSV files. Config sections go by name to the library calls
that own them, which hold every default and check. Exit codes: 0 success,
2 config or validation error or a file that cannot be read or written,
3 a required probe failed to converge.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, astuple, dataclass, field, fields

from . import analysis
from .errors import InconclusiveProbe, InvalidSpec, MissingColumns, NotConverged, VaroptError
from .lattice import (Graph, GraphSpec, _is_int, build_graph, path_graph, sphere_deletion_spec,
                      star_addition_spec)
from .solver import DEFAULT_BOUNDARY, NLS, SOBOLEV, ProblemSpec, SolverConfig, minimize

_SOLVER_KEYS = {f.name for f in fields(SolverConfig)} - {"rng_seed"}


def _fmt(x) -> str:
    """CSV cell formatting: floats at 17 significant digits, bools lowercase."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _render_csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return out.getvalue()


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    graph: dict = field(default_factory=dict)
    problem: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    output_dir: str = "."
    seed: int = 0
    emit_field: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidSpec(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        sections = {name: getattr(self, name) for name in ("graph", "problem", "solver", "params")}
        for name, section in sections.items():
            if not isinstance(section, dict):
                raise InvalidSpec(f"{name} must be a JSON object, got {section!r}")
        if not isinstance(self.emit_field, bool):
            raise InvalidSpec(f"emit_field must be true or false, got {self.emit_field!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise InvalidSpec(f"seed must be a whole number >= 0, not a boolean, got {self.seed!r}")
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise InvalidSpec(f"output_dir must be a nonempty string, got {self.output_dir!r}")
        for name, section in sections.items():
            if section and name not in _HANDLERS[self.experiment][1]:
                raise InvalidSpec(f"{self.experiment} does not read a {name} section, got {sorted(section)}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidSpec("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidSpec(f"unknown config keys: {sorted(unknown)}")
        return cls(**{"experiment": None, **data})  # a missing experiment is an unknown one


def build_graph_from_config(gcfg: dict, default_boundary: str = "drop") -> Graph:
    """The graph of a graph section: ``construction`` (default "lattice")
    picks the builder and ``boundary`` the boundary mode of a box (a path
    has none); every other key goes to the builder by name, so a missing or
    unknown key is an error naming it. A lattice takes the ``GraphSpec`` fields."""
    rest = dict(gcfg)
    construction = rest.pop("construction", "lattice")
    if construction == "path":
        return path_graph(**rest)
    boundary = rest.pop("boundary", default_boundary)
    # looked up per call, so that a wrapper set on this module's names is the one called
    specs = {"lattice": GraphSpec, "sphere_deletion": sphere_deletion_spec, "star_addition": star_addition_spec}
    if construction not in specs:
        raise InvalidSpec(f"unknown construction {construction!r}")
    return build_graph(specs[construction](**rest), boundary=boundary)


def _solver_config(cfg: ExperimentConfig) -> SolverConfig:
    unknown = set(cfg.solver) - _SOLVER_KEYS
    if unknown:
        raise InvalidSpec(f"unknown solver keys: {sorted(unknown)}")
    return SolverConfig(rng_seed=cfg.seed, **cfg.solver)


def _problem(cfg: ExperimentConfig, kind: str) -> ProblemSpec:
    if cfg.problem.get("kind", kind) != kind:
        raise InvalidSpec(f"{cfg.experiment} solves problem kind {kind!r}, not {cfg.problem['kind']!r}")
    return ProblemSpec(**{"kind": kind, "a": 1.0, **cfg.problem})


def _graph_summary(graph: Graph) -> dict:
    return {
        "spec": graph.spec.to_json_dict() if graph.spec is not None else {"path_n": graph.n},
        "boundary": graph.boundary,
        "n_vertices": graph.n,
        "n_edges": graph.n_edges,
    }


def _summary(cfg: ExperimentConfig, report, drop=(), **extra) -> dict:
    """The results.json of a run: the report's fields but those in drop, the
    experiment's name, and extra, which may override a field."""
    summary = {k: v for k, v in vars(report).items() if k not in drop}
    return dict(summary, experiment=cfg.experiment, **extra)


# ---------------------------------------------------------------------------
# experiment handlers: each returns (summary, header, rows, converged_ok, extras)

def _run_solve(cfg: ExperimentConfig, kind: str):
    problem, solver_cfg = _problem(cfg, kind), _solver_config(cfg)
    graph = build_graph_from_config(cfg.graph, DEFAULT_BOUNDARY[kind])
    result = minimize(graph, problem, solver_cfg)
    loc = result.localization
    com_inf = max(abs(c) for c in loc.center_of_mass)
    header = ["kind", "d", "L", "boundary", "a", "p", "q", "energy", "multiplier",
              "el_residual", "converged", "n_iters", "com_inf",
              "mass_in_ball", "probe_radius", "boundary_mass_fraction"]
    row = [kind, graph.d, graph.L, graph.boundary, problem.a, problem.p,
           "" if problem.q is None else problem.q, result.energy, result.multiplier,
           result.el_residual, result.converged, result.n_iters, com_inf,
           loc.mass_in_ball, loc.probe_radius, loc.boundary_mass_fraction]
    summary = _summary(
        cfg, result, ("minimizer", "restart_summary", "trace"), graph=_graph_summary(graph),
        problem={"kind": kind, "a": problem.a, "p": problem.p, "q": problem.q},
        restarts=[{"seed": lab, "energy": e, "el_residual": r, "converged": c}
                  for lab, e, r, c in result.restart_summary],
        localization=asdict(loc))
    extras = {}
    if cfg.emit_field:
        extras["minimizer.json"] = json.dumps(list(result.minimizer.values)) + "\n"
    if result.trace is not None:
        extras["trace.csv"] = _render_csv(
            ["iter", "energy", "residual", "step"],
            [[int(r[0]), float(r[1]), float(r[2]), float(r[3])] for r in result.trace])
    return summary, header, [row], result.converged, extras


def _run_threshold(cfg: ExperimentConfig):
    if "L" in cfg.graph and cfg.params.get("levels", [cfg.graph["L"]]) != [cfg.graph["L"]]:
        raise InvalidSpec(f"params.levels {cfg.params['levels']!r} is not [L] of the graph, L={cfg.graph['L']!r}")
    result = analysis.estimate_threshold(
        lambda L: build_graph_from_config(dict(cfg.graph, L=L), DEFAULT_BOUNDARY[NLS]),
        solver_cfg=_solver_config(cfg), **{"levels": [cfg.graph.get("L", 12)], **cfg.params})
    header = ["probe", "a", "energy", "converged", "negative"]
    rows = [[i, *astuple(pr)] for i, pr in enumerate(result.probes)]
    summary = _summary(cfg, result, ("probes",), n_probes=len(result.probes))
    return summary, header, rows, result.status != "inconclusive", {}


def _run_compare(cfg: ExperimentConfig):
    params = dict(cfg.params)
    kind = cfg.problem.get("kind", NLS)
    if kind not in DEFAULT_BOUNDARY:
        raise InvalidSpec(f"unknown problem kind {kind!r}")
    problem, solver_cfg = _problem(cfg, kind), _solver_config(cfg)
    perturbed = build_graph_from_config(cfg.graph, DEFAULT_BOUNDARY[kind])
    # the base is the plain box of the perturbed graph, in its boundary mode, unless set
    base = build_graph_from_config(params.pop("base_graph", {"d": perturbed.d, "L": perturbed.L}),
                                   perturbed.boundary)
    report = analysis.compare_energies(perturbed, base, problem, solver_cfg=solver_cfg,
                                       raise_on_nonconverged=False, **params)
    header = ["a", "E_perturbed", "E_base", "margin", "verdict", "converged"]
    rows = [[a, ep, eb, m, vd, cv] for a, ep, eb, m, vd, cv in
            zip(report.a_grid, report.perturbed, report.base, report.margins,
                report.verdicts, report.converged)]
    summary = _summary(cfg, report, ("a_grid", "perturbed", "base", "margins", "converged"),
                       all_hold=all(v != "violated" for v in report.verdicts))
    return summary, header, rows, all(report.converged), {}


def _run_sobolev_gap(cfg: ExperimentConfig):
    report = analysis.sobolev_critical_gap(solver_cfg=_solver_config(cfg), **cfg.params)
    header = ["R", "bound_formula", "bound_evaluated", "j_unperturbed", "witness"]
    rows = [[r.R, r.bound_formula, r.bound_evaluated, report.j_unperturbed, r.witness]
            for r in report.records]
    return _summary(cfg, report, ("records",)), header, rows, True, {}


def _run_star_probe(cfg: ExperimentConfig):
    # an omitted q means the Schrodinger problem
    report = analysis.star_nonattainment_probe(
        solver_cfg=_solver_config(cfg), raise_on_nonconverged=False, **{"q": None, **cfg.params})
    header = ["L", "E_perturbed", "E_base", "energy_gap", "center_of_mass_norm",
              "median_radius", "multiplier", "origin_power", "multiplier_gap", "converged"]
    rows = [astuple(r) for r in report.records]
    summary = _summary(cfg, report, ("records",), equality_ok=report.equality_ok,
                       escape_trend_ok=report.escape_trend_ok, multiplier_ok=report.multiplier_ok)
    return summary, header, rows, all(r.converged for r in report.records), {}


def _run_verify_lemmas(cfg: ExperimentConfig):
    graph = build_graph_from_config(cfg.graph or {"d": 1, "L": 16})
    report = analysis.verify_lemma_suite(graph, rng_seed=cfg.seed, **cfg.params)
    header = ["check", "lhs", "rhs", "margin", "passed"]
    rows = [astuple(c) for c in report.checks]
    summary = _summary(cfg, report, ("checks", "values"), graph=_graph_summary(graph),
                       all_passed=report.all_passed)
    return summary, header, rows, True, {}


# each handler and the config sections it reads; ExperimentConfig refuses any other nonempty section
_HANDLERS = {
    "solve-nls": (lambda cfg: _run_solve(cfg, NLS), ("graph", "problem", "solver")),
    "solve-sobolev": (lambda cfg: _run_solve(cfg, SOBOLEV), ("graph", "problem", "solver")),
    "threshold": (_run_threshold, ("graph", "solver", "params")),
    "compare": (_run_compare, ("graph", "problem", "solver", "params")),
    "sobolev-gap": (_run_sobolev_gap, ("solver", "params")),
    "star-probe": (_run_star_probe, ("solver", "params")),
    "verify-lemmas": (_run_verify_lemmas, ("graph", "params")),
}
EXPERIMENTS = tuple(_HANDLERS)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment and persist results.json / results.csv."""
    summary, header, rows, converged, extras = _HANDLERS[config.experiment][0](config)

    os.makedirs(config.output_dir, exist_ok=True)
    summary["seed"] = config.seed
    summary["thread_env"] = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    with open(os.path.join(config.output_dir, "results.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(config.output_dir, "results.csv"), "w", newline="") as fh:
        fh.write(_render_csv(header, rows))
    for name, text in (extras or {}).items():
        with open(os.path.join(config.output_dir, name), "w", newline="") as fh:
            fh.write(text)
    return 0 if converged else 3


# ---------------------------------------------------------------------------
# plot-data extraction

_PLOT_KINDS = {
    "energy-vs-a": (["a"], [["E_perturbed", "E_base"], ["energy"]]),
    "energy-vs-L": (["L"], [["E_perturbed", "E_base"], ["energy"]]),
    "escape-vs-L": (["L"], [["center_of_mass_norm"]]),
}


def emit_plot_data(results_path: str, kind: str, out_path: str | None = None) -> str:
    """Select plot-ready columns from a results.csv; returns the CSV text."""
    if kind not in _PLOT_KINDS:
        raise InvalidSpec(f"unknown plot kind {kind!r}; expected one of {sorted(_PLOT_KINDS)}")
    x_cols, y_options = _PLOT_KINDS[kind]
    with open(results_path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        rows = list(reader)
        fieldnames = reader.fieldnames or []
    missing_x = [c for c in x_cols if c not in fieldnames]
    y_cols = next((opt for opt in y_options if all(c in fieldnames for c in opt)), None)
    if missing_x or y_cols is None:
        raise MissingColumns(
            f"results file {results_path} lacks columns for {kind}: "
            f"need {x_cols} plus one of {y_options}, have {fieldnames}")
    cols = x_cols + y_cols
    text = _render_csv(cols, ([row[c] for c in cols] for row in rows))
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="varopt", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=list(EXPERIMENTS) + ["plot-data"])
    parser.add_argument("--config", help="experiment config JSON file")
    parser.add_argument("--out", help="output directory (overrides config output_dir)")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    parser.add_argument("--emit-field", action="store_true",
                        help="also write the minimizer field as minimizer.json")
    parser.add_argument("--results", help="plot-data: path to a results.csv")
    parser.add_argument("--kind", help="plot-data: one of " + ", ".join(sorted(_PLOT_KINDS)))
    args = parser.parse_args(argv)

    try:
        if args.experiment == "plot-data":
            if not args.results or not args.kind:
                raise InvalidSpec("plot-data needs --results and --kind")
            text = emit_plot_data(args.results, args.kind, args.out)
            if not args.out:
                sys.stdout.write(text)
            return 0
        if not args.config:
            raise InvalidSpec("missing --config")
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidSpec(f"cannot read config {args.config}: {exc}") from exc
        if isinstance(data, dict):  # from_dict names anything else, and checks the flags with the file
            data["experiment"] = args.experiment
            if args.out:
                data["output_dir"] = args.out
            if args.seed is not None:
                data["seed"] = args.seed
            if args.emit_field:
                data["emit_field"] = True
        return run(ExperimentConfig.from_dict(data))
    except (VaroptError, KeyError, TypeError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3 if isinstance(exc, (NotConverged, InconclusiveProbe)) else 2


if __name__ == "__main__":
    sys.exit(main())
