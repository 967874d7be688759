"""Command-line front end: JSON experiment configs in, JSON + CSV results out.

Usage:
    varopt <experiment> --config <file.json> [--out <dir>] [--seed <int>] [--emit-field]
    varopt plot-data --results <results.csv> --kind <kind> [--out <file.csv>]

Experiments: solve-nls, solve-sobolev, threshold, compare, sobolev-gap,
star-probe, verify-lemmas. Every run writes results.json (summary) and
results.csv (one row per probe / grid point) into the output directory;
identical (config, seed) pairs produce bit-identical CSV files. Exit codes:
0 success, 2 config or validation error, 3 a required probe failed to
converge.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

from . import analysis
from .errors import InconclusiveProbe, InvalidSpec, MissingColumns, NotConverged, VaroptError
from .lattice import Graph, GraphSpec, build_graph, path_graph, sphere_deletion_spec, star_addition_spec
from .solver import NLS, SOBOLEV, ProblemSpec, SolverConfig, minimize

EXPERIMENTS = ("solve-nls", "solve-sobolev", "threshold", "compare",
               "sobolev-gap", "star-probe", "verify-lemmas")

_SOLVER_KEYS = {"max_iters", "step", "tol_grad", "restarts", "seeds", "step_rule",
                "smoothing_eps", "record_trace"}


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


@dataclass
class ExperimentConfig:
    experiment: str
    graph: dict = field(default_factory=dict)
    problem: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    output_dir: str = "."
    seed: int = 0
    emit_field: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidSpec("config must be a JSON object")
        experiment = data.get("experiment")
        if experiment not in EXPERIMENTS:
            raise InvalidSpec(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
        known = {"experiment", "graph", "problem", "solver", "params", "output_dir",
                 "seed", "emit_field"}
        unknown = set(data) - known
        if unknown:
            raise InvalidSpec(f"unknown config keys: {sorted(unknown)}")
        return cls(
            experiment=experiment,
            graph=data.get("graph", {}),
            problem=data.get("problem", {}),
            solver=data.get("solver", {}),
            params=data.get("params", {}),
            output_dir=data.get("output_dir", "."),
            seed=int(data.get("seed", 0)),
            emit_field=bool(data.get("emit_field", False)),
        )


def _graph_spec_from_config(gcfg: dict) -> GraphSpec:
    construction = gcfg.get("construction", "lattice" if "deletions" not in gcfg
                            and "additions" not in gcfg and "d" in gcfg else None)
    if construction is None:
        return GraphSpec.from_json_dict(gcfg)
    d = int(gcfg["d"])
    L = int(gcfg["L"])
    if construction == "lattice":
        return GraphSpec(d=d, L=L, R=gcfg.get("R"))
    if construction == "sphere_deletion":
        return sphere_deletion_spec(d, int(gcfg["R"]), L)
    if construction == "star_addition":
        return star_addition_spec(d, int(gcfg["R"]), L)
    raise InvalidSpec(f"unknown construction {construction!r}")


def build_graph_from_config(gcfg: dict, default_boundary: str = "drop") -> Graph:
    boundary = gcfg.get("boundary", default_boundary)
    if gcfg.get("construction") == "path":
        return path_graph(int(gcfg["n"]), boundary=boundary)
    return build_graph(_graph_spec_from_config(gcfg), boundary=boundary)


def _solver_config(cfg: ExperimentConfig) -> SolverConfig:
    unknown = set(cfg.solver) - _SOLVER_KEYS
    if unknown:
        raise InvalidSpec(f"unknown solver keys: {sorted(unknown)}")
    return SolverConfig(rng_seed=cfg.seed, **cfg.solver)


def _problem(cfg: ExperimentConfig, kind: str) -> ProblemSpec:
    p = cfg.problem
    return ProblemSpec(kind=kind, a=float(p.get("a", 1.0)), p=float(p["p"]),
                       q=None if p.get("q") is None else float(p["q"]),
                       allow_subcritical=bool(p.get("allow_subcritical", False)))


def _graph_summary(graph: Graph) -> dict:
    return {
        "spec": graph.spec.to_json_dict() if graph.spec is not None else {"path_n": graph.n},
        "boundary": graph.boundary,
        "n_vertices": graph.n,
        "n_edges": graph.n_edges,
    }


# ---------------------------------------------------------------------------
# experiment handlers: each returns (summary, header, rows, converged_ok)

def _run_solve(cfg: ExperimentConfig, kind: str):
    default_boundary = "drop" if kind == NLS else "dirichlet"
    graph = build_graph_from_config(cfg.graph, default_boundary)
    problem = _problem(cfg, kind)
    result = minimize(graph, problem, _solver_config(cfg))
    loc = result.localization
    com_inf = max(abs(c) for c in loc.center_of_mass)
    header = ["kind", "d", "L", "boundary", "a", "p", "q", "energy", "multiplier",
              "el_residual", "converged", "n_iters", "com_inf",
              "mass_in_ball", "probe_radius", "boundary_mass_fraction"]
    row = [kind, graph.d, graph.L, graph.boundary, problem.a, problem.p,
           "" if problem.q is None else problem.q, result.energy, result.multiplier,
           result.el_residual, result.converged, result.n_iters, com_inf,
           loc.mass_in_ball, loc.probe_radius, loc.boundary_mass_fraction]
    summary = {
        "experiment": cfg.experiment,
        "graph": _graph_summary(graph),
        "problem": {"kind": kind, "a": problem.a, "p": problem.p, "q": problem.q},
        "energy": result.energy,
        "multiplier": result.multiplier,
        "el_residual": result.el_residual,
        "converged": result.converged,
        "n_iters": result.n_iters,
        "seed_label": result.seed_label,
        "localization": loc.to_json_dict(),
        "restarts": [
            {"seed": lab, "energy": e, "el_residual": r, "converged": c}
            for lab, e, r, c in result.restart_summary],
    }
    extras = {}
    if cfg.emit_field:
        extras["minimizer.json"] = json.dumps(list(result.minimizer.values)) + "\n"
    if result.trace is not None:
        extras["trace.csv"] = _render_csv(
            ["iter", "energy", "residual", "step"],
            [[int(r[0]), float(r[1]), float(r[2]), float(r[3])] for r in result.trace])
    return summary, header, [row], result.converged, extras


def _run_threshold(cfg: ExperimentConfig):
    params = cfg.params
    p = float(params["p"])
    a_range = tuple(float(x) for x in params["a_range"])
    levels = [int(x) for x in params.get("levels", [cfg.graph.get("L", 12)])]
    gcfg = dict(cfg.graph)

    def family(L):
        local = dict(gcfg)
        local["L"] = L
        return build_graph_from_config(local, "drop")

    result = analysis.estimate_threshold(
        family, p, a_range, levels=levels,
        bracket_tol=float(params.get("bracket_tol", 0.25)),
        tol_neg=float(params.get("tol_neg", 1e-6)),
        solver_cfg=_solver_config(cfg),
        max_probes=int(params.get("max_probes", 60)))
    header = ["probe", "a", "energy", "converged", "negative"]
    rows = [[i, pr.a, pr.energy, pr.converged, pr.negative]
            for i, pr in enumerate(result.probes)]
    summary = {
        "experiment": "threshold",
        "graph_id": result.graph_id,
        "p": result.p,
        "status": result.status,
        "alpha_lo": result.alpha_lo,
        "alpha_hi": result.alpha_hi,
        "tol_neg": result.tol_neg,
        "bracket_tol": result.bracket_tol,
        "n_probes": len(result.probes),
    }
    return summary, header, rows, result.status != "inconclusive", {}


def _run_compare(cfg: ExperimentConfig):
    params = cfg.params
    kind = cfg.problem.get("kind", NLS)
    default_boundary = "drop" if kind == NLS else "dirichlet"
    perturbed = build_graph_from_config(cfg.graph, default_boundary)
    base_cfg = params.get("base_graph")
    if base_cfg is None:
        base_cfg = {"construction": "lattice", "d": perturbed.d, "L": perturbed.L,
                    "boundary": perturbed.boundary}
    base = build_graph_from_config(base_cfg, default_boundary)
    template = _problem(cfg, kind)
    report = analysis.compare_energies(
        perturbed, base, template, [float(a) for a in params["a_grid"]],
        solver_cfg=_solver_config(cfg),
        tol=float(params.get("tol", 1e-8)),
        strict_margin=params.get("strict_margin"),
        raise_on_nonconverged=False)
    header = ["a", "E_perturbed", "E_base", "margin", "verdict", "converged"]
    rows = [[a, ep, eb, m, vd, cv] for a, ep, eb, m, vd, cv in
            zip(report.a_grid, report.perturbed, report.base, report.margins,
                report.verdicts, report.converged)]
    summary = {
        "experiment": "compare",
        "kind": report.kind,
        "p": report.p,
        "q": report.q,
        "tol": report.tol,
        "strict_margin": report.strict_margin,
        "verdicts": report.verdicts,
        "all_hold": all(v != "violated" for v in report.verdicts),
    }
    return summary, header, rows, all(report.converged), {}


def _run_sobolev_gap(cfg: ExperimentConfig):
    params = cfg.params
    report = analysis.sobolev_critical_gap(
        int(params["d"]), float(params["p"]),
        [int(R) for R in params["R_list"]], int(params["L"]),
        solver_cfg=_solver_config(cfg),
        boundary=params.get("boundary", "dirichlet"))
    header = ["R", "bound_formula", "bound_evaluated", "j_unperturbed", "witness"]
    rows = [[r.R, r.bound_formula, r.bound_evaluated, report.j_unperturbed, r.witness]
            for r in report.records]
    summary = {
        "experiment": "sobolev-gap",
        "d": report.d, "p": report.p, "q": report.q, "L": report.L,
        "j_unperturbed": report.j_unperturbed,
        "witness_R": report.witness_R,
        "margin": report.margin,
    }
    return summary, header, rows, True, {}


def _run_star_probe(cfg: ExperimentConfig):
    params = cfg.params
    q = params.get("q")
    report = analysis.star_nonattainment_probe(
        int(params["d"]), int(params["R"]), float(params["p"]),
        None if q is None else float(q),
        [int(L) for L in params["L_list"]], float(params["a"]),
        solver_cfg=_solver_config(cfg),
        equality_tol=float(params.get("equality_tol", 2e-6)),
        boundary=params.get("boundary"),
        raise_on_nonconverged=False)
    header = ["L", "E_perturbed", "E_base", "energy_gap", "center_of_mass_norm",
              "median_radius", "multiplier", "origin_power", "multiplier_gap", "converged"]
    rows = [[r.L, r.energy_perturbed, r.energy_base, r.energy_gap, r.com_inf,
             r.median_radius, r.multiplier, r.origin_power, r.multiplier_gap, r.converged]
            for r in report.records]
    summary = {
        "experiment": "star-probe",
        "d": report.d, "R": report.R, "p": report.p, "q": report.q, "a": report.a,
        "equality_tol": report.equality_tol,
        "multiplier_floor": report.multiplier_floor,
        "equality_ok": report.equality_ok,
        "escape_trend_ok": report.escape_trend_ok,
        "multiplier_ok": report.multiplier_ok,
    }
    return summary, header, rows, all(r.converged for r in report.records), {}


def _run_verify_lemmas(cfg: ExperimentConfig):
    params = cfg.params
    graph = build_graph_from_config(cfg.graph or {"construction": "lattice", "d": 1, "L": 16},
                                    "drop")
    report = analysis.verify_lemma_suite(
        graph,
        p=float(params.get("p", 4.0)),
        q=float(params.get("q", 6.0)),
        n_fields=int(params.get("n_fields", 100)),
        rng_seed=cfg.seed)
    header = ["check", "lhs", "rhs", "margin", "passed"]
    rows = [[c.name, c.lhs, c.rhs, c.margin, c.passed] for c in report.checks]
    summary = {
        "experiment": "verify-lemmas",
        "graph": _graph_summary(graph),
        "n_fields": int(params.get("n_fields", 100)),
        "all_passed": report.all_passed,
    }
    return summary, header, rows, True, {}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment and persist results.json / results.csv."""
    if config.experiment in ("solve-nls", "solve-sobolev"):
        kind = NLS if config.experiment == "solve-nls" else SOBOLEV
        summary, header, rows, converged, extras = _run_solve(config, kind)
    elif config.experiment == "threshold":
        summary, header, rows, converged, extras = _run_threshold(config)
    elif config.experiment == "compare":
        summary, header, rows, converged, extras = _run_compare(config)
    elif config.experiment == "sobolev-gap":
        summary, header, rows, converged, extras = _run_sobolev_gap(config)
    elif config.experiment == "star-probe":
        summary, header, rows, converged, extras = _run_star_probe(config)
    elif config.experiment == "verify-lemmas":
        summary, header, rows, converged, extras = _run_verify_lemmas(config)
    else:
        raise InvalidSpec(f"unknown experiment {config.experiment!r}")

    os.makedirs(config.output_dir, exist_ok=True)
    summary["seed"] = config.seed
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
        reader = csv.DictReader(fh)
        rows = list(reader)
        fieldnames = reader.fieldnames or []
    missing_x = [c for c in x_cols if c not in fieldnames]
    y_cols = next((opt for opt in y_options if all(c in fieldnames for c in opt)), None)
    if missing_x or y_cols is None:
        raise MissingColumns(
            f"results file {results_path} lacks columns for {kind}: "
            f"need {x_cols} plus one of {y_options}, have {fieldnames}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    cols = x_cols + y_cols
    writer.writerow(cols)
    for row in rows:
        writer.writerow([row[c] for c in cols])
    text = out.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# entry point

def _error_json(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


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
        data["experiment"] = args.experiment
        config = ExperimentConfig.from_dict(data)
        if args.out:
            config.output_dir = args.out
        if args.seed is not None:
            config.seed = args.seed
        if args.emit_field:
            config.emit_field = True
        return run(config)
    except (NotConverged, InconclusiveProbe) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 3
    except (VaroptError, KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
