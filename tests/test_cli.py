"""CLI front end: config parsing, artifacts, exit codes, determinism."""

import hashlib
import inspect
import json
import os
import re
from pathlib import Path

import pytest

from varopt import GraphSpec, InvalidSpec, MissingColumns, analysis
from varopt.cli import ExperimentConfig, _solver_config, build_graph_from_config, emit_plot_data, main, run

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SOLVER = {"restarts": 5, "tol_grad": 1e-8, "max_iters": 20000}


def test_threshold_experiment_artifacts(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "threshold",
        "graph": {"construction": "lattice", "d": 1, "L": 10},
        "params": {"p": 4.0, "a_range": [0.5, 6.0], "levels": [10]},
        "solver": SOLVER,
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
    })
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "out" / "results.json").read_text())
    assert summary["status"] in ("bracketed", "all_negative", "all_nonnegative")
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == "probe,a,energy,converged,negative"
    assert len(lines) >= 3


def test_solve_experiment_with_field_dump(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "solve-nls",
        "graph": {"construction": "lattice", "d": 1, "L": 6},
        "problem": {"a": 2.0, "p": 4.0},
        "solver": dict(SOLVER, record_trace=True),
        "output_dir": str(tmp_path),
        "emit_field": True,
    })
    assert run(cfg) == 0
    values = json.loads((tmp_path / "minimizer.json").read_text())
    assert isinstance(values, list) and len(values) == 11
    summary = json.loads((tmp_path / "results.json").read_text())
    spec = GraphSpec.from_json_dict(summary["graph"]["spec"])
    assert spec == GraphSpec(d=1, L=6)
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,energy,residual,step"
    assert len(trace) >= 3
    energies = [float(line.split(",")[1]) for line in trace[1:]]
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_exit_code_3_when_not_converged(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "solve-nls",
        "graph": {"construction": "lattice", "d": 1, "L": 6},
        "problem": {"a": 2.0, "p": 4.0},
        "solver": {"restarts": 1, "seeds": ["random"], "tol_grad": 1e-14, "max_iters": 2},
        "output_dir": str(tmp_path),
    })
    assert run(cfg) == 3
    # results.json says which exit the winning descent took; results.csv has no column for it
    assert json.loads((tmp_path / "results.json").read_text())["stop_reason"] == "capped"


def test_required_convergence_raises_not_converged(tmp_path, capsys):
    # one iteration to a residual of 1e-18 cannot converge; each routine that
    # requires convergence raises NotConverged carrying the failed solve
    from varopt import NotConverged, ProblemSpec, SolverConfig, SolveResult, build_graph, star_addition_spec
    settings = {"restarts": 1, "seeds": ["delta"], "max_iters": 1, "tol_grad": 1e-18}
    cfg = SolverConfig(**settings)
    dirichlet = build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")
    star, line = build_graph(star_addition_spec(1, 2, 6)), build_graph(GraphSpec(d=1, L=6))
    calls = [
        lambda: analysis.compare_energies(star, line, ProblemSpec(kind="nls", a=1.0, p=4.0), [1.0], solver_cfg=cfg),
        lambda: analysis.star_nonattainment_probe(1, 2, 4.0, None, [6], 1.0, solver_cfg=cfg,
                                                  raise_on_nonconverged=True),
        lambda: analysis.estimate_sobolev_constant(dirichlet, 2.0, 6.0, solver_cfg=cfg),
        lambda: analysis.sobolev_critical_gap(3, 2.0, [2], 6, solver_cfg=cfg),
    ]
    for call in calls:
        with pytest.raises(NotConverged) as info:
            call()
        assert isinstance(info.value.result, SolveResult) and info.value.result.converged is False
    path = write_config(tmp_path, "gap.json", {"params": GAP, "solver": settings})
    assert main(["sobolev-gap", "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotConverged", err


def test_compare_experiment_and_plot_data(tmp_path):
    out = tmp_path / "cmp"
    cfg = ExperimentConfig.from_dict({
        "experiment": "compare",
        "graph": {"construction": "star_addition", "d": 1, "R": 2, "L": 8},
        "problem": {"kind": "nls", "p": 4.0},
        "params": {"a_grid": [1.0, 2.0], "tol": 1e-4},
        "solver": SOLVER,
        "output_dir": str(out),
    })
    assert run(cfg) == 0
    csv_path = str(out / "results.csv")
    text = emit_plot_data(csv_path, "energy-vs-a")
    lines = text.splitlines()
    assert lines[0] == "a,E_perturbed,E_base"
    assert len(lines) == 3
    with pytest.raises(MissingColumns):
        emit_plot_data(csv_path, "escape-vs-L")


def test_star_probe_plot_kinds(tmp_path):
    out = tmp_path / "star"
    cfg = ExperimentConfig.from_dict({
        "experiment": "star-probe",
        "params": {"d": 1, "R": 4, "p": 4.0, "L_list": [7, 9], "a": 3.0},
        "solver": SOLVER,
        "output_dir": str(out),
    })
    assert run(cfg) == 0
    csv_path = str(out / "results.csv")
    escape = emit_plot_data(csv_path, "escape-vs-L").splitlines()
    assert escape[0] == "L,center_of_mass_norm"
    energy = emit_plot_data(csv_path, "energy-vs-L").splitlines()
    assert energy[0] == "L,E_perturbed,E_base"


def test_verify_lemmas_rows(tmp_path):
    out = tmp_path / "lemmas"
    cfg = ExperimentConfig.from_dict({
        "experiment": "verify-lemmas",
        "graph": {"construction": "lattice", "d": 1, "L": 12},
        "params": {"n_fields": 10},
        "output_dir": str(out),
    })
    assert run(cfg) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "check,lhs,rhs,margin,passed"
    assert len(lines) == 5
    assert all(line.endswith(",true") for line in lines[1:])


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["threshold", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    doc = json.loads(err)
    assert doc["error"] == "InvalidSpec"
    assert not (tmp_path / "o").exists()


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "cfg.json", {"graph": {}, "bogus": 1})
    assert main(["threshold", "--config", path]) == 2


@pytest.mark.parametrize("solver", [{"step_rule": "fixed"}, {"step": 0.1}, {"smoothing_eps": 1e-8}])
def test_removed_solver_keys_exit_2(tmp_path, capsys, solver):
    path = write_config(tmp_path, "cfg.json", {
        "graph": {"construction": "lattice", "d": 1, "L": 4},
        "problem": {"a": 1.0, "p": 4.0},
        "solver": solver,
    })
    assert main(["solve-nls", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "unknown solver keys" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("change,message", [
    ({"emit_field": "false"}, "emit_field"),
    ({"solver": {"record_trace": "false"}}, "record_trace"),
    ({"problem": {"a": 1.0, "p": 4.0, "allow_subcritical": "false"}}, "allow_subcritical"),
    ({"graph": {"construction": "sphere_deletion", "d": 1, "R": 0, "L": 6}}, "R=0"),
], ids=["emit_field", "record_trace", "allow_subcritical", "R0"])
def test_non_boolean_flags_and_bad_radius_exit_2(tmp_path, capsys, change, message):
    path = write_config(tmp_path, "cfg.json", {
        "graph": {"construction": "lattice", "d": 1, "L": 6},
        "problem": {"a": 1.0, "p": 4.0},
        **change,
    })
    assert main(["solve-nls", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec" and message in err["message"]
    assert not (tmp_path / "o").exists()


# configs whose values a cast or a skipped key once turned into a different
# run, a misleading error or a crash; each must exit 2 naming the key or value
GAP = {"d": 3, "p": 2.0, "R_list": [2], "L": 6}
STAR = {"d": 1, "R": 4, "p": 4.0, "L_list": [7, 9], "a": 3.0}
LINE = {"construction": "lattice", "d": 1, "L": 6}
LINE_NO_L = {"construction": "lattice", "d": 1}  # its L comes from params.levels
NLS_PROBLEM = {"a": 1.0, "p": 4.0}
CUT_DIRICHLET = {"construction": "sphere_deletion", "d": 2, "R": 2, "L": 5, "boundary": "dirichlet"}


@pytest.mark.parametrize("experiment,payload,named", [
    ("sobolev-gap", {"params": dict(GAP, d=3.9)}, "3.9"),
    ("sobolev-gap", {"params": dict(GAP, R_list=[2.7])}, "2.7"),
    ("sobolev-gap", {"params": dict(GAP, bracket_tl=9)}, "bracket_tl"),
    ("threshold", {"graph": LINE_NO_L, "params": {"p": 4.0, "a_range": [0.5, 6.0], "levels": [6.9]}},
     "box radius L must be an integer >= 2, got 6.9"),
    ("star-probe", {"params": dict(STAR, L_list=[7.9])}, "7.9"),
    ("star-probe", {"params": dict(STAR, equality_tl=1)}, "equality_tl"),
    ("solve-nls", {"graph": dict(LINE, boundry="dirichlet"), "problem": NLS_PROBLEM}, "boundry"),
    ("solve-sobolev", {"graph": LINE, "problem": {"a": 1.0, "p": 2.0, "q": 6.0,
                                                  "allow_subcritcal": True}}, "allow_subcritcal"),
    ("solve-nls", {"graph": LINE, "problem": NLS_PROBLEM, "seed": 2.7}, "2.7"),
    ("solve-nls", {"graph": {"d": 1, "L": 6, "additions": [[[-1.7], [1]]]},
                   "problem": NLS_PROBLEM}, "-1.7"),
    ("solve-sobolev", {"graph": LINE, "problem": {"p": True, "q": 2.0, "allow_subcritical": True}}, "p=True"),
    ("solve-nls", {"graph": LINE, "problem": dict(NLS_PROBLEM, kind="sobolev")}, "'sobolev'"),
    ("solve-nls", {"graph": LINE, "problem": NLS_PROBLEM, "params": {"a_grid": [1.0]}}, "a_grid"),
    ("solve-nls", {"graph": [], "problem": NLS_PROBLEM}, "graph"),
    ("verify-lemmas", {"graph": LINE, "params": [1]}, "params"),
    ("compare", {"graph": LINE, "problem": NLS_PROBLEM, "params": {"a_grid": [1.0], "tol": True}}, "tol"),
    ("compare", {"graph": LINE, "problem": NLS_PROBLEM,
                 "params": {"a_grid": [1.0], "strict_margin": -1}}, "strict_margin"),
    ("verify-lemmas", {"graph": LINE, "params": {"n_fields": 0}}, "n_fields"),
    ("verify-lemmas", {"graph": LINE, "params": {"n_fields": 2, "q": True}}, "q=True"),
    ("verify-lemmas", {"graph": LINE, "params": {"n_fields": 2, "p": float("inf")}}, "p=inf"),
    ("threshold", {"graph": LINE, "params": {"p": 4.0, "a_range": [0.5, 6.0], "max_probes": 2.5}},
     "max_probes"),
    ("solve-nls", {"graph": {"d": 1, "L": 6, "additions": [[[True], [-1]]]},
                   "problem": NLS_PROBLEM}, "True"),
    ("threshold", {"graph": LINE_NO_L, "params": {"p": 4.0, "a_range": [0.5, 6.0], "levels": []}},
     "levels must list exactly one truncation radius L, got []"),
    ("threshold", {"graph": LINE, "params": {"p": 4.0, "a_range": [0.5]}}, "a_range"),
    ("compare", {"graph": LINE, "problem": NLS_PROBLEM, "params": {"a_grid": []}}, "a_grid"),
    ("compare", {"graph": LINE, "problem": NLS_PROBLEM, "params": {"a_grid": [True]}}, "a_grid"),
    ("star-probe", {"params": dict(STAR, L_list=[])}, "L_list"),
    ("sobolev-gap", {"params": dict(GAP, R_list=[])}, "R_list"),
    ("threshold", {"graph": LINE, "params": {"p": 4.0, "a_range": 5}}, "a_range"),
    ("threshold", {"graph": LINE, "params": {"p": 4.0, "a_range": "ab"}}, "a_range"),
    ("threshold", {"graph": LINE, "params": {"p": 4.0, "a_range": [0.5, "x"]}}, "a_range"),
    ("threshold", {"graph": LINE, "params": {"p": 4.0, "a_range": [True, 2.0]}}, "a_range"),
    ("threshold", {"graph": LINE, "params": {"p": 4.0, "a_range": [0.5, float("inf")]}}, "a_range"),
    ("threshold", {"graph": LINE_NO_L, "params": {"p": 4.0, "a_range": [0.5, 6.0], "levels": [8, 12]}},
     "levels must list exactly one truncation radius L, got [8, 12]"),
    ("threshold", {"graph": {"construction": "lattice", "d": 1, "L": 10},
                   "params": {"p": 4.0, "a_range": [0.5, 6.0], "levels": [6]}},
     "params.levels [6] is not [L] of the graph, L=10"),
    ("solve-nls", {"graph": dict(LINE, construction="torus"), "problem": NLS_PROBLEM}, "'torus'"),
    ("compare", {"graph": LINE, "problem": {"kind": "heat", "p": 4.0}, "params": {"a_grid": [1.0]}}, "'heat'"),
    ("compare", {"graph": CUT_DIRICHLET, "problem": {"p": 4.0},
                 "params": {"a_grid": [1.0], "base_graph": {"d": 2, "L": 5, "boundary": "drop"}}}, "boundary"),
    ("sobolev-gap", {"params": dict(GAP, boundary="drop")}, "boundary"),
    ("solve-sobolev", {"graph": {"construction": "path", "n": 5, "boundary": "dirichlet"},
                       "problem": {"a": 1.0, "p": 2.0, "q": 2.0, "allow_subcritical": True}}, "boundary"),
    ("solve-nls", {"graph": dict(LINE, R=2), "problem": NLS_PROBLEM}, "'R'"),
    ("solve-nls", {"graph": LINE, "problem": dict(NLS_PROBLEM, q=3, allow_subcritical=True)}, "reads no q"),
], ids=["gap-d", "gap-R_list", "gap-unknown", "threshold-levels", "star-L_list", "star-unknown",
        "graph-unknown", "problem-unknown", "seed", "edge-coordinate", "p-bool", "kind-mismatch",
        "solve-params", "graph-list", "params-list", "compare-tol-bool", "compare-strict_margin",
        "lemmas-n_fields", "lemmas-q-bool", "lemmas-p-inf", "threshold-max_probes",
        "edge-coordinate-bool", "threshold-levels-empty", "threshold-a_range",
        "compare-a_grid-empty", "compare-a_grid-bool", "star-probe-L_list-empty", "sobolev-gap-R_list-empty",
        "threshold-a_range-int", "threshold-a_range-str", "threshold-a_range-entry-str",
        "threshold-a_range-bool", "threshold-a_range-inf", "threshold-levels-two", "threshold-levels-not-L",
        "unknown-construction", "compare-unknown-kind", "compare-base-boundary-mismatch", "gap-boundary",
        "path-boundary", "lattice-R", "nls-q"])
def test_config_values_reach_their_checks(tmp_path, capsys, experiment, payload, named):
    if experiment != "verify-lemmas":  # the one experiment that runs no solver
        payload = dict(payload, solver={"restarts": 1})
    path = write_config(tmp_path, "cfg.json", payload)
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert named in err["message"], err
    assert not (tmp_path / "o").exists()


def test_string_seeds_exit_2(tmp_path, capsys):
    # "delta" was once split into the descriptors "d", "e", ...
    path = write_config(tmp_path, "cfg.json", {"graph": LINE, "problem": NLS_PROBLEM,
                                               "solver": {"seeds": "delta"}})
    assert main(["solve-nls", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec" and "seeds must be" in err["message"], err
    assert not (tmp_path / "o").exists()


def test_empty_seed_plan_exits_2(tmp_path, capsys):
    # "seeds": [] once ran the default six-seed plan
    path = write_config(tmp_path, "cfg.json", {"graph": LINE, "problem": NLS_PROBLEM,
                                               "solver": {"seeds": []}})
    assert main(["solve-nls", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec" and "seeds must be" in err["message"], err
    assert not (tmp_path / "o").exists()


# each experiment with a section it never reads, and a config it does read
READS = {"star-probe": {"params": STAR}, "sobolev-gap": {"params": GAP},
         "threshold": {"graph": LINE, "params": {"p": 4.0, "a_range": [0.5, 6.0]}},
         "verify-lemmas": {"graph": LINE, "params": {"n_fields": 2}}}


@pytest.mark.parametrize("experiment,section", [
    ("star-probe", {"graph": {"d": 5, "L": 2}}), ("star-probe", {"problem": NLS_PROBLEM}),
    ("sobolev-gap", {"graph": LINE}), ("sobolev-gap", {"problem": {"p": 2.0, "q": 6.0}}),
    ("threshold", {"problem": NLS_PROBLEM}),
    ("verify-lemmas", {"problem": {"p": 99}}), ("verify-lemmas", {"solver": {"restarts": 1}}),
], ids=["star-graph", "star-problem", "gap-graph", "gap-problem", "threshold-problem",
        "lemmas-problem", "lemmas-solver"])
def test_unread_config_sections_exit_2(tmp_path, capsys, experiment, section):
    path = write_config(tmp_path, "cfg.json", dict(READS[experiment], **section))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    name = next(iter(section))
    assert f"does not read a {name} section" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "o").exists()


# the analysis routine each README example's params go to, and the required
# arguments the CLI fills in
README_ROUTINES = {"threshold": (analysis.estimate_threshold, {"graph_family": None})}


def test_readme_configs_load():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        cfg = ExperimentConfig.from_dict(json.loads(block))
        _solver_config(cfg).validate()
        build_graph_from_config(cfg.graph)
        routine, filled = README_ROUTINES[cfg.experiment]
        inspect.signature(routine).bind(**filled, **cfg.params)


def test_missing_config_exit_2(capsys):
    assert main(["threshold"]) == 2


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    # [1, 2] once failed as "list indices must be integers or slices, not str"
    path = write_config(tmp_path, "cfg.json", [1, 2])
    assert main(["solve-nls", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InvalidSpec", "message": "config must be a JSON object"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("call,fragment", [
    (lambda tmp: ExperimentConfig.from_dict({"experiment": "solve"}), "unknown experiment 'solve'"),
    (lambda tmp: run(ExperimentConfig(experiment="solve", output_dir=str(tmp / "o"))),
     "unknown experiment 'solve'"),
    (lambda tmp: emit_plot_data(str(tmp / "results.csv"), "energy-vs-R"), "unknown plot kind 'energy-vs-R'"),
], ids=["from_dict-experiment", "run-experiment", "plot-kind"])
def test_library_entry_points_name_a_bad_name(tmp_path, call, fragment):
    with pytest.raises(InvalidSpec, match=re.escape(fragment)):
        call(tmp_path)
    assert not (tmp_path / "o").exists()


def test_compare_base_takes_the_boundary_of_the_perturbed_graph(tmp_path):
    # a base_graph without a boundary once took the problem kind's default, drop, so a
    # dirichlet cut was compared with a drop box (E_base -0.0030864, verdict violated)
    payload = {"graph": CUT_DIRICHLET, "problem": {"p": 4.0}, "params": {"a_grid": [1.0]},
               "solver": {"restarts": 2}}
    texts = []
    for name, params in (("default", {}), ("explicit", {"base_graph": {"d": 2, "L": 5}})):
        path = write_config(tmp_path, f"{name}.json", dict(payload, params=dict(payload["params"], **params)))
        assert main(["compare", "--config", path, "--out", str(tmp_path / name)]) == 0
        texts.append((tmp_path / name / "results.csv").read_text())
    assert texts[0] == texts[1]
    _, row = texts[0].splitlines()
    a, e_pert, e_base, margin, verdict, converged = row.split(",")
    assert float(e_base) == pytest.approx(0.0921784, abs=1e-7)
    assert float(margin) == pytest.approx(-0.0929719, abs=1e-7)
    assert (verdict, converged) == ("strict", "true")


def test_main_solve_and_determinism(tmp_path):
    path = write_config(tmp_path, "solve.json", {
        "graph": {"construction": "lattice", "d": 1, "L": 8},
        "problem": {"a": 2.0, "p": 4.0},
        "solver": {"restarts": 8, "tol_grad": 1e-8, "max_iters": 20000},
    })
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve-nls", "--config", path, "--out", a, "--seed", "17"]) == 0
    assert main(["solve-nls", "--config", path, "--out", b, "--seed", "17"]) == 0
    bytes_a = (tmp_path / "a" / "results.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "results.csv").read_bytes()
    assert bytes_a == bytes_b


def test_plot_data_cli_to_file(tmp_path):
    out = tmp_path / "star"
    cfg = ExperimentConfig.from_dict({
        "experiment": "star-probe",
        "params": {"d": 1, "R": 3, "p": 4.0, "L_list": [6, 8], "a": 3.0},
        "solver": SOLVER,
        "output_dir": str(out),
    })
    assert run(cfg) == 0
    dest = str(tmp_path / "plot.csv")
    assert main(["plot-data", "--results", str(out / "results.csv"),
                 "--kind", "escape-vs-L", "--out", dest]) == 0
    assert os.path.exists(dest)


def test_plot_data_cli_to_stdout_and_its_arguments(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("L,E_perturbed,E_base,center_of_mass_norm\n7,-1.5,-1.25,2\n9,-1.75\n")
    assert main(["plot-data", "--results", str(results), "--kind", "energy-vs-L"]) == 0
    assert capsys.readouterr().out == "L,E_perturbed,E_base\n7,-1.5,-1.25\n9,-1.75,\n"
    assert main(["plot-data", "--results", str(results)]) == 2
    assert "plot-data needs --results and --kind" in json.loads(capsys.readouterr().err)["message"]


def test_emit_field_flag_writes_the_minimizer(tmp_path):
    path = write_config(tmp_path, "cfg.json", {"graph": LINE, "problem": NLS_PROBLEM,
                                               "solver": {"restarts": 1}})
    assert main(["solve-nls", "--config", path, "--out", str(tmp_path / "o"), "--emit-field"]) == 0
    assert len(json.loads((tmp_path / "o" / "minimizer.json").read_text())) == 11


def test_build_graph_from_config_variants():
    g = build_graph_from_config({"construction": "path", "n": 3})
    assert g.n == 3
    g2 = build_graph_from_config({"construction": "sphere_deletion", "d": 2, "R": 2, "L": 5})
    assert g2.spec.deletions
    g3 = build_graph_from_config({"d": 1, "L": 4, "deletions": [], "additions": [[[-1], [1]]]})
    assert g3.spec.additions == frozenset({((-1,), (1,))})
    g4 = build_graph_from_config({"construction": "lattice", "d": 2, "L": 3,
                                  "boundary": "dirichlet"})
    assert g4.boundary == "dirichlet"


def test_sobolev_gap_experiment(tmp_path):
    out = tmp_path / "gap"
    cfg = ExperimentConfig.from_dict({
        "experiment": "sobolev-gap",
        "params": {"d": 3, "p": 2.0, "R_list": [2], "L": 6},
        "solver": {"restarts": 3, "tol_grad": 1e-7, "max_iters": 30000},
        "output_dir": str(out),
    })
    assert run(cfg) == 0
    summary = json.loads((out / "results.json").read_text())
    assert summary["witness_R"] == 2
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "R,bound_formula,bound_evaluated,j_unperturbed,witness"


# the criterion-10 configs, with the sha256 of the results.csv each writes at seed 13
CRITERION_10 = [
    ({"experiment": "threshold", "graph": {"construction": "lattice", "d": 1, "L": 10},
      "params": {"p": 4.0, "a_range": [0.5, 6.0], "levels": [10]},
      "solver": {"restarts": 8, "tol_grad": 1e-8, "max_iters": 30000}},
     "efd58d68a69fbaa101450f81d12dbf9751ad63662c9fa3f090c4653be92a26d6"),
    ({"experiment": "star-probe", "params": {"d": 1, "R": 4, "p": 4.0, "L_list": [7, 9], "a": 3.0},
      "solver": {"restarts": 8, "tol_grad": 1e-8, "max_iters": 30000}},
     "9ecae8ffba03b5bda323d308bd7cf001b2df5d55284870ed40f8a7e2e15ca089"),
    ({"experiment": "solve-sobolev", "graph": {"construction": "sphere_deletion", "d": 3, "R": 2, "L": 6},
      "problem": {"a": 1.0, "p": 2.0, "q": 6.0},
      "solver": {"restarts": 8, "tol_grad": 1e-7, "max_iters": 30000}},
     "54a6563b1887dba674e9b5f697f6bb885f11149cf87a2f1ad2bab6438283929d"),
]


def test_thread_settings_go_to_results_json_only(tmp_path, monkeypatch):
    # the BLAS thread count can move results in the last bits, so a run records the
    # settings it ran under; results.csv keeps its bytes
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    for i, (payload, digest) in enumerate(CRITERION_10):
        out = tmp_path / str(i)
        run(ExperimentConfig.from_dict(dict(payload, output_dir=str(out), seed=13)))
        summary = json.loads((out / "results.json").read_text())
        assert summary["thread_env"] == {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                                         "OMP_NUM_THREADS": None}
        assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest() == digest


# every file each experiment writes at seed 5, as sha256 (results.json without
# thread_env, keys sorted), with the exit code: a change to how results are
# gathered or written must not move a byte
GOLDEN_RUNS = {
    "solve-nls-trace-field": (
        "solve-nls", {"graph": {"d": 1, "L": 6}, "problem": {"a": 2.0, "p": 4.0},
                      "solver": {"restarts": 3, "record_trace": True}, "emit_field": True}, 0,
        {"minimizer.json": "431bc541760d67a006c7e958d40cb3c4235c75513f6faa8e16d84457b641951f",
         "results.csv": "d957fc2861f2b4287157cd66fe2769e73d38012e34c9236dee66f74e29472145",
         "results.json": "68e0ce4de190a5704b1c628d4236759e9298fed72590917c53c91163cea024ee",
         "trace.csv": "1e4c8090c91ae9a4e863786339fe3a37211ba19d0dad78b29d68624f0600b7a0"}),
    "solve-nls-exit3": (
        "solve-nls", {"graph": {"d": 1, "L": 6}, "problem": {"a": 2.0, "p": 4.0},
                      "solver": {"restarts": 1, "seeds": ["random"], "max_iters": 2}}, 3,
        {"results.csv": "969a3b01f9e7ecf9b76009f4d6ad4a9cb9ed3e23837287e87178d088c47a17d5",
         "results.json": "56c2f1c20225554b37ac4cca935dcd5502b14c9b84009551a8d58ee47fb4ef8f"}),
    "solve-sobolev": (
        "solve-sobolev", {"graph": {"construction": "sphere_deletion", "d": 3, "R": 2, "L": 4},
                          "problem": {"p": 2.0, "q": 6.0}, "solver": {"restarts": 3, "tol_grad": 1e-7}}, 0,
        {"results.csv": "286454f37effbd96a5c19005e1ae76bd6fcc173aaca14c594cb4e2982a5ec15b",
         "results.json": "4acc3b6bfa4de891a48eeea9e145b651daaf45e65ebd95b2b328ca8e9a3e431f"}),
    "threshold-all_negative": (
        "threshold", {"graph": {"d": 1, "L": 10}, "params": {"p": 4.0, "a_range": [0.5, 6.0]},
                      "solver": {"restarts": 3}}, 0,
        {"results.csv": "1579beefc222762142566236ce4736ab6fbda3f0f978865aea02fa71b26831fd",
         "results.json": "bf941e3d04fc1d6ab37dfb76a20172d861c99553a10f6f809325e51dab557b03"}),
    "threshold-bracketed": (
        "threshold", {"graph": {"d": 1, "L": 6, "boundary": "dirichlet"},
                      "params": {"p": 6.0, "a_range": [0.5, 6.0], "bracket_tol": 0.5},
                      "solver": {"restarts": 3}}, 0,
        {"results.csv": "377fe341159ef396420794a56f0a15b955ab00d09883c8e6f616a41341ed51a0",
         "results.json": "2d2649e0ab28d5d0e6949ed8a29579ce707624fb886701aff687d50c3803f6e5"}),
    "compare-nls": (
        "compare", {"graph": {"construction": "star_addition", "d": 1, "R": 2, "L": 8},
                    "problem": {"p": 4.0}, "params": {"a_grid": [1.0, 2.0], "tol": 1e-4},
                    "solver": {"restarts": 3}}, 0,
        {"results.csv": "c98bc6566cf148c953bd6df760a0a102dbe73f2585ab5d406781d705dc77b176",
         "results.json": "d7c67fc5736812a07f942c3586c9ff5dc45fb02b71b11b68274d075f1c78de16"}),
    "compare-sobolev": (
        "compare", {"graph": {"construction": "sphere_deletion", "d": 3, "R": 2, "L": 4},
                    "problem": {"kind": "sobolev", "p": 2.0, "q": 6.0}, "params": {"a_grid": [1.0, 2.0]},
                    "solver": {"restarts": 2, "tol_grad": 1e-7}}, 0,
        {"results.csv": "19c193c29b4b7678be05aa03045b4981fc67d1a5b4cd786cfe0b3654b7aa2a81",
         "results.json": "dcea59be13b0732fa20abdae4df360998b881e3b27845735607b457da2e7a771"}),
    "sobolev-gap": (
        "sobolev-gap", {"params": {"d": 3, "p": 2.0, "R_list": [2], "L": 5},
                        "solver": {"restarts": 2, "tol_grad": 1e-7}}, 0,
        {"results.csv": "f92ed0b51b4e0cf22aed015388124f263c1a2ef2ed206ae15a70002a7520bd7a",
         "results.json": "97f9bb3e6602fcd491d5a22e0ae09dea2c2a38eee4e84659a89c27f7e6d4ef38"}),
    "star-probe": (
        "star-probe", {"params": {"d": 1, "R": 4, "p": 4.0, "L_list": [7, 9], "a": 3.0},
                       "solver": {"restarts": 3}}, 0,
        {"results.csv": "548a02f2129f366ca67b42f171f5360c0d8ea790ef02286c9a8aa4104d571c15",
         "results.json": "5b019b36b5df1371d39264510cfd9bbd1db2c047a4ea3ec8b820017628cc894b"}),
    "verify-lemmas": (
        "verify-lemmas", {"graph": {"d": 1, "L": 12}, "params": {"n_fields": 10}}, 0,
        {"results.csv": "ebc840bb368b6d8af5cd42997bef42eff930d99cbdd79ccd368c13520ee1fc47",
         "results.json": "6070bb99ce4872183b7c6269c0e0d6a167d6e1cd2312cdc7d2dcc85b7ba210a7"}),
}


@pytest.mark.parametrize("case", list(GOLDEN_RUNS))
def test_golden_cli_artifacts(tmp_path, case):
    # every graph has under 10^4 vertices, so the BLAS thread count cannot move these
    experiment, payload, code, expected = GOLDEN_RUNS[case]
    path = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([experiment, "--config", path, "--out", str(out), "--seed", "5"]) == code
    got = {}
    for artifact in out.iterdir():
        data = artifact.read_bytes()
        if artifact.name == "results.json":
            doc = json.loads(data)
            del doc["thread_env"]
            data = json.dumps(doc, indent=2, sort_keys=True).encode()
        got[artifact.name] = hashlib.sha256(data).hexdigest()
    assert got == expected
