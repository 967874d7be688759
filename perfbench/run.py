"""varopt benchmark: one workload per call, each repetition in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # table of every workload
    python3 perfbench/run.py --record                              # rewrite reference.json

Run it from the root of a varopt checkout. Workers (`worker.py`) repeat the
workload until `--seconds` have passed (at least a fixed number of times)
and a few extra workers only set up, so that `setup_s` is a median too.
`run_s` is the sum over the workload's tasks of each task's median time.
`run_norm_s` is the same sum with each task time first scaled to a
reference host speed, sampled while the task ran (see `hostspeed.py`).
Every solve and verdict is checked against `reference.json`; the last line
of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

`--trace 1` adds one traced worker and prints the per-layer metrics. Those
come from spans the worker puts around varopt's entry points, from
solving each restart of a single-solve workload alone, and from a kernel
probe; `trace.overhead_s` is the traced run_s minus the untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# energies and multipliers: the 1e-12 relative gate of ROADMAP item 4, with
# values below 1 in magnitude compared absolutely
REL_TOL = 1e-12
# a run ends within 180 s; a worker that is still going by then is stopped
RUN_LIMIT_S = 170.0
# workload: (full repetitions at least, set-up samples at least, passes per worker)
REPEATS = {
    "sweep-nls-small": (3, 9, 1),
    "sobolev-d3-L20": (1, 3, 1),
    "perturbed-d3-L25": (1, 2, 4),
    "sobolev-p1.5-d3-L5": (3, 9, 1),
}


class BenchError(Exception):
    pass


def spawn(workload, size, seed, mode="full", passes=1, trace=0, deadline=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--size", size,
           "--seed", str(seed), "--mode", mode, "--passes", str(passes), "--trace", str(trace)]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker still running after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def close(got, ref):
    if got is None or ref is None:
        return got is ref
    return abs(got - ref) <= REL_TOL * max(abs(ref), 1.0)


def check_pass(reference, outputs):
    """Compare one pass with the reference. A solve fails if it is missing,
    extra, raised, moved beyond REL_TOL or lost convergence; verdicts,
    statuses and flags must match exactly."""
    attempted = failed = unconverged = 0
    problems = []
    for task in sorted(set(reference) | set(outputs)):
        ref = reference.get(task, {})
        got = outputs.get(task, {"error": "task missing from this run"})
        if "error" in got:
            problems.append(f"{task}: {got['error']}")
        if not ref:
            problems.append(f"{task}: not in the reference")
        rs, gs = ref.get("solves", []), got.get("solves", [])
        attempted += max(len(rs), len(gs)) + ref.get("checks", got.get("checks", 0))
        failed += got.get("checks_failed", ref.get("checks", 0) if "error" in got else 0)
        for i in range(max(len(rs), len(gs))):
            if i >= len(rs) or i >= len(gs):
                failed += 1
                continue
            (e, lam, conv), (re, rlam, rconv) = gs[i][:3], rs[i][:3]
            if not (close(e, re) and close(lam, rlam)) or (rconv and not conv):
                failed += 1
                problems.append(f"{task}: solve {i} gave E={e!r} lambda={lam!r} "
                                f"converged={conv}, reference E={re!r} lambda={rlam!r} "
                                f"converged={rconv}")
            elif not conv:
                unconverged += 1
        for key, value in ref.get("exact", {}).items():
            if got.get("exact", {}).get(key) != value:
                problems.append(f"{task}: {key} is {got.get('exact', {}).get(key)!r}, "
                                f"reference {value!r}")
        for key, value in ref.get("floats", {}).items():
            if not close(got.get("floats", {}).get(key), value):
                problems.append(f"{task}: {key} is {got.get('floats', {}).get(key)!r}, "
                                f"reference {value!r}")
    return attempted, failed, unconverged, problems


def reference_record(outputs):
    keep = ("exact", "floats", "checks")
    return {task: dict({k: out[k] for k in keep if k in out},
                       solves=[s[:3] for s in out["solves"]])
            for task, out in outputs.items()}


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(workload, size, seed, seconds, trace, reference):
    """Run one workload; return (result line, details)."""
    min_reps, setup_samples, passes = REPEATS[workload]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    full = []
    # with tracing on, one untraced worker is the baseline for trace.overhead_s
    while len(full) < (1 if trace else min_reps) or (
            not trace and time.monotonic() - start + full[-1]["wall_s"] < seconds):
        full.append(spawn(workload, size, seed, passes=passes, deadline=deadline))
    setups = [r["setup_s"] for r in full]
    while not trace and len(setups) < setup_samples:
        setups.append(spawn(workload, size, seed, mode="setup", deadline=deadline)["setup_s"])
    traced = spawn(workload, size, seed, trace=1, deadline=deadline) if trace else None

    all_passes = [p for r in full + ([traced] if traced else []) for p in r["passes"]]
    attempted = failed = unconverged = 0
    problems = []
    for p in all_passes:
        a, f, u, probs = check_pass(reference, p["outputs"])
        attempted, failed, unconverged = attempted + a, failed + f, unconverged + u
        problems += [x for x in probs if x not in problems]
    for task in reference:
        digests = {json.dumps(p["outputs"].get(task, {}).get("identical"), sort_keys=True)
                   for p in all_passes}
        if len(digests) > 1:
            problems.append(f"{task}: results.csv differs between reruns in this run")

    untraced = [p for r in full for p in r["passes"]]
    tasks = untraced[0]["times"]
    run_s = sum(statistics.median(p["times"][t] for p in untraced) for t in tasks)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_norm_s": sum(statistics.median(p["norm_times"][t] for p in untraced)
                          for t in tasks),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }
    if traced:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = sum(traced["passes"][0]["times"].values()) - run_s
    details = {
        "workload": workload, "size": size, "seed": seed,
        "git_sha": git_sha(), "src_sha256": source_digest(), "env": full[0]["env"],
        "workers": len(full) + (traced is not None), "setup_samples": setups,
        "run_s": run_s,
        "task_times": {t: [p["times"][t] for p in untraced] for t in tasks},
        "host_slices_ms": [r["host_slices_ms"] for r in full],
        "failed_frac": (failed + unconverged) / attempted if attempted else 0.0,
        "unconverged": unconverged, "problems": problems,
    }
    if traced:
        details["kernel_probe"] = traced["probe"]
        details["replay"] = traced.get("replay")
    line = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, details


def with_units(metrics, declared):
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def record(seed):
    """Write reference.json from one worker per workload and size."""
    reference = {}
    for size in ("full", "toy"):
        for workload in REPEATS:
            outputs = spawn(workload, size, seed)["passes"][0]["outputs"]
            errors = {t: o["error"] for t, o in outputs.items() if "error" in o}
            if errors:
                raise BenchError(f"{workload} ({size}) raised while recording: {errors}")
            reference.setdefault(size, {})[workload] = reference_record(outputs)
            print(f"recorded {workload} ({size})", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(REPEATS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: every workload at a few seconds' size (smoke test)")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args()
    try:
        if not (ROOT / "src" / "varopt" / "__init__.py").is_file():
            raise BenchError(f"no varopt sources under {ROOT / 'src'}")
        if args.record:
            record(args.seed)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        reference = json.loads(REFERENCE.read_text())[args.size]
        names = list(REPEATS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            line, details = measure(name, args.size, args.seed, args.seconds, args.trace,
                                    reference[name])
            line["metrics"] = with_units(line["metrics"], declared)
            lines[name] = line
            print(json.dumps(details))
            for problem in details["problems"]:
                print(f"{name}: {problem}", file=sys.stderr)
            shown = dict(line["metrics"])
            if not args.trace:
                shown["run_s"] = {"value": details["run_s"], "unit": "s"}
            shown["failed_frac"] = {"value": details["failed_frac"], "unit": "1"}
            for metric, v in shown.items():
                print(f"{name:20s} {metric:45s} {v['value']:14.6g} {v['unit']}")
        print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
