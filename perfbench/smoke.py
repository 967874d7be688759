"""Smoke test of the benchmark harness: every workload at toy size.

    python3 perfbench/smoke.py

Runs `run.py --size toy` for each workload of BENCHMARK.json, untraced and
traced, and checks that the result line passes its reference check and
carries every declared metric with its unit, and that the details line
carries `failed_frac`. Exits 1 on the first run that does not.
"""

import json
import numbers
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, declared):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "toy",
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()}"
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
    details, result = lines[0], lines[-1]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        return f"reference check: {result} {details.get('problems')}"
    if "failed_frac" not in details:
        return "details carry no failed_frac"
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    bad = [name for name, v in result["metrics"].items()
           if not isinstance(v["value"], numbers.Real) or isinstance(v["value"], bool)]
    return f"non-numeric values: {bad}" if bad else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            error = check(workload["name"], trace, spec[key])
            status = "ok" if error is None else f"FAILED: {error}"
            print(f"smoke {workload['name']} trace={trace}: {status}")
            if error is not None:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
