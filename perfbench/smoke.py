"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced on two seeds and traced on
one, at the ``tiny`` size, and checks that:

* the last output line is the result object with exactly its four keys,
  every operation was attempted and none failed;
* every end-to-end metric (untraced) or per-layer metric (traced) is
  present, with its unit, as a number, and end-to-end values are never 0;
* on each batch workload the per-layer self times plus the reported
  residual equal the traced wall time, and the residual is small;
* the serve rates in BENCHMARK.json's reason match the runner's;
* in a directory holding only BENCHMARK.json and the benchmark, the
  runner exits non-zero without printing a result.

Exits 0 when all checks pass and prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BATCH = ("selective", "buffering", "standing")
#: Self-time metrics that partition a traced run's wall time (the pump
#: figure already contains the shared dispatcher's share).
SELF_TIMES = (
    "engine.session.busy_s",
    "engine.evaluator.busy_s",
    "engine.direct.busy_s",
    "engine.multi.busy_s",
    "stream.pump.busy_s",
    "stream.lane.busy_s",
    "xmlio.lexer.busy_s",
    "xmlio.serialize.busy_s",
)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT
        ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: list[dict], proc: subprocess.CompletedProcess,
                 label: str, nonzero: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        errors.append(f"{label}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in spec}:
        errors.append(f"{label}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in spec})}")
    for entry in spec:
        got = metrics.get(entry["name"])
        if got is None:
            continue
        if got["unit"] != entry["unit"]:
            errors.append(f"{label}: {entry['name']} unit {got['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{label}: {entry['name']} = {value!r}")
        elif nonzero and value <= 0:
            errors.append(f"{label}: {entry['name']} = {value}")
    return errors


def check_partition(proc: subprocess.CompletedProcess, label: str) -> list[str]:
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    value = {name: metrics[name]["value"] for name in metrics}
    wall = value["trace.wall_s"]
    residual = value["trace.residual_s"]
    total = sum(value[name] for name in SELF_TIMES) + residual
    errors = []
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        errors.append(f"{label}: self times + residual {total} != wall {wall}")
    if not 0 <= residual <= 0.2 * wall:
        errors.append(f"{label}: residual {residual} s of {wall} s traced")
    return errors


def check_no_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(
            ".*", "__pycache__", Path(scratch).name))
        proc = run("selective", 1, 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return ["without engine sources the runner did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    errors: list[str] = []
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for name, rate in workloads.SERVE_RATES.items():
        if f"{name} {rate:g}/s" not in why.get("serve", ""):
            errors.append(f"serve reason does not state '{name} {rate:g}/s'")
    for workload in why:
        for seed in (1, 2):
            label = f"{workload} seed {seed} untraced"
            errors += check_result(spec["end_to_end"], run(workload, seed, 0),
                                   label, nonzero=True)
        label = f"{workload} traced"
        proc = run(workload, 2, 1)
        found = check_result(spec["per_layer"], proc, label, nonzero=False)
        errors += found
        if workload in BATCH and not found:
            errors += check_partition(proc, label)
        print(f"{workload}: checked", flush=True)
    errors += check_no_sources()
    for error in errors:
        print(f"FAIL {error}")
    print("smoke check", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
