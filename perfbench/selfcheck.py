"""Self-check of the benchmark at a tiny size.

Runs every workload of ``BENCHMARK.json``, and ``cold-batch``, once
untraced and once traced with ``--smoke`` (tiny databases, short runs)
and checks that:

* each run exits 0 and its last line is the result object with exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``, correct and with
  no failed operation;
* the untraced run emits exactly the ``end_to_end`` metrics and the traced
  run exactly the ``per_layer`` metrics, each with its declared unit, and
  every end-to-end value is a positive number;
* every traced request reconciles (its layer self times cover its wall
  time within the stated tolerance), and the cost spine names
  ``optimizer`` on cold-batch and ``executor`` on warm-batch;
* without the ``src/`` tree beside it, the benchmark exits non-zero
  without printing a result.

Usage, from the repository root::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SPINE = {"cold-batch": "optimizer", "warm-batch": "executor"}
#: runnable workloads left out of BENCHMARK.json (see README.md), checked
#: all the same.
UNLISTED = ["cold-batch"]
SMOKE_SECONDS = "2"
SEED = "7"


def _run(spec, workload: str, trace: int, cwd: Path):
    command = spec["command"] + [
        "--workload", workload, "--seed", SEED,
        "--seconds", SMOKE_SECONDS, "--trace", str(trace),
    ]
    return subprocess.run(
        command + ["--smoke"], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def _check_result(spec, workload: str, trace: int, proc) -> list:
    problems = []
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"unit mismatches "
                        f"{sorted(k for k in got if want.get(k, got[k]) != got[k])}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {name} is {value}")
    if trace:
        report = json.loads(
            (OUT / f"{workload}-seed{SEED}.trace.json").read_text()
        )
        if report["unreconciled"]:
            problems.append(f"{where}: requests {report['unreconciled']} "
                            "do not reconcile to wall time")
        if workload in SPINE and SPINE[workload] not in report["spine"]:
            problems.append(f"{where}: spine {report['spine']} lacks "
                            f"{SPINE[workload]}")
    return problems


def _check_bare(spec) -> list:
    """Without src/ the benchmark must fail fast and print no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(spec, spec["workloads"][0]["name"], 0, bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran without the src/ tree"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _check_bare(spec)
    for workload in [w["name"] for w in spec["workloads"]] + UNLISTED:
        for trace in (0, 1):
            proc = _run(spec, workload, trace, ROOT)
            found = _check_result(spec, workload, trace, proc)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
