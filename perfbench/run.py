"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-batch --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics through ``Session.execute``;
``--trace 1`` runs the traced layer path and reports the per-layer metrics,
and writes the spans, layer shares, cost spine and plan-identity record to
``.bench_out/<workload>-seed<seed>.trace.json``. Every line but the last is
for people; the last is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--smoke`` shrinks every database to a tiny scale factor (the self-check
in ``selfcheck.py``). See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".bench_out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import report
    from workloads import WORKLOADS, Config

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    config = Config(args.seed, args.seconds, bool(args.trace), args.smoke)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    run, checks_ok = WORKLOADS[args.workload](config)
    attempted, failed, _ = report.failed_frac(run)

    if args.trace:
        metrics, trace = report.per_layer(run)
        units = report.PER_LAYER
        _print_table(metrics, units)
        print(f"spine (>{trace['spine_share']:.0%} of wall): "
              + ", ".join(f"{name} {trace['layer_shares'][name]:.1%}"
                          for name in trace["spine"]))
        print(f"reconciliation: {len(trace['unreconciled'])} of "
              f"{int(metrics['trace.requests'])} request(s) leave more than "
              f"max({trace['reconcile_tolerance']:.0%} of wall, "
              f"{trace['reconcile_switch_intervals']} GIL switch intervals) "
              f"outside the layer spans; overall "
              f"{trace['uncovered_share']:.3%} uncovered")
        for plan in trace["plans"][:report.COUNT_SAMPLE]:
            print(f"plan {plan['batch_sha256'][:12]} -> "
                  f"{plan['plan_sha256'][:16]} "
                  f"cost_units={plan['cost_units']:.4f}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        path.write_text(json.dumps(trace))
        print(f"trace written to {path}")
    else:
        metrics, extras = report.end_to_end(run)
        units = report.END_TO_END
        _print_table(metrics, units)
        shown = {k: v for k, v in extras.items()
                 if args.workload == "serve-rw" or not k.startswith("write_")}
        _print_table(shown, report.UNGATED)

    print(f"checks: {run.wrong} wrong read(s); oracle/view checks "
          f"{'passed' if checks_ok else 'FAILED'}")
    print(json.dumps({
        "correct": checks_ok and run.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def _print_table(metrics, units) -> None:
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:14.4f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
