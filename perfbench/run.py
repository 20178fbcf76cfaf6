"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload selective --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: ``selective``, ``buffering``,
``standing`` and ``serve`` (see BENCHMARK.json and perfbench/METHODS.md).
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Every output is
checked against the naive DOM engine.  Readable lines come first; the
last line of standard output is the JSON result, and a traced run also
writes its spans to ``perfbench/.traces/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("selective", "buffering", "standing", "serve")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input size; tiny is for the smoke check only",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no engine sources at {ROOT / 'src' / 'repro'}; run "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (needs the source path above)

    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)
    if not outcome.metrics:
        print("perfbench: the run produced no measurements", file=sys.stderr)
        for note in outcome.notes:
            print(f"  {note}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in outcome.notes[:20]:
        print(f"  {note}")
    for name, (value, unit) in outcome.metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:34} {shown:>14} {unit}")
    if args.trace:
        traces = HERE / ".traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "spans": outcome.spans}, indent=1)
        )
        print(f"  spans written to {path.relative_to(ROOT)}")
    result = {
        "correct": outcome.failed == 0 and outcome.valid,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
