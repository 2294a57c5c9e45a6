"""Subprocess entry: one workload, one fresh interpreter.

``python3 -m bench`` starts this module with ``PYTHONHASHSEED=0`` for
every run (actor placement still uses builtin ``hash()``), so peak RSS,
import time and hash order all belong to exactly one workload.  The
last line of standard output is the run's full result as JSON; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from bench.spec import WORKLOAD_BY_NAME


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench.worker")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_BY_NAME) + ["layers"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="issue exactly N transactions (smoke, tests)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="set-ups per run; setup_s is their median")
    parser.add_argument("--probe-seconds", type=float, default=None,
                        help="host seconds per layer probe (0 skips them)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    started = time.perf_counter()
    from bench import harness  # imports the engine: part of setup_s

    import_s = time.perf_counter() - started
    if args.workload == "layers":
        from bench import layers

        result = layers.run_probes(args.probe_seconds or 1.0)
    elif args.trace:
        from bench import tracing

        probe_seconds = args.probe_seconds
        if probe_seconds is None:
            probe_seconds = args.seconds / 40.0
        result = tracing.run_traced(
            WORKLOAD_BY_NAME[args.workload], args.seed, args.seconds,
            n=args.n, probe_seconds=probe_seconds,
        )
    else:
        result = harness.run_workload(
            WORKLOAD_BY_NAME[args.workload], args.seed, args.seconds,
            n=args.n, repeats=args.repeats, import_s=import_s,
        )
    for failure in result.get("detail", {}).get("failures", []):
        print(failure, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
