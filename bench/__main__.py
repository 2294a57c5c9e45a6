"""Command line of the benchmark.

The driver's form — one workload, one result line::

    python3 -m bench --workload sb-pact --seed 1 --seconds 10 --trace 0

and the forms for people::

    python3 -m bench run [--smoke] [--repeat R]   every workload, untraced
    python3 -m bench trace                        every workload, traced
    python3 -m bench layers                       the layer probes
    python3 -m bench compare A.json B.json        bounds, directions, exact diffs

Every workload runs in a fresh ``bench.worker`` subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from bench import OUT_DIR, ROOT, SRC
from bench.compare import compare_files
from bench.spec import WORKLOAD_BY_NAME, WORKLOADS

COMMANDS = ("run", "trace", "layers", "compare")
SMOKE_TXNS = 500


def run_worker(workload: str, **options: Any) -> Tuple[Optional[Dict[str, Any]], int]:
    """One ``bench.worker`` subprocess; ``(result or None, exit code)``.

    ``PYTHONHASHSEED=0`` because actor placement still uses builtin
    ``hash()`` (ROADMAP 3b): without the pin, same seed is not same run.
    The worker's standard error passes through.
    """
    command = [sys.executable, "-m", "bench.worker", "--workload", workload]
    for name, value in options.items():
        if value is not None:
            command += ["--" + name.replace("_", "-"), str(value)]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, done.returncode or 1
    return result, done.returncode


# -- printing -------------------------------------------------------------


def _notes(result: Dict[str, Any]) -> Dict[str, str]:
    """What to print beside a metric: sample counts, segment range."""
    detail = result.get("detail", {})
    notes: Dict[str, str] = {}
    if "setup_runs_s" in detail:
        runs = " ".join(f"{s:.2f}" for s in detail["setup_runs_s"])
        notes["setup_s"] = (
            f"median of set-ups {runs} + import {detail['import_s']:.2f}"
        )
    segments = detail.get("host_txn_per_s_segments")
    if segments:
        notes["host_txn_per_s"] = (
            f"median of {len(segments)} segments, "
            f"min {min(segments):.1f} max {max(segments):.1f}"
        )
    latency = detail.get("latency")
    if latency:
        for txn, count in latency["samples"].items():
            other = "act" if txn == "pact" else "pact"
            for name in (f"{txn}_lat_p50_ms", f"{txn}_lat_p99_ms"):
                if name in latency["mirrored"]:
                    notes[name] = f"= {other}: no {txn.upper()} ran"
                else:
                    notes[name] = f"n={count}"
    if "abort_frac" in detail:
        notes["commit_frac"] = f"abort_frac {detail['abort_frac']:.4f}"
    if "recover_sample" in detail:
        notes["recover_s"] = f"{detail['recover_sample']} accounts read back"
    return notes


def print_result(result: Dict[str, Any]) -> None:
    env = result["env"]
    head = f"{result['workload']}"
    if "n" in result:
        head += (
            f"  seed {result['seed']}  N={result['n']}  P={result['slots']}"
            f"  {result['backend']}  committed {result['committed']}"
            f"  aborted {result['aborted']}  failed {result['failed']}"
        )
    print(head)
    print(f"  python {env['python']}  nproc {env['nproc']}  "
          f"commit {env['commit']}  PYTHONHASHSEED {env['hashseed']}")
    notes = _notes(result)
    for name, metric in result["metrics"].items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:<46} {metric['value']:>16.6g} {metric['unit']}{note}")
    checks = result.get("checks", {})
    if checks:
        print("  checks: " + ", ".join(
            f"{name} {'ok' if passed else 'FAILED'}"
            for name, passed in checks.items()
        ))
    if "span_file" in result.get("detail", {}):
        print(f"  spans: {result['detail']['span_file']}")
    print(f"  {'correct' if result['correct'] else 'NOT CORRECT'}")


# -- result files -----------------------------------------------------------


def merge_into(path: str, section: str, payload: Any) -> None:
    """Write ``payload`` as one section of a result file, keeping the
    file's other sections (``run``, ``trace``, ``layers``)."""
    document: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document[section] = payload
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote section {section!r} of {os.path.relpath(path)}")


# -- commands -----------------------------------------------------------------


def _selected(names: Optional[str]) -> List[str]:
    if not names:
        return [w.name for w in WORKLOADS]
    chosen = names.split(",")
    unknown = [name for name in chosen if name not in WORKLOAD_BY_NAME]
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(unknown)}")
    return chosen


def _run_all(args: argparse.Namespace, trace: int, section: str,
             **options: Any) -> int:
    """Every selected workload ``--repeat`` times; print, store, judge."""
    results: Dict[str, List[Dict[str, Any]]] = {}
    status = 0
    for name in _selected(args.workloads):
        for _ in range(args.repeat):
            result, code = run_worker(
                name, seed=args.seed, seconds=args.seconds, trace=trace,
                **options,
            )
            if result is None:
                print(f"{name}: worker exited {code} without a result")
                status = 1
                continue
            print_result(result)
            results.setdefault(name, []).append(result)
            status = status or code
    merge_into(args.out or os.path.join(OUT_DIR, "results.json"),
               section, results)
    return status


def cmd_run(args: argparse.Namespace) -> int:
    if args.smoke:
        # all six at N=500, one set-up each, checks on, no bounds
        return _run_all(args, 0, "run", n=SMOKE_TXNS, repeats=1)
    return _run_all(args, 0, "run")


def cmd_trace(args: argparse.Namespace) -> int:
    # probes are workload-independent: `layers` runs them once
    return _run_all(args, 1, "trace", probe_seconds=0)


def cmd_layers(args: argparse.Namespace) -> int:
    result, code = run_worker("layers", probe_seconds=args.probe_seconds)
    if result is None:
        print(f"layers: worker exited {code} without a result")
        return 1
    print_result(result)
    merge_into(args.out or os.path.join(OUT_DIR, "results.json"),
               "layers", result)
    return code


def cmd_compare(args: argparse.Namespace) -> int:
    return compare_files(args.a, args.b)


def cmd_driver(args: argparse.Namespace) -> int:
    """One workload; the last line is the driver's result object."""
    result, code = run_worker(
        args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace
    )
    if result is None:
        return code
    print_result(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return code


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes each measured section (N = rate x seconds)")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (compare takes medians)")
    parser.add_argument("--out", help="result file; sections are merged in")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no engine to measure ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"python3 -m bench {argv[0]}")
        if argv[0] == "run":
            _common(parser)
            parser.add_argument("--smoke", action="store_true",
                                help=f"N={SMOKE_TXNS} per workload, checks on")
            handler = cmd_run
        elif argv[0] == "trace":
            _common(parser)
            handler = cmd_trace
        elif argv[0] == "layers":
            parser.add_argument("--probe-seconds", type=float, default=1.0)
            parser.add_argument("--out")
            handler = cmd_layers
        else:
            parser.add_argument("a")
            parser.add_argument("b")
            handler = cmd_compare
        return handler(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_driver(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
