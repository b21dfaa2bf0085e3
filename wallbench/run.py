#!/usr/bin/env python3
"""Wall-clock benchmark of the repro library: one command, every workload.

    python3 wallbench/run.py --workload direct-oltp --seed 1 --seconds 15 --trace 0
    python3 wallbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the repository root (the library is imported from ``src/``).
Workloads run in fresh interpreters, children of this one, so no run
inherits another's heap.  ``--trace 0`` reports the end-to-end metrics
of one untraced run, made of three parts: each part is a fresh
interpreter that sets the workload up and runs a third of the timed
phase.  ``--trace 1`` makes an untraced and a traced run of the whole
timed phase, one interpreter each, and reports the per-layer metrics,
with the tracing overhead as the ratio of their throughputs.  The
end-to-end times are scaled to one host speed (``wallbench/hostspeed.py``)
and printed as measured too.

Every metric is printed by name with its unit, then the run's context.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when a correctness or durability check
failed, and 2 when a run crashed or overran (no result line then).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("direct-oltp", "travel-entangled", "process-shards",
                  "replica-reads")
#: wall-clock budget of one invocation for one workload, in seconds.
BUDGET_S = 170.0
#: fresh interpreters per untraced run.  Each sets the workload up once
#: and runs an equal share of the timed phase; the metrics pool them.
#: On a 2-vCPU virtual machine, back-to-back single-interpreter runs of
#: one workload fell into a fast and a slow group 1.5x apart, and pooling
#: parts from several interpreters averages over that.
PARTS = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Between this process and the children it starts.
    parser.add_argument("--role", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: one workload run in this interpreter ----------------------------------


def _child(args: argparse.Namespace) -> int:
    # Measure the library of this checkout, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The driving interpreter on one fixed CPU, so that the shard workers
    # of process-shards can have the others (workloads.place_workers).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from wallbench.driver import run_workload

    result = run_workload(args.workload, args.seed, args.seconds,
                          trace=args.role == "traced")
    print(json.dumps(result))
    return 0


def _spawn(args: argparse.Namespace, role: str, seconds: float,
           deadline: float) -> "dict | None":
    """Run one workload in a fresh interpreter; its result, or None."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds),
    ]
    # A session of its own, so an overrun kills the child's shard
    # worker processes too.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"{args.workload}: {role} run overran its budget",
              file=sys.stderr)
        return None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    if child.returncode != 0 or not out.strip():
        print(f"{args.workload}: {role} run exited {child.returncode}",
              file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


# -- parent: orchestrate, print ----------------------------------------------------


def _speed(part: dict) -> dict:
    """A part's host speed and its times as measured, for printing."""
    return {"task_ms": statistics.median(part["task_ms"]),
            "setup_s": part["setup_s"], **part["measured"]}


def _show(result: dict, names: list[tuple[str, str]], values: dict,
          parts: list[dict]) -> None:
    from wallbench.hostspeed import REFERENCE_S

    ctx = result["context"]
    print(f"== {result['workload']}  seed={ctx['seed']}  "
          f"wall={result['wall_s']:.2f}s  steps={result['steps']}")
    for name, unit in names:
        note = ""
        if name == "setup_s" and "setup_times_s" in result:
            note = "median of " + ", ".join(
                f"{t:.3f}" for t in result["setup_times_s"])
        elif name.startswith("latency_"):
            note = f"n={result['samples']}"
        elif name == "read_p50_ms":
            note = f"n={result['read_samples']}"
        elif name == "write_p50_ms":
            note = f"n={result['write_samples']}"
        elif name == "fail_ratio":
            note = f"{result['failed']} of {result['attempted']}"
        elif name == "peak_rss_mb":
            note = f"{result['rss_after_setup_mb']:.1f} MB after set-up"
        elif name == "recovery_s" and result["recovery"]:
            note = f"{result['recovery']['wal_records']:.0f} WAL records"
        if name in values:
            print(f"  {name:40s} {values[name]:14.6g} {unit:6s} {note}")
    print(f"  host: nproc={ctx['nproc']} (CPUs used: {ctx['cpus_used']}) "
          f"python={ctx['python']} PYTHONHASHSEED={ctx['hash_seed']} "
          f"platform={ctx['platform']}")
    speeds = [_speed(part) for part in parts]
    print(f"  host speed: calibration task "
          + "/".join(f"{s['task_ms']:.3f}" for s in speeds)
          + f" ms per interpreter (end-to-end times are scaled to "
          f"{REFERENCE_S * 1e3:g} ms); as measured: setup_s "
          + "/".join(f"{s['setup_s']:.3f}" for s in speeds)
          + ", throughput_tps "
          + "/".join(f"{s['throughput_tps']:.1f}" for s in speeds)
          + ", latency_p50_ms "
          + "/".join(f"{s['latency_p50_ms']:.4f}" for s in speeds))
    print(f"  wal: flush_latency={ctx['wal']['flush_latency_s']} "
          f"({ctx['wal']['policy']})")
    print(f"  gc: collections per generation in the timed phase "
          f"{result['gc_collections']}, thresholds {ctx['gc_threshold']}")
    if result.get("audits"):
        print(f"  audits served: {result['audits']}")
    if result["failures"]:
        print(f"  failures: {result['failures']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'ok' if result['correct'] else 'FAILED'}")


def _merge(parts: list[dict]) -> dict:
    """One run's result from its parts, for printing."""
    from wallbench.metrics import end_to_end

    merged = dict(parts[0])
    for key in ("attempted", "failed", "committed", "samples",
                "read_samples", "write_samples", "steps", "wall_s"):
        merged[key] = sum(part[key] for part in parts)
    merged["correct"] = all(part["correct"] for part in parts)
    merged["setup_times_s"] = [part["ref_setup_s"] for part in parts]
    merged["problems"] = [p for part in parts for p in part["problems"]]
    merged["rss_after_setup_mb"] = max(
        part["rss_after_setup_mb"] for part in parts)
    merged["gc_collections"] = [
        sum(counts) for counts in zip(*(part["gc_collections"] for part in parts))]
    for key in ("failures", "audits"):
        merged[key] = dict(sum((Counter(part.get(key) or {}) for part in parts),
                               Counter()))
    if merged["recovery"]:
        merged["recovery"] = {"wal_records": statistics.median(
            part["recovery"]["wal_records"] for part in parts)}
    merged["metrics"] = end_to_end(parts)
    return merged


def _run_one(args: argparse.Namespace, deadline: float) -> "dict | None":
    """One workload: ``{correct, attempted, failed, metrics}`` or None."""
    from wallbench.metrics import END_TO_END, SIDE_METRICS, per_layer_names

    if not args.trace:
        parts = []
        for _ in range(PARTS):
            part = _spawn(args, "plain", args.seconds / PARTS, deadline)
            if part is None:
                return None
            parts.append(part)
        result = _merge(parts)
        _show(result, list(END_TO_END + SIDE_METRICS), result["metrics"],
              parts)
        names, values = END_TO_END, result["metrics"]
        correct = result["correct"]
    else:
        plain = _spawn(args, "plain", args.seconds, deadline)
        if plain is None:
            return None
        result = _spawn(args, "traced", args.seconds, deadline)
        if result is None:
            return None
        values = dict(result["layers"])
        values["trace.overhead_ratio"] = (
            plain["metrics"]["throughput_tps"]
            / result["metrics"]["throughput_tps"])
        names = per_layer_names()
        _show(result, names, values, [plain, result])
        print(f"  untraced throughput_tps {plain['metrics']['throughput_tps']:.6g}"
              f", traced {result['metrics']['throughput_tps']:.6g}")
        correct = plain["correct"] and result["correct"]
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.role:
        return _child(args)
    sys.path.insert(0, str(ROOT))
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in workloads:
        args.workload = name
        outcome = _run_one(args, time.monotonic() + BUDGET_S)
        if outcome is None:
            return 2
        outcomes[name] = outcome
    if len(outcomes) == 1:
        line = outcomes[workloads[0]]
    else:
        line = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, o in outcomes.items()
                        for metric, value in o["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
