"""Names and units of the reported metrics, and the percentile rule.

Importable without the library, so the command line can name the
metrics even where the library cannot be imported.
"""

from __future__ import annotations

import math
import statistics

from wallbench.tracer import GC_LAYER, LAYER_NAMES

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_tps", "txn/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: reported next to the end-to-end metrics, but not in the result line:
#: ``fail_ratio`` is 0 on a healthy run and ``recovery_s`` exists on
#: ``direct-oltp`` only.
SIDE_METRICS = (("fail_ratio", "1"), ("recovery_s", "s"))


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def per_layer_names() -> list[tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, in report order."""
    names = []
    for layer in LAYER_NAMES:
        if layer == "storage.load":
            names += [("storage.load.ms_per_setup", "ms"),
                      ("storage.load.calls_per_setup", "count")]
        else:
            names += [(f"{layer}.self_ms_per_txn", "ms"),
                      (f"{layer}.calls_per_txn", "count")]
    names += [
        (f"{GC_LAYER}.pause_ms_per_txn", "ms"),
        (f"{GC_LAYER}.gen2_collections", "count"),
        ("core.engine.runs_per_round", "count"),
        ("entangled.answer_ratio", "1"),
        ("storage.snapshot.max_version_chain", "count"),
        ("storage.locks.waits", "count"),
        ("storage.locks.acquires_per_txn", "count"),
        ("storage.ssi.abort_ratio", "1"),
        ("storage.wal.records_per_commit", "count"),
        ("storage.wal.flushes_per_commit", "count"),
        ("storage.sharding.cross_shard_share", "1"),
        ("transport.round_trips_per_txn", "count"),
        ("transport.rtt_p50_us", "us"),
        ("replication.follower_read_share", "1"),
        ("unattributed_ms_per_txn", "ms"),
        ("trace.overhead_ratio", "1"),
    ]
    return names


def end_to_end(parts: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one run made of ``parts``.

    Each part is a :func:`wallbench.driver.run_workload` result from a
    fresh interpreter: its set-up time, wall time and latencies (seconds)
    at the reference speed of :mod:`wallbench.hostspeed`, its counts and
    its peak RSS.  ``setup_s`` and ``recovery_s`` are medians over the
    parts (``recovery_s``, as measured, only when the parts ran the
    durability check).  The other metrics pool the parts.
    """
    def pooled(key: str) -> list[float]:
        return [value for part in parts for value in part[key]]

    def ms(values: list[float], share: float) -> float:
        return percentile(values, share) * 1e3 if values else 0.0

    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    metrics = {
        "setup_s": statistics.median(part["ref_setup_s"] for part in parts),
        "throughput_tps": (sum(part["committed"] for part in parts)
                           / sum(part["ref_wall_s"] for part in parts)),
        "latency_p50_ms": ms(pooled("latencies"), 0.5),
        "latency_p99_ms": ms(pooled("latencies"), 0.99),
        "read_p50_ms": ms(pooled("read_latencies"), 0.5),
        "write_p50_ms": ms(pooled("write_latencies"), 0.5),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "fail_ratio": failed / attempted if attempted else 0.0,
    }
    recoveries = [part["recovery"]["recovery_s"] for part in parts
                  if part.get("recovery")]
    if recoveries:
        metrics["recovery_s"] = statistics.median(recoveries)
    return metrics
