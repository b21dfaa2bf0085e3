"""Run one workload in this interpreter and summarise it.

:func:`run_workload` sets the workload up once (timing the set-up), runs
the timed phase as a closed loop, checks the answers and returns a
JSON-ready result: the end-to-end metrics, the per-layer metrics when
traced, the checks' findings and the run's context (host, seed, flush
policy, collector counters).  The end-to-end times are scaled to one
host speed (:mod:`wallbench.hostspeed`); the per-layer times are not.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time

from wallbench import hostspeed
from wallbench.metrics import end_to_end, percentile
from wallbench.tracer import GC_LAYER, LAYER_NAMES, Tracer
from wallbench.workloads import WORKLOADS, Recorder, worker_pids


def _cpus_used(store) -> list[int]:
    """The CPUs this interpreter and the store's workers may run on."""
    if not hasattr(os, "sched_getaffinity"):
        return list(range(os.cpu_count() or 1))
    cpus = set(os.sched_getaffinity(0))
    for pid in worker_pids(store):
        cpus |= os.sched_getaffinity(pid)
    return sorted(cpus)


def context(seed: int, store) -> dict:
    """Where and how a run was made."""
    wals = store.wals() if store is not None else []
    return {
        "nproc": os.cpu_count(),
        "cpus_used": _cpus_used(store),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "wal": {
            "flush_latency_s": wals[0].flush_latency if wals else None,
            "policy": "in-memory log, commit flushes its shard's WAL",
        },
        "gc_threshold": gc.get_threshold(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _probe_counts(store) -> tuple[int, int]:
    """``(follower reads, snapshot probes)`` so far on a replicated store."""
    probes = getattr(store, "read_probe_counts", None)
    if probes is None:
        return 0, 0
    return store.follower_read_count, sum(probes().values())


def layer_metrics(tracer: Tracer, rec: Recorder, wall_s: float, rounds: int,
                  store, follower_reads: int, probes: int,
                  load: dict) -> dict[str, float]:
    """The per-layer metrics of a traced timed phase."""
    txns = rec.committed
    per_txn_ms = lambda ns: _ratio(ns / 1e6, txns)  # noqa: E731
    out: dict[str, float] = {}
    for layer in LAYER_NAMES:
        stats = tracer.layer(layer)
        if layer == "storage.load":
            out["storage.load.ms_per_setup"] = load["total_ns"] / 1e6
            out["storage.load.calls_per_setup"] = load["calls"]
            continue
        out[f"{layer}.self_ms_per_txn"] = per_txn_ms(stats["self_ns"])
        out[f"{layer}.calls_per_txn"] = _ratio(stats["calls"], txns)
    entry = tracer.entry_calls
    rtt = sorted(tracer.rtt_ns)
    out.update({
        f"{GC_LAYER}.pause_ms_per_txn": per_txn_ms(tracer.gc_ns),
        f"{GC_LAYER}.gen2_collections": tracer.gc_gen2,
        "core.engine.runs_per_round": _ratio(
            tracer.layer("core.engine")["calls"], rounds),
        "entangled.answer_ratio": _ratio(
            tracer.coordination_answers, tracer.coordination_attempts),
        "storage.snapshot.max_version_chain":
            store.version_stats()["max_chain"],
        "storage.locks.waits": tracer.lock_waits,
        "storage.locks.acquires_per_txn": _ratio(
            entry("repro.storage.locks:LockManager.acquire"), txns),
        "storage.ssi.abort_ratio": _ratio(
            tracer.ssi_aborts, entry("repro.storage.ssi:SSITracker.on_commit")),
        "storage.wal.records_per_commit": _ratio(
            entry("repro.storage.wal:WriteAheadLog.append"), txns),
        "storage.wal.flushes_per_commit": _ratio(
            entry("repro.storage.wal:WriteAheadLog.flush")
            + entry("repro.transport.proxy:WalReplica.flush"), txns),
        "storage.sharding.cross_shard_share": _ratio(
            tracer.cross_shard_commits, tracer.sharded_commits),
        "transport.round_trips_per_txn": _ratio(len(rtt), txns),
        "transport.rtt_p50_us": percentile(rtt, 0.5) / 1e3 if rtt else 0.0,
        "replication.follower_read_share": _ratio(follower_reads, probes),
        "unattributed_ms_per_txn": per_txn_ms(
            wall_s * 1e9 - tracer.attributed_ns()),
    })
    return out


def _maxrss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024


def _largest_worker_rss_mb(store) -> float:
    """Peak RSS of the store's largest shard worker process, or 0.

    Read from each worker's ``VmHWM``: ``RUSAGE_CHILDREN`` would also
    count any forked helper (``platform`` forks one), whose peak is this
    process's own resident set.
    """
    peaks = [0.0]
    for pid in worker_pids(store):
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) / 1024)
        except OSError:
            pass
    return max(peaks)


def run_workload(
    name: str,
    seed: int,
    seconds: float | None = None,
    *,
    trace: bool = False,
    max_steps: int | None = None,
    sizes: dict | None = None,
) -> dict:
    """Set up, run and check one workload; returns the result dict.

    The timed phase follows the workload's ``warmup_steps`` untimed
    steps and lasts ``seconds`` or, for tests, ``max_steps`` steps.
    ``sizes`` overrides the workload's data sizes (tests use small
    ones).  The latencies, ``ref_wall_s`` and ``ref_setup_s`` are at the
    reference speed of :mod:`wallbench.hostspeed`; ``wall_s``,
    ``setup_s`` and ``measured`` are as measured.
    """
    if (seconds is None) == (max_steps is None):
        raise ValueError("give exactly one of seconds and max_steps")
    cls = WORKLOADS[name]
    tracer = Tracer().install() if trace else None
    try:
        workload = cls(seed, **(sizes or {}))
        task_before = hostspeed.task_seconds()
        start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - start
        setup_factor = hostspeed.REFERENCE_S / statistics.fmean(
            (task_before, hostspeed.task_seconds()))
        rss_after_setup = _maxrss_mb(resource.RUSAGE_SELF)
        load = tracer.layer("storage.load") if tracer else None
        # Warm up untimed: a fresh interpreter's first transactions pay
        # for lazy imports and first-use caches.  A warm-up transaction
        # that fails still counts as attempted and failed.
        warm = Recorder()
        for _ in range(cls.warmup_steps):
            workload.step(warm)
        first_step = workload.steps
        if tracer:
            tracer.reset()
        store = workload.store
        reads_before, probes_before = _probe_counts(store)
        gc_before = [s["collections"] for s in gc.get_stats()]
        rec = Recorder()
        rec.attempted = rec.failed = warm.failed
        rec.failures.update(warm.failures)
        # The calibration runs on the workers' CPUs too, when there are
        # workers.
        windows = hostspeed.Windows(
            rec, _cpus_used(store) if worker_pids(store) else ())
        deadline = time.perf_counter() + (seconds or 0.0)
        while (workload.steps - first_step < max_steps
               if max_steps is not None else time.perf_counter() < deadline):
            workload.step(rec)
            windows.tick()
        windows.close()
        steps = workload.steps - first_step
        wall_s = windows.wall_s
        peak_rss = _maxrss_mb(resource.RUSAGE_SELF)
        gc_after = [s["collections"] for s in gc.get_stats()]
        reads_after, probes_after = _probe_counts(store)
        layers = None
        if tracer:
            tracer.uninstall()
            layers = layer_metrics(
                tracer, rec, wall_s, steps, store,
                reads_after - reads_before, probes_after - probes_before, load)
        run_context = context(seed, store)
        problems = workload.check()
        digest = hashlib.sha256(
            repr(workload.final_tables).encode()).hexdigest()
        recovery = None
        if workload.durability_check:
            seconds_, records, lost = workload.durability()
            recovery = {"recovery_s": seconds_, "wal_records": records}
            problems += lost
        peak_rss += _largest_worker_rss_mb(store)
        workload.teardown()
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "workload": name,
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "committed": rec.committed,
        "samples": len(rec.latencies),
        "read_samples": len(rec.read_latencies),
        "write_samples": len(rec.write_latencies),
        "steps": steps,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "ref_wall_s": windows.reference_wall_s,
        "ref_setup_s": setup_s * setup_factor,
        "task_ms": windows.task_ms(),
        "rss_after_setup_mb": rss_after_setup,
        "peak_rss_mb": peak_rss,
        "latencies": windows.scaled(0, rec.latencies),
        "read_latencies": windows.scaled(1, rec.read_latencies),
        "write_latencies": windows.scaled(2, rec.write_latencies),
        "measured": {
            "throughput_tps": _ratio(rec.committed, wall_s),
            "latency_p50_ms": percentile(rec.latencies, 0.5) * 1e3
            if rec.latencies else 0.0,
        },
        "layers": layers,
        "problems": problems,
        "tables_sha256": digest,
        "failures": dict(rec.failures),
        "recovery": recovery,
        "gc_collections": [b - a for a, b in zip(gc_before, gc_after)],
        "context": run_context,
    }
    if getattr(workload, "audits", None):
        result["audits"] = dict(workload.audits)
    result["metrics"] = end_to_end([result])
    return result
