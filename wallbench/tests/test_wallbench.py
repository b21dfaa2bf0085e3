"""Tests of the wall-clock benchmark: tracer counts, determinism, checks.

Small data sizes and fixed step counts keep these fast; the benchmark
proper runs from ``wallbench/run.py``.
"""

from __future__ import annotations

import gc
import json
import os
from pathlib import Path

import pytest

from wallbench import hostspeed
from wallbench import run as cli
from wallbench.driver import run_workload
from wallbench.metrics import END_TO_END, end_to_end, per_layer_names
from wallbench.tracer import LAYER_NAMES, Tracer
from wallbench.workloads import (
    DirectOLTP,
    ProcessShards,
    Recorder,
    ReplicaReads,
    TravelEntangled,
    worker_pids,
)

ROOT = Path(__file__).resolve().parents[2]
SMALL = {
    "direct-oltp": {"accounts": 200},
    "process-shards": {"accounts": 200},
    "replica-reads": {"accounts": 200},
    "travel-entangled": {"users": 300, "pairs_per_round": 4},
}


def calls(tracer: Tracer) -> dict[str, int]:
    return {name: tracer.layer(name)["calls"] for name in LAYER_NAMES}


@pytest.fixture
def tracer():
    tracer = Tracer().install()
    yield tracer
    tracer.uninstall()


@pytest.fixture
def bank():
    workload = DirectOLTP(5, **SMALL["direct-oltp"])
    workload.setup()
    yield workload
    if workload.client is not None:
        workload.teardown()


# -- tracer ---------------------------------------------------------------------------


def test_point_reads_count_one_parse_compile_and_query_each(tracer, bank):
    tracer.reset()
    rec = Recorder()
    for _ in range(7):
        bank._point_read(rec)
    counts = calls(tracer)
    # Session.transaction, StorageTransaction.query, __exit__ (its commit
    # is folded into the __exit__ span).
    assert counts["client"] == 21
    # repro.client binds parse_statement / compile_select by name; the
    # counts prove those bindings are traced.
    assert counts["sql.parse"] == 7
    assert counts["sql.compile"] == 7
    assert counts["storage.query"] == 7
    assert counts["storage.commit"] == 7
    assert counts["storage.write"] == 0
    assert counts["transport"] == counts["replication"] == 0


def test_transfers_count_three_statements_each(tracer, bank):
    tracer.reset()
    rec = Recorder()
    for _ in range(5):
        bank._transfer(rec)
    counts = calls(tracer)
    assert counts["sql.parse"] == counts["sql.compile"] == 15
    assert counts["storage.write"] == 15
    assert counts["storage.commit"] == 5
    assert tracer.entry_calls("repro.storage.wal:WriteAheadLog.flush") == 5
    assert rec.committed == 5


def test_travel_round_counts_batch_and_interactive_layers(tracer):
    workload = TravelEntangled(3, **SMALL["travel-entangled"])
    workload.setup()
    try:
        tracer.reset()
        rec = Recorder()
        workload.step(rec)  # three batch pairs, one interactive pair
    finally:
        workload.teardown()
    counts = calls(tracer)
    assert (rec.attempted, rec.failed) == (9, 0)
    # 6 submitted programs, 4 interactive statements, 2 read-back queries.
    assert counts["sql.parse"] == 12
    assert counts["core.engine"] == 1
    # 4 InteractiveSession.execute, 2 commit, 1 match_round.
    assert counts["core.interactive"] == 7
    # repro.entangled.evaluator binds ground / find_coordinating_set by
    # name: 6 batch queries plus 2 interactive ones, in two rounds.
    assert counts["entangled.grounding"] == 8
    assert counts["entangled.matching"] == 2
    assert tracer.coordination_answers == tracer.coordination_attempts == 8


def test_tracer_self_times_add_up_and_uninstall_restores(bank):
    import repro.client
    from repro.sql import parser

    original = parser.parse_statement
    tracer = Tracer().install()
    assert repro.client.parse_statement is not original
    rec = Recorder()
    for _ in range(20):
        bank.step(rec)
    tracer.uninstall()
    assert repro.client.parse_statement is original
    assert parser.parse_statement is original
    for name in LAYER_NAMES:
        layer = tracer.layer(name)
        assert 0 <= layer["self_ns"] <= layer["total_ns"]
    client = tracer.layer("client")
    assert tracer.attributed_ns() <= client["total_ns"] + tracer.gc_ns


# -- runs ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["direct-oltp", "travel-entangled"])
def test_traced_and_untraced_runs_end_with_identical_tables(name):
    steps = 3 if name == "travel-entangled" else 150
    plain = run_workload(name, 11, max_steps=steps,
                         sizes=SMALL[name])
    traced = run_workload(name, 11, max_steps=steps,
                          sizes=SMALL[name], trace=True)
    assert plain["correct"] and traced["correct"]
    assert plain["tables_sha256"] == traced["tables_sha256"]
    assert plain["committed"] == traced["committed"] > 0


COUNT_SUFFIXES = ("calls_per_txn", "round_trips_per_txn", "records_per_commit",
                  "flushes_per_commit", "acquires_per_txn", "cross_shard_share",
                  "runs_per_round", "answer_ratio", "storage.locks.waits",
                  "calls_per_setup")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_count_metrics_repeat_exactly_for_one_seed(name):
    steps = 3 if name == "travel-entangled" else 120
    runs = [run_workload(name, 4, max_steps=steps,
                         sizes=SMALL[name], trace=True) for _ in range(2)]
    assert all(run["correct"] for run in runs)
    counts = [{k: v for k, v in run["layers"].items()
               if k.endswith(COUNT_SUFFIXES)} for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["client.calls_per_txn"] > 0
    if name == "process-shards":
        assert counts[0]["transport.round_trips_per_txn"] > 0
    if name == "replica-reads":
        assert runs[0]["layers"]["replication.calls_per_txn"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    result = run_workload("direct-oltp", 2, seconds=0.5,
                          sizes=SMALL["direct-oltp"])
    assert result["correct"], result["problems"]
    assert result["metrics"]["setup_s"] == result["ref_setup_s"] > 0
    assert result["setup_s"] > 0 and result["task_ms"]
    for name, _unit in END_TO_END:
        assert result["metrics"][name] > 0, name
    assert result["metrics"]["fail_ratio"] == 0
    assert result["recovery"]["wal_records"] > 0
    assert result["context"]["wal"]["flush_latency_s"] == 0.0


def _part(latencies: list[float]) -> dict:
    return {"ref_setup_s": 1.0, "latencies": latencies, "read_latencies": [],
            "write_latencies": latencies, "committed": len(latencies),
            "ref_wall_s": 1.0, "attempted": len(latencies), "failed": 0,
            "peak_rss_mb": 1.0}


def test_p99_pools_the_parts():
    calm = [1.0] * 980 + [5.0] * 20
    # 40 slow transactions in one part are 1.3% of the run's 3000.
    slow_part = [1.0] * 800 + [9.0] * 40 + [1.0] * 160
    p99 = lambda parts: end_to_end(  # noqa: E731
        [_part(p) for p in parts])["latency_p99_ms"] / 1e3
    assert p99([calm] * 3) == 5.0
    assert p99([calm, slow_part, calm]) == 9.0


def test_each_window_scales_its_own_samples(monkeypatch):
    # The calibration task takes the reference time in the first window
    # and twice as long in the second: the host ran at half speed there.
    task = iter([hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S])
    monkeypatch.setattr(hostspeed, "task_seconds", lambda _cpus: next(task))
    rec = Recorder()
    windows = hostspeed.Windows(rec)
    rec.ok(False, 1.0)
    rec.ok(True, 2.0)
    windows.close()
    rec.ok(True, 4.0)
    windows.close()
    assert windows.scaled(0, rec.latencies) == [1.0, 2.0, 2.0]
    assert windows.scaled(1, rec.read_latencies) == [1.0]
    assert windows.scaled(2, rec.write_latencies) == [2.0, 2.0]
    assert windows.task_ms() == [0.2, 0.4]
    first, second = (window[3] for window in windows.windows)
    assert windows.reference_wall_s == pytest.approx(first + second / 2)


def test_calibration_task_leaves_affinity_and_collector_as_they_were():
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else []
    before = set(cpus)
    assert hostspeed.task_seconds(cpus) > 0
    assert hostspeed.task_seconds() > 0
    assert gc.isenabled()
    if cpus:
        assert os.sched_getaffinity(0) == before


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs")
def test_shard_workers_run_apart_from_a_pinned_driver():
    allowed = os.sched_getaffinity(0)
    driver_cpu = min(allowed)
    os.sched_setaffinity(0, {driver_cpu})
    try:
        workload = ProcessShards(1, accounts=50)
        workload.setup()
        try:
            pids = worker_pids(workload.store)
            assert len(pids) == 2
            for pid in pids:
                assert driver_cpu not in os.sched_getaffinity(pid)
        finally:
            workload.teardown()
    finally:
        os.sched_setaffinity(0, allowed)


# -- checks catch tampering --------------------------------------------------------------


def _run_bank(cls, steps=150):
    workload = cls(9, accounts=200)
    workload.setup()
    rec = Recorder()
    for _ in range(steps):
        workload.step(rec)
    return workload, rec


@pytest.mark.parametrize("cls", [DirectOLTP, ProcessShards, ReplicaReads])
def test_clean_bank_run_passes_its_checks(cls):
    workload, rec = _run_bank(cls)
    try:
        assert rec.failed == 0
        assert workload.check() == []
    finally:
        workload.teardown()


def test_dropped_transfer_fails_the_ledger_check(bank):
    rec = Recorder()
    for _ in range(150):
        bank.step(rec)
    lid = max(bank.ledger)
    # The database loses one acknowledged transfer's ledger row.
    with bank.client.session("vandal").transaction() as txn:
        txn.execute(f"DELETE FROM Ledger WHERE lid = {lid}")
    problems = bank.check()
    assert any("ledger differs" in p and str(lid) in p for p in problems)


def test_unacknowledged_money_fails_the_conservation_check(bank):
    rec = Recorder()
    for _ in range(50):
        bank.step(rec)
    with bank.client.session("vandal").transaction() as txn:
        txn.execute("UPDATE Accounts SET balance = balance + 1 WHERE id = 0")
    problems = bank.check()
    assert any("account total" in p for p in problems)


def test_wrong_read_counts_as_failed_and_fails_the_run(bank):
    rec = Recorder()
    bank.balances[3] += 1  # the record disagrees with the database
    for _ in range(400):
        bank.step(rec)
    assert rec.failures["wrong-answer"] >= 1
    assert bank.problems


def test_commit_acknowledged_before_its_flush_fails_durability(bank):
    rec = Recorder()
    for _ in range(200):
        bank.step(rec)
    # Pretend the last transfer was acknowledged without its WAL flush:
    # the crash then loses it.
    wal = bank.client.store.wal
    records = list(wal.records())
    lid = max(bank.ledger)
    txn = next(r.txn for r in records
               if r.table == "Ledger" and r.after and r.after[0] == lid)
    commit = next(r for r in records
                  if r.txn == txn and r.type.name == "COMMIT")
    wal._flushed_lsn = commit.lsn - 1
    _seconds, _records, problems = bank.durability()
    assert problems


def test_clean_durability_check_passes(bank):
    rec = Recorder()
    for _ in range(200):
        bank.step(rec)
    seconds, records, problems = bank.durability()
    assert problems == []
    assert seconds > 0 and records > 0


# -- command line ---------------------------------------------------------------------


def test_cli_exits_nonzero_and_reports_a_failed_check(monkeypatch, capsys):
    result = run_workload("direct-oltp", 3, max_steps=50,
                          sizes=SMALL["direct-oltp"])
    result["correct"] = False
    result["problems"] = ["final tables: ledger differs"]
    monkeypatch.setattr(cli, "_spawn", lambda *_a, **_k: result)
    code = cli.main(["--workload", "direct-oltp", "--seed", "3",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    line = json.loads(out[-1])
    assert code == 1
    assert line["correct"] is False
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert "CHECK FAILED: final tables: ledger differs" in "\n".join(out)


def test_cli_prints_no_result_when_a_run_crashes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_spawn", lambda *_a, **_k: None)
    code = cli.main(["--workload", "replica-reads", "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cli.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
