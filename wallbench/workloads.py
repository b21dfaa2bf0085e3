"""The benchmark's workloads: set-up, one closed-loop step, answer checks.

Every workload is generated from one seed and driven by one thread
through the public API.  The driver calls :meth:`setup` (timed as
``setup_s``), then :meth:`step` until the timed phase ends, then
:meth:`check` and :meth:`teardown`.  A step is one transaction on the
bank workloads and one round of friend pairs on ``travel-entangled``;
each transaction's outcome and latency go to a :class:`Recorder`.

Each workload also keeps its own record of what it was told had
committed (balances, ledger rows, bookings).  Reads are compared with it
as they return, and :meth:`check` compares the final tables with it.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter

import repro
from repro import ColumnType, ReproError, SessionState, TableSchema
from repro.storage import recover
from repro.workloads import (
    SocialNetwork,
    TravelDatabase,
    WorkloadKind,
    generate_workload,
)

INITIAL_BALANCE = 1_000


def worker_pids(store) -> list[int]:
    """The shard worker processes of ``store`` (none in-process)."""
    return getattr(store, "worker_pids", lambda: [])()


def place_workers(store) -> None:
    """Move each shard worker of ``store`` to a CPU the driving
    interpreter does not use, round-robin over those CPUs.

    Run pinned to one CPU (as ``run.py`` does), the interpreter and the
    workers then use ``nproc`` CPUs between them, with every worker on
    a fixed CPU.  Workers stay where they are when the interpreter may
    use every CPU.
    """
    pids = worker_pids(store)
    if not pids or not hasattr(os, "sched_setaffinity"):
        return
    spare = sorted(set(range(os.cpu_count() or 1)) - os.sched_getaffinity(0))
    for i, pid in enumerate(pids if spare else ()):
        try:
            os.sched_setaffinity(pid, {spare[i % len(spare)]})
        except OSError:  # a CPU outside this container's set
            pass


class Recorder:
    """Outcome and latency (seconds) of every transaction issued."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.read_latencies: list[float] = []
        self.write_latencies: list[float] = []
        self.failures: Counter = Counter()

    @property
    def committed(self) -> int:
        return self.attempted - self.failed

    def ok(self, write: bool, seconds: float) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        (self.write_latencies if write else self.read_latencies).append(seconds)

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures[reason] += 1


# -- bank workloads -----------------------------------------------------------------


def bank_schemas() -> list[TableSchema]:
    return [
        TableSchema.build(
            "Accounts",
            [("id", ColumnType.INTEGER), ("balance", ColumnType.INTEGER)],
            primary_key=["id"],
        ),
        TableSchema.build(
            "Ledger",
            [("lid", ColumnType.INTEGER), ("src", ColumnType.INTEGER),
             ("dst", ColumnType.INTEGER), ("amount", ColumnType.INTEGER)],
            primary_key=["lid"],
            indexes=[["src"]],
        ),
    ]


class BankWorkload:
    """Accounts plus an append-only ledger, driven by one session's
    direct transactions (``Session.transaction()``).

    A step draws one transaction from the mix: a point read by primary
    key, a 20-row primary-key range scan, or a transfer (two ``UPDATE``s
    and one ``Ledger`` ``INSERT``).  Every ``audit_every``-th read is
    instead a full-table audit that sums every balance.
    """

    name = ""
    connect_args: dict = {}
    accounts = 10_000
    point_share = 0.7
    scan_share = 0.0
    audit_every = 0
    durability_check = False
    warmup_steps = 200

    def __init__(self, seed: int, *, accounts: int | None = None) -> None:
        self.seed = seed
        if accounts is not None:
            self.accounts = accounts
        self.rng = random.Random(seed)
        self.client = None
        self.balances: list[int] = []
        #: acknowledged transfers, ``lid -> (src, dst, amount)``.
        self.ledger: dict[int, tuple[int, int, int]] = {}
        self.problems: list[str] = []
        self.reads = 0
        self.audits = Counter()
        self.steps = 0
        self._next_lid = 1

    # -- set-up / teardown ---------------------------------------------------------

    def setup(self) -> None:
        self.client = repro.connect(**self.connect_args)
        place_workers(self.store)
        for schema in bank_schemas():
            self.client.create_table(schema)
        self.client.load(
            "Accounts", ((i, INITIAL_BALANCE) for i in range(self.accounts)))
        self.balances = [INITIAL_BALANCE] * self.accounts
        self.session = self.client.session("teller")

    def teardown(self) -> None:
        if self.client is not None and not self.client.closed:
            self.client.close(checkpoint=False)
        self.client = None

    @property
    def store(self):
        return self.client.store

    # -- the closed loop -------------------------------------------------------------

    def step(self, rec: Recorder) -> None:
        self.steps += 1
        draw = self.rng.random()
        if draw < self.point_share + self.scan_share:
            self.reads += 1
            if self.audit_every and self.reads % self.audit_every == 0:
                self._audit(rec)
            elif draw < self.point_share:
                self._point_read(rec)
            else:
                self._range_scan(rec)
        else:
            self._transfer(rec)

    def _read(self, rec: Recorder, sql: str):
        """Run one read-only transaction; None when it failed."""
        start = time.perf_counter()
        try:
            with self.session.transaction() as txn:
                rows = txn.query(sql)
        except ReproError as exc:
            rec.fail(type(exc).__name__)
            return None
        rec.ok(False, time.perf_counter() - start)
        return rows

    def _wrong(self, rec: Recorder, what: str) -> None:
        """A committed read returned a wrong answer."""
        rec.failed += 1
        rec.failures["wrong-answer"] += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def _point_read(self, rec: Recorder) -> None:
        key = self.rng.randrange(self.accounts)
        rows = self._read(
            rec, f"SELECT balance FROM Accounts WHERE id = {key}")
        if rows is not None and rows != [(self.balances[key],)]:
            self._wrong(rec, f"point read of account {key} returned {rows}, "
                             f"expected {self.balances[key]}")

    def _range_scan(self, rec: Recorder) -> None:
        lo = self.rng.randrange(self.accounts - 20)
        rows = self._read(
            rec, f"SELECT id, balance FROM Accounts WHERE id >= {lo} "
                 f"AND id < {lo + 20} ORDER BY id")
        expected = [(i, self.balances[i]) for i in range(lo, lo + 20)]
        if rows is not None and rows != expected:
            self._wrong(rec, f"range scan from account {lo} returned {rows}")

    def _audit(self, rec: Recorder) -> None:
        served = getattr(self.store, "follower_read_count", 0)
        rows = self._read(rec, "SELECT id, balance FROM Accounts")
        if rows is None:
            return
        follower = getattr(self.store, "follower_read_count", 0) > served
        self.audits["follower" if follower else "leader"] += 1
        total = sum(balance for _id, balance in rows)
        if total != self.accounts * INITIAL_BALANCE:
            self._wrong(rec, f"audit ({'follower' if follower else 'leader'}) "
                             f"summed {total}, expected "
                             f"{self.accounts * INITIAL_BALANCE}")
        elif sorted(rows) != list(enumerate(self.balances)):
            self._wrong(rec, "audit saw the conserved total but wrong balances")

    def _transfer(self, rec: Recorder) -> None:
        src, dst = self.rng.sample(range(self.accounts), 2)
        amount = self.rng.randrange(1, 100)
        lid = self._next_lid
        self._next_lid += 1
        start = time.perf_counter()
        try:
            with self.session.transaction() as txn:
                txn.execute(f"UPDATE Accounts SET balance = balance - {amount} "
                            f"WHERE id = {src}")
                txn.execute(f"UPDATE Accounts SET balance = balance + {amount} "
                            f"WHERE id = {dst}")
                txn.execute(f"INSERT INTO Ledger (lid, src, dst, amount) "
                            f"VALUES ({lid}, {src}, {dst}, {amount})")
        except ReproError as exc:
            rec.fail(type(exc).__name__)
            return
        rec.ok(True, time.perf_counter() - start)
        self.balances[src] -= amount
        self.balances[dst] += amount
        self.ledger[lid] = (src, dst, amount)

    # -- checks ------------------------------------------------------------------------

    def tables(self) -> tuple[list, list]:
        """``(Accounts rows, Ledger rows)``, sorted, read through the API."""
        with self.client.session("auditor").transaction() as txn:
            accounts = txn.query("SELECT id, balance FROM Accounts")
            ledger = txn.query("SELECT lid, src, dst, amount FROM Ledger")
        return sorted(accounts), sorted(ledger)

    def check(self) -> list[str]:
        """Findings of the checks; sets :attr:`final_tables`."""
        problems = list(self.problems)
        accounts, ledger = self.final_tables = self.tables()
        problems += self.compare(accounts, ledger, "final tables")
        return problems

    def compare(self, accounts: list, ledger: list, where: str) -> list[str]:
        """Differences between table rows and the acknowledged commits."""
        problems = []
        total = sum(balance for _id, balance in accounts)
        if total != self.accounts * INITIAL_BALANCE:
            problems.append(f"{where}: account total {total} is not "
                            f"{self.accounts * INITIAL_BALANCE}")
        if accounts != list(enumerate(self.balances)):
            problems.append(f"{where}: account balances differ from the "
                            f"acknowledged transfers")
        expected = sorted((lid, *row) for lid, row in self.ledger.items())
        if ledger != expected:
            seen = {row[0] for row in ledger}
            missing = sorted(set(self.ledger) - seen)
            extra = sorted(seen - set(self.ledger))
            problems.append(f"{where}: ledger differs from the acknowledged "
                            f"transfers (missing {missing[:5]}, extra "
                            f"{extra[:5]}, {len(ledger)} rows vs "
                            f"{len(expected)})")
        return problems

    def durability(self) -> tuple[float, int, list[str]]:
        """Crash the store, recover it from the flushed WAL and compare
        it with the acknowledged commits.

        Returns ``(recovery seconds, WAL records replayed, problems)``;
        the client is unusable afterwards.
        """
        store = self.client.store
        start = time.perf_counter()
        survivor = store.crash()
        recover(survivor)
        seconds = time.perf_counter() - start
        records = sum(len(wal) for wal in survivor.wals())
        txn = survivor.begin()
        accounts = sorted(
            row.values for row in survivor.read_table(txn, "Accounts"))
        ledger = sorted(
            row.values for row in survivor.read_table(txn, "Ledger"))
        survivor.commit(txn)
        self.client.engine.close()
        self.client = None
        return seconds, records, self.compare(
            [tuple(r) for r in accounts], [tuple(r) for r in ledger],
            "after crash recovery")


class DirectOLTP(BankWorkload):
    """One shard, serial executor, SERIALIZABLE: the statement front end
    and the storage core with no entangled, transport or replication
    work."""

    name = "direct-oltp"
    connect_args = {"isolation": "serializable", "executor": "serial"}
    point_share = 0.7
    scan_share = 0.1
    durability_check = True


class ProcessShards(BankWorkload):
    """Two worker processes behind the frame transport, SNAPSHOT; about
    half of the transfers cross shards and commit through ordered 2PC."""

    name = "process-shards"
    connect_args = {"shards": 2, "executor": "process",
                    "isolation": "snapshot"}
    accounts = 4_000
    point_share = 0.7


class ReplicaReads(BankWorkload):
    """Two in-process shards with two followers each, SNAPSHOT: read
    heavy, so caught-up followers serve most snapshot probes, and every
    writing commit ships WAL before it is acknowledged."""

    name = "replica-reads"
    connect_args = {"shards": 2, "replicas": 2, "isolation": "snapshot"}
    accounts = 2_000
    point_share = 0.9
    # Audits are 0.45% of transactions, well under the 1% that
    # latency_p99_ms looks at; near 1% the p99 sat on the edge between
    # the audits and the slowest transfers and jumped between them.
    audit_every = 200


# -- travel-entangled -----------------------------------------------------------------


class _ClientCatalog:
    """The three ``Database`` calls ``TravelDatabase.populate`` makes,
    routed through the client so the load is WAL-logged."""

    def __init__(self, client) -> None:
        self._client = client

    def has_table(self, name: str) -> bool:
        return self._client.store.db.has_table(name)

    def create_table(self, schema: TableSchema) -> None:
        self._client.create_table(schema)

    def load(self, table: str, rows) -> int:
        return self._client.load(table, rows)


def same_flight_query(me: int, friend: int, home: str, dest: str) -> str:
    """An interactive entangled query: book the same flight as
    ``friend``, who must be a friend of ``me``."""
    return (
        f"SELECT {me}, fid AS @fid INTO ANSWER Reserve "
        f"WHERE ({me}, {friend}) IN (SELECT uid1, uid2 FROM Friends "
        f"WHERE uid1={me} AND uid2={friend}) "
        f"AND fid IN (SELECT fid FROM Flight WHERE source='{home}' "
        f"AND destination='{dest}') "
        f"AND ({friend}, fid) IN ANSWER Reserve CHOOSE 1"
    )


class TravelEntangled:
    """The paper's Entangled-T workload over the Appendix D travel DB,
    at 2PL isolation (``IsolationConfig.FULL``).

    A step is one round of ``pairs_per_round`` friend pairs.  Three
    pairs in four submit both Entangled-T programs with
    ``Session.run_script`` and are run by one ``drain()``.  Every fourth
    pair instead books the same flight statement by statement through
    two interactive sessions (``execute`` -> ``PendingAnswer`` ->
    ``pump()`` -> ``INSERT`` -> ``commit()``) and then reads both
    bookings back in a read-only direct transaction.
    """

    name = "travel-entangled"
    users = 2_000
    pairs_per_round = 12
    interactive_every = 4
    durability_check = False
    warmup_steps = 1

    def __init__(self, seed: int, *, users: int | None = None,
                 pairs_per_round: int | None = None) -> None:
        self.seed = seed
        if users is not None:
            self.users = users
        if pairs_per_round is not None:
            self.pairs_per_round = pairs_per_round
        self.client = None
        self.problems: list[str] = []
        #: committed bookings per user, from acknowledged commits.
        self.booked: Counter = Counter()
        self.steps = 0
        self._cursor = 0
        self._sessions: dict[int, object] = {}

    # -- set-up / teardown ---------------------------------------------------------

    def setup(self) -> None:
        self.client = repro.connect(isolation="full")
        network = SocialNetwork(n_users=self.users, seed=self.seed)
        travel = TravelDatabase(network, seed=self.seed)
        travel.populate(_ClientCatalog(self.client))
        items = generate_workload(
            WorkloadKind.ENTANGLED_T, travel, 2 * self.users)
        # generate_workload recycles its user-disjoint pairs; keep one
        # cycle, so a round never holds the same user twice.
        self.pairs: list[tuple] = []
        seen = set()
        for first, second in zip(items[::2], items[1::2]):
            if (first.uid, second.uid) in seen:
                break
            seen.add((first.uid, second.uid))
            home = travel.hometown_of(first.uid)
            dest = travel.shared_hometown_destination(first.uid)
            self.pairs.append((first, second, (
                same_flight_query(first.uid, second.uid, home, dest),
                same_flight_query(second.uid, first.uid, home, dest),
            )))
        if len(self.pairs) < self.pairs_per_round:
            raise ValueError(
                f"only {len(self.pairs)} disjoint friend pairs for rounds "
                f"of {self.pairs_per_round}")
        self.reader = self.client.session("concierge")

    def teardown(self) -> None:
        if self.client is not None and not self.client.closed:
            self.client.close(checkpoint=False)
        self.client = None

    @property
    def store(self):
        return self.client.store

    def _session(self, uid: int):
        session = self._sessions.get(uid)
        if session is None:
            session = self._sessions[uid] = self.client.session(f"user{uid}")
        return session

    # -- the closed loop -------------------------------------------------------------

    def step(self, rec: Recorder) -> None:
        batch, interactive = [], []
        for _ in range(self.pairs_per_round):
            pair = self.pairs[self._cursor % len(self.pairs)]
            self._cursor += 1
            if self._cursor % self.interactive_every == 0:
                interactive.append(pair)
            else:
                batch.append(pair)
        self.steps += 1
        self._batch(batch, rec)
        for pair in interactive:
            self._interactive(pair, rec)

    def _batch(self, pairs: list, rec: Recorder) -> None:
        submitted = []
        for pair in pairs:
            for item in pair[:2]:
                start = time.perf_counter()
                handle = self._session(item.uid).run_script(item.program)
                submitted.append((item.uid, handle, start))
        self.client.drain()
        end = time.perf_counter()
        for i in range(0, len(submitted), 2):
            committed = [h.succeeded for _uid, h, _start in submitted[i:i + 2]]
            if committed[0] != committed[1]:
                self.problems.append(
                    f"widowed pair: users {submitted[i][0]}/"
                    f"{submitted[i + 1][0]} committed {committed}")
        for uid, handle, start in submitted:
            if handle.succeeded:
                rec.ok(True, end - start)
                self.booked[uid] += 1
            else:
                rec.fail(handle.phase.value if handle.done else "unanswered")

    def _interactive(self, pair, rec: Recorder) -> None:
        first, second, (query_a, query_b) = pair
        a, b = first.uid, second.uid
        session_a = self.client.session(f"live{a}")
        session_b = self.client.session(f"live{b}")
        try:
            start_a = time.perf_counter()
            pending_a = session_a.execute(query_a)
            start_b = time.perf_counter()
            pending_b = session_b.execute(query_b)
            self.client.pump()
            if not (pending_a.done and pending_b.done):
                rec.fail("unanswered")
                rec.fail("unanswered")
                return
            fid_a = pending_a.bindings()["@fid"]
            fid_b = pending_b.bindings()["@fid"]
            session_a.execute(f"INSERT INTO Reserve (uid, fid) VALUES ({a}, @fid)")
            session_b.execute(f"INSERT INTO Reserve (uid, fid) VALUES ({b}, @fid)")
            session_a.commit()
            session_b.commit()
            end = time.perf_counter()
        except ReproError as exc:
            rec.fail(type(exc).__name__)
            rec.fail(type(exc).__name__)
            return
        finally:
            session_a.close()
            session_b.close()
        states = (session_a.state, session_b.state)
        if states != (SessionState.COMMITTED, SessionState.COMMITTED):
            rec.fail("aborted")
            rec.fail("aborted")
            if SessionState.COMMITTED in states:
                self.problems.append(f"widowed interactive pair {a}/{b}")
            return
        rec.ok(True, end - start_a)
        rec.ok(True, end - start_b)
        self.booked[a] += 1
        self.booked[b] += 1
        if fid_a != fid_b:
            self.problems.append(
                f"interactive pair {a}/{b} booked flights {fid_a}/{fid_b}")
        start = time.perf_counter()
        try:
            with self.reader.transaction() as txn:
                rows_a = txn.query(f"SELECT fid FROM Reserve WHERE uid = {a}")
                rows_b = txn.query(f"SELECT fid FROM Reserve WHERE uid = {b}")
        except ReproError as exc:
            rec.fail(type(exc).__name__)
            return
        rec.ok(False, time.perf_counter() - start)
        if (fid_a,) not in rows_a or (fid_a,) not in rows_b:
            self.problems.append(
                f"booking of flight {fid_a} for {a}/{b} not read back")

    # -- checks ------------------------------------------------------------------------

    def tables(self) -> list:
        with self.reader.transaction() as txn:
            return sorted(txn.query("SELECT uid, fid FROM Reserve"))

    def check(self) -> list[str]:
        """Findings of the checks; sets :attr:`final_tables`."""
        problems = list(self.problems)
        reserve = self.final_tables = self.tables()
        if len(reserve) != sum(self.booked.values()):
            problems.append(f"{len(reserve)} Reserve rows for "
                            f"{sum(self.booked.values())} committed bookings")
        per_user = Counter(uid for uid, _fid in reserve)
        wrong = [uid for uid in set(per_user) | set(self.booked)
                 if per_user[uid] != self.booked[uid]]
        if wrong:
            problems.append(f"Reserve rows differ from committed bookings "
                            f"for users {sorted(wrong)[:5]}")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (DirectOLTP, TravelEntangled, ProcessShards, ReplicaReads)
}
