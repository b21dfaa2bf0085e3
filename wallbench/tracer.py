"""Per-layer span tracer, installed from outside the library.

:class:`Tracer` replaces each layer's public entry points (listed in
:data:`LAYERS`) with wrappers that time a span around the call and count
it.  A span's *self time* is its duration minus the time of the spans it
encloses, so the self times of all layers plus the unattributed rest add
up to the wall time.  A call into a layer from inside a span of the same
layer (``parse_statement`` calling ``tokenize``, a sharded ``query``
calling a shard's ``query``) is folded into the outer span: one call is
one entry into the layer.

Module-level functions are rebound in every ``repro`` module that holds
them, so a ``from repro.sql.parser import parse_statement`` binding in
``repro.client`` is traced too.  Methods are replaced on the class that
defines them; subclasses that override a method are listed separately.

Garbage-collector pauses are the ``runtime.gc`` layer: each pause is
taken out of the self time of the span it interrupted.

Install before ``repro.connect()`` so that no engine captures an
unwrapped bound method, and call :meth:`Tracer.uninstall` afterwards.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import threading
import time

#: ``(layer, entry points)``; an entry point is ``module:function``,
#: ``module:Class.method`` or ``module:Class.*`` (every public method,
#: plus ``__exit__``).
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("client", (
        "repro.client:Session.*",
        "repro.client:StorageTransaction.*",
    )),
    ("sql.parse", (
        "repro.sql.parser:parse_statement",
        "repro.sql.parser:parse_transaction",
        "repro.sql.parser:parse_script",
        "repro.sql.lexer:tokenize",
    )),
    ("sql.compile", (
        "repro.sql.compiler:compile_select",
        "repro.sql.compiler:compile_insert",
        "repro.sql.compiler:compile_update",
        "repro.sql.compiler:compile_delete",
        "repro.sql.compiler:compile_entangled",
    )),
    ("core.engine", (
        "repro.core.engine:EntangledTransactionEngine.run_once",
    )),
    ("core.interpreter", (
        "repro.core.interpreter:run_until_block",
    )),
    ("core.interactive", (
        "repro.core.interactive:InteractiveSession.execute",
        "repro.core.interactive:InteractiveSession.commit",
        "repro.core.interactive:InteractiveBroker.match_round",
    )),
    ("entangled.grounding", (
        "repro.entangled.grounding:ground",
    )),
    ("entangled.matching", (
        "repro.entangled.matching:find_coordinating_set",
    )),
    ("storage.query", (
        "repro.storage.engine:StorageEngine.query",
        "repro.storage.sharding:ShardedStorageEngine.query",
    )),
    ("storage.write", tuple(
        f"repro.storage.{module}:{cls}.{method}"
        for module, cls in (("engine", "StorageEngine"),
                            ("sharding", "ShardedStorageEngine"))
        for method in ("insert", "update", "delete", "update_where",
                       "delete_where")
    )),
    ("storage.snapshot", tuple(
        f"{module}:{cls}.{method}"
        for module, cls in (("repro.storage.snapshot", "SnapshotView"),
                            ("repro.storage.sharding", "ShardedSnapshotView"),
                            ("repro.transport.proxy", "RemoteSnapshotView"))
        for method in ("scan", "lookup_pk", "lookup_index", "range_scan")
    )),
    ("storage.locks", (
        "repro.storage.locks:LockManager.acquire",
        "repro.storage.locks:LockManager.release_all",
        "repro.storage.locks:LockManager.release_shared",
    )),
    ("storage.ssi", (
        "repro.storage.ssi:SSITracker.record_read",
        "repro.storage.ssi:SSITracker.record_write",
        "repro.storage.ssi:SSITracker.on_commit",
    )),
    ("storage.wal", (
        "repro.storage.wal:WriteAheadLog.append",
        "repro.storage.wal:WriteAheadLog.flush",
        "repro.transport.proxy:WalReplica.flush",
    )),
    ("storage.commit", (
        "repro.storage.engine:StorageEngine.commit",
        "repro.transport.proxy:RemoteShardEngine.commit",
    )),
    ("storage.sharding", (
        "repro.storage.sharding:ShardedStorageEngine.begin",
        "repro.storage.sharding:ShardedStorageEngine.commit",
        "repro.storage.sharding:ShardedStorageEngine.flush_commits",
        "repro.replication.engine:ReplicatedStorageEngine.commit",
    )),
    ("storage.load", (
        "repro.storage.engine:StorageEngine.load",
        "repro.storage.sharding:ShardedStorageEngine.load",
    )),
    ("transport", (
        "repro.transport.proxy:ShardConnection.request",
    )),
    ("replication", (
        "repro.replication.engine:ReplicatedStorageEngine.flush_commits",
        "repro.replication.follower:FollowerShard.receive",
        "repro.replication.follower:FollowerShard.drain",
    )),
)

LAYER_NAMES: tuple[str, ...] = tuple(name for name, _ in LAYERS)
GC_LAYER = "runtime.gc"


class Tracer:
    """Span timer and counters for the layers in :data:`LAYERS`.

    Counters are plain attributes, read after the traced phase:

    * ``self_ns`` / ``total_ns`` / ``calls`` — per layer, indexed like
      :data:`LAYER_NAMES`;
    * ``gc_ns``, ``gc_gen2`` — collector pause time, gen-2 collections;
    * ``lock_waits`` — ``LockManager.acquire`` calls that returned WAIT;
    * ``ssi_aborts`` — ``SSITracker.on_commit`` calls that raised;
    * ``cross_shard_commits`` / ``sharded_commits`` — writing sharded
      commits that wrote to more than one shard, of all of them;
    * ``rtt_ns`` — the duration of every transport round trip;
    * ``coordination_attempts`` / ``coordination_answers`` — queries
      offered to ``find_coordinating_set`` and the ones it answered.
    """

    def __init__(self) -> None:
        self._stacks: dict[int, list] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._gc_start = 0
        #: every wrapped entry point, indexing ``entry_counts``.
        self._entries: list[str] = []
        self.reset()

    # -- counters ---------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (e.g. between set-up and the timed phase)."""
        n = len(LAYERS)
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.calls = [0] * n
        self.entry_counts = [0] * len(self._entries)
        self.gc_ns = 0
        self.gc_gen2 = 0
        self.lock_waits = 0
        self.ssi_aborts = 0
        self.cross_shard_commits = 0
        self.sharded_commits = 0
        self.rtt_ns: list[int] = []
        self.coordination_attempts = 0
        self.coordination_answers = 0

    def layer(self, name: str) -> dict[str, int]:
        """``self_ns``, ``total_ns`` and ``calls`` of one layer."""
        i = LAYER_NAMES.index(name)
        return {"self_ns": self.self_ns[i], "total_ns": self.total_ns[i],
                "calls": self.calls[i]}

    def entry_calls(self, entry: str) -> int:
        """Spans opened by one entry point (``module:Class.method``)."""
        if entry not in self._entries:
            return 0
        return self.entry_counts[self._entries.index(entry)]

    def attributed_ns(self) -> int:
        """Self time of every layer, the collector included."""
        return sum(self.self_ns) + self.gc_ns

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer is already installed")
        hooks = _hooks(self)
        for index, (_name, targets) in enumerate(LAYERS):
            for target in targets:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                if "." not in qualname:
                    self._patch_function(
                        getattr(module, qualname), index, target, hooks)
                    continue
                cls_name, _, method = qualname.partition(".")
                cls = getattr(module, cls_name)
                for name in _methods(cls, method):
                    original = cls.__dict__[name]
                    entry = f"{module_name}:{cls_name}.{name}"
                    setattr(cls, name,
                            self._wrap(original, index, entry, hooks))
                    self._undo.append((cls, name, original))
        self.entry_counts = [0] * len(self._entries)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        """Restore every original; the counters keep their values."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch_function(self, original, index: int, entry: str,
                        hooks: dict) -> None:
        """Rebind ``original`` wherever a ``repro`` module holds it."""
        wrapped = self._wrap(original, index, entry, hooks)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", None)
            if not isinstance(name, str) or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    # -- spans ----------------------------------------------------------------------

    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _wrap(self, fn, index: int, entry: str, hooks: dict):
        entry_id = len(self._entries)
        self._entries.append(entry)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, index, entry_id)
        before, after = hooks.get(entry, (None, None))
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == index:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer.self_ns[index] += elapsed - frame[1]
                tracer.total_ns[index] += elapsed
                tracer.calls[index] += 1
                tracer.entry_counts[entry_id] += 1
                if stack:
                    stack[-1][1] += elapsed
                if after is not None:
                    after(token, result, error, elapsed)

        return traced

    def _wrap_generator(self, fn, index: int, entry_id: int):
        """Time each step of a generator; count one call per generator."""
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            counted = False
            while True:
                stack = tracer._stack()
                if stack and stack[-1][0] == index:
                    yield from iterator
                    return
                frame = [index, 0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    tracer.self_ns[index] += elapsed - frame[1]
                    tracer.total_ns[index] += elapsed
                    if not counted:
                        tracer.calls[index] += 1
                        tracer.entry_counts[entry_id] += 1
                        counted = True
                    if stack:
                        stack[-1][1] += elapsed
                yield item

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        elapsed = time.perf_counter_ns() - self._gc_start
        self.gc_ns += elapsed
        if info.get("generation") == 2:
            self.gc_gen2 += 1
        stack = self._stacks.get(threading.get_ident())
        if stack:
            stack[-1][1] += elapsed


def _methods(cls, selector: str) -> list[str]:
    if selector != "*":
        return [selector]
    return [
        name for name, value in vars(cls).items()
        if inspect.isfunction(value)
        and (not name.startswith("_") or name == "__exit__")
    ]


def _hooks(tracer: Tracer) -> dict:
    """``entry point -> (before(args), after(token, result, error, ns))``
    for the entry points whose counts need more than a call count."""
    from repro.errors import SerializationFailureError
    from repro.storage.locks import LockOutcome

    def lock_after(_token, result, _error, _ns):
        if result is LockOutcome.WAIT:
            tracer.lock_waits += 1

    def ssi_after(_token, _result, error, _ns):
        if isinstance(error, SerializationFailureError):
            tracer.ssi_aborts += 1

    def shards_before(args):
        store, txn = args[0], args[1]
        return len(store.written_shards(txn))

    def shards_after(written, _result, _error, _ns):
        if written:
            tracer.sharded_commits += 1
        if written > 1:
            tracer.cross_shard_commits += 1

    def rtt_after(_token, _result, _error, ns):
        tracer.rtt_ns.append(ns)

    def coordination_before(args):
        return len(args[0])

    def coordination_after(offered, result, _error, _ns):
        tracer.coordination_attempts += offered
        if result is not None:
            tracer.coordination_answers += len(result.chosen)

    sharded_commit = (shards_before, shards_after)
    return {
        "repro.storage.locks:LockManager.acquire": (None, lock_after),
        "repro.storage.ssi:SSITracker.on_commit": (None, ssi_after),
        "repro.storage.sharding:ShardedStorageEngine.commit": sharded_commit,
        "repro.replication.engine:ReplicatedStorageEngine.commit":
            sharded_commit,
        "repro.transport.proxy:ShardConnection.request": (None, rtt_after),
        "repro.entangled.matching:find_coordinating_set":
            (coordination_before, coordination_after),
    }
