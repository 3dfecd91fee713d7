#!/usr/bin/env python3
"""Traffic census: every library class, every library function and
every constructor option must be reached by some traffic.

Runs, in this one process, with a ``sys.setprofile`` hook installed and
every fleet inline (``jobs=1``):

- the QUICK experiment sweep (``python -m repro.bench all --quick``);
- the variant rows of ``benchmarks/test_claims.py`` (its ``VARIANTS``);
- the four ledger workloads
  (``benchmarks/ledger/run.py --workload W --scale 0.1 --reps 1``);
- every script under ``examples/``;
- ``scripts/trace_report.py`` three ways: bare, ``--repairs`` and
  ``--trace-dir`` (a temporary directory), so its E10 attribution and
  E13 repair-attribution exit codes gate too.

The hook records every Python function that runs and, for every
``__init__`` call, the type being constructed (dataclass ``__init__``
is generated code with no file of its own, so the type is the only
trace it leaves) and the values of the constructor's options.  It is
installed before the library is imported, so module-level constructions
(default configs) count too.

Class gate: exits 1 if a class defined under ``src/repro`` (outside
``repro.bench``) that defines a method is neither constructed nor has
any of its methods called — code no traffic reaches.  ABCs, Protocols
and exception classes are never flagged; any other class may be kept
only by an entry in :data:`EXEMPT`, with its reason, and an entry that
no longer names an unreached class fails the gate too.

Option gate: an *option* is a parameter of an ``__init__`` owned by a
class under ``src/repro`` (outside ``repro.bench`` and
``repro.workloads``) whose default is ``None``, a bool, an int, a float
or an Enum.  A call counts for the class whose body defines the
``__init__`` (its code object's owner, not ``type(self)``), so a
subclass built by a benchmark still counts for the library class.
Generated dataclass ``__init__``s count only on ``*Config`` and
``*Policy`` classes.  Exits 1 if an option takes one value across all
the traffic and has no entry, with its reason, in
:data:`OPTION_EXEMPT` (make it a constant at that value), or if an
entry no longer names such an option; each flagged option is printed
with its declaration's ``file:line`` and the value it took.  Only
options that take nothing but scalars count: one that takes a ``str``
is an identifier (``topic``, ``name``), one that takes an object a
dependency (``tracer``).

Function gate: every function written in the body of a module or of a
class under ``src/repro`` (outside ``repro.bench``) must run under some
traffic.  Never flagged: ``__repr__``/``__str__``, methods of the
classes the class gate skips, methods that implement an abstract method
of a base, and methods of a class :data:`EXEMPT` keeps.  Exits 1 naming
each other unreached function, with its ``file:line``, that has no entry
with its reason in :data:`FUNCTION_EXEMPT` (delete it), and each entry
that no longer names an unreached function.

    PYTHONPATH=src python scripts/traffic_census.py

Needs ``pytest`` importable (``benchmarks/test_claims.py`` imports it).
Takes about three minutes on a 2-vCPU box; the hook slows the sweep
several-fold.
"""

from __future__ import annotations

import abc
import contextlib
import enum
import importlib
import importlib.util
import inspect
import io
import pkgutil
import re
import runpy
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
LIBRARY = str(SRC / "repro") + "/"

#: classes no census traffic reaches, kept on purpose: qualified name ->
#: why.  ROADMAP.md lists them as surfaces no experiment reaches yet.
EXEMPT: Dict[str, str] = {
    "repro.pubsub.dlq.DeadLetterPolicy": (
        "reproduces a paper element: docs/paper_mapping.md row "
        "'\"dead-letter queues\" (Azure)'"
    ),
    "repro.sim.wire.Opaque": (
        "wire codec: what decode() returns for an unregistered object; "
        "encode/decode are the reference the wire tests check against"
    ),
    "repro.sim.wire.CallableRef": (
        "wire codec: what decode() returns for a callable; encode/decode "
        "are the reference the wire tests check against"
    ),
}

_DLQ = (
    "reproduces a paper element: docs/paper_mapping.md row "
    "'\"dead-letter queues\" (Azure)'"
)
_RETENTION = (
    "store history retention: ROADMAP.md's traffic-census item (no store "
    "sets it, so StoreWatch's truncation resync never runs) is open"
)
_LEDGER = "benchmarks/ledger/worlds.py passes it by keyword"
_TEST_ADAPTER = (
    "FnWatchCallback builds a callback from plain functions for tests and "
    "examples; tests/core/test_stream.py, test_watch_system.py and "
    "test_sharded_watch.py pass it progress and resync handlers, while "
    "traffic hands it only on_event"
)
_LEASE_DIFF = (
    "tests/pubsub/test_lease_watchdog.py::test_watchdog_is_indistinguishable_"
    "from_per_message_timers varies it over the dispatch path traffic takes"
)
_RETX_DIFF = (
    "tests/resilience/test_retransmit_clock.py::test_retransmit_clock_is_"
    "indistinguishable_from_per_frame_timers varies it to open the breaker "
    "E10's traffic opens"
)

# Why a function no census traffic calls is kept.  An entry needs one of:
# (a) a recovery path or audited funnel ROADMAP.md's recovery item names;
# (b) a docs/paper_mapping.md row names it; (c) benchmarks/ledger/ imports
# or calls it; (d) it runs only in a forked fleet child; (e) an error or
# nack branch, or value semantics tests compare on; (f) a tier-1 test of
# its own behaviour pins it, until a change retires that test with it (a
# change may retire only a few).
_RECOVERY = (
    "(a) a failure or recovery path ROADMAP.md's 'Every recovery path "
    "reached' item names for its fault campaign to reach"
)
_FUNNEL = (
    "(a) a term of a funnel the auditor of ROADMAP.md's 'Every recovery "
    "path reached' item checks"
)
_RETENTION_PATH = (
    "(a) store history retention: ROADMAP.md's recovery item names "
    "ChangeHistory.truncate_before (no store sets a retention yet)"
)
_PAPER_ROW = "(b) a docs/paper_mapping.md row names it: "
_REPLAY_ROW = _PAPER_ROW + "'repro.pubsub.replay' (seek/replay)"
_KNOWLEDGE = (
    _PAPER_ROW + "'Figure 5 knowledge regions, stitching' "
    "(the knowledge-checked read)"
)
_WIRE_CODEC = (
    "(c) the wire codec benchmarks/ledger/drills.py imports "
    "(drill.sim.wire.encode_decode_ns)"
)
_FORKED = "(d) runs only in a forked fleet child; the census runs fleets inline"
_VALUE = "(e) value semantics the tests compare on"


def _tested(test: str) -> str:
    return (
        f"(f) pinned by the tier-1 test {test}: deleting it deletes that "
        "test, and a change may retire only a few tier-1 tests"
    )


#: library functions no census traffic calls, kept on purpose:
#: ``module.func`` or ``module.Class.method`` -> why.
FUNCTION_EXEMPT: Dict[str, str] = {
    # (a) recovery paths and audited funnels
    "repro.causal.buffer.CausalBuffer._force_release": _RECOVERY,
    "repro.causal.buffer.CausalBuffer._on_deadline": _RECOVERY,
    "repro.causal.buffer.CausalBuffer.discard": _RECOVERY,
    "repro.causal.stage.GatedConsumer.crash": _RECOVERY,
    "repro.core.relay.ReliableFanoutEndpoint.crash": _RECOVERY,
    "repro.core.relay.ReliableFanoutEndpoint.recover": _RECOVERY,
    "repro.core.watch_system.WatchSystem.retained_floor": (
        "(a) read by ReliableFanoutLink.on_resync, a recovery path "
        "ROADMAP.md's recovery item names"
    ),
    "repro.edge.frontend.PubsubEdgeFrontend.crash": _RECOVERY,
    "repro.edge.frontend.PubsubEdgeFrontend.recover": _RECOVERY,
    "repro.edge.frontend.WatchEdgeFrontend.crash": _RECOVERY,
    "repro.edge.frontend.WatchEdgeFrontend.recover": _RECOVERY,
    "repro.reconcile.framework.Reconciler._fail": _RECOVERY,
    "repro.reconcile.framework.ScopeTable.clear_error": _RECOVERY,
    "repro.reconcile.framework.ScopeTable.fail": _RECOVERY,
    "repro.replication.watch_replicator.WatchReplicator._resync": _RECOVERY,
    "repro.sim.failures.FailureInjector.crash_at": _RECOVERY,
    "repro.workqueue.pubsub_worker.PubsubWorkerPool.recover_worker": (
        _RECOVERY
    ),
    "repro.workqueue.watch_worker.WatchWorker.recover": _RECOVERY,
    "repro.storage.history.ChangeHistory.truncate_before": _RETENTION_PATH,
    "repro.storage.history.ChangeHistory._truncate_prefix": _RETENTION_PATH,
    "repro.storage.history.ChangeHistory.oldest_retained": _RETENTION_PATH,
    "repro.causal.buffer.CausalBuffer.held_count": _FUNNEL,
    "repro.edge.session.ClientSession.attributed": _FUNNEL,
    "repro.pubsub.subscription.Subscription.inflight_count": _FUNNEL,
    "repro.resilience.channel.ReliableChannel.pending_unacked": _FUNNEL,
    # (b) paper elements docs/paper_mapping.md maps
    "repro.pubsub.replay.create_snapshot": _REPLAY_ROW,
    "repro.pubsub.replay.seek_to_offset": _REPLAY_ROW,
    "repro.pubsub.replay.seek_to_snapshot": _REPLAY_ROW,
    "repro.pubsub.replay.seek_to_timestamp": _REPLAY_ROW,
    "repro.pubsub.log.PartitionLog.offset_for_time": _REPLAY_ROW,
    "repro.pubsub.subscription.Subscription.seek": _REPLAY_ROW,
    "repro.core.knowledge.KnowledgeMap.knows_key": _KNOWLEDGE,
    "repro.core.knowledge.KnowledgeRegion.knows": _KNOWLEDGE,
    "repro.core.linked_cache.LinkedCache.read_at": _KNOWLEDGE,
    "repro._types.KeyRange.single": _KNOWLEDGE,
    "repro.sharding.leases.LeaseManager.release": (
        _PAPER_ROW + "'leasing mitigation + availability tradeoff' "
        "(a graceful release shortens the handoff gap)"
    ),
    "repro.sharding.leases.LeaseManager.active_leases": (
        _PAPER_ROW + "'leasing mitigation + availability tradeoff'"
    ),
    # (c) the ledger imports or calls it
    "repro.sim.wire.encode": _WIRE_CODEC,
    "repro.sim.wire.decode": _WIRE_CODEC,
    "repro.sim.wire._enc": _WIRE_CODEC,
    "repro.sim.wire._dec": _WIRE_CODEC,
    "repro.sim.wire._read_uvarint": _WIRE_CODEC,
    "repro.sim.wire._utf8": _WIRE_CODEC,
    "repro.sim.wire._callable_name": _WIRE_CODEC,
    "repro.sim.wire._object_state": _WIRE_CODEC,
    "repro.sim.kernel._component_of": (
        "(c) names the component of an unlabelled event for the ledger's "
        "KernelHook (Simulation.profiler) on --trace 1 runs"
    ),
    # (d) forked fleet children
    "repro.fleet.pool._context": _FORKED,
    "repro.fleet.pool._work": _FORKED,
    # (e) error and nack branches, value semantics
    "repro.causal.stage.GatedConsumer.deliver_batch": (
        "(e) an error branch: raises TypeError for a batched subscription"
    ),
    "repro.pubsub.subscription.Subscription.nack_batch": (
        "(e) the nack branch of a batched delivery"
    ),
    "repro.pubsub.subscription._BatchReceipt.nack": (
        "(e) the nack branch of a batched delivery"
    ),
    "repro.causal.stamp.CausalStamp.__eq__": _VALUE,
    "repro.causal.stamp.CausalStamp.__hash__": _VALUE,
    # (f) pinned by a tier-1 test of their own behaviour
    "repro.sim.kernel.Simulation.pending_events": _tested(
        "tests/sim/test_kernel_oracle.py (compared with the reference "
        "kernel's) and test_kernel_semantics.py::TestCancellationWhileQueued"
    ),
    "repro.obs.eventlog.EventLog.from_jsonl": _tested(
        "tests/obs/test_eventlog.py::TestJsonl"
    ),
    "repro.obs.eventlog.TraceEvent.from_json": _tested(
        "tests/obs/test_eventlog.py::TestJsonl"
    ),
    "repro.fleet.runner.FleetReport.to_json": _tested(
        "tests/fleet/test_runner.py::"
        "test_to_json_is_deterministic_and_excludes_info"
    ),
    "repro._types.ranges_cover": _tested(
        "tests/test_types.py::TestKeyRange::test_ranges_cover"
    ),
    "repro.core.linked_cache.LinkedCache._counts": _tested(
        "tests/core/test_linked_cache.py::TestInitialSync::"
        "test_unavailable_snapshot_source_is_retried_and_counted"
    ),
    "repro.core.watch_system.WatchSystem._counts": _tested(
        "tests/core/test_watch_system.py::TestRetentionAndResync::"
        "test_watch_below_floor_resyncs_immediately"
    ),
    "repro.sim.failures.FailureInjector._counts": _tested(
        "tests/sim/test_failures.py::TestPartitionWindow::"
        "test_partition_opens_and_heals"
    ),
    "repro.resilience.breaker.CircuitBreaker.check": _tested(
        "tests/resilience/test_breaker.py::TestTripping::"
        "test_check_raises_when_open"
    ),
    "repro.causal.buffer.CausalBuffer.flush": _tested(
        "tests/causal/test_buffer.py::"
        "test_flush_releases_everything_in_hold_order"
    ),
    "repro.replication.target.ReplicaStore.reset_cursor": _tested(
        "tests/replication/test_target.py::TestCursorCorruption::"
        "test_reset_cursor_recomputes_watermark"
    ),
    "repro.sharding.assignment.Assignment.nodes": _tested(
        "tests/sharding/test_assignment.py::TestQueries::test_nodes"
    ),
    "repro.sharding.assignment.Assignment.single": _tested(
        "tests/sharding/test_assignment.py::TestValidation::"
        "test_single_covers_all"
    ),
    "repro.core.linked_cache.LinkedCache.set_key_range": _tested(
        "tests/core/test_linked_cache.py::TestResync::"
        "test_set_key_range_resyncs_over_new_range"
    ),
    "repro.storage.kv.MVCCStore.keys": _tested(
        "tests/cache/test_cluster.py::TestAudit::"
        "test_audit_defaults_to_all_store_keys, tests/integration/"
        "test_end_to_end.py::TestWatchPipeline::"
        "test_store_to_stitched_cache_fleet and tests/integration/"
        "test_kitchen_sink.py::test_everything_converges (the cache "
        "staleness audit run with no key list)"
    ),
    "repro.storage.history.CommittedTransaction.touches": _tested(
        "tests/storage/test_history.py::TestAppend::test_commit_touches"
    ),
    "repro.pubsub.consumer.ConsumerGroup.leave": _tested(
        "tests/pubsub/test_subscription.py::TestRouting::"
        "test_membership_changes_rebalance"
    ),
    "repro.pubsub.subscription.Subscription.remove_member": _tested(
        "tests/pubsub/test_subscription.py::TestRouting::"
        "test_membership_changes_rebalance"
    ),
    "repro.edge.placement.SessionPlacement.add_frontend": _tested(
        "tests/edge/test_placement.py::test_add_frontend_takes_over_a_slice"
    ),
    "repro.edge.placement.SessionPlacement.remove_frontend": _tested(
        "tests/edge/test_placement.py::"
        "test_removed_frontend_clients_reconnect_to_survivors"
    ),
    "repro.obs.index.TraceIndex.chain_is_complete": _tested(
        "tests/obs/test_index.py::TestChains::test_delivered_and_completeness"
    ),
    "repro.workqueue.state_cache.StateCache.hit_rate": _tested(
        "tests/workqueue/test_state_cache.py::TestStateCache::"
        "test_empty_hit_rate"
    ),
    "repro.core.stream.WatcherSession.backlog": _tested(
        "tests/core/test_watcher_queue.py (compared with the deque "
        "reference's)"
    ),
    "repro.edge.session.ClientSession.snapshots_delivered": _tested(
        "tests/edge/test_session_table.py::"
        "test_snapshot_column_zeroed_when_storm_reuses_slot"
    ),
}

#: constructor options that take one value across all census traffic,
#: kept on purpose: ``module.Class.option`` -> why.
OPTION_EXEMPT: Dict[str, str] = {
    # a paper element (docs/paper_mapping.md) or an open ROADMAP item
    "repro.pubsub.subscription.SubscriptionConfig.dead_letter": _DLQ,
    "repro.pubsub.subscription.Subscription.dlq_append": _DLQ,
    "repro.storage.kv.MVCCStore.history_retention_commits": _RETENTION,
    "repro.storage.timeseries.IngestionStore.history_retention_commits": (
        _RETENTION
    ),
    "repro.storage.history.ChangeHistory.retention_commits": _RETENTION,
    "repro.causal.buffer.CausalBufferConfig.hold_deadline": (
        "the causal row of docs/paper_mapping.md's delivery contracts names "
        "the hold deadline; tests/property/test_causal_model.py::"
        "TestCausalModel sets it to reach the deadline releases E16 makes"
    ),
    # the ledger passes it, and a change may not edit the ledger
    "repro.transport.BatchConfig.max_batch": _LEDGER,
    "repro.core.bridge.DirectIngestBridge.latency": _LEDGER,
    "repro.edge.session.SessionConfig.delivery_latency": _LEDGER,
    # a differential test varies it over a path traffic also takes
    "repro.pubsub.subscription.SubscriptionConfig.delivery_latency": (
        _LEASE_DIFF
    ),
    "repro.pubsub.subscription.SubscriptionConfig."
    "max_inflight_per_partition": _LEASE_DIFF,
    "repro.resilience.breaker.CircuitBreakerConfig.failure_threshold": (
        _RETX_DIFF
    ),
    "repro.resilience.breaker.CircuitBreakerConfig.cooldown": _RETX_DIFF,
    "repro.resilience.breaker.CircuitBreakerConfig.half_open_probes": (
        _RETX_DIFF
    ),
    "repro.replication.appliers._ApplierBase.resilience": (
        "tests/replication/test_appliers.py::TestGroupApplyDifferential "
        "hands it a retrying channel to converge over the lossy networked "
        "applier path the ledger's repl-net worlds take"
    ),
    # a test adapter: the tier-1 watch tests pass it handlers
    "repro.core.api.FnWatchCallback.on_progress": _TEST_ADAPTER,
    "repro.core.api.FnWatchCallback.on_resync": _TEST_ADAPTER,
}

LEDGER_WORKLOADS = (
    "broker-fanout", "repl-net-unbatched", "repl-net-batched",
    "watch-edge-storm",
)


def _scalar(value: object) -> bool:
    return value is None or isinstance(value, (bool, int, float, enum.Enum))


def scalar_options(observed: Mapping[str, Iterable[object]]) -> Dict[str, int]:
    """Each option that took only scalars -> how many distinct values.
    An option that took a ``str`` (an identifier such as ``topic``) or
    an object (a dependency such as ``tracer``) is not a knob."""
    counts = {}
    for name, values in observed.items():
        values = list(values)
        if all(_scalar(value) for value in values):
            # keyed by type too: True, 1 and 1.0 are one member otherwise
            counts[name] = len({(type(value), value) for value in values})
    return counts


def classify_options(
    observed: Mapping[str, Iterable[object]], exempt: Mapping[str, str],
) -> Tuple[List[str], List[str]]:
    """The option gate, on what the traffic passed: ``observed`` maps
    each reached option to the values it took; returns ``(flagged,
    stale)`` — scalar options with one value and no exemption with a
    reason, and exemptions that name no scalar option with one value."""
    single = {
        name for name, count in scalar_options(observed).items()
        if count == 1
    }
    flagged = sorted(name for name in single if not exempt.get(name))
    stale = sorted(set(exempt) - single)
    return flagged, stale


def _skipped(name: str, owner: Optional[type]) -> bool:
    """Functions the function gate never flags: ``__repr__``/``__str__``,
    methods of a class :func:`_never_flagged` skips, and methods that
    implement an abstract method of a base (deleting one alone would
    leave the class abstract: the ABC's contract is what to delete)."""
    method = name.rsplit(".", 1)[-1]
    if method in ("__repr__", "__str__"):
        return True
    if owner is None:
        return False
    return _never_flagged(owner) or any(
        getattr(vars(base).get(method), "__isabstractmethod__", False)
        for base in owner.__mro__[1:]
    )


def classify_functions(
    defined: Mapping[str, Optional[type]], called: Set[str],
    exempt: Mapping[str, str],
) -> Tuple[List[str], List[str]]:
    """The function gate: ``defined`` maps each library function
    (``module.func`` or ``module.Class.method``) to the class whose
    body defines it (``None`` for a module function), ``called`` holds
    those the traffic ran; returns ``(flagged, stale)`` — unreached
    functions with no exemption with a reason, and exemptions that name
    no unreached function."""
    unreached = {
        name for name, owner in defined.items()
        if name not in called and not _skipped(name, owner)
    }
    flagged = sorted(name for name in unreached if not exempt.get(name))
    stale = sorted(set(exempt) - unreached)
    return flagged, stale


def _init_params(code) -> Optional[Tuple[str, ...]]:
    """Parameters of an ``__init__`` written in a library file or
    generated (dataclass ``__init__``s have no file); ``None`` otherwise."""
    filename = code.co_filename
    if filename != "<string>" and not filename.startswith(LIBRARY):
        return None
    count = code.co_argcount + code.co_kwonlyargcount
    return code.co_varnames[1:count]


def _recorded_options(cls: type, init) -> List[str]:
    """The parameters of ``init`` (owned by ``cls``) whose default is
    ``None``, a bool, an int, a float or an Enum."""
    generated = init.__code__.co_filename == "<string>"  # a dataclass's
    if generated and not cls.__name__.endswith(("Config", "Policy")):
        return []
    names = []
    for param in inspect.signature(init).parameters.values():
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        if param.default is not param.empty and _scalar(param.default):
            names.append(param.name)
    return names


class Census:
    """The profile hook: functions run, types constructed and the values
    every ``__init__`` written under ``src/repro`` (or generated, as a
    dataclass's is) took for each of its parameters."""

    def __init__(self) -> None:
        self.called: Set[object] = set()
        self.constructed: Set[type] = set()
        #: ``__init__`` code object -> its parameters (``None``: not ours)
        self._params: Dict[object, Optional[Tuple[str, ...]]] = {}
        #: ``(__init__ code, parameter)`` -> up to three distinct values
        #: it took, keyed by ``(type, value)``; objects by type name
        self.values: Dict[Tuple[object, str], Dict[object, object]] = {}

    def hook(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        self.called.add(code)
        if code.co_name == "__init__" and code.co_argcount:
            f_locals = frame.f_locals
            instance = f_locals.get(code.co_varnames[0])
            if instance is not None:
                self.constructed.add(type(instance))
            try:
                params = self._params[code]
            except KeyError:
                params = self._params[code] = _init_params(code)
            if params:
                self._record(code, params, f_locals)

    def _record(self, code, params: Tuple[str, ...], f_locals) -> None:
        values = self.values
        for name in params:
            value = f_locals[name]
            if not _scalar(value) and not isinstance(value, str):
                value = f"<{type(value).__name__}>"
            seen = values.get((code, name))
            if seen is None:
                values[(code, name)] = {(type(value), value): value}
            elif len(seen) < 3:
                # a third slot keeps an object seen after two scalars
                seen.setdefault((type(value), value), value)

    @contextlib.contextmanager
    def installed(self):
        sys.setprofile(self.hook)
        try:
            yield
        finally:
            sys.setprofile(None)


# ----------------------------------------------------------------------
# traffic


def _inline_fleets() -> None:
    """Every ``process_map`` caller runs its items in this process, where
    the hook can see them."""
    from repro.fleet import pool

    real = pool.process_map

    def inline(fn, items, jobs=1):
        return real(fn, items, jobs=1)

    for name in ("repro.fleet", "repro.fleet.runner", "repro.bench.__main__"):
        module = importlib.import_module(name)
        if getattr(module, "process_map", None) is real:
            module.process_map = inline


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sweep() -> None:
    from repro.bench.__main__ import main

    if main(["all", "--quick"]) != 0:
        raise SystemExit("census: the QUICK sweep failed; fix it first")


def _variants() -> None:
    from repro.bench import experiments
    from repro.bench.runner import sizing

    claims = _load(BENCHMARKS / "test_claims.py", "_census_test_claims")
    for param in claims.VARIANTS:
        experiment_id, overrides = param.values
        module = experiments.get(experiment_id)
        params = dict(sizing(module, quick=True), **overrides)
        module.check(module.run(**params), params)


def _ledger() -> None:
    ledger = _load(BENCHMARKS / "ledger" / "run.py", "_census_ledger_run")
    for workload in LEDGER_WORKLOADS:
        argv = ["--workload", workload, "--scale", "0.1", "--reps", "1"]
        if ledger.main(argv) != 0:
            raise SystemExit(f"census: ledger workload {workload} failed")


def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def _trace_report() -> None:
    report = _load(ROOT / "scripts" / "trace_report.py", "_census_trace_report")
    with tempfile.TemporaryDirectory() as trace_dir:
        for args in ([], ["--repairs"], ["--trace-dir", trace_dir]):
            with mock.patch.object(sys, "argv", ["trace_report.py", *args]):
                if report.main() != 0:
                    raise SystemExit(f"census: trace_report.py {args} failed")


TRAFFIC = (
    ("QUICK sweep", _sweep),
    ("test_claims VARIANTS", _variants),
    ("ledger workloads", _ledger),
    ("examples", _examples),
    ("trace report", _trace_report),
)


# ----------------------------------------------------------------------
# what the library defines


def _library_modules() -> List[object]:
    import repro

    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.bench" or info.name.startswith("repro.bench."):
            continue
        modules.append(importlib.import_module(info.name))
    return sorted(modules, key=lambda module: module.__name__)


def _own_codes(owner: object, filename: str) -> List[object]:
    """Code objects of the functions written in ``owner``'s body (class
    or module) in ``filename``: plain, static and class methods and
    property accessors; generated dataclass methods have no file."""
    codes = []
    for attr in vars(owner).values():
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        functions = (
            (attr.fget, attr.fset, attr.fdel)
            if isinstance(attr, property) else (attr,)
        )
        for function in functions:
            code = getattr(function, "__code__", None)
            if code is not None and code.co_filename == filename:
                codes.append(code)
    return codes


def _never_flagged(cls: type) -> bool:
    return (
        issubclass(cls, BaseException)
        or abc.ABC in cls.__bases__
        or inspect.isabstract(cls)
        or getattr(cls, "_is_protocol", False)
    )


def _library_inits(modules) -> Dict[object, Tuple[type, List[str]]]:
    """Every ``__init__`` whose options the census records, by code
    object, for the classes of ``modules`` outside ``repro.workloads``."""
    inits = {}
    for module in modules:
        if module.__name__.startswith("repro.workloads"):
            continue
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            init = vars(cls).get("__init__")
            code = getattr(init, "__code__", None)
            if code is None:
                continue
            names = _recorded_options(cls, init)
            if names:
                inits[code] = (cls, names)
    return inits


def _declaration(cls: type, name: str) -> str:
    """``file:line`` of option ``name``: ``cls``'s parameter or field."""
    filename = inspect.getsourcefile(cls)
    lines, first = inspect.getsourcelines(cls)
    init = vars(cls)["__init__"]
    if init.__code__.co_filename == filename:
        lines, first = inspect.getsourcelines(init)
    pattern = re.compile(rf"^\s*(def __init__\(.*)?\b{re.escape(name)}\b\s*[:=,)]")
    for offset, line in enumerate(lines):
        if pattern.search(line):
            break
    else:
        offset = 0
    return f"{Path(filename).relative_to(ROOT)}:{first + offset}"


def main() -> int:
    for path in (str(SRC), str(BENCHMARKS)):
        if path not in sys.path:
            sys.path.insert(0, path)
    census = Census()
    # importing runs module-level constructions (default configs) too
    with census.installed():
        modules = _library_modules()
    _inline_fleets()
    for label, drive in TRAFFIC:
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), census.installed():
            drive()
        print(f"ran {label} ({time.perf_counter() - started:.0f} s)")

    unreached_classes = []
    defined = {}  # function -> the class that defines it, or None
    codes = {}  # function -> its code object
    in_exempt_classes = set()  # kept whole, with the class gate's reason
    for module in modules:
        filename = module.__file__
        owners = [(None, _own_codes(module, filename))]
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            methods = _own_codes(cls, filename)
            owners.append((cls, methods))
            qualified = f"{module.__name__}.{cls.__qualname__}"
            if qualified in EXEMPT:
                in_exempt_classes.update(
                    f"{module.__name__}.{code.co_qualname}" for code in methods
                )
            if not methods or _never_flagged(cls):
                continue
            if cls in census.constructed or any(
                code in census.called for code in methods
            ):
                continue
            unreached_classes.append(qualified)
        for owner, owned in owners:
            for code in owned:
                name = f"{module.__name__}.{code.co_qualname}"
                defined[name] = owner
                codes[name] = code
    called = {name for name, code in codes.items() if code in census.called}

    flagged = [name for name in unreached_classes if name not in EXEMPT]
    stale = sorted(set(EXEMPT) - set(unreached_classes))
    print(f"\nclasses no traffic reaches: {len(unreached_classes)} "
          f"({len(unreached_classes) - len(flagged)} exempt)")
    for name in flagged:
        print(f"  UNREACHED {name}: delete it, or exempt it with a reason")
    for name in stale:
        print(f"  STALE EXEMPTION {name}: reached or gone; drop the entry")

    gated = {
        name: owner for name, owner in defined.items()
        if name not in in_exempt_classes
    }
    flagged_functions, stale_functions = classify_functions(
        gated, called, FUNCTION_EXEMPT,
    )
    unreached = [name for name in defined if name not in called]
    in_exempt = sum(name not in gated for name in unreached)
    skipped = sum(
        _skipped(name, gated[name]) for name in unreached if name in gated
    )
    exempt = len(FUNCTION_EXEMPT) - len(stale_functions)
    print(f"\nlibrary functions: {len(defined)}; no traffic reaches: "
          f"{len(unreached)} ({skipped} never flagged, {in_exempt} in exempt "
          f"classes, {exempt} exempt, {len(flagged_functions)} flagged)")
    for name in flagged_functions:
        code = codes[name]
        where = Path(code.co_filename).relative_to(ROOT)
        print(f"  UNREACHED FUNCTION {name} ({where}:{code.co_firstlineno}): "
              "delete it, or exempt it with a reason")
    for name in stale_functions:
        print(f"  STALE FUNCTION EXEMPTION {name}: reached or gone; "
              "drop the entry")

    observed = {}
    declared = {}  # option -> (class, parameter)
    for code, (cls, names) in _library_inits(modules).items():
        for name in names:
            values = census.values.get((code, name))
            if values is not None:
                option = f"{cls.__module__}.{cls.__qualname__}.{name}"
                observed[option] = list(values.values())
                declared[option] = (cls, name)
    scalar = scalar_options(observed)
    flagged_options, stale_options = classify_options(observed, OPTION_EXEMPT)
    single = sum(count == 1 for count in scalar.values())
    print(f"\nscalar constructor options reached: {len(scalar)}; "
          f"with one value: {single} ({single - len(flagged_options)} exempt)")
    for name in flagged_options:
        value = observed[name][0]
        print(f"  ONE VALUE {name} = {value!r} ({_declaration(*declared[name])}): "
              "make it a constant, or exempt it with a reason")
    for name in stale_options:
        print(f"  STALE OPTION EXEMPTION {name}: varies or gone; "
              "drop the entry")
    failed = (
        flagged or stale or flagged_functions or stale_functions
        or flagged_options or stale_options
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
