"""Causal delivery × reconnect: the durable-cursor floor must compose.

Two things can go wrong when a causal session gate meets the edge
reconnect machinery:

- **unsound**: a client resuming from its durable cursor observes a
  causally-later update before an earlier update it *missed while
  disconnected* — catch-up replay preserves the staggered arrival
  order, so without the gate the pointer overtakes its data inside the
  replay itself.
- **wedged**: the gate holds a post-reconnect update waiting for a dep
  the client already applied in a *previous* session (below the
  cursor), which the replay will never re-send — every such hold would
  burn a full deadline.

The fix is the floor: :class:`~repro.causal.stage.GatedWatchFrontend`
floors each session's buffer at its feed's catch-up version, so deps at
or below the cursor count as observed while deps inside the replay
window still gate.  These tests pin both halves, plus a FIFO control
that proves the scenario really produces inversions without the gate,
and the resync rule: a feed that resyncs drops what its gate still
holds, so a stale update cannot land after the snapshot.
"""

from repro._types import KEY_MAX, KEY_MIN, KeyRange
from repro.causal import CausalBufferConfig, CausalStamper, StampIndex
from repro.causal.stage import GatedWatchFrontend
from repro.core.bridge import PartitionedIngestBridge
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.frontend import EdgeFrontendConfig, WatchEdgeFrontend
from repro.edge.session import SessionConfig
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore, Mutation


class StaticPlacement:
    def __init__(self, frontend):
        self.frontend = frontend

    def frontend_for(self, client_name):
        return self.frontend


class AuditClient(EdgeClient):
    """Counts deliveries that arrive before an in-range dep they
    causally follow — across sessions, against the client's own
    durable applied-state."""

    __slots__ = ("stamps", "observed", "inversions")

    def __init__(self, sim, name, placement, stamps, **kwargs):
        super().__init__(sim, name, placement, **kwargs)
        self.stamps = stamps
        self.observed = {}
        self.inversions = 0

    def _apply(self, update):
        stamp = self.stamps.lookup(update.key, update.version)
        if stamp is not None:
            for dep_key, dep_version in stamp.deps:
                if self.observed.get(dep_key, 0) < dep_version:
                    self.inversions += 1
                    break
        if self.observed.get(update.key, 0) < update.version:
            self.observed[update.key] = update.version
        super()._apply(update)


def build(sim, mode, stagger=0.03, causal_hold=0.5):
    """Staggered two-partition ingest: ptr:* rides the fast partition,
    so pointers systematically overtake the data they reference."""
    store = MVCCStore(clock=sim.now)
    stamps = StampIndex()
    CausalStamper(window=2, index=stamps).observe_store(store)
    source = WatchSystem(sim, name="source")
    PartitionedIngestBridge(
        sim, store.history, source,
        ranges=[KeyRange("m", KEY_MAX), KeyRange(KEY_MIN, "m")],
        base_latency=0.002, latency_stagger=stagger,
        progress_interval=0.2,
    )

    def store_snapshot(key_range):
        version = store.last_version
        return version, dict(store.scan(key_range, version))

    causal = mode == "causal"
    config = EdgeFrontendConfig(
        session=SessionConfig(
            initial_credits=64, max_queue=10_000, coalesce=not causal,
        ),
        catchup_threshold=10_000,
    )
    if causal:
        frontend = GatedWatchFrontend(
            sim, "fe0", source, store_snapshot, config=config,
            stamps=stamps, gate=CausalBufferConfig(hold_deadline=causal_hold),
        )
    else:
        frontend = WatchEdgeFrontend(
            sim, "fe0", source, store_snapshot, config=config
        )
    return store, stamps, frontend


def write_pairs(store, n, start=0):
    """data:i then ptr:i as separate commits: the pointer's stamp
    depends on its data write."""
    for i in range(start, start + n):
        store.commit({f"data:{i:03d}": Mutation.put({"n": i})})
        store.commit({f"ptr:{i:03d}": Mutation.put({"ref": f"data:{i:03d}"})})


def run_reconnect_cycle(sim, mode):
    store, stamps, frontend = build(sim, mode)
    client = AuditClient(
        sim, "c0", StaticPlacement(frontend), stamps, reconnect_delay=0.2
    )
    client.connect()
    sim.run(until=0.5)
    write_pairs(store, 10)
    sim.run(until=2.0)
    client.disconnect()
    # missed while away: both halves of these pairs are above the
    # cursor, so the replay re-sends them — in staggered (inverted)
    # order
    write_pairs(store, 10, start=10)
    sim.run(until=4.0)   # reconnect_delay elapses mid-write-burst
    write_pairs(store, 5, start=20)
    sim.run(until=8.0)
    return store, client, frontend


def test_fifo_reconnect_observes_inversions(sim):
    # control: the stagger really does reorder across the reconnect
    store, client, frontend = run_reconnect_cycle(sim, "fifo")
    assert client.connects == 2
    assert client.inversions > 0
    assert client.updates_applied == 50  # nothing lost, just misordered


def test_causal_reconnect_never_inverts(sim):
    store, client, frontend = run_reconnect_cycle(sim, "causal")
    assert client.connects == 2
    # the core guarantee: resuming from the durable cursor never shows
    # a causally-later update before an earlier missed one
    assert client.inversions == 0
    assert client.updates_applied == 50
    # the gate did real work in the replay window...
    assert sum(b.held_total for b in frontend.buffers) > 0
    # ...and the cursor floor kept it sound: no hold ever waited out
    # its deadline for a dep the client already held from session one
    assert sum(b.released_deadline for b in frontend.buffers) == 0
    assert sum(b.held_count for b in frontend.buffers) == 0


def test_causal_floor_skips_pre_cursor_deps(sim):
    """A ptr whose data dep was applied in the PREVIOUS session must
    deliver immediately after reconnect — the floor counts sub-cursor
    deps as observed instead of holding for a replay that never comes.
    """
    store, stamps, frontend = build(sim, "causal")
    client = AuditClient(
        sim, "c0", StaticPlacement(frontend), stamps, reconnect_delay=0.2
    )
    client.connect()
    sim.run(until=0.5)
    store.commit({"data:000": Mutation.put({"n": 0})})
    sim.run(until=1.5)
    assert client.observed.get("data:000") == 1
    client.disconnect()
    sim.run(until=2.0)
    # written while away: ptr depends on the pre-disconnect data write,
    # which is below the reconnect cursor and never replayed
    store.commit({"ptr:000": Mutation.put({"ref": "data:000"})})
    sim.run(until=5.0)
    assert client.connects == 2
    assert client.observed.get("ptr:000") == 2
    assert client.inversions == 0
    assert sum(b.released_deadline for b in frontend.buffers) == 0


def test_resync_drops_what_the_old_gate_holds(sim):
    """A feed's resync hands the session a snapshot and a new feed; an
    update the old gate still held must not be released into the
    session afterwards, where it would overwrite the newer snapshot
    value with a stale one."""
    store, stamps, frontend = build(sim, "causal", stagger=0.3, causal_hold=0.5)
    client = AuditClient(sim, "c0", StaticPlacement(frontend), stamps)
    client.connect()
    sim.run(until=0.5)
    store.commit({"data:000": Mutation.put({"n": 0})})
    store.commit({"ptr:000": Mutation.put({"ref": "old"})})
    sim.run(until=0.51)
    (session,) = frontend.sessions.values()
    old_gate = frontend.buffers[-1]
    assert old_gate.held_count == 1  # ptr@2 waits for its slow data
    store.commit({"ptr:000": Mutation.put({"ref": "new"})})
    handle = session._feed_handle
    handle.cancel()
    handle.callback.on_resync()
    assert old_gate.held_count == 0
    sim.run(until=3.0)
    assert old_gate.released_deadline == 0
    assert store.get("ptr:000") == {"ref": "new"}
    assert client.state["ptr:000"] == {"ref": "new"}
