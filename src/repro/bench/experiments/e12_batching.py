"""E12 — batched transport: flush window × batch size × fan-out sweep.

Both delivery pipelines run the same multi-key transaction workload
over a lossy network, once with every batching lever off (the
per-message baseline every prior experiment used) and then across a
sweep of the levers the transport layer exposes:

- **pubsub** — store → CDC group-commit (one wire frame per
  transaction) → :class:`~repro.pubsub.broker.RemotePublisher` batch
  publish → broker → free-consumer invalidation fan-out with
  ``max_delivery_batch`` grouped deliveries and group-applied handler
  invocations.  The consumer model charges a fixed *dispatch cost* per
  handler invocation on top of the per-record service time, so the
  unbatched row saturates at high commit rates and the batched rows
  amortize the dispatch cost across the group — the throughput side of
  the crossover.
- **watch** — store → ingest bridge → watch relay whose
  :class:`~repro.resilience.channel.ReliableChannel` carries
  :class:`~repro.transport.BatchConfig` frames (size + linger flush
  policy, cumulative per-frame acks, batch retransmit) to fan-out
  cache nodes.  Here batching buys wire efficiency — frames,
  retransmits, and ack traffic shrink — and the linger window is pure
  added latency: the latency side of the crossover.

The sweep holds a base point (``batch=16, linger=5ms, fanout=3``) and
varies one axis at a time, plus one fire-and-forget row per pipeline
at the base point: a dropped *frame* there is N records gone at once,
and the trace layer must still attribute every one of them
(``wire_lost == lost_attributed`` — the per-frame ``n_events`` spans
and the shared frame seq on each record's send hop make a single
``net.drop`` event account for the whole group).

Everything is driven by the simulation clock and seeded RNG, so the
output table is byte-deterministic for a given seed.
"""

from __future__ import annotations

from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import batching_cell
from repro.sim.kernel import Simulation
from repro.workloads.generators import key_universe


def _sweep(batch_sizes, lingers_ms, fanouts, base_batch, base_linger_ms,
           base_fanout) -> list:
    """(batch, linger_ms, fanout, reliable) combos: one axis at a time."""
    combos = [(b, base_linger_ms, base_fanout, True) for b in batch_sizes]
    combos += [
        (base_batch, linger, base_fanout, True)
        for linger in lingers_ms if linger != base_linger_ms
    ]
    combos += [
        (base_batch, base_linger_ms, fanout, True)
        for fanout in fanouts if fanout != base_fanout
    ]
    # fire-and-forget at the base point: lost frames must attribute
    combos.append((base_batch, base_linger_ms, base_fanout, False))
    return combos


def run(
    pipelines=("pubsub", "watch"),
    batch_sizes=(1, 4, 16, 64),
    lingers_ms=(1.0, 5.0, 20.0),
    fanouts=(1, 3, 8),
    base_batch: int = 16,
    base_linger_ms: float = 5.0,
    base_fanout: int = 3,
    num_keys: int = 64,
    txn_size: int = 4,
    commit_rate: float = 60.0,
    burst: int = 8,
    duration: float = 12.0,
    drain: float = 8.0,
    loss_rate: float = 0.02,
    base_latency: float = 0.005,
    net_jitter: float = 0.002,
    dispatch_cost: float = 0.004,
    record_service: float = 0.0005,
    seed: int = 31,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E12 batched transport: flush window x batch size x "
                   "fan-out across both delivery pipelines",
        claim="group frames amortize per-message dispatch and wire costs "
              "(the unbatched pubsub row saturates; batched rows keep up "
              "and cut frames/retransmits) while the linger window is a "
              "latency floor — and a lost frame still attributes every "
              "one of its N records",
    )
    table = result.new_table(
        "batching sweep",
        ["config", "batch", "linger_ms", "fanout", "frames", "wire_msgs",
         "msgs_per_frame", "retransmits", "applied", "throughput_rps",
         "e2e_p50_ms", "e2e_p99_ms", "wire_lost", "lost_attributed"],
    )
    # real encoded wire volume (net.bytes.*): how many bytes batching
    # actually saves per message once frame overhead is amortized
    bytes_table = result.new_table(
        "wire bytes",
        ["config", "batch", "linger_ms", "fanout", "bytes_sent",
         "bytes_delivered", "bytes_dropped", "bytes_per_frame",
         "bytes_per_msg"],
    )
    keys = key_universe(num_keys)
    sizing = dict(
        txn_size=txn_size, burst=burst, duration=duration, drain=drain,
        loss_rate=loss_rate, base_latency=base_latency,
        net_jitter=net_jitter, dispatch_cost=dispatch_cost,
        record_service=record_service,
    )
    combos = _sweep(batch_sizes, lingers_ms, fanouts, base_batch,
                    base_linger_ms, base_fanout)

    for system in pipelines:
        for batch, linger_ms, fanout, reliable in combos:
            cell = batching_cell(
                Simulation(seed=seed), f"{system}-b{batch}", system, keys,
                fanout, batch, linger_ms, reliable, commit_rate, **sizing,
            )
            key = dict(
                config=f"{system}-{'reliable' if reliable else 'fireforget'}",
                batch=batch,
                linger_ms=linger_ms if batch > 1 else 0.0,
                fanout=fanout,
            )
            for t in (table, bytes_table):
                t.add(**key, **{c: cell[c] for c in t.columns[len(key):]})

    result.notes.append(
        "batch=1 rows are the fully unbatched baseline (no group commit, "
        "no frames, per-message delivery) and pay the dispatch cost per "
        "record; batched rows pay it per handler invocation.  wire_msgs "
        "counts payloads crossing the network, so msgs_per_frame is the "
        "realized (not configured) frame fill.  The fire-and-forget rows "
        "exist for the attribution bar: every record lost inside a "
        "dropped frame must be attributed to that frame's drop event "
        "(wire_lost == lost_attributed)."
    )
    result.notes.append(
        "wire bytes are real encoded frame sizes (repro.sim.wire codec) "
        "from the net.bytes.* counters: sent = delivered + dropped for "
        "every row.  Batching cuts total bytes_sent (acks, retransmitted "
        "duplicates, and per-message channel envelopes collapse into "
        "per-frame ones) even though group-commit metadata makes the "
        "individual record slightly larger — bytes_per_frame times "
        "msgs_per_frame, not bytes_per_msg, is where the amortization "
        "shows."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    batch_sizes=(1, 16),
    lingers_ms=(5.0,),
    fanouts=(3,),
    num_keys=48,
    duration=6.0,
    drain=6.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Batching changes the wire shape, never what is applied."""
    rows = result.table("batching sweep").rows

    def cells(config):
        """(unbatched row, base-cell batched row) of one config."""
        unbatched = next(
            r for r in rows if r["config"] == config and r["batch"] == 1
        )
        batched = next(
            r for r in rows
            if r["config"] == config
            and r["batch"] == params["base_batch"]
            and r["linger_ms"] == params["base_linger_ms"]
            and r["fanout"] == params["base_fanout"]
        )
        return unbatched, batched

    for system in params["pipelines"]:
        unbatched, batched = cells(f"{system}-reliable")
        assert unbatched["applied"] == batched["applied"] > 0, system
        assert batched["frames"] < unbatched["frames"] / 4, system
        assert batched["msgs_per_frame"] > 2.0, system
        assert batched["retransmits"] < unbatched["retransmits"], system
        # a lost frame still attributes all N coalesced records
        fireforget = next(
            r for r in rows if r["config"] == f"{system}-fireforget"
        )
        assert (
            fireforget["wire_lost"] == fireforget["lost_attributed"] > 0
        ), system
    # the throughput crossover: the unbatched pubsub consumer pays the
    # dispatch cost per record, saturates, and queues
    unbatched, batched = cells("pubsub-reliable")
    assert unbatched["e2e_p50_ms"] > 4 * batched["e2e_p50_ms"]
