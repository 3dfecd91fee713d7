"""E15 — broker batch sweep: throughput/latency vs batch size × publish rate.

The Kafka-vs-RabbitMQ study (Dobbelaere & Sheykh Esmaili) characterizes
a broker with one canonical table: hold the workload, sweep producer
batch size across a grid of publish rates, and read off where
throughput saturates and what the batching buys costs in latency.  This
experiment reproduces that measurement shape on both of our delivery
pipelines:

- **pubsub** — CDC group-commit → broker → free-consumer fan-out with
  grouped delivery.  The consumer charges a fixed dispatch cost per
  handler invocation, so the unbatched column saturates once the
  publish rate exceeds ``1 / (dispatch + service)`` records/s; larger
  batches amortize the dispatch cost and push the saturation knee to
  higher rates — the throughput half of the published table.
- **watch** — ingest bridge → reliable relay with group frames → cache
  nodes.  No per-record dispatch charge; here the grid shows the other
  half: batching cuts frames/retransmits/bytes at every rate while the
  linger window sets the latency floor at low rates.

Each cell also reports real wire volume (``net.bytes.*`` from the
:mod:`repro.sim.wire` codec): bytes per frame grows with the batch while
total bytes fall as the per-message envelope collapses.

Each cell is E12's (:func:`repro.bench.worlds.batching_cell`: same
workload, world and retry policy) so the two experiments stay comparable;
everything runs on the sim clock with a seeded RNG, so the table is
byte-deterministic for a given seed.
"""

from __future__ import annotations

from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import batching_cell
from repro.sim.kernel import Simulation
from repro.workloads.generators import key_universe


COLUMNS = [
    "config", "rate_rps", "batch", "applied", "throughput_rps",
    "e2e_p50_ms", "e2e_p99_ms", "frames", "msgs_per_frame",
    "bytes_per_frame", "bytes_per_msg", "retransmits",
]


def run(
    pipelines=("pubsub", "watch"),
    rates_rps=(60.0, 240.0, 480.0),
    batch_sizes=(1, 8, 64),
    linger_ms: float = 5.0,
    fanout: int = 3,
    num_keys: int = 64,
    txn_size: int = 4,
    burst: int = 8,
    duration: float = 10.0,
    drain: float = 15.0,
    loss_rate: float = 0.01,
    base_latency: float = 0.005,
    net_jitter: float = 0.002,
    dispatch_cost: float = 0.004,
    record_service: float = 0.0005,
    seed: int = 47,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E15 broker batch sweep: throughput/latency vs batch "
                   "size across publish rates",
        claim="the canonical broker characterization table reproduces on "
              "both pipelines: unbatched delivery saturates at the "
              "dispatch-bound rate (throughput plateaus, latency "
              "explodes), batching pushes the knee past the highest "
              "rate at a bounded linger-window latency cost, and real "
              "wire bytes per message fall as frames fill",
    )
    table = result.new_table("batch sweep", COLUMNS)
    keys = key_universe(num_keys)
    sizing = dict(
        txn_size=txn_size, burst=burst, duration=duration, drain=drain,
        loss_rate=loss_rate, base_latency=base_latency,
        net_jitter=net_jitter, dispatch_cost=dispatch_cost,
        record_service=record_service,
    )

    for system in pipelines:
        for rate in rates_rps:
            for batch in batch_sizes:
                # rate is records/s; the writer commits txn_size-record
                # transactions, so scale the commit rate to match
                cell = batching_cell(
                    Simulation(seed=seed), f"{system}-r{rate:g}-b{batch}",
                    system, keys, fanout, batch, linger_ms, True,
                    rate / txn_size, **sizing,
                )
                table.add(
                    config=system, rate_rps=rate, batch=batch,
                    **{c: cell[c] for c in COLUMNS[3:]},
                )

    result.notes.append(
        "measurement shape after the Kafka-vs-RabbitMQ study: one row "
        "per (pipeline, publish rate, producer batch size) cell, "
        "throughput_rps read at the terminal apply hop and latency "
        "percentiles end-to-end from commit to apply.  rate_rps is the "
        "offered record rate; where throughput_rps sits below it the "
        "cell is past its saturation knee and the latency columns show "
        "queueing, not service time.  bytes_per_frame/bytes_per_msg are "
        "real encoded wire volume (net.bytes.*, repro.sim.wire)."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    rates_rps=(60.0, 320.0),
    batch_sizes=(1, 16),
    fanout=2,
    num_keys=48,
    duration=5.0,
    drain=8.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """The full grid is present and shows the saturation knee."""
    table = result.table("batch sweep")
    # a renamed column or a dropped grid cell fails here instead of at
    # experiments_output.txt regeneration time
    assert table.columns == COLUMNS, table.columns
    expected = (
        len(params["pipelines"]) * len(params["rates_rps"])
        * len(params["batch_sizes"])
    )
    assert len(table.rows) == expected, len(table.rows)
    # the saturation knee at the hot rate: unbatched queues, batched
    # keeps up at the same applied count
    hot = max(params["rates_rps"])
    pubsub = [
        r for r in table.rows
        if r["config"] == "pubsub" and r["rate_rps"] == hot
    ]
    unbatched = next(r for r in pubsub if r["batch"] == 1)
    batched = next(r for r in pubsub if r["batch"] > 1)
    assert unbatched["e2e_p50_ms"] > 4 * batched["e2e_p50_ms"]
    assert batched["applied"] == unbatched["applied"] > 0
    # real wire bytes surfaced in every cell
    assert all(r["bytes_per_frame"] > 0 for r in table.rows)
