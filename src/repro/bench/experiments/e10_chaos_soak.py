"""E10 — chaos soak: delivery pipelines under a randomized fault diet.

Both delivery styles the paper contrasts — pubsub invalidation fan-out
(§3.2.2) and the watch protocol (§4.2) — are exercised here across a
*lossy* simulated network while a randomized schedule of endpoint
outages and partition windows (plus a nonzero per-message loss rate)
runs against the cross-network hop.  Each pipeline is built twice:

- ``*-reliable``   — the hop is a
  :class:`~repro.resilience.channel.ReliableChannel` (acks, retransmits
  on an exponential-backoff :class:`RetryPolicy`, duplicate
  suppression, per-destination circuit breaker).
- ``*-fireforget`` — the same hop with ``reliable=False``: exactly what
  raw ``Network.send`` gives you.  A dropped message is gone.

The claim under test is symmetric and damning in both directions: with
retries, *both* systems converge to zero staleness once the faults
stop — resilience is a transport property, not an argument for either
protocol; without retries, both silently diverge (permanently stale
cache entries that no audit inside the system can see).  What differs
is the *price*: retransmit counts, duplicates, and the staleness
observed while the chaos is running.

Faults are all scheduled from the simulation RNG, so an identical seed
yields an identical fault schedule, retry timing, and output table.
"""

from __future__ import annotations

from repro.bench import worlds
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.cache.cluster import CacheCluster, Prober
from repro.obs import TraceIndex, Tracer
from repro.obs.report import trace_summary_row
from repro.resilience.breaker import CircuitBreakerConfig
from repro.resilience.channel import ChannelConfig
from repro.resilience.retry import RetryPolicy
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulation, Timeout
from repro.sim.network import NetworkConfig
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


#: Retransmit schedule for the reliable rows: unbounded, because the
#: chaos schedule includes partitions longer than any attempt budget —
#: the message must outlive the fault, not the other way round.
_RELIABLE_RETRY = RetryPolicy.unbounded(base_delay=0.05, max_delay=1.0)
_BREAKER = CircuitBreakerConfig(failure_threshold=5, cooldown=1.0)


def _channel_config(reliable: bool, ordered: bool) -> ChannelConfig:
    if not reliable:
        return ChannelConfig(reliable=False)
    return ChannelConfig(
        retry=_RELIABLE_RETRY, ordered=ordered, breaker=_BREAKER
    )


def run(
    configs=("pubsub-reliable", "pubsub-fireforget",
             "watch-reliable", "watch-fireforget"),
    num_nodes: int = 3,
    num_keys: int = 120,
    update_rate: float = 20.0,
    duration: float = 60.0,
    drain: float = 45.0,
    loss_rate: float = 0.08,
    base_latency: float = 0.005,
    net_jitter: float = 0.003,
    outage_mean_interval: float = 18.0,
    outage_mean_duration: float = 1.5,
    partition_duration: float = 2.0,
    probe_rate: float = 40.0,
    poll_interval: float = 0.5,
    seed: int = 53,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E10 chaos soak: reliable vs fire-and-forget delivery "
                   "under loss, outages, and partitions",
        claim="with retries both pubsub and watch pipelines converge to "
              "zero staleness once faults stop; without retries both "
              "silently diverge (permanently stale entries), and the "
              "reliable rows pay for convergence in retransmits and "
              "suppressed duplicates",
    )
    table = result.new_table(
        "chaos soak",
        ["config", "faults", "lost_updates", "retransmits", "dup_dropped",
         "breaker_trips", "stale_reads_frac", "converged", "t_converge_s",
         "final_stale"],
    )
    trace_table = result.new_table(
        "trace summary",
        ["config", "traced_updates", "delivered", "e2e_p50_ms", "e2e_p99_ms",
         "wire_lost", "lost_attributed"],
    )
    tracers = {}
    result.artifacts["tracers"] = tracers
    keys = key_universe(num_keys)

    for config_name in configs:
        system, _, transport = config_name.partition("-")
        reliable = transport == "reliable"
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        for i, key in enumerate(keys):
            store.put(key, {"v": -1, "i": i})
        # trace only post-prefill commits: the fleet attaches the tracer
        # after the seed writes.  Static assignment: no handoffs — E3
        # already covers the routing race, so any divergence here is
        # attributable to the transport
        tracer = Tracer(sim)
        tracers[config_name] = tracer
        fleet = worlds.cache_fleet(
            sim, store, tracer, system, num_nodes,
            NetworkConfig(
                base_latency=base_latency, jitter=net_jitter,
                loss_rate=loss_rate,
            ),
            _channel_config(reliable, ordered=system == "watch"),
        )
        injector = FailureInjector(sim)

        # ------------------------------------------------------------------
        # the chaos schedule: endpoint outages + two partition windows,
        # all over before `duration` so the drain can measure convergence
        faults = injector.random_outages(
            *fleet.outage,
            horizon=duration * 0.8,
            mean_interval=outage_mean_interval,
            mean_duration=outage_mean_duration,
        )
        for frac in (0.3, 0.6):
            faults.append(injector.partition_window(
                fleet.net, *fleet.partition,
                start=duration * frac, duration=partition_duration,
            ))

        cluster = CacheCluster(sim, fleet.sharder, fleet.nodes, store)
        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate,
            value_fn=lambda n: {"v": n},
        )
        writer.start()
        prober = Prober(sim, cluster, keys, rate=probe_rate)
        prober.start()
        sim.call_at(duration, writer.stop)
        sim.call_at(duration, prober.stop)

        converge = {"at": None}

        def convergence_probe():
            while converge["at"] is None:
                if (
                    sim.now() >= duration
                    and cluster.total_stale(keys) == 0
                ):
                    converge["at"] = sim.now()
                    return
                yield Timeout(poll_interval)

        sim.spawn(convergence_probe(), name="convergence-probe")
        sim.run(until=duration + drain)

        final_stale = cluster.total_stale(keys)
        converged = converge["at"] is not None
        table.add(
            config=config_name,
            faults=len(faults),
            lost_updates=fleet.lost_updates(),
            retransmits=worlds.metric_sum(fleet.registries, ".retransmits"),
            dup_dropped=worlds.metric_sum(fleet.registries, ".duplicates_dropped"),
            breaker_trips=worlds.metric_sum(fleet.registries, ".trips"),
            stale_reads_frac=round(prober.stats.stale_fraction, 4),
            converged=converged,
            t_converge_s=(
                round(converge["at"] - duration, 2) if converged else None
            ),
            final_stale=final_stale,
        )
        trace_table.add(config=config_name, **trace_summary_row(TraceIndex(tracer.log)))

    result.notes.append(
        "lost_updates counts application-level messages the transport "
        "dropped and never repaired (publish commands for pubsub, change "
        "events for watch).  t_converge_s is measured from the end of "
        "the write/fault window to the first staleness-free audit; the "
        "fire-and-forget rows' final_stale entries are invisible to the "
        "application — nothing inside the system will ever fix them."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    num_keys=60,
    update_rate=15.0,
    duration=24.0,
    drain=20.0,
    outage_mean_interval=8.0,
    outage_mean_duration=1.0,
    partition_duration=1.5,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Reliable delivery converges through chaos; fire-and-forget
    silently loses updates under the same seed and faults."""
    table = result.table("chaos soak")
    for system in ("pubsub", "watch"):
        reliable = table.row_by("config", f"{system}-reliable")
        fireforget = table.row_by("config", f"{system}-fireforget")

        # with retries the pipeline converges once the faults stop:
        # nothing lost, nothing permanently stale
        assert reliable["converged"], system
        assert reliable["t_converge_s"] is not None, system
        assert reliable["lost_updates"] == 0, system
        assert reliable["final_stale"] == 0, system
        # ...and the convergence was genuinely bought with resilience
        # machinery, not a quiet fault schedule
        assert reliable["retransmits"] > 0, system
        assert reliable["dup_dropped"] > 0, system
        assert reliable["breaker_trips"] > 0, system

        # fire-and-forget: updates are silently lost and the caches
        # diverge permanently
        assert fireforget["lost_updates"] > 0, system
        assert fireforget["final_stale"] > 0, system
        assert fireforget["retransmits"] == 0, system

        # the reliable row also serves fresher reads *during* the chaos
        assert (
            reliable["stale_reads_frac"] < fireforget["stale_reads_frac"]
        ), system
