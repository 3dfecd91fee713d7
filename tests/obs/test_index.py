"""TraceIndex: chain reconstruction, latencies, loss provenance."""

from repro.obs.eventlog import EventLog, TraceEvent
from repro.obs.index import LossRecord, TraceIndex
from repro.obs.trace import hops
from repro.sim.metrics import Histogram, MetricsRegistry


def _log(*specs):
    """Build an EventLog from (t, hop, key, version, attrs) tuples."""
    log = EventLog()
    for seq, (t, hop, key, version, attrs) in enumerate(specs):
        log.append(TraceEvent(
            seq=seq, t=t, hop=hop, component="test",
            key=key, version=version, attrs=attrs,
        ))
    return log


def _chain(key, version, *, channel="ch", dst="remote", seq=1, t0=0.0):
    """A complete pubsub chain commit -> ... -> cache.apply."""
    return [
        (t0 + 0.00, hops.COMMIT, key, version, {}),
        (t0 + 0.01, hops.CDC_CAPTURE, key, version, {}),
        (t0 + 0.02, hops.CDC_PUBLISH, key, version, {}),
        (t0 + 0.03, hops.PUBLISH_SEND, key, version,
         {"channel": channel, "dst": dst, "seq": seq}),
        (t0 + 0.05, hops.PUBSUB_APPEND, key, version,
         {"topic": "inv", "partition": 0, "offset": seq}),
        (t0 + 0.06, hops.PUBSUB_DELIVER, key, version, {}),
        (t0 + 0.08, hops.CACHE_APPLY, key, version, {}),
    ]


class TestChains:
    def test_groups_by_identity_in_order(self):
        log = _log(*_chain("a", 1), *_chain("b", 2, seq=2, t0=1.0))
        index = TraceIndex(log)
        assert index.chains() == [("a", 1), ("b", 2)]
        assert [e.hop for e in index._chains[("a", 1)]][0] == hops.COMMIT

    def test_hop_sequence_first_occurrence_only(self):
        # fan-out: three nodes apply the same update; the sequence keeps
        # the first apply so transitions stay well defined
        log = _log(
            (0.0, hops.COMMIT, "a", 1, {}),
            (0.1, hops.CACHE_APPLY, "a", 1, {"node": "n0"}),
            (0.2, hops.CACHE_APPLY, "a", 1, {"node": "n1"}),
            (0.3, hops.CACHE_APPLY, "a", 1, {"node": "n2"}),
        )
        sequence = TraceIndex(log).hop_sequence("a", 1)
        assert sequence == [(hops.COMMIT, 0.0), (hops.CACHE_APPLY, 0.1)]

    def test_delivered_and_completeness(self):
        log = _log(
            *_chain("a", 1),
            (1.0, hops.COMMIT, "b", 2, {}),   # never leaves the store
        )
        index = TraceIndex(log)
        assert index.delivered() == [("a", 1)]
        assert index.chain_is_complete("a", 1, (
            hops.COMMIT, hops.PUBLISH_SEND, hops.CACHE_APPLY))
        assert not index.chain_is_complete("b", 2, (hops.CACHE_APPLY,))


class TestHopLatencies:
    def test_transition_and_total_histograms(self):
        index = TraceIndex(_log(*_chain("a", 1)))
        registry = index.hop_latencies(MetricsRegistry())
        transition = registry.get(
            f"obs.hop.{hops.COMMIT}->{hops.CDC_CAPTURE}")
        assert isinstance(transition, Histogram)
        assert transition.count == 1
        total = registry.get(f"obs.hop.total.{hops.CACHE_APPLY}")
        assert total.count == 1
        assert abs(total.quantile(1.0) - 0.08) < 1e-9

    def test_total_requires_commit_root(self):
        # a chain first seen mid-pipeline has no commit-to-apply latency
        rootless = _chain("a", 1)[1:]
        registry = TraceIndex(_log(*rootless)).hop_latencies(MetricsRegistry())
        assert registry.get(f"obs.hop.total.{hops.CACHE_APPLY}") is None


class TestWireLossProvenance:
    def _lost_chain(self, key, version, seq, transport_events):
        """commit + send with no append, plus identity-less transport."""
        events = [
            (0.0, hops.COMMIT, key, version, {}),
            (0.1, hops.PUBLISH_SEND, key, version,
             {"channel": "ch", "dst": "remote", "seq": seq}),
        ]
        events.extend(transport_events)
        return events

    def test_net_drop_causes(self):
        for cause, label in (
            ("loss", "network loss drop"),
            ("partition", "partition window"),
            ("down", "endpoint down"),
        ):
            log = _log(*self._lost_chain("a", 1, 5, [
                (0.11, hops.NET_DROP, None, None,
                 {"src": "ch", "dst": "remote", "seq": 5, "cause": cause}),
            ]))
            (record,) = TraceIndex(log).loss_provenance()
            assert record == LossRecord(
                key="a", version=1, last_hop=hops.PUBLISH_SEND,
                cause=label, at="ch",
            )

    def test_sender_down_wins_over_drop(self):
        log = _log(*self._lost_chain("a", 1, 5, [
            (0.11, hops.CHANNEL_SENDER_DOWN, None, None,
             {"channel": "ch", "dst": "remote", "seq": 5}),
        ]))
        (record,) = TraceIndex(log).loss_provenance()
        assert record.cause == "publisher down"

    def test_giveup_is_retry_exhaustion(self):
        log = _log(*self._lost_chain("a", 1, 5, [
            (0.11, hops.CHANNEL_GIVEUP, None, None,
             {"channel": "ch", "dst": "remote", "seq": 5}),
        ]))
        (record,) = TraceIndex(log).loss_provenance()
        assert record.cause == "retry budget exhausted"

    def test_unattributed_when_no_transport_evidence(self):
        log = _log(*self._lost_chain("a", 1, 5, []))
        (record,) = TraceIndex(log).loss_provenance()
        assert record.cause == "unattributed (in flight)"

    def test_coverage_counts(self):
        log = _log(
            *self._lost_chain("a", 1, 5, [
                (0.11, hops.NET_DROP, None, None,
                 {"src": "ch", "dst": "remote", "seq": 5, "cause": "loss"}),
            ]),
            *[(t + 1.0, hop, "b", 2, attrs)
              for (t, hop, _k, _v, attrs) in self._lost_chain("b", 2, 6, [])],
            *_chain("c", 3, seq=7, t0=2.0),   # delivered: not a loss
        )
        lost, attributed = TraceIndex(log).wire_loss_coverage()
        assert (lost, attributed) == (2, 1)

    def test_delivered_chain_is_not_lost(self):
        index = TraceIndex(_log(*_chain("a", 1)))
        assert index.loss_provenance() == []


class TestBrokerLossProvenance:
    def test_gap_attributes_gc_and_compaction_via_offset_map(self):
        # offsets 3 and 4 appended with known identities; a subscription
        # cursor later skips 3..5 with gc_floor=4: offset 3 died to
        # retention GC, offset 4 to compaction
        log = _log(
            (0.0, hops.COMMIT, "a", 1, {}),
            (0.1, hops.PUBSUB_APPEND, "a", 1,
             {"topic": "inv", "partition": 0, "offset": 3}),
            (0.0, hops.COMMIT, "b", 2, {}),
            (0.2, hops.PUBSUB_APPEND, "b", 2,
             {"topic": "inv", "partition": 0, "offset": 4}),
            (5.0, hops.PUBSUB_GAP, None, None,
             {"subscription": "group", "topic": "inv", "partition": 0,
              "from_offset": 3, "to_offset": 5, "gc_floor": 4}),
        )
        records = {r.version: r for r in TraceIndex(log).loss_provenance()}
        assert records[1].cause == "retention GC"
        assert records[2].cause == "compaction"
        assert records[1].last_hop == hops.PUBSUB_APPEND
        assert records[1].at == "group"

    def test_provenance_counts_aggregates(self):
        log = _log(
            (0.0, hops.COMMIT, "a", 1, {}),
            (0.1, hops.PUBLISH_SEND, "a", 1,
             {"channel": "ch", "dst": "r", "seq": 1}),
            (0.0, hops.COMMIT, "b", 2, {}),
            (0.1, hops.PUBLISH_SEND, "b", 2,
             {"channel": "ch", "dst": "r", "seq": 2}),
        )
        counts = TraceIndex(log).provenance_counts()
        assert counts == {
            (hops.PUBLISH_SEND, "unattributed (in flight)"): 2,
        }


class TestRepairSummary:
    def test_control_events_do_not_pollute_chains(self):
        # reconcile.*/corrupt.* are control-plane: routed aside even when
        # they carry no key/version, never mixed into transport evidence
        log = _log(
            (0.0, hops.COMMIT, "a", 1, {}),
            (1.0, hops.CORRUPT_INJECT, None, None,
             {"cls": "replica-map-tear", "scope": "replica/s0"}),
            (2.0, hops.RECONCILE_REPAIR, None, None,
             {"scope": "replica/s0", "op": "anti-entropy"}),
        )
        index = TraceIndex(log)
        assert index.chains() == [("a", 1)]
        assert index._transport == []  # not treated as wire evidence
        assert index.repair_summary()["repairs"] == 1

    def test_injection_joined_to_earliest_following_repair(self):
        log = _log(
            (1.0, hops.CORRUPT_INJECT, None, None,
             {"cls": "replica-map-tear", "scope": "replica/s0"}),
            (0.5, hops.RECONCILE_REPAIR, None, None,
             {"scope": "replica/s0"}),   # earlier repair: not this one
            (3.0, hops.RECONCILE_REPAIR, None, None,
             {"scope": "replica/s0"}),
        )
        summary = TraceIndex(log).repair_summary()
        row = summary["classes"]["replica-map-tear"]
        assert row == {
            "injected": 1, "repaired": 1, "unrepaired": 0, "max_lag_s": 2.0,
        }
        # the t=0.5 repair precedes every injection: unattributed
        assert summary["repairs"] == 2
        assert summary["repairs_attributed"] == 1

    def test_unrepaired_injection_counted(self):
        log = _log(
            (1.0, hops.CORRUPT_INJECT, None, None,
             {"cls": "edge-cursor-advance", "scope": "edge/c1"}),
            (2.0, hops.RECONCILE_REPAIR, None, None,
             {"scope": "edge/c2"}),   # different scope: no join
        )
        summary = TraceIndex(log).repair_summary()
        row = summary["classes"]["edge-cursor-advance"]
        assert (row["injected"], row["repaired"], row["unrepaired"]) == (1, 0, 1)
        assert summary["repairs_attributed"] == 0

    def test_classes_aggregate_across_scopes(self):
        log = _log(
            (1.0, hops.CORRUPT_INJECT, None, None,
             {"cls": "replica-cursor-rewind", "scope": "replica/s0"}),
            (1.0, hops.CORRUPT_INJECT, None, None,
             {"cls": "replica-cursor-rewind", "scope": "replica/s1"}),
            (1.5, hops.RECONCILE_REPAIR, None, None,
             {"scope": "replica/s0"}),
            (4.0, hops.RECONCILE_REPAIR, None, None,
             {"scope": "replica/s1"}),
        )
        summary = TraceIndex(log).repair_summary()
        row = summary["classes"]["replica-cursor-rewind"]
        assert (row["injected"], row["repaired"]) == (2, 2)
        assert row["max_lag_s"] == 3.0  # the slower of the two joins
        assert summary["repairs_attributed"] == 2
