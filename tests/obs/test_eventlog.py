"""EventLog: ring bound, drop accounting, and the JSONL round trip."""

from repro.obs import eventlog
from repro.obs.eventlog import EventLog, TraceEvent


def _event(seq: int, hop: str = "store.commit", **attrs) -> TraceEvent:
    return TraceEvent(
        seq=seq, t=float(seq), hop=hop, component="test",
        key=f"k{seq}", version=seq, attrs=attrs,
    )


class TestRing:
    def test_appends_and_lengths(self):
        log = EventLog()
        for i in range(7):
            log.append(_event(i))
        assert len(log) == 7
        assert log.appended == 7
        assert log.dropped == 0

    def test_ring_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(eventlog, "MAX_EVENTS", 3)
        log = EventLog()
        for i in range(10):
            log.append(_event(i))
        assert len(log) == 3
        assert log.appended == 10
        assert log.dropped == 7
        assert [e.seq for e in log] == [7, 8, 9]


class TestJsonl:
    def test_round_trip_preserves_events(self):
        log = EventLog()
        log.append(_event(0, attrs_key="x"))
        log.append(TraceEvent(seq=1, t=0.5, hop="net.drop", component="net",
                              attrs={"src": "a", "dst": "b", "seq": 4,
                                     "cause": "loss"}))
        log.append(_event(2, hop="cache.apply", applied=True))
        restored = EventLog.from_jsonl(log.to_jsonl())
        assert list(restored) == list(log)

    def test_identity_less_events_round_trip_none(self):
        log = EventLog()
        log.append(TraceEvent(seq=0, t=0.0, hop="net.drop", component="net"))
        restored = EventLog.from_jsonl(log.to_jsonl())
        event = list(restored)[0]
        assert event.key is None
        assert event.version is None

    def test_serialization_is_deterministic(self):
        # same events appended in the same order => byte-identical text,
        # regardless of attr-dict insertion order
        a = TraceEvent(seq=0, t=1.0, hop="h", component="c",
                       attrs={"b": 1, "a": 2})
        b = TraceEvent(seq=0, t=1.0, hop="h", component="c",
                       attrs={"a": 2, "b": 1})
        assert a.to_json() == b.to_json()

    def test_blank_lines_ignored(self):
        log = EventLog()
        log.append(_event(0))
        text = log.to_jsonl() + "\n\n"
        assert len(EventLog.from_jsonl(text)) == 1
