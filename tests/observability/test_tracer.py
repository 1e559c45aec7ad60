"""Tracer sinks: null, recording (ring), tee, and step-plane rows."""

from repro.observability import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    TeeTracer,
    TraceEvent,
)
from repro.observability.tracer import ROW, TraceSite


def _ev(i):
    return TraceEvent("advance", ts_ns=float(i), part="p", scope="u",
                      args={"i": i})


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert NullTracer().enabled is False

    def test_recent_is_empty(self):
        assert NULL_TRACER.recent(10) == []


class TestRecordingTracer:
    def test_keeps_everything_without_capacity(self):
        t = RecordingTracer()
        for i in range(100):
            t.emit(_ev(i))
        assert len(t) == 100
        assert t.total_emitted == 100
        assert t.events[0].args["i"] == 0

    def test_ring_drops_oldest(self):
        t = RecordingTracer(capacity=8)
        for i in range(20):
            t.emit(_ev(i))
        assert len(t) == 8
        assert t.total_emitted == 20
        assert [e.args["i"] for e in t.events] == list(range(12, 20))

    def test_recent_returns_tail(self):
        t = RecordingTracer()
        for i in range(10):
            t.emit(_ev(i))
        assert [e.args["i"] for e in t.recent(3)] == [7, 8, 9]
        assert t.recent(0) == []
        assert len(t.recent(99)) == 10

    def test_of_kind_and_counts(self):
        t = RecordingTracer()
        t.emit(TraceEvent("token_tx", 0.0))
        t.emit(TraceEvent("token_rx", 1.0))
        t.emit(TraceEvent("token_tx", 2.0))
        assert len(t.of_kind("token_tx")) == 2
        assert t.counts() == {"token_tx": 2, "token_rx": 1}

    def test_clear(self):
        t = RecordingTracer()
        t.emit(_ev(0))
        t.clear()
        assert len(t) == 0
        assert t.total_emitted == 0


#: a compiled emit site: one static and one per-event arg
SITE = TraceSite("token_rx", "p", "in",
                 [("link", "q.out->p.in"), ("depth", ROW)])


def _row(i):
    return (SITE, float(i), 0.0, i)


class TestRows:
    """Step-plane rows: stored as tuples, read as events."""

    def test_a_row_reads_as_the_interpreters_event(self):
        event = SITE.event(_row(3))
        want = TraceEvent("token_rx", ts_ns=3.0, part="p", scope="in",
                          args={"link": "q.out->p.in", "depth": 3})
        assert event == want and repr(event) == repr(want)
        assert list(event.args) == ["link", "depth"]

    def test_recording_ring_appends_rows_as_they_are(self):
        t = RecordingTracer()
        sink = t.row_sink()
        sink(_row(1))
        assert list(t._events) == [_row(1)]
        assert t.events == [SITE.event(_row(1))]

    def test_the_row_sink_does_not_count(self):
        """The plane adds its rows to ``total_emitted`` once per step
        call; ``emit`` counts its own events."""
        t = RecordingTracer()
        t.row_sink()(_row(1))
        t.emit(_ev(2))
        assert t.total_emitted == 1

    def test_mixed_ring_reads_in_order(self):
        t = RecordingTracer(capacity=4)
        sink = t.row_sink()
        for i in range(7):
            if i % 2:
                sink(_row(i))
            else:
                t.emit(_ev(i))
        events = t.events
        assert [e.ts_ns for e in events] == [3.0, 4.0, 5.0, 6.0]
        assert [e.kind for e in events] == ["token_rx", "advance"] * 2
        assert events[0] == SITE.event(_row(3))
        assert t.counts() == {"token_rx": 2, "advance": 2}
        assert t.of_kind("token_rx") == [SITE.event(_row(i))
                                         for i in (3, 5)]
        assert t.recent(0) == [] and t.recent(-1) == []
        assert t.recent(2) == events[-2:]
        assert t.recent(99) == events

    def test_other_sinks_get_rows_as_events(self):
        inner = RecordingTracer()
        tee = TeeTracer([inner])
        tee.row_sink()(_row(4))
        assert list(inner._events) == [SITE.event(_row(4))]


class TestTeeTracer:
    def test_fans_out_to_enabled_sinks(self):
        a, b = RecordingTracer(), RecordingTracer(capacity=1)
        tee = TeeTracer([a, b])
        assert tee.enabled
        for i in range(3):
            tee.emit(_ev(i))
        assert len(a) == 3
        assert len(b) == 1

    def test_disabled_when_all_sinks_null(self):
        tee = TeeTracer([NullTracer(), NULL_TRACER])
        assert tee.enabled is False

    def test_recent_uses_first_nonempty_sink(self):
        a, b = RecordingTracer(), RecordingTracer()
        tee = TeeTracer([a, b])
        tee.emit(_ev(1))
        assert [e.args["i"] for e in tee.recent(5)] == [1]
