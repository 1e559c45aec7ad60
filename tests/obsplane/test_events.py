"""The structured event log: append/read roundtrip, filtering,
fork-safe whole-line appends, following, and the human rendering."""

from __future__ import annotations

import json
import multiprocessing as mp
import threading

import pytest

from repro.observability import (
    EVENT_KINDS,
    NULL_TRACER,
    EventLog,
    dict_to_event,
    follow_events,
    format_event,
    lifecycle_event,
    mint_corr_id,
    open_event_log,
    read_events,
)
from repro.parallel import fork_available


class TestEventLog:
    def test_roundtrip(self, tmp_path):
        log = EventLog(tmp_path / "ev.jsonl")
        log.emit(lifecycle_event("submitted", corr="corr-1",
                                 tenant="alice", job="job-1",
                                 priority=3))
        log.emit(lifecycle_event("done", corr="corr-1",
                                 tenant="alice", job="job-1"))
        log.close()
        entries = list(read_events(tmp_path / "ev.jsonl"))
        assert [e.kind for e in entries] == ["submitted", "done"]
        assert entries[0].args["corr"] == "corr-1"
        assert entries[0].args["priority"] == 3
        assert entries[0].args["seq"] == 1 \
            and entries[1].args["seq"] == 2
        for entry in entries:
            assert entry.args["pid"] > 0
            assert entry.ts_ns > 0
            assert entry.args["wall"] > 0

    def test_identity_fields_appear_only_when_set(self, tmp_path):
        log = EventLog(tmp_path / "ev.jsonl")
        log.emit(lifecycle_event("queued", corr="corr-2"))
        log.close()
        (line,) = (tmp_path / "ev.jsonl").read_text().splitlines()
        entry = json.loads(line)
        assert entry["corr"] == "corr-2"
        for absent in ("tenant", "fingerprint", "job", "part",
                       "host"):
            assert absent not in entry

    def test_filters(self, tmp_path):
        log = EventLog(tmp_path / "ev.jsonl")
        log.emit(lifecycle_event("submitted", corr="a", tenant="t1"))
        log.emit(lifecycle_event("submitted", corr="b", tenant="t2"))
        log.emit(lifecycle_event("done", corr="a", tenant="t1"))
        log.close()
        path = tmp_path / "ev.jsonl"
        assert len(list(read_events(path, corr="a"))) == 2
        assert len(list(read_events(path, tenant="t2"))) == 1
        assert len(list(read_events(path, kinds=["done"]))) == 1
        assert len(list(read_events(path, corr="a",
                                    kinds=["done"]))) == 1

    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        log = EventLog(path)
        log.emit(lifecycle_event("submitted", corr="a"))
        log.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "done", "corr"')  # torn mid-crash
        assert [e.kind for e in read_events(path)] \
            == ["submitted"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert list(read_events(tmp_path / "absent.jsonl")) == []

    def test_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        log = EventLog(path)
        for kind in EVENT_KINDS:
            log.emit(lifecycle_event(kind, corr="c", detail="x"))
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == len(EVENT_KINDS)
        for line in lines:
            json.loads(line)

    @pytest.mark.skipif(not fork_available(),
                        reason="needs fork")
    def test_forked_child_appends_whole_lines(self, tmp_path):
        """A forked child inheriting the log reopens its own stream;
        parent and child lines interleave whole, each stamped with
        the writer's pid."""
        path = tmp_path / "ev.jsonl"
        log = EventLog(path)
        log.emit(lifecycle_event("submitted", corr="parent"))
        ctx = mp.get_context("fork")

        def child(event_log):
            for i in range(20):
                event_log.emit(lifecycle_event(
                    "worker_spawn", corr="child", i=i))

        proc = ctx.Process(target=child, args=(log,))
        proc.start()
        for i in range(20):
            log.emit(lifecycle_event("queued", corr="parent", i=i))
        proc.join(10.0)
        assert proc.exitcode == 0
        log.close()
        entries = list(read_events(path))
        assert len(entries) == 41
        pids = {e.args["pid"] for e in entries}
        assert len(pids) == 2
        assert len([e for e in entries
                    if e.args["corr"] == "child"]) == 20


class TestNullAndOpen:
    def test_open_event_log(self, tmp_path):
        assert open_event_log(None) is NULL_TRACER
        assert open_event_log("") is NULL_TRACER
        log = open_event_log(tmp_path / "ev.jsonl")
        assert isinstance(log, EventLog) and log.enabled
        log.close()


class TestFollowAndFormat:
    def test_follow_yields_then_times_out(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        log = EventLog(path)
        log.emit(lifecycle_event("submitted", corr="f1"))
        log.emit(lifecycle_event("done", corr="f1"))
        log.close()
        got = list(follow_events(path, corr="f1", poll=0.02,
                                 timeout=0.2))
        assert [e.kind for e in got] == ["submitted", "done"]

    def test_follow_timeout_zero_returns_after_one_idle_poll(
            self, tmp_path):
        """``repro tail -f --timeout 0``: drain what is there, then
        stop at the first read that finds nothing new."""
        path = tmp_path / "ev.jsonl"
        log = EventLog(path)
        log.emit(lifecycle_event("submitted", corr="f0"))
        log.close()
        got = []
        # in a thread: the old `if timeout` deadline followed forever
        follower = threading.Thread(
            target=lambda: got.extend(
                follow_events(path, poll=0.01, timeout=0)),
            daemon=True)
        follower.start()
        follower.join(5.0)
        assert not follower.is_alive()
        assert [e.kind for e in got] == ["submitted"]

    def test_format_event(self):
        corr = mint_corr_id()
        line = format_event(dict_to_event(
            {"kind": "done", "wall": 1700000000.0,
             "corr": corr, "tenant": "alice",
             "run_id": "r-1", "seq": 3, "pid": 42}))
        assert "done" in line
        assert f"corr={corr}" in line
        assert "tenant=alice" in line
        assert "run_id=r-1" in line
        assert "seq=" not in line and "pid=" not in line

    def test_mint_corr_id_shape(self):
        a, b = mint_corr_id(), mint_corr_id()
        assert a.startswith("corr-") and len(a) == 17
        assert a != b
