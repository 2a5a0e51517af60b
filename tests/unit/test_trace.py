"""Unit tests for the structured trace/metrics layer."""

import io
import json

from repro.coanalysis.trace import (EVENT_KINDS, JsonlTraceSink,
                                    MetricsAggregator, ProgressLine,
                                    TraceEvent, Tracer, aggregate_trace,
                                    read_trace)


def events_for_small_run():
    """A hand-written stream shaped like a 3-path run."""
    return [
        TraceEvent("run_start", seq=0, t=0.0, frontier=1,
                   data={"design": "d", "application": "a",
                         "strategy": "dfs"}),
        TraceEvent("segment_start", seq=1, t=0.01, path_id=0, frontier=0),
        TraceEvent("halt", seq=2, t=0.02, path_id=0, pc=4, cycles=10),
        TraceEvent("fork", seq=3, t=0.02, path_id=0, pc=4, frontier=2),
        TraceEvent("segment_end", seq=4, t=0.02, path_id=0, pc=4,
                   cycles=10, outcome="split", frontier=2),
        TraceEvent("segment_start", seq=5, t=0.03, path_id=1, frontier=1),
        TraceEvent("halt", seq=6, t=0.04, path_id=1, pc=4, cycles=5),
        TraceEvent("merge", seq=7, t=0.04, path_id=1, pc=4, frontier=1),
        TraceEvent("segment_end", seq=8, t=0.04, path_id=1, pc=4,
                   cycles=5, outcome="skipped", frontier=1),
        TraceEvent("segment_start", seq=9, t=0.05, path_id=2, frontier=0),
        TraceEvent("segment_end", seq=10, t=0.06, path_id=2, cycles=7,
                   outcome="done", frontier=0),
        TraceEvent("batch", seq=11, t=0.06, frontier=0),
        TraceEvent("phase", seq=12, t=0.07,
                   data={"phase": "explore", "seconds": 0.06}),
        TraceEvent("run_end", seq=13, t=0.08, frontier=0),
    ]


class TestTraceEvent:
    def test_to_json_drops_absent_fields(self):
        event = TraceEvent("halt", seq=3, t=0.5, path_id=1, pc=9)
        raw = event.to_json()
        assert raw == {"kind": "halt", "seq": 3, "t": 0.5,
                       "path_id": 1, "pc": 9}

    def test_data_keys_are_inlined(self):
        event = TraceEvent("phase", data={"phase": "explore",
                                          "seconds": 1.25})
        assert event.to_json()["phase"] == "explore"

    def test_all_kinds_are_known(self):
        for event in events_for_small_run():
            assert event.kind in EVENT_KINDS


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        out = tmp_path / "run.jsonl"
        sink = JsonlTraceSink(out)
        for event in events_for_small_run():
            sink.emit(event)
        sink.close()
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 14
        assert all(json.loads(line)["kind"] in EVENT_KINDS
                   for line in lines)
        parsed = read_trace(out)
        assert [e.kind for e in parsed] == \
            [e.kind for e in events_for_small_run()]
        assert parsed[2].pc == 4
        assert parsed[12].data["phase"] == "explore"

    def test_emit_after_close_is_noop(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        sink.emit(TraceEvent("halt"))   # must not raise


class TestMetrics:
    def test_aggregation(self):
        metrics = aggregate_trace(events_for_small_run())
        assert metrics.paths_explored == 3
        assert metrics.splits == 1
        assert metrics.merges_covered == 1
        assert metrics.halts == 2
        assert metrics.simulated_cycles == 22
        assert metrics.frontier_high_water == 2
        assert metrics.batches == 1
        assert metrics.outcomes == {"split": 1, "skipped": 1, "done": 1}
        assert metrics.phase_seconds["explore"] == 0.06
        assert metrics.wall_seconds == 0.08

    def test_resume_inherits_counters(self):
        agg = MetricsAggregator()
        agg.emit(TraceEvent("resume", data={"paths_explored": 40,
                                            "splits": 12,
                                            "simulated_cycles": 9000}))
        agg.emit(TraceEvent("segment_end", cycles=10, outcome="done"))
        assert agg.metrics.paths_explored == 41
        assert agg.metrics.simulated_cycles == 9010
        assert agg.metrics.resumes == 1

    def test_summary_is_json_serializable(self):
        summary = aggregate_trace(events_for_small_run()).summary()
        assert json.loads(json.dumps(summary)) == summary


class TestTracer:
    def test_always_carries_metrics(self):
        tracer = Tracer()
        tracer.emit("segment_end", cycles=3, outcome="done")
        assert tracer.metrics.paths_explored == 1

    def test_sequence_numbers_are_monotonic(self, tmp_path):
        out = tmp_path / "t.jsonl"
        tracer = Tracer([JsonlTraceSink(out)])
        for _ in range(5):
            tracer.emit("batch")
        tracer.close()
        assert [e.seq for e in read_trace(out)] == list(range(5))


class TestProgressLine:
    def test_renders_and_terminates_line(self):
        stream = io.StringIO()
        line = ProgressLine(stream=stream, min_interval=0.0)
        line.emit(TraceEvent("segment_end", t=1.0, cycles=5, frontier=2))
        line.emit(TraceEvent("run_end", t=2.0))
        line.close()
        text = stream.getvalue()
        assert "paths=1" in text
        assert "frontier=2" in text
        # run_end ends the line; close() must not add a blank one
        assert text.endswith("t=2.0s\n")
        assert text.count("\n") == 1

    def test_close_terminates_an_interrupted_line(self):
        stream = io.StringIO()
        line = ProgressLine(stream=stream, min_interval=0.0)
        line.emit(TraceEvent("segment_end", t=1.0, cycles=5, frontier=2))
        line.close()
        line.close()
        assert stream.getvalue().endswith("t=1.0s\n")
        assert stream.getvalue().count("\n") == 1
