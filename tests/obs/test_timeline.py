"""Tests for the unified flight recorder and its replayer.

The timeline's load-bearing guarantee is byte-stability: one canonical
event stream, identical at any worker count and across repeated runs, with
recording changing no computed output.  The replayer must reconstruct
derived state from that stream alone and verify the recorded summary
claims (``repro replay --check``).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.replay import TimelineReplayer, load_replayer
from repro.obs.timeline import (
    TIMELINE_LAYERS,
    TIMELINE_SCHEMA_VERSION,
    TimelineError,
    TimelineEvent,
    TimelineRecorder,
    activate_recorder,
    active_recorder,
    canonical_digest,
    read_timeline,
    timeline_lines,
    validate_timeline_event,
    write_timeline,
)
from repro.sim import CampaignConfig, run_campaign
from repro.sim.parallel import ParallelConfig
from repro.telemetry.io import dataset_to_csv_text
from repro.workloads import sgemm

CONFIG = CampaignConfig(days=2, runs_per_day=2)


def _recorded(cluster, parallel=None):
    timeline = TimelineRecorder()
    dataset = run_campaign(
        cluster, sgemm(), CONFIG, parallel=parallel, timeline=timeline
    )
    return dataset, timeline


class TestRecorder:
    def test_seq_is_monotone(self):
        rec = TimelineRecorder()
        assert rec.record("sim", "run", "a") == 0
        assert rec.record("sim", "run", "b") == 1
        assert rec.n_events == 2
        assert [e.seq for e in rec.events()] == [0, 1]

    def test_unknown_layer_rejected(self):
        rec = TimelineRecorder()
        with pytest.raises(TimelineError, match="unknown layer"):
            rec.record("nope", "run", "a")

    def test_payload_is_sorted_and_queryable(self):
        rec = TimelineRecorder()
        rec.record("sim", "run", "a", zeta=1, alpha=2)
        (event,) = rec.events()
        assert [k for k, _ in event.payload] == ["alpha", "zeta"]
        assert event.value("zeta") == 1
        assert event.value("missing", 7) == 7

    def test_activation_is_scoped_and_nestable(self):
        outer, inner = TimelineRecorder(), TimelineRecorder()
        assert active_recorder() is None
        with activate_recorder(outer):
            assert active_recorder() is outer
            with activate_recorder(inner):
                assert active_recorder() is inner
            assert active_recorder() is outer
        assert active_recorder() is None

    def test_merge_payload_preserves_order(self):
        shard_a, shard_b = TimelineRecorder(), TimelineRecorder()
        shard_a.record("sim", "run", "a0")
        shard_b.record("sim", "run", "b0")
        merged = TimelineRecorder()
        merged.merge_payload(shard_a.to_payload())
        merged.merge_payload(shard_b.to_payload())
        assert [e.entity for e in merged.events()] == ["a0", "b0"]
        assert [e.seq for e in merged.events()] == [0, 1]

    def test_streaming_mode_writes_immediately(self):
        sink = io.StringIO()
        rec = TimelineRecorder(stream=sink)
        header = json.loads(sink.getvalue().splitlines()[0])
        assert header["schema_version"] == TIMELINE_SCHEMA_VERSION
        rec.record("service", "admit", "d1", status="miss")
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["seq"] == 0


class TestSerialization:
    def test_write_read_round_trip(self, tmp_path):
        rec = TimelineRecorder()
        rec.record("campaign", "campaign_begin", "c", days=2)
        rec.record("sim", "run", "day-000/run-000", solves=3)
        path = tmp_path / "t.jsonl"
        assert write_timeline(rec, path) == 2
        header, events = read_timeline(path)
        assert header["schema_version"] == TIMELINE_SCHEMA_VERSION
        assert events == rec.events()

    @pytest.mark.parametrize("doc", [
        {"layer": "sim", "kind": "run", "entity": "x"},       # no seq
        {"seq": True, "layer": "sim", "kind": "run", "entity": "x"},
        {"seq": -1, "layer": "sim", "kind": "run", "entity": "x"},
        {"seq": 0, "layer": "nope", "kind": "run", "entity": "x"},
        {"seq": 0, "layer": "sim", "kind": "run", "entity": "x",
         "payload": []},
    ])
    def test_validate_rejects_malformed_events(self, doc):
        with pytest.raises(TimelineError):
            validate_timeline_event(doc)

    def test_read_rejects_out_of_order_seq(self, tmp_path):
        rec = TimelineRecorder()
        rec.record("sim", "run", "a")
        rec.record("sim", "run", "b")
        lines = timeline_lines(rec)
        lines[1], lines[2] = lines[2], lines[1]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TimelineError, match="out of order"):
            read_timeline(path)

    def test_read_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema_version":99,"stream":"repro.timeline"}\n')
        with pytest.raises(TimelineError, match="schema_version"):
            read_timeline(path)


class TestCampaignTimeline:
    @pytest.fixture(scope="class")
    def serial(self, request):
        cluster = request.getfixturevalue("small_longhorn")
        return _recorded(cluster)

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_byte_identical_across_worker_layouts(self, small_longhorn,
                                                  serial, backend):
        _, parallel = _recorded(
            small_longhorn, ParallelConfig(workers=2, backend=backend)
        )
        assert timeline_lines(parallel) == timeline_lines(serial[1])

    def test_byte_identical_across_repeats(self, small_longhorn, serial):
        _, again = _recorded(small_longhorn)
        assert again.digest() == serial[1].digest()

    def test_recording_does_not_perturb_outputs(self, small_longhorn, serial):
        plain = run_campaign(small_longhorn, sgemm(), CONFIG)
        assert dataset_to_csv_text(serial[0]) == dataset_to_csv_text(plain)

    def test_lifecycle_events_bracket_the_runs(self, small_longhorn, serial):
        events = serial[1].events()
        assert events[0].kind == "campaign_begin"
        assert events[0].layer == "campaign"
        assert events[-1].kind == "campaign_end"
        run_events = [e for e in events if e.kind == "run"]
        assert len(run_events) == events[-1].value("n_shards")
        assert events[-1].value("solves") > 0

    def test_replay_check_passes_and_catches_tampering(self, serial):
        replayer = TimelineReplayer(serial[1].events())
        checks = replayer.check()
        assert checks and all(c.ok for c in checks)
        # Drop one run event: the campaign_end claim must now fail.
        events = [e for e in serial[1].events() if e.seq != 1]
        tampered = TimelineReplayer(tuple(events)).check()
        assert any(not c.ok for c in tampered)
        assert any("FAIL" in c.render() for c in tampered)


class TestReplayerQueries:
    def _sched_events(self):
        rec = TimelineRecorder()
        rec.record("sched", "sched_begin", "c", policy="fifo", n_jobs=2,
                   fleet_gpus=8, backfill=False)
        rec.record("sched", "submit", "job-0", job=0, t=0.0)
        rec.record("sched", "submit", "job-1", job=1, t=1.0)
        rec.record("sched", "start", "job-0", job=0, t=2.0,
                   gpus=[0, 1], nodes=[0], backfilled=False)
        rec.record("sched", "finish", "job-0", job=0, t=5.0)
        rec.record("sched", "start", "job-1", job=1, t=5.0,
                   gpus=[2], nodes=[0], backfilled=True)
        return rec.events()

    def test_state_at_reconstructs_queue_and_occupancy(self):
        replayer = TimelineReplayer(self._sched_events())
        mid = replayer.state_at(3)["sched"]
        assert mid == {"queued": 1, "running": 1, "finished": 0,
                       "occupied_gpus": 2, "backfill_starts": 0}
        end = replayer.state_at(None)["sched"]
        assert end == {"queued": 0, "running": 1, "finished": 1,
                       "occupied_gpus": 1, "backfill_starts": 1}

    def test_counters_respect_logical_time(self):
        replayer = TimelineReplayer(self._sched_events())
        assert replayer.counters(2) == {
            "sched.sched_begin": 1, "sched.submit": 2,
        }

    def test_summarize_and_grep(self):
        replayer = TimelineReplayer(self._sched_events())
        summary = replayer.summarize()
        assert summary["n_events"] == 6
        assert summary["layers"] == {"sched": 6}
        assert len(replayer.grep("job-0")) == 3
        assert len(replayer.grep("submit")) == 2
        assert replayer.grep("nothing") == ()

    def test_health_grades_replay_with_recovery_hysteresis(self):
        rec = TimelineRecorder()
        rec.record("health", "THERMAL_RUNAWAY", "g00", gpu_index=0)
        rec.record("health", "DEFECT_DRIFT", "g01", gpu_index=1)
        rec.record("health", "RECOVERED", "g00", gpu_index=0,
                   cleared="THERMAL_RUNAWAY")
        replayer = TimelineReplayer(rec.events())
        after_open = replayer.state_at(1)["health"]["grades"]
        assert after_open == {"g00": "critical", "g01": "watch"}
        final = replayer.state_at(None)["health"]
        # recovered-once keeps the paper's "watch" hysteresis grade
        assert final["grades"] == {"g00": "watch", "g01": "watch"}
        assert final["open_conditions"] == {"g01": ["DEFECT_DRIFT"]}

    def test_load_replayer_round_trip(self, tmp_path):
        rec = TimelineRecorder()
        rec.record("sim", "run", "a", solves=1)
        path = tmp_path / "t.jsonl"
        write_timeline(rec, path)
        replayer = load_replayer(path)
        assert replayer.events == rec.events()


class TestSchedTimeline:
    @pytest.fixture(scope="class")
    def sched_timeline(self):
        from repro.cluster import get_preset
        from repro.sched import FifoPolicy, TraceConfig, generate_trace, \
            run_schedule

        cluster = get_preset("longhorn", seed=11, scale=0.25)
        trace = generate_trace(TraceConfig(n_jobs=20, seed=4))
        timeline = TimelineRecorder()
        with activate_recorder(timeline):
            outcome = run_schedule(cluster, trace, FifoPolicy())
        return outcome, timeline

    def test_events_balance_and_match_records(self, sched_timeline):
        outcome, timeline = sched_timeline
        events = timeline.events()
        assert events[0].kind == "sched_begin"
        kinds = [e.kind for e in events[1:]]
        assert kinds.count("submit") == 20
        assert kinds.count("start") == 20
        assert kinds.count("finish") == 20
        by_id = {r.job_id: r for r in outcome.records}
        for event in events:
            if event.kind == "start":
                record = by_id[event.value("job")]
                # exact floats: the replayer rebuilds records bit-for-bit
                assert event.value("t") == record.start_time_s
                assert event.value("runtime_s") == record.runtime_s
                assert tuple(event.value("gpus")) == record.gpu_indices

    def test_engines_record_identical_timelines(self):
        """The engine's timeline equals one recorded from the oracle's run."""
        from repro.cluster import get_preset
        from repro.sched import FifoPolicy, TraceConfig, generate_trace, \
            run_schedule
        from repro.sched.engine import _record_timeline
        from tests.sched.reference_engine import run_reference

        cluster = get_preset("longhorn", seed=11, scale=0.25)
        trace = generate_trace(TraceConfig(n_jobs=20, seed=4))
        engine_timeline = TimelineRecorder()
        with activate_recorder(engine_timeline):
            run_schedule(cluster, trace, FifoPolicy())
        oracle_timeline = TimelineRecorder()
        outcome = run_reference(cluster, trace, FifoPolicy())
        _record_timeline(
            cluster, FifoPolicy(), trace, outcome, oracle_timeline
        )
        assert engine_timeline.digest() == oracle_timeline.digest()
