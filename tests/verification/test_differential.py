"""Differential verification: trace recording, replay, and cross-checking."""

import pytest

from repro.coherence.state import MOSIState
from repro.common.config import ProtocolName
from repro.errors import VerificationError
from repro.experiments.batch import BatchRunner
from repro.interconnect.message import MessageType
from repro.verification.differential import (
    CONTENDED,
    MemoryTrace,
    RACY,
    ReplayConfig,
    STRICT,
    TraceOp,
    TraceReplayer,
    empty_trace_workload,
    generate_trace,
    run_differential,
)


class TestTraceGeneration:
    def test_deterministic_per_seed(self):
        assert generate_trace(5).ops == generate_trace(5).ops
        assert generate_trace(5).ops != generate_trace(6).ops

    def test_write_tokens_unique_and_nonzero(self):
        trace = generate_trace(1, operations=80)
        tokens = [op.token for op in trace.ops if op.kind == "write"]
        assert tokens
        assert 0 not in tokens
        assert len(tokens) == len(set(tokens))

    def test_racy_traces_have_a_single_writer_per_block(self):
        trace = generate_trace(2, operations=120, mode=RACY)
        assert trace.single_writer
        writers = {}
        for op in trace.ops:
            if op.kind == "write":
                writers.setdefault(op.block, set()).add(op.node)
        assert all(len(nodes) == 1 for nodes in writers.values())

    def test_strict_traces_migrate_ownership(self):
        # Across a handful of seeds, some strict trace must use >1 writer for
        # some block (that is the point of the serialised mode).
        multi = False
        for seed in range(6):
            trace = generate_trace(seed, operations=120, mode=STRICT)
            writers = {}
            for op in trace.ops:
                if op.kind == "write":
                    writers.setdefault(op.block, set()).add(op.node)
            multi = multi or any(len(nodes) > 1 for nodes in writers.values())
        assert multi

    def test_unknown_mode_rejected(self):
        with pytest.raises(VerificationError):
            generate_trace(1, mode="chaotic")

    @pytest.mark.parametrize(
        "field,value",
        [("num_processors", 0), ("num_blocks", 0), ("max_delay", 1)],
    )
    def test_empty_draw_ranges_rejected_by_name(self, field, value):
        with pytest.raises(VerificationError, match=field):
            generate_trace(1, **{field: value})

    @pytest.mark.parametrize("mode", [STRICT, RACY, CONTENDED])
    def test_json_round_trip(self, mode):
        trace = generate_trace(3, operations=40, mode=mode)
        clone = MemoryTrace.from_jsonable(trace.to_jsonable())
        assert clone == trace

    def test_contended_traces_have_several_writers_per_block(self):
        trace = generate_trace(2, operations=120, mode=CONTENDED)
        assert not trace.single_writer
        writers = {}
        for op in trace.ops:
            if op.kind == "write":
                writers.setdefault(op.block, set()).add(op.node)
        assert any(len(nodes) > 1 for nodes in writers.values())

    @pytest.mark.parametrize(
        "row,message",
        [
            ([7, 0, "write", 1, 1], r"trace op 1 node must be in \[0, 1\], got 7"),
            ([0, 9, "read", 0, 1], r"trace op 1 block must be in \[0, 1\], got 9"),
            ([0, 0, "read"], r"trace op 1: expected \[node, block, kind"),
            ([0, 0, "wrte", 1, 1], r"trace op 1 kind must be one of"),
            ([0, 0, "write", "5", 1], r"trace op 1 token must be an integer"),
            ([0, 0, "write", 5, 0], r"trace op 1 delay must be at least 1, got 0"),
            ([0, True, "read", 0, 1], r"trace op 1 block must be an integer"),
        ],
    )
    def test_hand_edited_ops_fail_loudly(self, row, message):
        data = MemoryTrace(
            num_processors=2, num_blocks=2, mode=STRICT, seed=0,
            ops=(TraceOp(0, 0, "write", 1),),
        ).to_jsonable()
        data["ops"].append(row)
        with pytest.raises(VerificationError, match=message):
            MemoryTrace.from_jsonable(data)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("mode", "chaotic", "trace mode must be one of"),
            ("num_blocks", 0, "trace num_blocks must be at least 1"),
            ("ops", None, "trace ops must be a list"),
        ],
    )
    def test_hand_edited_header_fails_loudly(self, field, value, message):
        data = generate_trace(1, operations=5).to_jsonable()
        data[field] = value
        with pytest.raises(VerificationError, match=message):
            MemoryTrace.from_jsonable(data)

    def test_racy_trace_with_a_second_writer_is_rejected(self):
        # Replayed, node 1's write lands first, so every correct protocol
        # would end with node 0's token and be reported as failing.
        data = {
            "num_processors": 2, "num_blocks": 1, "mode": RACY, "seed": 0,
            "ops": [[0, 0, "write", 1, 100], [1, 0, "write", 2, 1]],
        }
        with pytest.raises(VerificationError, match="trace op 1 node: a racy"):
            MemoryTrace.from_jsonable(data)
        data["mode"] = STRICT
        assert len(MemoryTrace.from_jsonable(data).ops) == 2

    def test_missing_header_field_is_named(self):
        data = generate_trace(1, operations=5).to_jsonable()
        del data["seed"]
        with pytest.raises(VerificationError, match="seed"):
            MemoryTrace.from_jsonable(data)

    def test_subset_keeps_selected_ops_in_order(self):
        trace = generate_trace(4, operations=20)
        shrunk = trace.subset([5, 1, 9])
        assert shrunk.ops == (trace.ops[1], trace.ops[5], trace.ops[9])

    def test_predicted_final_tokens_follow_last_write(self):
        trace = MemoryTrace(
            num_processors=2, num_blocks=2, mode=STRICT, seed=0,
            ops=(
                TraceOp(0, 0, "write", 1),
                TraceOp(1, 0, "write", 2),
                TraceOp(0, 1, "read"),
            ),
        )
        assert trace.predicted_final_tokens() == {0: 2, 1: 0}
        assert trace.expected_read_tokens() == {2: 0}

    def test_to_workload_drops_writebacks(self):
        trace = MemoryTrace(
            num_processors=2, num_blocks=1, mode=RACY, seed=0,
            ops=(
                TraceOp(0, 0, "write", 1),
                TraceOp(0, 0, "writeback"),
                TraceOp(1, 0, "read"),
            ),
        )
        workload = trace.to_workload(64)
        data = workload.to_jsonable()
        assert len(data["0"]) == 1 and len(data["1"]) == 1


class TestDifferentialRuns:
    @pytest.mark.parametrize("mode", [STRICT, RACY])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correct_protocols_agree(self, mode, seed, backend):
        trace = generate_trace(seed, operations=40, mode=mode)
        result = run_differential(trace)
        assert result.ok, result.failures
        for replay in result.results.values():
            assert replay.completed == replay.operations
            assert replay.final_image == trace.predicted_final_tokens()
            assert replay.midrun_report is not None
            assert replay.midrun_report.blocks_checked >= replay.operations

    @pytest.mark.parametrize("mode", [RACY, STRICT])
    def test_empty_trace_finishes_and_passes(self, mode, backend):
        outcome = run_differential(generate_trace(0, operations=0, mode=mode))
        assert outcome.ok, outcome.failures
        for result in outcome.results.values():
            assert result.completed == result.operations == 0
            assert result.watchdog_failure is None

    def test_strict_observation_streams_identical(self):
        trace = generate_trace(7, operations=50, mode=STRICT)
        result = run_differential(trace)
        assert result.ok, result.failures
        streams = [
            {node: obs for node, obs in replay.observations.items()}
            for replay in result.results.values()
        ]
        assert streams[0] == streams[1] == streams[2]

    def test_two_outstanding_and_low_bandwidth(self):
        replay = ReplayConfig(
            bandwidth_mb_per_second=200.0, max_outstanding_per_node=2
        )
        for seed in (11, 12):
            trace = generate_trace(seed, operations=50, mode=RACY)
            result = run_differential(trace, replay=replay)
            assert result.ok, result.failures

    def test_tiny_cache_forces_evictions_and_still_passes(self):
        replay = ReplayConfig(cache_capacity_blocks=2)
        trace = generate_trace(13, num_blocks=4, operations=50, mode=RACY)
        result = run_differential(trace, replay=replay)
        assert result.ok, result.failures
        assert any(r.evictions > 0 for r in result.results.values())

    def test_reset_reuse_matches_fresh_systems(self):
        trace = generate_trace(5, operations=40, mode=STRICT)
        fresh = run_differential(trace)
        runner = BatchRunner()
        # Warm the runner with a different task first, then re-run.
        run_differential(generate_trace(9, operations=30, mode=RACY),
                         acquire=runner.acquire)
        reused = run_differential(trace, acquire=runner.acquire)
        assert fresh.ok and reused.ok
        for protocol in fresh.results:
            assert (
                fresh.results[protocol].observations
                == reused.results[protocol].observations
            )
            assert (
                fresh.results[protocol].final_image
                == reused.results[protocol].final_image
            )

    def test_replayer_rejects_mismatched_system(self, small_config):
        from repro.system.multiprocessor import MultiprocessorSystem

        trace = generate_trace(1, num_processors=4, operations=10)
        config = small_config(ProtocolName.SNOOPING, num_processors=6)
        system = MultiprocessorSystem(config, empty_trace_workload(6))
        with pytest.raises(VerificationError):
            TraceReplayer(system, trace)


class TestBugDetection:
    def test_corrupt_directory_data_is_caught_and_attributed(self, monkeypatch):
        """A mutated handler in one protocol is caught by the other two."""
        from repro.protocols.directory.cache_controller import (
            DirectoryCacheController,
        )

        original = DirectoryCacheController._serve_forward

        def corrupt(self, block, message):
            if message.msg_type is MessageType.FWD_GETS and block.is_owner:
                self._send_data(
                    block.address, message.requester, 424242,
                    message.transaction_id,
                )
                block.state = MOSIState.OWNED
                block.tracked_sharers.add(message.requester)
                return
            return original(self, block, message)

        monkeypatch.setattr(
            DirectoryCacheController, "_serve_forward", corrupt
        )
        caught = False
        for seed in range(4):
            trace = generate_trace(seed, operations=50, mode=STRICT)
            result = run_differential(trace)
            if not result.ok:
                caught = True
                assert any("directory" in f for f in result.failures)
                break
        assert caught

    def test_lost_invalidation_is_caught_by_contended_replay(
        self, lost_invalidation
    ):
        """Several racing writers expose the bug on every seed."""
        for seed in range(6):
            trace = generate_trace(seed, operations=60, mode=CONTENDED)
            result = run_differential(trace, protocols=[ProtocolName.SNOOPING])
            assert not result.ok, seed

    def test_lost_invalidation_is_caught(self, lost_invalidation):
        """A snooping sharer that ignores invalidations trips the checks."""
        caught = False
        for seed in range(4):
            trace = generate_trace(seed, operations=50, mode=RACY)
            result = run_differential(
                trace, protocols=[ProtocolName.SNOOPING]
            )
            if not result.ok:
                caught = True
                break
        assert caught

    def test_watchdog_dumps_structured_failure_on_lost_data(self, monkeypatch):
        """Dropping every data response deadlocks the replay; the watchdog
        must convert that into a structured dump instead of a silent hang."""
        from repro.protocols.snooping.cache_controller import (
            SnoopingCacheController,
        )

        monkeypatch.setattr(
            SnoopingCacheController, "_handle_data", lambda self, message: None
        )
        trace = generate_trace(0, operations=20, mode=RACY)
        replay = ReplayConfig(watchdog_interval=5_000, drain_cycles=1_000)
        result = run_differential(
            trace, protocols=[ProtocolName.SNOOPING], replay=replay
        )
        assert not result.ok
        replay_result = result.results[ProtocolName.SNOOPING]
        dump = replay_result.watchdog_failure
        assert dump is not None
        assert dump["completed"] < dump["operations"]
        assert dump["outstanding"]
        assert dump["recent_events"]
        assert dump["protocol"] == "snooping"
        assert any("watchdog" in failure for failure in result.failures)
