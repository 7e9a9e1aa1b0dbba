"""Windowed differential checking: prefix equivalence, carry, campaigns."""

import pytest

from repro.common.config import ProtocolName
from repro.errors import VerificationError
from repro.verification.campaign import (
    QUICK_CAMPAIGN,
    VerificationTask,
    run_task,
)
from repro.verification.differential import (
    CONTENDED,
    RACY,
    STRICT,
    MemoryTrace,
    ReplayResult,
    TraceOp,
    WRITE,
    WindowedTraceSource,
    compare_results,
    generate_trace,
    run_differential,
)
from repro.verification.invariants import InvariantReport


def run_windows(seed, windows, window_ops, mode=RACY, **kwargs):
    """Replay ``windows`` windows of one recorded trace through live systems."""
    source = WindowedTraceSource(seed, mode=mode)
    return run_differential(source.windows(windows, window_ops), **kwargs)


class TestWindowedTraceSource:
    @pytest.mark.parametrize("mode", [RACY, STRICT])
    def test_window_concatenation_equals_monolithic_trace(self, mode):
        seed, window_ops, windows = 13, 25, 4
        source = WindowedTraceSource(seed, mode=mode)
        chunked = []
        for _ in range(windows):
            chunked.extend(source.next_window(window_ops).ops)
        monolithic = generate_trace(
            seed, operations=window_ops * windows, mode=mode
        )
        assert tuple(chunked) == monolithic.ops
        assert source.generated == window_ops * windows

    def test_tokens_stay_unique_across_windows(self):
        source = WindowedTraceSource(5)
        tokens = []
        for _ in range(6):
            tokens.extend(
                op.token
                for op in source.next_window(30).ops
                if op.kind == WRITE
            )
        assert len(tokens) == len(set(tokens))
        assert tokens == sorted(tokens)

    def test_unknown_mode_rejected(self):
        with pytest.raises(VerificationError):
            WindowedTraceSource(1, mode="chaotic")


class TestCarryModel:
    def _trace(self, ops):
        return MemoryTrace(
            num_processors=2,
            num_blocks=2,
            mode=STRICT,
            seed=0,
            ops=tuple(ops),
        )

    def test_predicted_final_tokens_thread_the_carry(self):
        trace = self._trace(
            [TraceOp(0, 0, WRITE, 7, 1), TraceOp(1, 1, "read", 0, 1)]
        )
        carry = trace.predicted_final_tokens({0: 3, 1: 4})
        assert carry == {0: 7, 1: 4}

    def test_expected_reads_start_from_the_carry(self):
        trace = self._trace(
            [
                TraceOp(0, 1, "read", 0, 1),  # sees carried value
                TraceOp(0, 0, WRITE, 9, 1),
                TraceOp(1, 0, "read", 0, 1),  # sees this window's write
            ]
        )
        expected = trace.expected_read_tokens({0: 3, 1: 4})
        assert expected == {0: 4, 2: 9}

    def test_expected_reads_default_to_zero_without_carry(self):
        trace = self._trace([TraceOp(0, 0, "read", 0, 1)])
        assert trace.expected_read_tokens({}) == {0: 0}


def _fake_result(protocol, final_image, operations=2):
    return ReplayResult(
        protocol=protocol,
        operations=operations,
        completed=operations,
        cycles=100,
        hits=0,
        silent_stores=0,
        skipped_writebacks=0,
        evictions=0,
        retries=0,
        nacks=0,
        observations={0: [None] * operations, 1: [None] * operations},
        final_image=final_image,
        consistency_violations=[],
        midrun_report=None,
        final_report=InvariantReport(),
    )


class TestCompareWindow:
    def _trace(self):
        return MemoryTrace(
            num_processors=2,
            num_blocks=2,
            mode=RACY,
            seed=0,
            ops=(TraceOp(0, 0, WRITE, 5, 1), TraceOp(1, 1, "read", 0, 1)),
        )

    def test_agreement_with_carry_passes(self):
        image = {0: 5, 1: 4}  # block 1 keeps the carried token
        failures = compare_results(
            self._trace(),
            {
                ProtocolName.SNOOPING: _fake_result(
                    ProtocolName.SNOOPING, image
                ),
                ProtocolName.BASH: _fake_result(ProtocolName.BASH, image),
            },
            {0: 3, 1: 4},
        )
        assert failures == []

    def test_losing_a_carried_value_is_reported(self):
        # a protocol that "forgets" block 1's carried token diverges from
        # the model even though this window never wrote block 1
        failures = compare_results(
            self._trace(),
            {
                ProtocolName.BASH: _fake_result(
                    ProtocolName.BASH, {0: 5, 1: 0}
                )
            },
            {0: 3, 1: 4},
        )
        assert any("carried model predicts 4" in line for line in failures)

    def test_cross_protocol_divergence_is_reported(self):
        failures = compare_results(
            self._trace(),
            {
                ProtocolName.SNOOPING: _fake_result(
                    ProtocolName.SNOOPING, {0: 5, 1: 4}
                ),
                ProtocolName.BASH: _fake_result(
                    ProtocolName.BASH, {0: 5, 1: 7}
                ),
            },
            {0: 3, 1: 4},
        )
        assert any("final image diverges on block 1" in f for f in failures)


class TestRunWindowedDifferential:
    @pytest.mark.parametrize("mode", [RACY, STRICT])
    def test_clean_run_across_live_windows(self, mode):
        result = run_windows(0, 3, 30, mode=mode)
        assert result.ok, result.failures
        assert result.windows == 3
        assert result.operations == 90
        # bounded-memory contract: one window resident, never the campaign
        assert result.max_resident_ops == 30
        # systems stayed alive: every protocol's clock ran on past window 0
        assert len(result.results) == 3
        assert all(r.cycles > 0 for r in result.results.values())
        result.raise_on_failure()  # no-op when ok

    def test_final_tokens_match_a_monolithic_model(self):
        result = run_windows(2, 4, 25)
        monolithic = generate_trace(2, operations=100)
        assert result.final_tokens == monolithic.predicted_final_tokens()

    def test_parameter_validation(self):
        with pytest.raises(VerificationError):
            run_windows(0, 0, 50)
        with pytest.raises(VerificationError):
            run_task(VerificationTask(seed=0, windows=0))
        with pytest.raises(VerificationError, match="one shape"):
            run_differential(
                [generate_trace(0, num_blocks=2), generate_trace(0, num_blocks=3)]
            )

    def test_contended_trace_is_a_single_window(self):
        with pytest.raises(VerificationError, match="single window"):
            run_windows(0, 2, 20, mode=CONTENDED)
        with pytest.raises(VerificationError, match="single window"):
            run_task(VerificationTask(seed=0, mode=CONTENDED, windows=2))

    def test_result_round_trips_to_json(self):
        import json

        result = run_windows(
            1,
            2,
            20,
            protocols=(ProtocolName.SNOOPING, ProtocolName.DIRECTORY),
        )
        payload = json.loads(json.dumps(result.to_jsonable()))
        assert payload["ok"] is True
        assert payload["windows"] == 2
        assert payload["operations"] == 40
        assert list(payload["protocols"]) == ["snooping", "directory"]


class TestOneChecker:
    """A one-window run is the plain-trace check, line for line."""

    @pytest.mark.parametrize("mode", [STRICT, RACY, CONTENDED])
    def test_failures_match_the_monolithic_checker(self, mode, lost_invalidation):
        operations = 50
        failing = 0
        for seed in range(6):
            monolithic = run_differential(
                generate_trace(seed, operations=operations, mode=mode),
                protocols=[ProtocolName.SNOOPING],
            )
            windowed = run_windows(
                seed, 1, operations, mode=mode, protocols=[ProtocolName.SNOOPING]
            )
            prefix = "window 0: "
            assert all(line.startswith(prefix) for line in windowed.failures)
            assert [
                line[len(prefix):] for line in windowed.failures
            ] == monolithic.failures
            failing += not monolithic.ok
        # The injected bug must actually trip the comparison somewhere, or
        # the equality above would only compare empty lists.
        assert failing


class TestWindowedCampaignIntegration:
    def test_quick_campaign_schedules_windowed_tasks(self):
        tasks = QUICK_CAMPAIGN.tasks()
        windowed = [task for task in tasks if task.windows > 1]
        assert len(windowed) == 4  # 2 seeds x 2 modes
        assert {task.mode for task in windowed} == {RACY, STRICT}
        for task in windowed:
            assert task.windows == QUICK_CAMPAIGN.windowed_windows
            assert f"windows={task.windows}" in task.describe()

    def test_run_task_executes_a_windowed_unit(self):
        task = VerificationTask(seed=0, mode=RACY, operations=20, windows=2)
        outcome = run_task(task)
        assert outcome.ok, outcome.failures
        # operations accumulate per protocol, like one-window tasks
        assert outcome.operations == 40 * len(task.protocols)
        assert outcome.protocol_runs == len(task.protocols)

    def test_legacy_task_payload_defaults_to_one_window(self):
        task = VerificationTask(seed=3, windows=5)
        payload = task.to_jsonable()
        clone = VerificationTask.from_jsonable(payload)
        assert clone == task
        payload.pop("windows")  # artifact written before windowed mode
        legacy = VerificationTask.from_jsonable(payload)
        assert legacy.windows == 1
        assert legacy.seed == 3
