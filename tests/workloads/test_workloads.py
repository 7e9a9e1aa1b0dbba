"""Workload generators: microbenchmark, synthetic presets, traces."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import MemoryOperation
from repro.workloads.microbenchmark import LockingMicrobenchmark
from repro.workloads.presets import WORKLOAD_ORDER, WORKLOAD_PRESETS, preset
from repro.workloads.synthetic import SyntheticCommercialWorkload
from repro.workloads.trace import TraceWorkload
from repro.workloads.traffic import TrafficWorkload


def bind(workload, processors=4, block=64, seed=1):
    workload.bind(processors, block, random.Random(seed))
    return workload


class TestLockingMicrobenchmark:
    def test_generates_block_aligned_store_operations(self):
        workload = bind(LockingMicrobenchmark(num_locks=16, acquires_per_processor=5))
        op = workload.next_operation(0, now=0)
        assert op.is_write
        assert op.address % 64 == 0
        assert op.address < 16 * 64

    def test_respects_acquire_budget(self):
        workload = bind(LockingMicrobenchmark(num_locks=16, acquires_per_processor=3))
        ops = []
        while True:
            op = workload.next_operation(1, now=0)
            if op is None:
                break
            ops.append(op)
        assert len(ops) == 3

    def test_never_picks_the_same_lock_twice_in_a_row(self):
        workload = bind(LockingMicrobenchmark(num_locks=8, acquires_per_processor=50))
        last = None
        for _ in range(50):
            op = workload.next_operation(0, now=0)
            assert op.address != last
            last = op.address

    def test_think_time_applied(self):
        workload = bind(
            LockingMicrobenchmark(num_locks=8, acquires_per_processor=5, think_cycles=200)
        )
        op = workload.next_operation(0, now=0)
        assert op.think_cycles >= 200

    def test_finished_tracks_completions(self):
        workload = bind(LockingMicrobenchmark(num_locks=8, acquires_per_processor=2))
        op1 = workload.next_operation(0, now=0)
        op2 = workload.next_operation(0, now=0)
        assert not workload.finished(0)
        workload.on_complete(0, op1, 100, True, now=100)
        workload.on_complete(0, op2, 100, True, now=200)
        assert workload.finished(0)
        assert workload.total_acquires() == 2

    def test_validation(self):
        with pytest.raises(WorkloadError):
            LockingMicrobenchmark(num_locks=1)
        with pytest.raises(WorkloadError):
            LockingMicrobenchmark(acquires_per_processor=0)
        with pytest.raises(WorkloadError):
            LockingMicrobenchmark(think_cycles=-1)


class TestWorkloadPresets:
    def test_all_five_paper_workloads_present(self):
        assert set(WORKLOAD_PRESETS) == {"oltp", "apache", "specjbb", "slashcode", "barnes"}
        assert set(WORKLOAD_ORDER) == set(WORKLOAD_PRESETS)

    def test_paper_characterisations_hold(self):
        # SPECjbb has a smaller sharing fraction; Slashcode and Barnes have
        # lower miss rates (Section 5.4's explanation of Figure 10).
        jbb = preset("specjbb")
        others = [preset(name) for name in ("oltp", "apache", "slashcode", "barnes")]
        assert all(jbb.sharing_fraction < other.sharing_fraction for other in others)
        high_rate = min(preset("oltp"), preset("apache"), key=lambda p: p.misses_per_1000_instructions)
        assert preset("slashcode").misses_per_1000_instructions < high_rate.misses_per_1000_instructions
        assert preset("barnes").misses_per_1000_instructions < high_rate.misses_per_1000_instructions

    def test_lookup_is_case_insensitive_and_validates(self):
        assert preset("OLTP").name == "OLTP"
        with pytest.raises(KeyError):
            preset("doom3")

    def test_instructions_per_miss(self):
        assert preset("oltp").instructions_per_miss == pytest.approx(125.0)


class TestSyntheticWorkload:
    def test_generates_requested_number_of_operations(self):
        workload = bind(SyntheticCommercialWorkload("oltp", operations_per_processor=10))
        count = 0
        while workload.next_operation(0, now=0) is not None:
            count += 1
        assert count == 10

    def test_sharing_fraction_roughly_respected(self):
        workload = bind(
            SyntheticCommercialWorkload("oltp", operations_per_processor=400), processors=4
        )
        labels = []
        for node in range(4):
            while True:
                op = workload.next_operation(node, now=0)
                if op is None:
                    break
                labels.append(op.label)
        sharing = labels.count("sharing-miss") / len(labels)
        assert 0.4 < sharing < 0.85

    def test_think_time_reflects_miss_rate(self):
        sparse = bind(SyntheticCommercialWorkload("barnes", operations_per_processor=200))
        dense = bind(SyntheticCommercialWorkload("oltp", operations_per_processor=200))
        sparse_think = [sparse.next_operation(0, 0).think_cycles for _ in range(200)]
        dense_think = [dense.next_operation(0, 0).think_cycles for _ in range(200)]
        assert sum(sparse_think) / 200 > sum(dense_think) / 200

    def test_instruction_accounting(self):
        workload = bind(SyntheticCommercialWorkload("specjbb", operations_per_processor=5))
        op = workload.next_operation(0, now=0)
        workload.on_complete(0, op, 100, True, now=100)
        assert workload.total_instructions() == op.instructions > 0

    def test_accepts_preset_object(self):
        workload = SyntheticCommercialWorkload(preset("apache"))
        assert workload.preset.name == "Apache"


class TestTraceWorkload:
    def test_replays_in_order(self):
        ops = [MemoryOperation(address=0, is_write=True), MemoryOperation(address=64, is_write=False)]
        workload = bind(TraceWorkload({0: ops, 1: []}))
        assert workload.next_operation(0, 0).address == 0
        assert workload.next_operation(0, 0).address == 64
        assert workload.next_operation(0, 0) is None

    def test_finished_after_completions(self):
        ops = [MemoryOperation(address=0, is_write=True)]
        workload = bind(TraceWorkload({0: ops, 1: []}))
        assert workload.finished(1)
        op = workload.next_operation(0, 0)
        assert not workload.finished(0)
        workload.on_complete(0, op, 10, True, 10)
        assert workload.finished(0)
        assert workload.all_finished()

    def test_single_processor_stream_helper(self):
        workload = TraceWorkload.single_processor_stream(
            2, [MemoryOperation(address=0, is_write=True)], num_processors=4
        )
        assert workload.next_operation(2, 0) is not None
        assert workload.next_operation(0, 0) is None

    def test_requires_nonempty_traces(self):
        with pytest.raises(WorkloadError):
            TraceWorkload({})

    def test_json_round_trip(self):
        ops = {
            0: [
                MemoryOperation(address=0, is_write=True, think_cycles=3,
                                instructions=4, label="store"),
                MemoryOperation(address=64, is_write=False),
            ],
            1: [],
        }
        workload = TraceWorkload(ops)
        clone = TraceWorkload.from_jsonable(workload.to_jsonable())
        assert clone.to_jsonable() == workload.to_jsonable()
        first = clone.next_operation(0, 0)
        assert first.address == 0 and first.is_write
        assert first.think_cycles == 3 and first.instructions == 4
        assert first.label == "store"

    def test_jsonable_payload_is_json_serialisable(self):
        import json

        workload = TraceWorkload({0: [MemoryOperation(address=128, is_write=False)]})
        payload = json.dumps(workload.to_jsonable())
        assert TraceWorkload.from_jsonable(json.loads(payload)).to_jsonable() == (
            workload.to_jsonable()
        )


class TestTraceRowDiagnostics:
    """operations_from_jsonable must name the node and row of any bad row."""

    def _payload(self, rows):
        from repro.workloads.trace import operations_from_jsonable

        return operations_from_jsonable({"3": rows})

    def test_short_row_names_node_and_index(self):
        with pytest.raises(WorkloadError, match="node 3 row 1: expected"):
            self._payload([[0, True, 1, 0, "ok"], [64, False]])

    def test_non_list_row_names_node_and_index(self):
        with pytest.raises(WorkloadError, match="node 3 row 0: expected"):
            self._payload(["not-a-row"])

    def test_mistyped_field_names_node_and_index(self):
        with pytest.raises(WorkloadError, match="node 3 row 2: malformed field"):
            self._payload(
                [[0, True, 1, 0, "a"], [64, False, 0, 0, "b"],
                 [None, False, 0, 0, "c"]]
            )

    def test_negative_address_rejected(self):
        with pytest.raises(WorkloadError, match="node 3 row 0"):
            self._payload([[-64, True, 1, 0, "neg"]])

    def test_non_integer_node_key_rejected(self):
        from repro.workloads.trace import operations_from_jsonable

        with pytest.raises(WorkloadError, match="node key 'xyz'"):
            operations_from_jsonable({"xyz": []})


class TestTraceRebindEquivalence:
    """bind() must rewind replay state: reused workloads replay from op 0."""

    def _drain_node(self, workload, node):
        ops = []
        while True:
            op = workload.next_operation(node, 0)
            if op is None:
                break
            workload.on_complete(node, op, 10, True, 0)
            ops.append(op)
        return ops

    def test_rebind_rewinds_positions_and_completions(self):
        trace = {
            node: [MemoryOperation(address=(node * 8 + i) * 64,
                                   is_write=i % 2 == 0)
                   for i in range(6)]
            for node in range(2)
        }
        workload = bind(TraceWorkload(trace), processors=2)
        first = {node: self._drain_node(workload, node) for node in range(2)}
        assert workload.all_finished()
        bind(workload, processors=2)  # a sweep point reusing the machine
        assert not workload.all_finished()
        second = {node: self._drain_node(workload, node) for node in range(2)}
        assert second == first
        assert workload.all_finished()

    def test_partial_replay_then_rebind_starts_over(self):
        trace = {
            0: [MemoryOperation(address=i * 64, is_write=False)
                for i in range(5)]
        }
        workload = bind(TraceWorkload(trace), processors=1)
        head = workload.next_operation(0, 0)
        workload.on_complete(0, head, 10, True, 0)
        bind(workload, processors=1)
        assert workload.next_operation(0, 0) == head


class TestUnboundWorkloadContract:
    """Unbound workloads: introspection works, queries fail clearly."""

    def test_all_finished_before_bind_raises_workload_error(self):
        workload = TraceWorkload({0: []})
        with pytest.raises(WorkloadError, match="not bound to a system yet"):
            workload.all_finished()

    def test_describe_works_before_bind(self):
        # class-level defaults keep unbound introspection AttributeError-free
        workload = SyntheticCommercialWorkload(
            WORKLOAD_ORDER[0], operations_per_processor=10
        )
        assert isinstance(workload.describe(), str)
        assert workload.num_processors is None
        assert not workload.is_bound

    def test_bind_makes_the_same_queries_succeed(self):
        workload = TraceWorkload({0: []})
        bind(workload, processors=1)
        assert workload.is_bound
        assert workload.all_finished()

    def test_require_bound_reports_the_workload_class(self):
        workload = LockingMicrobenchmark(num_locks=4, acquires_per_processor=1)
        with pytest.raises(WorkloadError, match="LockingMicrobenchmark"):
            workload.require_bound()

    @pytest.mark.parametrize(
        "workload",
        [
            LockingMicrobenchmark(num_locks=4, acquires_per_processor=1),
            TrafficWorkload(5),
        ],
        ids=lambda workload: type(workload).__name__,
    )
    def test_next_operation_before_bind_raises_workload_error(self, workload):
        with pytest.raises(WorkloadError, match=type(workload).__name__):
            workload.next_operation(0, 0)

    def test_bound_workload_still_rejects_an_unknown_node(self):
        workload = bind(TrafficWorkload(5), processors=2)
        with pytest.raises(KeyError):
            workload.next_operation(7, 0)
