"""Streaming trace path: JSONL round trips, equivalence, bounded memory."""

import json
import pickle
import random
import tracemalloc

import pytest

from repro.common.config import ProtocolName, SystemConfig
from repro.errors import WorkloadError
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.base import MemoryOperation
from repro.workloads.streaming import (
    GeneratedOpStream,
    JsonlTraceReader,
    StreamingTraceFileSpec,
    StreamingTraceWorkload,
    StreamingTrafficSpec,
    write_trace_jsonl,
)
from repro.workloads.trace import TraceWorkload
from repro.workloads.traffic import (
    ZipfianTrafficSpec,
    build_traffic_trace,
    traffic_operation_stream,
)

BLOCK = 64
PROCESSORS = 4


def bind(workload, processors=PROCESSORS, block=BLOCK, seed=1):
    workload.bind(processors, block, random.Random(seed))
    return workload


def drain(workload, processors=PROCESSORS):
    """Pump every node dry through the workload contract; per-node op lists."""
    ops = {node: [] for node in range(processors)}
    now = 0
    while not workload.all_finished():
        progressed = False
        for node in range(processors):
            op = workload.next_operation(node, now)
            if op is None:
                continue
            workload.on_complete(node, op, 100, True, now)
            ops[node].append(op)
            progressed = True
        now += 1 if progressed else 100
    return ops


def run_system(workload_factory, protocol=ProtocolName.BASH, seed=1):
    config = SystemConfig(
        num_processors=PROCESSORS,
        protocol=protocol,
        bandwidth_mb_per_second=1600.0,
        random_seed=seed,
    )
    result = MultiprocessorSystem(config, workload_factory(seed)).run()
    return (result.cycles, result.operations, result.misses, result.hits)


class TestJsonlRoundTrip:
    def test_write_then_read_preserves_every_operation(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trace = build_traffic_trace(PROCESSORS, 300, seed=7)
        total = write_trace_jsonl(path, trace, interleave=32)
        assert total == PROCESSORS * 300
        reader = JsonlTraceReader(path)
        assert reader.num_processors == PROCESSORS
        assert reader.header["interleave"] == 32
        for node in range(PROCESSORS):
            replayed = []
            while True:
                window = reader.next_window(node, 64)
                if not window:
                    break
                replayed.extend(window)
            assert replayed == trace[node]

    def test_interleaved_read_ahead_stays_near_one_chunk_per_node(
        self, tmp_path
    ):
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(
            path, build_traffic_trace(PROCESSORS, 400, seed=2), interleave=32
        )
        reader = JsonlTraceReader(path)
        while True:
            windows = [
                reader.next_window(node, 32) for node in range(PROCESSORS)
            ]
            if not any(windows):
                break
        # round-robin consumption of a round-robin file: the buffer never
        # holds much more than one writer chunk per other node
        assert reader.max_buffered_seen <= 32 * PROCESSORS

    def test_restart_rewinds_to_the_first_operation(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trace = build_traffic_trace(2, 50, seed=3)
        write_trace_jsonl(path, trace)
        reader = JsonlTraceReader(path)
        first = reader.next_window(0, 10)
        reader.restart()
        assert reader.next_window(0, 10) == first

    def test_writer_validates_inputs(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with pytest.raises(WorkloadError):
            write_trace_jsonl(path, {}, interleave=8)
        with pytest.raises(WorkloadError):
            write_trace_jsonl(path, {0: []}, interleave=0)


class TestReaderDiagnostics:
    def _file_with_rows(self, tmp_path, rows):
        path = str(tmp_path / "bad.jsonl")
        header = {
            "format": "repro-trace",
            "version": 1,
            "num_processors": 2,
            "block_bytes": 64,
            "interleave": 4,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for row in rows:
                handle.write(row + "\n")
        return path

    def test_missing_file_is_a_workload_error(self, tmp_path):
        with pytest.raises(WorkloadError, match="does not exist"):
            JsonlTraceReader(str(tmp_path / "absent.jsonl"))

    def test_non_trace_file_is_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(WorkloadError, match="repro-trace"):
            JsonlTraceReader(str(path))

    def test_future_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 99, "num_processors": 1}\n'
        )
        with pytest.raises(WorkloadError, match="version 99"):
            JsonlTraceReader(str(path))

    def test_malformed_json_row_names_the_line(self, tmp_path):
        path = self._file_with_rows(tmp_path, ["[0, 64, false, 1, 0", ""])
        reader = JsonlTraceReader(path)
        with pytest.raises(WorkloadError, match="line 2.*not valid JSON"):
            reader.next_window(0, 4)

    def test_wrong_shape_row_names_the_line(self, tmp_path):
        path = self._file_with_rows(
            tmp_path, ['[0, 64, false, 1, 0, "ok", "extra"]']
        )
        reader = JsonlTraceReader(path)
        with pytest.raises(WorkloadError, match="line 2: expected"):
            reader.next_window(0, 4)

    def test_bad_field_type_names_the_line(self, tmp_path):
        path = self._file_with_rows(
            tmp_path, ['[0, "not-an-address", false, 1, 0, "x"]']
        )
        reader = JsonlTraceReader(path)
        with pytest.raises(WorkloadError, match="line 2: malformed field"):
            reader.next_window(0, 4)

    def test_negative_address_and_think_time_are_rejected(self, tmp_path):
        # The same row validator as the JSON trace loader.
        path = self._file_with_rows(tmp_path, ['[0, -64, true, -5, 1, "x"]'])
        reader = JsonlTraceReader(path)
        with pytest.raises(WorkloadError, match="line 2: address and think_cycles"):
            reader.next_window(0, 4)

    def test_non_integer_node_names_the_line(self, tmp_path):
        path = self._file_with_rows(tmp_path, ['["n0", 64, false, 1, 0, "x"]'])
        reader = JsonlTraceReader(path)
        with pytest.raises(WorkloadError, match="line 2: malformed field"):
            reader.next_window(0, 4)

    def test_processor_count_mismatch_is_rejected_at_bind(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(path, build_traffic_trace(2, 10, seed=1))
        workload = StreamingTraceWorkload(JsonlTraceReader(path))
        with pytest.raises(WorkloadError, match="records 2 processors"):
            bind(workload, processors=4)

    def test_skewed_file_trips_the_read_ahead_guard(self, tmp_path):
        # all of node 1's ops before node 0's: serving node 0 first forces
        # the reader to buffer the whole other stream
        path = str(tmp_path / "skewed.jsonl")
        header = {
            "format": "repro-trace",
            "version": 1,
            "num_processors": 2,
            "block_bytes": 64,
            "interleave": 4,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for i in range(64):
                handle.write(json.dumps([1, i * 64, False, 0, 0, ""]) + "\n")
            handle.write(json.dumps([0, 0, False, 0, 0, ""]) + "\n")
        reader = JsonlTraceReader(path, max_buffered_ops=16)
        with pytest.raises(WorkloadError, match="read-ahead exceeded 16"):
            reader.next_window(0, 4)


class TestStreamingEquivalence:
    def test_streamed_ops_equal_materialised_trace(self):
        spec = StreamingTrafficSpec(operations_per_processor=70, window_ops=16)
        streamed = drain(bind(spec(5)))
        assert streamed == build_traffic_trace(PROCESSORS, 70, seed=5)

    def test_streaming_simulation_matches_materialised_twin(self):
        operations = 60
        materialised = run_system(
            ZipfianTrafficSpec(operations_per_processor=operations)
        )
        streamed = run_system(
            StreamingTrafficSpec(operations_per_processor=operations)
        )
        assert streamed == materialised

    def test_file_replay_matches_trace_workload_golden_run(self, tmp_path):
        # small prefix recorded to disk, then replayed through a full
        # simulation: file streaming must be op-identical to TraceWorkload
        path = str(tmp_path / "prefix.jsonl")
        trace = build_traffic_trace(PROCESSORS, 40, seed=9)
        write_trace_jsonl(path, trace, interleave=16)
        golden = run_system(lambda seed: TraceWorkload(trace))
        replayed = run_system(
            StreamingTraceFileSpec(path, window_ops=16), seed=1
        )
        assert replayed == golden

    def test_rebind_replays_identically(self):
        spec = StreamingTrafficSpec(operations_per_processor=30, window_ops=8)
        workload = spec(4)
        first = drain(bind(workload))
        second = drain(bind(workload))
        assert first == second
        assert workload.total_streamed == 30 * PROCESSORS

    def test_compiled_sequencer_step_still_engages(self):
        # class-level entry points are the compiled fast path's contract
        workload = StreamingTrafficSpec(operations_per_processor=10)(1)
        assert "next_operation" not in vars(workload)
        assert "on_complete" not in vars(workload)


class TestStreamingWorkloadContract:
    def test_window_ops_must_be_positive(self):
        with pytest.raises(WorkloadError):
            StreamingTraceWorkload(GeneratedOpStream(lambda *a: iter(())), 0)

    def test_generated_stream_requires_configure(self):
        stream = GeneratedOpStream(lambda *a: iter(()))
        with pytest.raises(WorkloadError, match="before configure"):
            stream.restart()

    def test_file_spec_is_picklable(self, tmp_path):
        spec = StreamingTraceFileSpec(str(tmp_path / "t.jsonl"), window_ops=8)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_token() == spec.cache_token()

    def test_traffic_spec_is_picklable(self):
        spec = StreamingTrafficSpec(operations_per_processor=12)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_token() == spec.cache_token()


class TestBoundedMemory:
    def test_million_op_stream_holds_only_window_proportional_state(self):
        # >= 1M operations through the full workload contract while asserting
        # the resident high-water mark is window-, not trace-, proportional.
        processors = 8
        per_node = 130_000  # 8 x 130k = 1.04M operations
        window_ops = 32

        def factory(node, num_processors, block_bytes):
            return (
                MemoryOperation(
                    address=((node * 131 + i) % 512) * block_bytes,
                    is_write=(i & 7) == 0,
                    think_cycles=0,
                )
                for i in range(per_node)
            )

        workload = StreamingTraceWorkload(
            GeneratedOpStream(factory), window_ops=window_ops
        )
        bind(workload, processors=processors)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        completed = 0
        for node in range(processors):
            while True:
                op = workload.next_operation(node, 0)
                if op is None:
                    break
                workload.on_complete(node, op, 100, True, 0)
                completed += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert completed == processors * per_node >= 1_000_000
        assert workload.all_finished()
        # residency: at most one window per node in flight at once, never
        # anywhere near the 1M-op stream length
        assert workload.max_resident_ops <= window_ops * processors
        # heap high-water: a million MemoryOperations would be tens of MB;
        # the streaming path must stay within a couple of windows' worth
        assert peak - before < 4 * 1024 * 1024

    def test_max_resident_tracks_reader_read_ahead_too(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(
            path, build_traffic_trace(2, 200, seed=1), interleave=16
        )
        workload = StreamingTraceWorkload(
            JsonlTraceReader(path), window_ops=16
        )
        drain(bind(workload, processors=2), processors=2)
        assert workload.total_streamed == 400
        assert 0 < workload.max_resident_ops <= 16 * 2 * 4
