"""Internet-service traffic models: Zipf skew, load modulation, tenancy."""

import pickle
import random

import pytest

from repro.common.config import ProtocolName, SystemConfig
from repro.errors import WorkloadError
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.traffic import (
    BurstyTrafficSpec,
    DiurnalTrafficSpec,
    MultiTenantTrafficSpec,
    OpenLoopHomeWorkload,
    TrafficWorkload,
    ZipfSampler,
    ZipfianTrafficSpec,
    build_traffic_trace,
    tenant_of,
    traffic_operation_stream,
)

BLOCK = 64


def bind(workload, processors=4, block=BLOCK, seed=1):
    workload.bind(processors, block, random.Random(seed))
    return workload


def drain(workload, processors=4, now=0):
    """Pump every node's stream dry, completing each op immediately."""
    ops = {node: [] for node in range(processors)}
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


class TestZipfSampler:
    def test_top_k_mass_matches_analytic_cdf(self):
        exponent = 0.9
        sampler = ZipfSampler(256, exponent)

        def harmonic(k):
            return sum(1.0 / (rank + 1) ** exponent for rank in range(k))

        for k in (1, 10, 64, 256):
            assert sampler.top_k_mass(k) == pytest.approx(
                harmonic(k) / harmonic(256)
            )
        assert sampler.top_k_mass(0) == 0.0
        assert sampler.top_k_mass(256) == pytest.approx(1.0)

    def test_empirical_mass_tracks_analytic_cdf(self):
        sampler = ZipfSampler(128, 1.0)
        rng = random.Random(7)
        draws = 20_000
        counts = [0] * 128
        for _ in range(draws):
            counts[sampler.sample(rng)] += 1
        running = 0
        for k in (1, 4, 16, 64):
            running = sum(counts[:k])
            measured = running / draws
            assert measured == pytest.approx(sampler.top_k_mass(k), abs=0.02)

    def test_skew_concentrates_mass_on_the_head(self):
        flat = ZipfSampler(512, 0.0)
        skewed = ZipfSampler(512, 1.2)
        assert skewed.top_k_mass(8) > flat.top_k_mass(8)
        # uniform popularity: top-8 of 512 holds exactly 8/512 of the mass
        assert flat.top_k_mass(8) == pytest.approx(8 / 512)

    def test_ranks_stay_in_range(self):
        sampler = ZipfSampler(16, 0.9)
        rng = random.Random(3)
        assert all(0 <= sampler.sample(rng) < 16 for _ in range(2_000))


class TestTrafficStreamDeterminism:
    def test_same_seed_same_stream(self):
        first = list(
            traffic_operation_stream(
                2, seed=9, num_processors=4, operations=120
            )
        )
        second = list(
            traffic_operation_stream(
                2, seed=9, num_processors=4, operations=120
            )
        )
        assert first == second

    def test_seed_changes_the_traffic(self):
        first = list(
            traffic_operation_stream(
                0, seed=1, num_processors=4, operations=80
            )
        )
        second = list(
            traffic_operation_stream(
                0, seed=2, num_processors=4, operations=80
            )
        )
        assert first != second

    def test_stream_independent_of_other_nodes(self):
        # Per-node rng derives from (seed, node) alone, so node 1's stream is
        # identical whether the machine has 4 or 8 processors... except the
        # tenant base, which depends on the processor count; pin one group.
        lone = list(
            traffic_operation_stream(
                1, seed=5, num_processors=4, operations=60, tenant_groups=1
            )
        )
        crowded = list(
            traffic_operation_stream(
                1, seed=5, num_processors=8, operations=60, tenant_groups=1
            )
        )
        assert lone == crowded

    def test_materialised_trace_matches_streams(self):
        trace = build_traffic_trace(4, 50, seed=11)
        for node in range(4):
            assert trace[node] == list(
                traffic_operation_stream(
                    node, seed=11, num_processors=4, operations=50
                )
            )


def _run_traffic(spec, seed=3, protocol=ProtocolName.BASH):
    config = SystemConfig(
        num_processors=4,
        protocol=protocol,
        bandwidth_mb_per_second=1600.0,
        random_seed=seed,
    )
    result = MultiprocessorSystem(config, spec(seed)).run()
    return (
        result.cycles,
        result.operations,
        result.misses,
        result.mean_miss_latency,
    )


class TestTimeVaryingDeterminism:
    def test_diurnal_runs_deterministically_per_seed(self):
        spec = DiurnalTrafficSpec(operations_per_processor=40)
        assert _run_traffic(spec, seed=3) == _run_traffic(spec, seed=3)

    def test_bursty_runs_deterministically_per_seed(self):
        spec = BurstyTrafficSpec(operations_per_processor=40)
        assert _run_traffic(spec, seed=4) == _run_traffic(spec, seed=4)

    def test_diurnal_load_factor_oscillates(self):
        workload = bind(
            TrafficWorkload(
                10, diurnal_period=1000, diurnal_amplitude=0.5
            )
        )
        peak = workload.load_factor(250)  # quarter period: sin peak
        trough = workload.load_factor(750)
        assert peak == pytest.approx(1.5, abs=1e-6)
        assert trough == pytest.approx(0.5, abs=1e-6)
        assert workload.load_factor(0) == pytest.approx(1.0, abs=1e-6)

    def test_burst_factor_applies_inside_burst_window(self):
        workload = bind(
            TrafficWorkload(10, burst_on=100, burst_off=300, burst_factor=4.0)
        )
        assert workload.load_factor(50) == pytest.approx(4.0)
        assert workload.load_factor(200) == pytest.approx(1.0)
        # periodic: the next burst starts one on+off cycle later
        assert workload.load_factor(450) == pytest.approx(4.0)

    def test_high_load_shortens_think_time(self):
        burst = bind(
            TrafficWorkload(
                30,
                seed=6,
                burst_on=10**9,  # permanently inside the burst
                burst_off=1,
                burst_factor=4.0,
                think_jitter=0,
            )
        )
        calm = bind(TrafficWorkload(30, seed=6, think_jitter=0))
        busy_op = burst.next_operation(0, 0)
        calm_op = calm.next_operation(0, 0)
        assert busy_op.address == calm_op.address
        assert busy_op.think_cycles == round(calm_op.think_cycles / 4.0)

    def test_constructor_validation(self):
        with pytest.raises(WorkloadError):
            TrafficWorkload(10, diurnal_amplitude=1.0, diurnal_period=100)
        with pytest.raises(WorkloadError):
            TrafficWorkload(10, diurnal_period=-1)
        with pytest.raises(WorkloadError):
            TrafficWorkload(10, burst_on=10, burst_off=10, burst_factor=0.5)
        # Checked at construction, not at the first draw.
        with pytest.raises(WorkloadError, match="write_fraction"):
            TrafficWorkload(5, write_fraction=1.5)
        with pytest.raises(WorkloadError, match="think time"):
            TrafficWorkload(5, base_think=-1)
        with pytest.raises(WorkloadError, match="think time"):
            TrafficWorkload(5, think_jitter=-1)
        with pytest.raises(WorkloadError, match="tenant_groups"):
            TrafficWorkload(5, tenant_groups=0)
        # An unbound workload names the missing bind, not a bare KeyError.
        with pytest.raises(WorkloadError, match="not bound to a system yet"):
            TrafficWorkload(5).next_operation(0, 0)


class TestMultiTenant:
    def test_tenant_of_partitions_nodes_evenly(self):
        assert [tenant_of(node, 8, 4) for node in range(8)] == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]
        assert [tenant_of(node, 4, 1) for node in range(4)] == [0, 0, 0, 0]

    def test_tenants_never_share_blocks(self):
        spec = MultiTenantTrafficSpec(operations_per_processor=60)
        workload = bind(spec(2), processors=8)
        ops = drain(workload, processors=8)
        for node, issued in ops.items():
            tenant = tenant_of(node, 8, spec.tenant_groups)
            lo = tenant * spec.num_keys
            hi = lo + spec.num_keys
            assert issued, f"node {node} issued nothing"
            for op in issued:
                assert lo <= op.address // BLOCK < hi

    def test_single_tenant_spans_the_whole_key_space(self):
        workload = bind(ZipfianTrafficSpec(operations_per_processor=60)(2))
        ops = drain(workload)
        blocks = {
            op.address // BLOCK for issued in ops.values() for op in issued
        }
        assert max(blocks) < 512 and min(blocks) >= 0


class TestOpenLoopHomeWorkload:
    def test_home_node_issues_nothing(self):
        workload = bind(OpenLoopHomeWorkload(20, 50.0, home=0, seed=1))
        assert workload.next_operation(0, 0) is None
        assert workload.finished(0)

    def test_issuer_cap_limits_active_nodes(self):
        workload = bind(OpenLoopHomeWorkload(20, 50.0, home=0, issuers=2))
        assert workload.next_operation(1, 0) is not None
        assert workload.next_operation(2, 0) is not None
        assert workload.next_operation(3, 0) is None

    def test_every_miss_homes_on_the_home_node(self):
        workload = bind(OpenLoopHomeWorkload(30, 50.0, home=0, seed=2))
        ops = drain(workload)
        assert not ops[0]
        for node in (1, 2, 3):
            assert len(ops[node]) == 30
            for op in ops[node]:
                assert (op.address // BLOCK) % 4 == 0


class TestTrafficSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            ZipfianTrafficSpec(),
            DiurnalTrafficSpec(),
            BurstyTrafficSpec(),
            MultiTenantTrafficSpec(),
        ],
        ids=lambda spec: type(spec).__name__,
    )
    def test_spec_is_picklable_and_tokenable(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_token() == spec.cache_token()
        workload = clone(seed=1)
        assert isinstance(workload, TrafficWorkload)

    def test_cache_tokens_distinguish_models(self):
        tokens = {
            spec().cache_token()
            for spec in (
                ZipfianTrafficSpec,
                DiurnalTrafficSpec,
                BurstyTrafficSpec,
                MultiTenantTrafficSpec,
            )
        }
        assert len(tokens) == 4
