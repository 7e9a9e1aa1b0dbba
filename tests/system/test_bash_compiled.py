"""Selection and decline discipline of BASH's compiled adaptive path.

On a compiled scheduler each BASH node runs three C entries: the sampling
event (``BashSample``, chosen when ``_schedule_sampling`` runs at
construction and on every reset), the issue step with its adaptive send
(``SequencerStep`` send mode 3, chosen when the sequencer starts) and the
ordered snoop-and-home entry with the home memory's DATA reply
(``SnoopDeliver`` with its ``MemServe``).  Each is offered only whole, for
unpatched stock objects; a class patch, an instance hook, a subclass or a
policy counter wider than the C integer path declines the whole entry for
that node to the pure code, records ``declined``, and runs the patched code
(each patch here is a spy that counts its calls and then defers to the
original, so the run stays bit-identical to a stock pure run).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import _core
from repro.common.config import AdaptiveConfig, ProtocolName
from repro.common.lfsr import LinearFeedbackShiftRegister
from repro.experiments.runner import QUICK, microbenchmark_config, microbenchmark_factory
from repro.interconnect.message import MessageType
from repro.protocols.bash.adaptive import BandwidthAdaptiveMechanism
from repro.protocols.bash.cache_controller import BashCacheController
from repro.protocols.dispatch import compile_sequencer_step
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.microbenchmark import LockingMicrobenchmark

from ..conftest import small_config

needs_compiled = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

BASH = ProtocolName.BASH


def _workload():
    return LockingMicrobenchmark(num_locks=8, acquires_per_processor=12, think_cycles=0)


def _config(**overrides):
    return small_config(BASH, bandwidth=400.0, **overrides)


def _entries(system, node_id):
    """The node's sampler, issue step and home serve selections, in order.

    The home memory's DATA reply runs inside the node's ordered entries, so
    it is compiled exactly when both GETS and GETM entries are the C
    ``SnoopDeliver``.
    """
    selections = _core.handler_selections()
    node = system.nodes[node_id]
    serve = all(
        type(node.ordered_entry(kind)).__name__ == "SnoopDeliver"
        for kind in (MessageType.GETS, MessageType.GETM)
    )
    return (
        selections.get(f"BashCacheController{node_id}.sample"),
        selections.get(f"Sequencer{node_id}.step"),
        "compiled" if serve else "declined",
    )


def _observed(system, result):
    """Everything a run leaves behind: result, memory, adaptive state."""
    return (
        dataclasses.asdict(result),
        system.final_memory_image(),
        [
            (
                [dataclasses.astuple(s) for s in node.cache_controller.adaptive.history],
                node.cache_controller.adaptive.policy_counter.value,
                node.cache_controller.adaptive.lfsr.state,
                node.cache_controller.adaptive.decisions,
            )
            for node in system.nodes
        ],
    )


def _pure_reference(config):
    with _core.use_backend("pure"):
        system = MultiprocessorSystem(config, _workload())
        return _observed(system, system.run())


def _spy(calls, original):
    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    return spy


@needs_compiled
class TestSelection:
    def test_every_node_compiles_all_three_entries(self):
        ext = _core.load_extension()
        config = _config()
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(config, _workload())
            steps = [compile_sequencer_step(node.sequencer) for node in system.nodes]
            observed = _observed(system, system.run())
        assert all(step.send_mode == 3 for step in steps)
        assert all(isinstance(step, ext.SequencerStep) for step in steps)
        for node in system.nodes:
            assert _entries(system, node.node_id) == ("compiled",) * 3
        assert observed == _pure_reference(config)

    def test_sampling_event_is_the_c_object(self):
        ext = _core.load_extension()
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(_config(), _workload())
        callbacks = [
            entry[0]
            for bucket in system.simulator.scheduler._buckets.values()
            for entry in bucket
        ]
        assert sum(isinstance(cb, ext.BashSample) for cb in callbacks) == len(
            system.nodes
        )

    def test_pure_backend_schedules_the_bound_method(self):
        with _core.use_backend("pure"):
            system = MultiprocessorSystem(_config(), _workload())
        callbacks = [
            entry[0]
            for bucket in system.simulator.scheduler._buckets.values()
            for entry in bucket
        ]
        controllers = [node.cache_controller for node in system.nodes]
        assert callbacks == [c._sample_utilization for c in controllers]

    def test_perfbench_sweep_shape_selects_every_entry(self):
        """The ``sweep`` workload's BASH points run every entry compiled."""
        scale = dataclasses.replace(QUICK, seeds=(1,))
        spec = microbenchmark_factory(scale)
        system = None
        with _core.use_backend("compiled"):
            for bandwidth in (200.0, 1600.0, 12800.0):
                config = microbenchmark_config(scale, BASH, bandwidth, seed=1)
                if system is None:
                    system = MultiprocessorSystem(config, spec(1))
                else:
                    system.reset(spec(1), config)
                system.run()
                for node in system.nodes:
                    entries = _entries(system, node.node_id)
                    assert entries == ("compiled",) * 3, bandwidth


#: Every BASH method the compiled entries mirror: (class, method, where the
#: instance lives relative to a cache controller).
PATCH_TARGETS = [
    (BandwidthAdaptiveMechanism, "observe_window", lambda c: c.adaptive),
    (BandwidthAdaptiveMechanism, "should_broadcast", lambda c: c.adaptive),
    (LinearFeedbackShiftRegister, "next_bits", lambda c: c.adaptive.lfsr),
    (BashCacheController, "_sample_utilization", lambda c: c),
    (BashCacheController, "_request_recipients", lambda c: c),
]
PATCH_IDS = [f"{cls.__name__}.{name}" for cls, name, _ in PATCH_TARGETS]


@needs_compiled
class TestDeclineDiscipline:
    @pytest.mark.parametrize("cls,name,owner", PATCH_TARGETS, ids=PATCH_IDS)
    def test_class_patch_runs_pure_everywhere(self, monkeypatch, cls, name, owner):
        config = _config()
        calls = []
        monkeypatch.setattr(cls, name, _spy(calls, getattr(cls, name)))
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(config, _workload())
            observed = _observed(system, system.run())
        assert calls, f"the patched {name} never ran"
        for node in system.nodes:
            sample, step, _ = _entries(system, node.node_id)
            assert (sample, step) == ("declined", "declined")
        monkeypatch.undo()
        assert observed == _pure_reference(config)

    @pytest.mark.parametrize("cls,name,owner", PATCH_TARGETS, ids=PATCH_IDS)
    def test_instance_hook_runs_pure_on_that_node(self, cls, name, owner):
        """A hook on node 0's object declines node 0's whole step only.

        The sampler is chosen at reset and the send at run start, so the
        hook goes in before a reset that re-selects the sampler.  That reset
        rebuilds the LFSR, so an LFSR hook goes on the new one after it
        (the sampler, which never draws, then stays compiled).
        """
        config = _config()
        calls = []
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(config, _workload())
            controller = system.nodes[0].cache_controller
            if cls is not LinearFeedbackShiftRegister:
                target = owner(controller)
                setattr(target, name, _spy(calls, getattr(target, name)))
            system.reset(_workload(), config)
            if cls is LinearFeedbackShiftRegister:
                target = owner(controller)
                setattr(target, name, _spy(calls, getattr(target, name)))
            observed = _observed(system, system.run())
        assert calls, f"the hooked {name} never ran"
        sample, step, _ = _entries(system, 0)
        assert step == "declined"
        expected_sample = "compiled" if cls is LinearFeedbackShiftRegister else "declined"
        assert sample == expected_sample
        for node in system.nodes[1:]:
            assert _entries(system, node.node_id)[:2] == ("compiled", "compiled")
        assert observed == _pure_reference(config)

    def test_subclassed_controller_runs_pure(self):
        calls = []

        class CountingController(BashCacheController):
            def _sample_utilization(self):
                calls.append(1)
                super()._sample_utilization()

        config = _config()
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(config, _workload())
            system.nodes[0].cache_controller.__class__ = CountingController
            system.reset(_workload(), config)
            observed = _observed(system, system.run())
        assert calls
        assert _entries(system, 0) == ("declined",) * 3
        assert _entries(system, 1) == ("compiled",) * 3
        assert observed == _pure_reference(config)

    def test_policy_counter_wider_than_the_c_path_declines(self):
        """70 bits is a legal config, but past the C integer path.

        The sampler and the whole issue step decline; the snoop-and-home
        entry reads no policy counter and stays compiled.
        """
        config = _config(
            adaptive=AdaptiveConfig(sampling_interval=64, policy_counter_bits=70)
        )
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(config, _workload())
            observed = _observed(system, system.run())
        for node in system.nodes:
            assert _entries(system, node.node_id) == ("declined", "declined", "compiled")
        assert observed == _pure_reference(config)
