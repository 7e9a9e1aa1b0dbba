"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import _core
from repro.common.config import AdaptiveConfig, ProtocolName, SystemConfig
from repro.system.multiprocessor import MultiprocessorSystem, simulate
from repro.workloads.microbenchmark import LockingMicrobenchmark
from repro.workloads.trace import TraceWorkload

#: The three protocols, in the order the paper lists them.
ALL_PROTOCOLS = (ProtocolName.SNOOPING, ProtocolName.DIRECTORY, ProtocolName.BASH)

#: Adaptive configuration that reaches its operating point in short test runs.
FAST_ADAPTIVE = AdaptiveConfig(sampling_interval=64, policy_counter_bits=5)

#: More randomised examples for CI's compiled job:
#: ``python -m pytest --hypothesis-profile=deep ...``.
settings.register_profile("deep", max_examples=1000, deadline=None)

#: Why the compiled extension could not be built for this session, if it
#: could not; reported once at the end of the run.
_BUILD_SKIP_REASON = pytest.StashKey[str]()


def pytest_sessionstart(session):
    """Build the compiled extension once, so both backends run by default.

    This is ``python -m repro._core.build``: a no-op stat when the built
    ``.so`` is current, one compiler call (~2 s) otherwise.  Without a C
    compiler the compiled-backend tests skip, and the reason is reported once.
    """
    import subprocess

    from repro._core import build

    try:
        build.build(verbose=False)
    except (RuntimeError, subprocess.CalledProcessError) as error:
        session.config.stash[_BUILD_SKIP_REASON] = str(error)


def pytest_terminal_summary(terminalreporter, config):
    reason = config.stash.get(_BUILD_SKIP_REASON, None)
    if reason is not None:
        terminalreporter.write_line(
            f"compiled-backend tests skipped: extension not built ({reason})"
        )


def small_config(
    protocol: ProtocolName,
    num_processors: int = 4,
    bandwidth: float = 3200.0,
    seed: int = 1,
    **overrides,
) -> SystemConfig:
    """A small system configuration suitable for unit/integration tests."""
    return SystemConfig(
        num_processors=num_processors,
        protocol=protocol,
        bandwidth_mb_per_second=bandwidth,
        adaptive=overrides.pop("adaptive", FAST_ADAPTIVE),
        random_seed=seed,
        **overrides,
    )


class StubDispatcher:
    """A node stand-in for the networks: every ordered delivery runs
    ``ordered`` and every point-to-point delivery runs ``unordered``."""

    def __init__(self, ordered, unordered) -> None:
        self._ordered = ordered
        self._unordered = unordered

    def ordered_entry(self, msg_type):
        return self._ordered

    def unordered_entry(self, dest_unit, msg_type):
        return self._unordered


def run_microbenchmark(
    protocol: ProtocolName,
    num_processors: int = 4,
    bandwidth: float = 3200.0,
    acquires: int = 30,
    num_locks: int = 64,
    seed: int = 1,
    think_cycles: int = 0,
):
    """Run a short locking-microbenchmark simulation and return its result."""
    config = small_config(protocol, num_processors, bandwidth, seed)
    workload = LockingMicrobenchmark(
        num_locks=num_locks,
        acquires_per_processor=acquires,
        think_cycles=think_cycles,
    )
    return simulate(config, workload)


def build_trace_system(
    protocol: ProtocolName,
    traces,
    num_processors: int = 4,
    bandwidth: float = 100_000.0,
    **overrides,
) -> MultiprocessorSystem:
    """Build (but do not run) a system driven by an explicit trace."""
    config = small_config(protocol, num_processors, bandwidth, **overrides)
    return MultiprocessorSystem(config, TraceWorkload(traces))


@pytest.fixture(params=ALL_PROTOCOLS, ids=[str(p) for p in ALL_PROTOCOLS])
def protocol(request) -> ProtocolName:
    """Parametrised fixture running a test once per protocol."""
    return request.param


@pytest.fixture(params=[_core.PURE, _core.COMPILED])
def backend(request) -> str:
    """Parametrised fixture running a test under each event-core backend.

    The ``compiled`` leg is skipped (with a reason) when the extension has
    not been built; the ``pure`` leg always runs, so the suite never goes
    green by silently testing one backend twice.  Systems built inside the
    test pick up the backend because :class:`repro.sim.Simulator` resolves
    it at construction time.
    """
    name = request.param
    if name == _core.COMPILED and not _core.compiled_available():
        pytest.skip(
            "compiled extension not built "
            "(build it with: python -m repro._core.build)"
        )
    with _core.use_backend(name):
        yield name


@pytest.fixture(name="build_trace_system")
def build_trace_system_fixture():
    """The :func:`build_trace_system` helper, exposed as a fixture.

    Test modules should request this instead of importing from ``conftest``
    directly, which keeps them collectable regardless of how pytest maps
    test files to packages.
    """
    return build_trace_system


@pytest.fixture(name="small_config")
def small_config_fixture():
    """The :func:`small_config` helper, exposed as a fixture."""
    return small_config


@pytest.fixture(name="run_microbenchmark")
def run_microbenchmark_fixture():
    """The :func:`run_microbenchmark` helper, exposed as a fixture."""
    return run_microbenchmark
