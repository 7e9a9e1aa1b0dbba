"""Windowed differential verification: long campaigns under bounded memory.

The classic differential checker (:mod:`repro.verification.differential`)
materialises one whole :class:`MemoryTrace`, replays it through every
protocol and compares the outcomes.  That caps a campaign's length at
whatever trace fits comfortably in memory — and, more subtly, every replay
starts from a *cold* machine, so deep protocol state built up over millions
of operations is never exercised.

This module runs the same cross-protocol comparison **window by window**:

* the :class:`~repro.verification.differential.WindowedTraceSource` that
  records every differential trace (a monolithic trace is its single window)
  hands out bounded windows of operations, carrying the generator state (rng,
  token counter, per-block writer/owner model) across calls — the
  concatenation of its windows is op-for-op identical to one monolithic trace
  with the same seed and shape, yet only one window is ever resident;
* one live system **per protocol stays alive across windows** — caches stay
  warm, directories keep their sharer sets, the adaptive policy keeps its
  counters — and a fresh :class:`TraceReplayer` drives each window through
  it;
* the model's view of memory (the *carry*: last written token per block) is
  threaded across windows, and each window goes through the monolithic
  checker's own comparison
  (:func:`~repro.verification.differential.compare_results`) started from
  that carry, so per-window final images, strict read values and
  consistency chains are all checked against history the current window
  never saw.

Cross-window consistency needs one piece of glue: each window's fresh
:class:`~repro.verification.consistency.ConsistencyChecker` is seeded with
the carried token per block as a synthetic ordered store at order position
:data:`CARRY_ORDER` (before everything the window itself orders).  Reads of
values written windows ago — and silent-store chains whose base store
happened windows ago — then resolve instead of reporting unknown tokens.

A failing window stops the run: after a divergence the protocols' states can
legitimately differ, so later windows would only cascade the first failure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import ProtocolName
from ..errors import VerificationError
from ..system.multiprocessor import MultiprocessorSystem
from .differential import (
    ALL_PROTOCOLS,
    RACY,
    ReplayConfig,
    ReplayResult,
    SystemAcquirer,
    TraceReplayer,
    WindowedTraceSource,
    compare_results,
    empty_trace_workload,
)

#: Synthetic "node" recorded for carried-in block values when seeding a
#: window's consistency checker (never a real processor id).
CARRY_NODE = -1

#: Order position assigned to carried-in values: strictly before every
#: transaction any window orders (real order sequences are non-negative and
#: keep increasing across windows because the systems stay alive).
CARRY_ORDER = -1


# --------------------------------------------------------------- model carry


def _seed_checker(replayer: TraceReplayer, carry: Dict[int, int]) -> None:
    """Teach a fresh window's checker about values carried in from history."""
    for block, token in carry.items():
        if token == 0:
            continue
        replayer.checker.record_write(
            CARRY_NODE, replayer._address(block), token, CARRY_ORDER, 0
        )


# ------------------------------------------------------------------------ run


@dataclass
class WindowedDifferentialResult:
    """Outcome of one windowed differential run."""

    seed: int
    mode: str
    num_processors: int
    num_blocks: int
    windows_requested: int
    windows_completed: int
    window_ops: int
    operations: int
    protocols: Tuple[ProtocolName, ...]
    failures: List[str] = field(default_factory=list)
    #: Failures of the (single) window that stopped the run, keyed by index.
    window_failures: Dict[int, List[str]] = field(default_factory=dict)
    #: The model's final per-block token map (the carry after the last window).
    final_tokens: Dict[int, int] = field(default_factory=dict)
    #: Final simulator cycle per protocol (systems stay alive across windows).
    cycles: Dict[str, int] = field(default_factory=dict)
    watchdog_dumps: Dict[str, Dict] = field(default_factory=dict)
    #: Peak number of trace operations materialised at any moment — the
    #: bounded-memory contract: one window, never the whole campaign.
    max_resident_ops: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> None:
        if self.failures:
            summary = "; ".join(self.failures[:10])
            raise VerificationError(
                f"windowed differential check failed "
                f"({len(self.failures)} problem(s)): {summary}"
            )

    def to_jsonable(self) -> Dict:
        return {
            "seed": self.seed,
            "mode": self.mode,
            "num_processors": self.num_processors,
            "num_blocks": self.num_blocks,
            "windows_requested": self.windows_requested,
            "windows_completed": self.windows_completed,
            "window_ops": self.window_ops,
            "operations": self.operations,
            "protocols": [str(p) for p in self.protocols],
            "ok": self.ok,
            "failures": list(self.failures),
            "final_tokens": {
                str(block): token
                for block, token in sorted(self.final_tokens.items())
            },
            "cycles": dict(self.cycles),
            "max_resident_ops": self.max_resident_ops,
            "watchdog_dumps": dict(self.watchdog_dumps) or None,
        }


def run_windowed_differential(
    seed: int,
    windows: int = 4,
    window_ops: int = 50,
    num_processors: int = 4,
    num_blocks: int = 4,
    mode: str = RACY,
    write_fraction: float = 0.45,
    writeback_fraction: float = 0.10,
    protocols: Sequence[ProtocolName] = ALL_PROTOCOLS,
    replay: ReplayConfig = ReplayConfig(),
    acquire: Optional[SystemAcquirer] = None,
) -> WindowedDifferentialResult:
    """Replay ``windows`` bounded trace windows through long-lived systems.

    Each protocol's system is built once (window 0) and kept alive: window
    ``k+1`` starts from whatever cache/directory/policy state window ``k``
    left behind, exactly like one long monolithic replay — but only one
    window of trace is ever materialised.  ``replay.max_cycles`` is applied
    per window, relative to each system's current cycle.
    """
    if windows < 1:
        raise VerificationError(f"windows must be >= 1 (got {windows})")
    if window_ops < 1:
        raise VerificationError(f"window_ops must be >= 1 (got {window_ops})")
    if acquire is None:
        acquire = lambda config, workload: MultiprocessorSystem(config, workload)
    source = WindowedTraceSource(
        seed,
        num_processors=num_processors,
        num_blocks=num_blocks,
        mode=mode,
        write_fraction=write_fraction,
        writeback_fraction=writeback_fraction,
    )
    resolved = tuple(ProtocolName(p) for p in protocols)
    systems: Dict[ProtocolName, MultiprocessorSystem] = {}
    carry: Dict[int, int] = {block: 0 for block in range(num_blocks)}
    failures: List[str] = []
    window_failures: Dict[int, List[str]] = {}
    cycles: Dict[str, int] = {}
    watchdog_dumps: Dict[str, Dict] = {}
    max_resident = 0
    completed_windows = 0
    for index in range(windows):
        window = source.next_window(window_ops)
        max_resident = max(max_resident, len(window.ops))
        results: Dict[ProtocolName, ReplayResult] = {}
        for protocol in resolved:
            if protocol not in systems:
                config = replay.system_config(window, protocol)
                systems[protocol] = acquire(
                    config, empty_trace_workload(num_processors)
                )
            system = systems[protocol]
            window_replay = dataclasses.replace(
                replay, max_cycles=system.simulator.now + replay.max_cycles
            )
            replayer = TraceReplayer(system, window, window_replay)
            _seed_checker(replayer, carry)
            result = replayer.run()
            results[protocol] = result
            cycles[str(protocol)] = system.simulator.now
            if result.watchdog_failure is not None:
                watchdog_dumps[str(protocol)] = result.watchdog_failure
        problems = compare_results(window, results, carry)
        if problems:
            window_failures[index] = problems
            failures.extend(f"window {index}: {line}" for line in problems)
            # Protocol states may legitimately diverge after a real failure;
            # later windows would only cascade it.
            break
        carry = window.predicted_final_tokens(carry)
        completed_windows += 1
    return WindowedDifferentialResult(
        seed=seed,
        mode=mode,
        num_processors=num_processors,
        num_blocks=num_blocks,
        windows_requested=windows,
        windows_completed=completed_windows,
        window_ops=window_ops,
        operations=source.generated,
        protocols=resolved,
        failures=failures,
        window_failures=window_failures,
        final_tokens=carry,
        cycles=cycles,
        watchdog_dumps=watchdog_dumps,
        max_resident_ops=max_resident,
    )
