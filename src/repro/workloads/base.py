"""Workload interface driving the per-processor sequencers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .._core import is_stock, stock
from ..errors import WorkloadError

# The compiled issue step draws stock workloads' references from their
# random.Random through its C methods; registering the class lets a
# class-level patch of it (randrange, _randbelow, ...) decline that path.
stock(random.Random)

#: The C methods of random.Random the compiled reference sources call.
_RNG_C_METHODS = frozenset(("random", "getrandbits"))

#: Bound on every integer the compiled reference sources compute with, so
#: their 64-bit sums and products cannot overflow.
C_INT_LIMIT = 2**62


def stock_rng(rng) -> bool:
    """Is ``rng`` a plain, unpatched ``random.Random``?

    Besides :func:`repro._core.is_stock`, no instance attribute may shadow
    the C ``random``/``getrandbits`` the pure draws reach through
    ``self``.
    """
    return is_stock(rng) and _RNG_C_METHODS.isdisjoint(vars(rng))


def c_ints(*values) -> bool:
    """True when every value is an exact ``int`` in ``[0, C_INT_LIMIT)``."""
    return all(type(value) is int and 0 <= value < C_INT_LIMIT for value in values)


@stock
@dataclass(slots=True)
class MemoryOperation:
    """One memory reference a processor will perform after some think time.

    ``think_cycles`` models the computation between the previous reference and
    this one; ``instructions`` is the amount of work it represents for
    throughput accounting (the paper's processors run four instructions per
    cycle when the memory system is perfect).
    """

    address: int
    is_write: bool
    think_cycles: int = 0
    instructions: int = 0
    label: str = ""


class Workload:
    """Generates the reference stream for every processor.

    A workload is bound to a system before the simulation starts (so it knows
    the processor count, block size and a seeded random generator), then each
    sequencer repeatedly asks for its next operation and reports completions.
    """

    # Class-level defaults so an unbound workload is introspectable (describe,
    # repr) without AttributeError; anything that needs the binding goes
    # through :meth:`require_bound` and fails with a clear WorkloadError.
    num_processors: Optional[int] = None
    block_bytes: Optional[int] = None
    rng: Optional[random.Random] = None

    @property
    def is_bound(self) -> bool:
        """True once :meth:`bind` has attached this workload to a system."""
        return self.num_processors is not None

    def require_bound(self) -> int:
        """The bound processor count, or a clear error before any bind."""
        if self.num_processors is None:
            raise WorkloadError(
                f"{type(self).__name__} is not bound to a system yet; "
                "bind(num_processors, block_bytes, rng) must run before "
                "operations or completion queries"
            )
        return self.num_processors

    def bind(self, num_processors: int, block_bytes: int, rng: random.Random) -> None:
        """Attach the workload to a system about to be simulated."""
        self.num_processors = num_processors
        self.block_bytes = block_bytes
        self.rng = rng

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        """The next reference for ``node_id``, or None when it should stop."""
        raise NotImplementedError

    def on_complete(
        self,
        node_id: int,
        operation: MemoryOperation,
        latency: int,
        was_miss: bool,
        now: int,
    ) -> None:
        """Called when a reference has been performed."""

    def finished(self, node_id: int) -> bool:
        """True when ``node_id`` has completed its share of the work."""
        raise NotImplementedError

    def all_finished(self) -> bool:
        """True when every processor has completed its share of the work."""
        return all(self.finished(node) for node in range(self.require_bound()))

    def describe(self) -> str:
        """Human-readable one-line description (used by reports)."""
        return type(self).__name__
