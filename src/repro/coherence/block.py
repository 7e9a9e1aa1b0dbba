"""Per-block cache state kept by a cache controller."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

from .._core import stock
from .state import MOSIState


@stock
@dataclass(slots=True)
class CacheBlock:
    """One cache line as seen by its cache controller.

    ``data_token`` is a verification aid: every store installs a fresh token so
    the invariant checkers and the random tester can confirm that readers
    observe the value written by the most recent store in coherence order.

    ``tracked_sharers`` implements footnote 2 of the paper: an *owner* cache in
    BASH maintains its own view of the sharer set so that it reaches the same
    sufficiency decision as the memory controller.
    """

    address: int
    state: MOSIState = MOSIState.INVALID
    data_token: int = 0
    tracked_sharers: Set[int] = field(default_factory=set)
    last_access_time: int = 0

    @property
    def is_owner(self) -> bool:
        """True when this cache currently owns the block."""
        return self.state.is_owner

    def invalidate(self) -> None:
        """Drop the block to Invalid and forget any owner-side bookkeeping."""
        self.state = MOSIState.INVALID
        self.tracked_sharers.clear()

    def become_owner(self, data_token: int) -> None:
        """Install data and take exclusive ownership (GETM completion)."""
        self.state = MOSIState.MODIFIED
        self.data_token = data_token
        self.tracked_sharers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheBlock(0x{self.address:x}, {self.state}, token={self.data_token})"
        )
