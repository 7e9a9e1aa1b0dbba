"""Cache block container with a finite capacity.

The evaluation's workloads manage their own locality, so the container is a
simple fully-associative store with LRU-by-last-access eviction of *clean,
non-owned* blocks; blocks that would require a writeback are reported to the
caller so the workload/sequencer can issue a PUTM first.  The paper's 4 MB,
4-way L2 corresponds to 65536 blocks, which is the default capacity taken from
:class:`repro.common.config.SystemConfig`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .._core import stock
from ..errors import ProtocolError
from .block import CacheBlock
from .state import MOSIState


@stock
class CacheBlockStore:
    """Holds the :class:`CacheBlock` records of one cache controller."""

    def __init__(self, capacity_blocks: int) -> None:
        if capacity_blocks < 1:
            raise ProtocolError(f"capacity must be positive, got {capacity_blocks}")
        self.capacity_blocks = capacity_blocks
        self._blocks: Dict[int, CacheBlock] = {}

    def __contains__(self, address: int) -> bool:
        return address in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[CacheBlock]:
        return iter(self._blocks.values())

    def get(self, address: int) -> Optional[CacheBlock]:
        """The block record for ``address``, or None if not present."""
        return self._blocks.get(address)

    def lookup(self, address: int) -> CacheBlock:
        """The block record for ``address``, creating an Invalid one if absent."""
        block = self._blocks.get(address)
        if block is None:
            block = CacheBlock(address)
            self._blocks[address] = block
        return block

    def state_of(self, address: int) -> MOSIState:
        """Stable state of ``address`` (Invalid when the block is absent)."""
        block = self._blocks.get(address)
        return block.state if block is not None else MOSIState.INVALID

    def drop(self, address: int) -> None:
        """Remove a block record entirely (used after invalidation)."""
        self._blocks.pop(address, None)

    def valid_blocks(self) -> List[CacheBlock]:
        """All blocks currently holding data (S, O or M)."""
        return [block for block in self._blocks.values() if block.state.has_valid_data]

    def occupancy(self) -> int:
        """Number of valid blocks resident in the cache."""
        return len(self.valid_blocks())

    def is_full(self) -> bool:
        """True when installing another block requires an eviction."""
        # Valid blocks are a subset of the records, so a short record table can
        # never be full — this keeps the per-miss check O(1) until the cache
        # actually fills, instead of scanning every record.
        if len(self._blocks) < self.capacity_blocks:
            return False
        return self.occupancy() >= self.capacity_blocks

    def eviction_candidate(self) -> Optional[CacheBlock]:
        """The least-recently-accessed valid block, or None if the cache is empty."""
        candidates = self.valid_blocks()
        if not candidates:
            return None
        return min(candidates, key=lambda block: (block.last_access_time, block.address))

    def reset(self, capacity_blocks: Optional[int] = None) -> None:
        """Drop every block record, optionally adopting a new capacity.

        The record dict is cleared in place — the sequencer prebinds this
        store's bound methods, which keep reading the same dict object.
        """
        if capacity_blocks is not None:
            if capacity_blocks < 1:
                raise ProtocolError(
                    f"capacity must be positive, got {capacity_blocks}"
                )
            self.capacity_blocks = capacity_blocks
        self._blocks.clear()

    def compact(self) -> int:
        """Drop Invalid block records to bound memory use; returns count dropped."""
        stale = [
            address
            for address, block in self._blocks.items()
            if block.state is MOSIState.INVALID
        ]
        for address in stale:
            del self._blocks[address]
        return len(stale)
