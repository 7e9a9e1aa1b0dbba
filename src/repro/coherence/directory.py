"""Directory state kept at memory controllers.

The Directory protocol keeps a full directory (owner plus a superset of the
sharers) for every block it is home for; the BASH memory controller keeps the
same information so it can judge whether a request reached a *sufficient* set
of nodes; the Snooping memory controller degenerates to the single owner bit
used by the Synapse N+1 (owner is either memory or "some cache").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

from .._core import stock
from .state import MEMORY_OWNER


@stock
@dataclass(slots=True)
class DirectoryEntry:
    """Owner and sharer bookkeeping for one block at its home node."""

    address: int
    owner: int = MEMORY_OWNER
    sharers: Set[int] = field(default_factory=set)
    data_token: int = 0
    awaiting_writeback: bool = False

    @property
    def memory_is_owner(self) -> bool:
        """True when memory (the home node) owns the block."""
        return self.owner == MEMORY_OWNER

    def needed_nodes_for_getm(self, requester: int) -> Set[int]:
        """Caches that must observe a GETM from ``requester`` for it to succeed.

        The current owner (if it is a cache other than the requester) must
        supply data and invalidate, and every sharer other than the requester
        must invalidate.
        """
        needed = set(self.sharers)
        if not self.memory_is_owner:
            needed.add(self.owner)
        needed.discard(requester)
        return needed

    def needed_nodes_for_gets(self, requester: int) -> Set[int]:
        """Caches that must observe a GETS from ``requester``: just the owner."""
        if self.memory_is_owner or self.owner == requester:
            return set()
        return {self.owner}

    def is_sufficient(
        self, request_kind_is_getm: bool, requester: int, recipients: FrozenSet[int]
    ) -> bool:
        """Did a request delivered to ``recipients`` reach every needed node?"""
        if request_kind_is_getm:
            needed = self.needed_nodes_for_getm(requester)
        else:
            needed = self.needed_nodes_for_gets(requester)
        return needed.issubset(recipients)

    def grant_exclusive(self, requester: int) -> None:
        """Record that ``requester`` is the new owner with no sharers."""
        self.owner = requester
        self.sharers.clear()

    def add_sharer(self, requester: int) -> None:
        """Record that ``requester`` obtained a shared copy."""
        if requester != self.owner:
            self.sharers.add(requester)

    def writeback_to_memory(self, data_token: int) -> None:
        """Record completion of a writeback: memory owns the latest data."""
        self.owner = MEMORY_OWNER
        self.data_token = data_token
        self.awaiting_writeback = False


@stock
class DirectoryStore:
    """All directory entries owned by one memory controller."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def lookup(self, address: int) -> DirectoryEntry:
        """The entry for ``address``, creating a memory-owned one if absent."""
        entry = self._entries.get(address)
        if entry is None:
            entry = DirectoryEntry(address)
            self._entries[address] = entry
        return entry

    def __contains__(self, address: int) -> bool:
        return address in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Forget every entry (system reset: all blocks revert to memory-owned).

        In place — controllers prebind :meth:`lookup`, which keeps reading the
        same underlying dict.
        """
        self._entries.clear()

    def entries(self) -> Dict[int, DirectoryEntry]:
        """Mapping of address to entry (live view; do not mutate the dict)."""
        return self._entries
