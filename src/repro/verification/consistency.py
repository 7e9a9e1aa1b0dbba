"""Value/order consistency checking for completed coherence transactions.

The differential trace replayer — whose ``contended`` traces are the
paper's random tester, random action/check pairs in the style of Wood et
al. — records every completed transaction together with the point at which
it was ordered.  This module
holds those observations and checks them against the memory consistency
argument all three protocols rely on: because requests are totally ordered,
the value a load observes must be the value written by the most recent store
to that block ordered before the load.

Two kinds of store exist in a MOSI machine:

* **ordered stores** — GETM transactions, stamped with their position in the
  interconnect's total order (``order_seq``);
* **silent stores** — a processor already holding the block in M updates it
  without any interconnect transaction.  A silent store has no order position
  of its own; it lives *somewhere after* the ordered store that obtained M
  (its **chain base**) and before the next conflicting ordered transaction.

The checker therefore models each block's write history as chains hanging off
the ordered stores: a load ordered at ``s`` must observe either the latest
ordered store before ``s`` or any silent store chained to it (the load raced
the owner's subsequent silent stores; whichever prefix of the chain had been
applied when the data was served is coherent).  Observing a token whose chain
base is an *older* ordered store — or a token no store ever wrote — is a
violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import VerificationError


@dataclass(frozen=True)
class ObservedAccess:
    """One completed transaction as seen by the checker.

    ``chain_parent`` is only set for silent (hit-installed) stores: the token
    the block held immediately before this store overwrote it, linking the
    silent store to the ordered store it descends from.
    """

    node: int
    address: int
    is_write: bool
    token: int
    order_seq: Optional[int]
    completion_time: int
    chain_parent: Optional[int] = None


@dataclass
class ConsistencyChecker:
    """Collects observed accesses and validates per-block value ordering."""

    accesses: List[ObservedAccess] = field(default_factory=list)

    def record_write(
        self, node: int, address: int, token: int, order_seq: Optional[int], time: int
    ) -> None:
        """Record a completed store (GETM) and the token it installed."""
        self.accesses.append(
            ObservedAccess(node, address, True, token, order_seq, time)
        )

    def record_silent_write(
        self, node: int, address: int, token: int, parent_token: int, time: int
    ) -> None:
        """Record a store performed in M without an interconnect transaction.

        ``parent_token`` is the token the block held just before the store —
        the previous link of the block's silent-store chain (or the ordered
        store that obtained M).
        """
        self.accesses.append(
            ObservedAccess(
                node, address, True, token, None, time, chain_parent=parent_token
            )
        )

    def record_read(
        self, node: int, address: int, token: int, order_seq: Optional[int], time: int
    ) -> None:
        """Record a completed load (GETS) and the token it observed."""
        self.accesses.append(
            ObservedAccess(node, address, False, token, order_seq, time)
        )

    # ------------------------------------------------------------------ checks

    def check(self) -> List[str]:
        """Return a list of violations (empty when every read is consistent)."""
        violations: List[str] = []
        per_block: Dict[int, List[ObservedAccess]] = {}
        for access in self.accesses:
            per_block.setdefault(access.address, []).append(access)
        for address, accesses in per_block.items():
            violations.extend(self._check_block(address, accesses))
        return violations

    @staticmethod
    def _chain_bases(accesses: List[ObservedAccess]) -> Dict[int, int]:
        """Map every written token to the ordered store it descends from.

        Ordered stores are their own base.  Silent stores follow their
        ``chain_parent`` links until an ordered store's token is reached;
        a parent that was never recorded leaves the token unmapped (it will
        be reported as unknown).
        """
        parents: Dict[int, int] = {}
        bases: Dict[int, int] = {}
        for access in accesses:
            if not access.is_write:
                continue
            if access.order_seq is not None:
                bases[access.token] = access.token
            elif access.chain_parent is not None:
                parents[access.token] = access.chain_parent
        for token in list(parents):
            seen = []
            cursor = token
            while cursor in parents and cursor not in bases:
                seen.append(cursor)
                cursor = parents[cursor]
            base = bases.get(cursor)
            if base is None:
                continue  # dangling chain: the token stays unknown
            for link in seen:
                bases[link] = base
        return bases

    def _check_block(self, address: int, accesses: List[ObservedAccess]) -> List[str]:
        violations: List[str] = []
        ordered = [a for a in accesses if a.order_seq is not None]
        writes = sorted(
            (a for a in ordered if a.is_write), key=lambda a: a.order_seq
        )
        bases = self._chain_bases(accesses)
        for read in (a for a in ordered if not a.is_write):
            expected = 0
            for write in writes:
                if write.order_seq < read.order_seq:
                    expected = write.token
                else:
                    break
            token = read.token
            if token == expected:
                continue
            base = bases.get(token)
            if base is None and token != 0:
                violations.append(
                    f"block 0x{address:x}: P{read.node} read unknown token "
                    f"{token}"
                )
            elif base == expected and expected != 0:
                # The load raced the owner's silent-store chain descending
                # from the expected store: any prefix point is coherent.
                continue
            else:
                violations.append(
                    f"block 0x{address:x}: P{read.node} read token {token} at "
                    f"order {read.order_seq} but the latest earlier store wrote "
                    f"{expected}"
                )
        return violations

    def raise_on_violation(self) -> None:
        """Raise :class:`VerificationError` when any read saw a stale value."""
        violations = self.check()
        if violations:
            summary = "; ".join(violations[:10])
            raise VerificationError(
                f"{len(violations)} consistency violation(s): {summary}"
            )

    def reset(self) -> None:
        """Forget every recorded access, re-arming the checker for a new run.

        The built-in drivers construct a fresh checker per run; this is for
        callers that hold one long-lived checker across their own runs.
        """
        self.accesses.clear()

    @property
    def reads(self) -> int:
        """Number of recorded loads."""
        return sum(1 for access in self.accesses if not access.is_write)

    @property
    def writes(self) -> int:
        """Number of recorded stores."""
        return sum(1 for access in self.accesses if access.is_write)
