"""Simulation arena: pooled hot objects and GC control for sweep-scale runs.

A PAPER-scale reproduction executes thousands of short ``simulate()`` runs,
and profiling shows two allocation sinks outside the event loop proper:

* the per-message/per-miss object churn (`Message`, `Transaction`) that the
  collector then has to trace, and
* the cyclic-GC passes themselves, which scan the (large, mostly immortal)
  system graph — nodes, compiled dispatch tables, link histories — once per
  generation threshold even though none of it is garbage.

:class:`SimulationArena` addresses both.  It keeps free lists of dead
``Message`` and ``Transaction`` instances, recycled through their ordinary
``__init__`` so a pooled object is field-for-field identical to a fresh one,
and it provides a reentrant :meth:`runtime` guard that disables the cyclic
collector (and ``gc.freeze()``-es the already-constructed system graph out of
future scans) for the duration of a run, restoring the previous GC state in a
``finally``.

Pooling is strictly opt-in: an arena is attached to a scheduler
(``scheduler.arena``) when a :class:`~repro.system.multiprocessor.
MultiprocessorSystem` is built with one, and only the *unordered* network
releases messages back — a point-to-point message has exactly one delivery and
no handler retains it, whereas totally-ordered requests can be parked in
deferred/held queues and are therefore never recycled.  Transactions are
released by the cache controller when they complete (their MSHR entry is
popped and the issuer's callback has run).  Object identity is never reused
while a reference can still be live, and recycled transactions draw fresh ids
from the global counter so stale-response filtering keeps working.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List

from .._core import stock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..coherence.transaction import Transaction
    from ..interconnect.message import Message

#: Free-list size caps: beyond this the pool stops growing and lets excess
#: objects die normally.  A run's live population is bounded by the number of
#: in-flight messages/misses, which is far below these at any paper scale.
_MAX_POOLED_MESSAGES = 4096
_MAX_POOLED_TRANSACTIONS = 4096


@stock
class SimulationArena:
    """Free-list pools for hot simulation objects plus run-scoped GC control."""

    __slots__ = (
        "_messages",
        "_transactions",
        "_message_cls",
        "_transaction_cls",
        "_depth",
        "_gc_was_enabled",
        "_froze",
    )

    def __init__(self) -> None:
        # Imported here, not at module top: the arena lives in ``sim`` but
        # pools classes from packages that themselves import ``sim`` at load
        # time.  By the time an arena is instantiated both are fully loaded.
        from ..coherence.transaction import Transaction
        from ..interconnect.message import Message

        self._message_cls = Message
        self._transaction_cls = Transaction
        self._messages: List[Message] = []
        self._transactions: List[Transaction] = []
        self._depth = 0
        self._gc_was_enabled = False
        self._froze = False

    # --------------------------------------------------------------- messages

    def message(self, **fields) -> Message:
        """A :class:`Message` initialised with ``fields``, recycled if possible."""
        pool = self._messages
        if pool:
            message = pool.pop()
            message.__init__(**fields)
            return message
        return self._message_cls(**fields)

    def release_message(self, message: Message) -> None:
        """Return a dead message (single delivery completed) to the pool."""
        pool = self._messages
        if len(pool) < _MAX_POOLED_MESSAGES:
            pool.append(message)

    # ------------------------------------------------------------ transactions

    def transaction(self, **fields) -> Transaction:
        """A :class:`Transaction` initialised with ``fields``, recycled if possible.

        Re-running the dataclass ``__init__`` reassigns every slot, including a
        *fresh* ``transaction_id`` from the global counter — id reuse would let
        a stale in-flight response match a new transaction.
        """
        pool = self._transactions
        if pool:
            transaction = pool.pop()
            transaction.__init__(**fields)
            return transaction
        return self._transaction_cls(**fields)

    def release_transaction(self, transaction: Transaction) -> None:
        """Return a completed transaction (MSHR entry popped) to the pool."""
        pool = self._transactions
        if len(pool) < _MAX_POOLED_TRANSACTIONS:
            pool.append(transaction)

    # ------------------------------------------------------------- GC control

    @contextmanager
    def runtime(self) -> Iterator["SimulationArena"]:
        """Disable (and freeze out of) the cyclic GC for the guarded block.

        Reentrant: nested guards (a batched sweep around individual runs) only
        touch the collector at the outermost level.  The previous GC state is
        restored in a ``finally`` even if the simulation raises.
        """
        self._depth += 1
        if self._depth == 1:
            self._gc_was_enabled = gc.isenabled()
            if self._gc_was_enabled:
                gc.disable()
            freeze = getattr(gc, "freeze", None)
            if freeze is not None:
                freeze()
                self._froze = True
        try:
            yield self
        finally:
            self._depth -= 1
            if self._depth == 0:
                if self._froze:
                    gc.unfreeze()
                    self._froze = False
                if self._gc_was_enabled:
                    gc.enable()

    # -------------------------------------------------------------- inspection

    @property
    def pooled_messages(self) -> int:
        """Number of messages currently waiting in the free list."""
        return len(self._messages)

    @property
    def pooled_transactions(self) -> int:
        """Number of transactions currently waiting in the free list."""
        return len(self._transactions)

    def clear(self) -> None:
        """Drop both free lists (e.g. between incompatible batch keys)."""
        self._messages.clear()
        self._transactions.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationArena(messages={len(self._messages)}, "
            f"transactions={len(self._transactions)}, depth={self._depth})"
        )
