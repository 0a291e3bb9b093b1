"""Predicate-aware store buffer with the Section 2.5 forwarding rules.

Dynamically predicated stores sit in the store buffer with their predicate
register id and are not released to the memory system until the predicate
resolves; a resolved-FALSE store is dropped.  The trace-driven timing model
knows each predicate's value and ready cycle when it inserts the store, so
resolution is implicit: once the ready cycle passes, the value is visible
to forwarding.  Store-to-load forwarding follows the paper's three rules — a load may forward from:

1. a non-predicated store;
2. a predicated store whose predicate value is already resolved (and TRUE
   — a resolved-FALSE store is skipped and the search continues to older
   stores);
3. a predicated store whose predicate is unresolved **only if** the load
   carries the same predicate register id (same dynamically predicated
   path).

Otherwise the load must wait until the blocking store's predicate value is
broadcast.  The timing model turns a WAIT decision into a load-completion
delay until the predicate's ready cycle.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Dict, List, Optional


class ForwardDecision(enum.Enum):
    FORWARD = "forward"          # value comes from a store buffer entry
    WAIT = "wait"                # blocked on an unresolved predicate
    MEMORY = "memory"            # no matching store: read the cache


class ForwardResult:
    __slots__ = ("decision", "entry", "wait_until")

    def __init__(self, decision, entry=None, wait_until=None):
        self.decision = decision
        self.entry = entry
        self.wait_until = wait_until

    def __repr__(self) -> str:
        return f"<ForwardResult {self.decision.value}>"


class StoreEntry:
    __slots__ = (
        "address",
        "predicate_id",
        "predicate_ready_cycle",
        "predicate_value",
        "data_ready_cycle",
        "seq",
    )

    def __init__(
        self,
        address: int,
        seq: int,
        data_ready_cycle: int,
        predicate_id: Optional[int] = None,
        predicate_ready_cycle: Optional[int] = None,
    ) -> None:
        self.address = address
        self.seq = seq
        self.data_ready_cycle = data_ready_cycle
        self.predicate_id = predicate_id
        self.predicate_ready_cycle = predicate_ready_cycle
        #: Filled in when the predicate resolves (None = unresolved).
        self.predicate_value: Optional[bool] = None

    @property
    def is_predicated(self) -> bool:
        return self.predicate_id is not None


class StoreBuffer:
    """A bounded FIFO of in-flight stores."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries = deque()
        # Per-address view of the same entries, insertion-ordered, so a
        # load's forwarding search touches only same-address stores (the
        # common no-match case is a single dict miss instead of a scan
        # over the whole buffer).  The rules in :meth:`lookup` only ever
        # match or skip same-address entries, so searching this view
        # youngest-first is decision-identical to scanning the deque.
        self._by_addr: Dict[int, List[StoreEntry]] = {}
        self.forwarded = 0
        self.waited = 0

    def __len__(self) -> int:
        return len(self._entries)

    def insert(
        self,
        address: int,
        seq: int,
        data_ready_cycle: int,
        predicate_id: Optional[int] = None,
        predicate_ready_cycle: Optional[int] = None,
        predicate_value: Optional[bool] = None,
    ) -> StoreEntry:
        """Add a store; the oldest entry drains if the buffer is full.

        A trace-driven caller that already knows how the predicate will
        resolve may pass ``predicate_value`` together with
        ``predicate_ready_cycle``: the value only becomes *visible* to
        forwarding once the ready cycle has passed.
        """
        if len(self._entries) >= self.capacity:
            evicted = self._entries.popleft()
            bucket = self._by_addr[evicted.address]
            bucket.remove(evicted)
            if not bucket:
                del self._by_addr[evicted.address]
        entry = StoreEntry(
            address, seq, data_ready_cycle, predicate_id, predicate_ready_cycle
        )
        entry.predicate_value = predicate_value
        self._entries.append(entry)
        bucket = self._by_addr.get(address)
        if bucket is None:
            self._by_addr[address] = [entry]
        else:
            bucket.append(entry)
        return entry

    @staticmethod
    def _is_resolved(entry: StoreEntry, current_cycle: int) -> bool:
        if entry.predicate_value is None:
            return False
        if entry.predicate_ready_cycle is None:
            return True
        return current_cycle >= entry.predicate_ready_cycle

    def lookup(
        self,
        address: int,
        load_seq: int,
        load_predicate_id: Optional[int] = None,
        current_cycle: int = 0,
    ) -> ForwardResult:
        """Apply the Section 2.5 forwarding rules for a load."""
        bucket = self._by_addr.get(address)
        if not bucket:
            return ForwardResult(ForwardDecision.MEMORY)
        for entry in reversed(bucket):  # youngest older store first
            if entry.seq >= load_seq:
                continue
            if not entry.is_predicated:
                self.forwarded += 1
                return ForwardResult(ForwardDecision.FORWARD, entry)
            if self._is_resolved(entry, current_cycle):
                if entry.predicate_value:
                    self.forwarded += 1
                    return ForwardResult(ForwardDecision.FORWARD, entry)
                continue  # resolved FALSE: skip to older stores
            # Unresolved predicate.
            if (
                load_predicate_id is not None
                and entry.predicate_id == load_predicate_id
            ):
                self.forwarded += 1
                return ForwardResult(ForwardDecision.FORWARD, entry)
            self.waited += 1
            wait_until = entry.predicate_ready_cycle
            if wait_until is None or wait_until < current_cycle:
                wait_until = current_cycle
            return ForwardResult(
                ForwardDecision.WAIT, entry, wait_until=wait_until
            )
        return ForwardResult(ForwardDecision.MEMORY)
