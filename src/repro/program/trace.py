"""Dynamic-trace structures produced by the functional interpreter.

The trace is block-granular: one :class:`BlockExec` per dynamic basic-block
execution.  This is compact (synthetic benchmarks run hundreds of thousands
of dynamic instructions) while carrying everything downstream consumers
need — static instruction identity comes from the block itself, and the only
per-dynamic-instance values recorded are the branch outcome and the memory
addresses touched.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.cfg.graph import BasicBlock

_TAKEN = attrgetter("taken")
_BLOCK = attrgetter("block")


class BlockExec:
    """One dynamic execution of a basic block.

    Records are values and are never mutated after construction: the
    interpreter hands every execution of a block that touched no memory
    the same shared record for its outcome.

    Attributes
    ----------
    function:
        Name of the function the block belongs to.
    block:
        The static :class:`BasicBlock` (shared, not copied).
    taken:
        Outcome of the terminating conditional branch; ``None`` when the
        block does not end in a conditional branch.
    mem_addrs:
        Addresses of the block's loads and stores, in program order.
    """

    __slots__ = ("function", "block", "taken", "mem_addrs")

    def __init__(
        self,
        function: str,
        block: BasicBlock,
        taken: Optional[bool],
        mem_addrs: Tuple[int, ...],
    ) -> None:
        self.function = function
        self.block = block
        self.taken = taken
        self.mem_addrs = mem_addrs

    def __repr__(self) -> str:
        outcome = "" if self.taken is None else (" T" if self.taken else " NT")
        return f"<BlockExec {self.function}/{self.block.name}{outcome}>"


class Trace:
    """The full dynamic trace of one program run."""

    def __init__(self, program_name: str) -> None:
        self.program_name = program_name
        self.records: List[BlockExec] = []
        self.instruction_count = 0
        self.branch_count = 0
        self.taken_count = 0
        self.load_count = 0
        self.store_count = 0

    def append(self, record: BlockExec) -> None:
        self.records.append(record)
        block = record.block
        self.instruction_count += len(block.instructions)
        if record.taken is not None:
            self.branch_count += 1
            if record.taken:
                self.taken_count += 1
        # Counters, not an O(block length) scan: the block counts its
        # loads and stores once and every dynamic append reuses them.
        self.load_count += block.load_count
        self.store_count += block.store_count

    @classmethod
    def from_records(
        cls, program_name: str, records: List[BlockExec]
    ) -> "Trace":
        """A trace over ``records`` (adopted, not copied).  The counters
        come out exactly as one :meth:`append` per record would leave
        them, but are summed per distinct block instead of per record."""
        trace = cls(program_name)
        trace.records = records
        outcomes = Counter(map(_TAKEN, records))
        trace.branch_count = len(records) - outcomes[None]
        trace.taken_count = outcomes[True]
        for block, count in Counter(map(_BLOCK, records)).items():
            trace.instruction_count += count * len(block.instructions)
            trace.load_count += count * block.load_count
            trace.store_count += count * block.store_count
        return trace

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def branch_outcomes(self) -> List[Tuple[int, bool]]:
        """``(branch_pc, taken)`` for every dynamic conditional branch."""
        outcomes = []
        for record in self.records:
            if record.taken is not None:
                outcomes.append((record.block.instructions[-1].pc, record.taken))
        return outcomes

    def __repr__(self) -> str:
        return (
            f"<Trace {self.program_name}: {len(self.records)} blocks, "
            f"{self.instruction_count} insts, {self.branch_count} branches>"
        )
