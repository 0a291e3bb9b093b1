"""Branch target buffer: set-associative PC -> target cache with LRU."""

from __future__ import annotations

from typing import Dict, List, Optional


class BranchTargetBuffer:
    """A set-associative BTB (Table 2: 4K entries).

    A front end only redirects fetch for a taken branch if the BTB knows
    the target; a BTB miss on a taken branch costs a bubble.  Targets here
    are instruction PCs.
    """

    #: Table 2's associativity, which every simulator's BTB uses.
    DEFAULT_WAYS = 4

    def __init__(
        self, num_entries: int = 4096, associativity: int = DEFAULT_WAYS
    ) -> None:
        if num_entries % associativity:
            raise ValueError("entries must divide evenly into ways")
        self.num_sets = num_entries // associativity
        self.associativity = associativity
        # Insertion-ordered builtin dicts, oldest entry first (same LRU
        # order an OrderedDict maintains; see repro.memsys.cache), each
        # created by its set's first insert (None until then).
        self._sets: List[Optional[Dict[int, int]]] = [None] * self.num_sets

    def lookup(self, pc: int) -> Optional[int]:
        """Return the cached target for ``pc``, updating LRU state."""
        entry_set = self._sets[(pc >> 2) % self.num_sets]
        if entry_set is None:
            return None
        target = entry_set.get(pc)
        if target is not None:
            del entry_set[pc]
            entry_set[pc] = target
        return target

    def insert(self, pc: int, target: int) -> None:
        index = (pc >> 2) % self.num_sets
        entry_set = self._sets[index]
        if entry_set is None:
            self._sets[index] = {pc: target}
            return
        if pc in entry_set:
            del entry_set[pc]
            entry_set[pc] = target
            return
        if len(entry_set) >= self.associativity:
            del entry_set[next(iter(entry_set))]  # evict LRU
        entry_set[pc] = target
