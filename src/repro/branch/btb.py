"""Branch target buffer: set-associative PC -> target cache with LRU."""

from __future__ import annotations

from typing import Dict, List, Optional


class BranchTargetBuffer:
    """A set-associative BTB (Table 2: 4K entries).

    A front end only redirects fetch for a taken branch if the BTB knows
    the target; a BTB miss on a taken branch costs a bubble.  Targets here
    are instruction PCs.
    """

    def __init__(self, num_entries: int = 4096, associativity: int = 4) -> None:
        if num_entries % associativity:
            raise ValueError("entries must divide evenly into ways")
        self.num_sets = num_entries // associativity
        self.associativity = associativity
        # Insertion-ordered builtin dicts, oldest entry first (same LRU
        # order an OrderedDict maintains; see repro.memsys.cache).
        self._sets: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> Optional[int]:
        """Return the cached target for ``pc``, updating LRU state."""
        entry_set = self._sets[(pc >> 2) % self.num_sets]
        target = entry_set.get(pc)
        if target is not None:
            del entry_set[pc]
            entry_set[pc] = target
            self.hits += 1
            return target
        self.misses += 1
        return None

    def insert(self, pc: int, target: int) -> None:
        entry_set = self._sets[(pc >> 2) % self.num_sets]
        if pc in entry_set:
            del entry_set[pc]
            entry_set[pc] = target
            return
        if len(entry_set) >= self.associativity:
            del entry_set[next(iter(entry_set))]  # evict LRU
        entry_set[pc] = target

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
