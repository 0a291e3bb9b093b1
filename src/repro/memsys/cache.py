"""A set-associative cache with LRU replacement.

Tracks tags only (the functional interpreter holds the actual data), which
is all a timing model needs.  Addresses are word addresses; ``line_words``
sets how many words share a line (Table 2's 64B lines over 8-byte words
give the default of 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Cache:
    def __init__(
        self,
        name: str,
        size_words: int,
        associativity: int,
        line_words: int = 8,
        latency: int = 1,
    ) -> None:
        num_lines = size_words // line_words
        if num_lines <= 0 or num_lines % associativity:
            raise ValueError(
                f"{name}: {size_words} words / {line_words}-word lines do "
                f"not divide into {associativity} ways"
            )
        self.name = name
        self.line_words = line_words
        self.associativity = associativity
        self.num_sets = num_lines // associativity
        self.latency = latency
        # One insertion-ordered dict per set: oldest entry first, so LRU
        # update is delete+reinsert and eviction is "remove the first
        # key" — the same order an OrderedDict with move_to_end /
        # popitem(last=False) maintains, on the cheaper builtin dict.
        # A set's dict is created by its first access (None until then).
        self._sets: List[Optional[Dict[int, bool]]] = [None] * self.num_sets
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access a word; returns True on hit.  Misses allocate the line."""
        line = address // self.line_words
        index = line % self.num_sets
        entry_set = self._sets[index]
        if entry_set is None:
            self._sets[index] = {line: True}
            self.misses += 1
            return False
        if line in entry_set:
            del entry_set[line]
            entry_set[line] = True
            self.hits += 1
            return True
        self.misses += 1
        if len(entry_set) >= self.associativity:
            del entry_set[next(iter(entry_set))]
        entry_set[line] = True
        return False

    def probe(self, address: int) -> bool:
        """Check residency without touching LRU or counters."""
        line = address // self.line_words
        entry_set = self._sets[line % self.num_sets]
        return entry_set is not None and line in entry_set

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"<Cache {self.name}: {self.num_sets}x{self.associativity} "
            f"lines, {self.hit_rate:.1%} hits>"
        )
