"""Unit tests for caches and the hierarchy."""

import pytest
from hypothesis import given, strategies as st

from repro.memsys.cache import Cache
from repro.memsys.hierarchy import CacheHierarchy, MainMemory


class TestCache:
    def test_cold_miss_then_hit(self):
        c = Cache("t", size_words=64, associativity=2, line_words=8)
        assert not c.access(0)
        assert c.access(0)
        assert c.hits == 1
        assert c.misses == 1

    def test_spatial_locality_within_line(self):
        c = Cache("t", size_words=64, associativity=2, line_words=8)
        c.access(0)
        assert c.access(7)       # same 8-word line
        assert not c.access(8)   # next line

    def test_lru_eviction(self):
        # 2 lines of 8 words, 2-way => a single set.
        c = Cache("t", size_words=16, associativity=2, line_words=8)
        c.access(0)    # line 0
        c.access(8)    # line 1
        c.access(0)    # touch line 0, line 1 becomes LRU
        c.access(16)   # line 2 evicts line 1
        assert c.access(0)
        assert not c.access(8)

    def test_probe_does_not_disturb(self):
        c = Cache("t", size_words=64, associativity=2, line_words=8)
        assert not c.probe(0)
        c.access(0)
        hits, misses = c.hits, c.misses
        assert c.probe(0)
        assert (c.hits, c.misses) == (hits, misses)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("t", size_words=24, associativity=16, line_words=8)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=300))
    def test_accounting_invariant(self, addresses):
        """hits + misses always equals accesses; hit_rate stays in [0, 1]."""
        c = Cache("t", size_words=128, associativity=4, line_words=8)
        for addr in addresses:
            c.access(addr)
        assert c.hits + c.misses == len(addresses)
        assert 0.0 <= c.hit_rate <= 1.0

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    def test_small_footprint_never_misses_after_warmup(self, addresses):
        """A working set that fits in the cache only takes cold misses."""
        c = Cache("t", size_words=64, associativity=8, line_words=8)
        for addr in addresses:
            c.access(addr)
        misses_after_warmup = c.misses
        for addr in addresses:
            c.access(addr)
        assert c.misses == misses_after_warmup


class TestHierarchy:
    def test_l1_hit_latency(self):
        h = CacheHierarchy()
        first = h.data_access(100)
        second = h.data_access(100)
        assert first == 2 + 10 + 300   # cold: L1 + L2 + memory
        assert second == 2             # L1 hit

    def test_l2_hit_after_l1_eviction(self):
        l1 = Cache("L1D", size_words=16, associativity=1, line_words=8,
                   latency=2)
        h = CacheHierarchy(l1d=l1)
        h.data_access(0)
        # Evict line 0 from the tiny direct-mapped L1 (same set, diff tag).
        h.data_access(16)
        latency = h.data_access(0)
        assert latency == 2 + 10       # L1 miss, L2 hit

    def test_inst_stream_uses_l1i(self):
        h = CacheHierarchy()
        h.inst_access(0x1000)
        assert h.l1i.accesses == 1
        assert h.l1d.accesses == 0

    def test_memory_access_counted(self):
        mem = MainMemory(latency=300)
        h = CacheHierarchy(memory=mem)
        h.data_access(5)
        assert mem.accesses == 1


class TestStreamPrefetcher:
    def test_disabled_by_default(self):
        h = CacheHierarchy()
        h.data_access(0)
        assert h.prefetches_issued == 0

    def test_prefetches_on_miss(self):
        h = CacheHierarchy(prefetch_lines=2)
        h.data_access(0)           # miss on line 0: prefetch lines 1-2
        assert h.prefetches_issued == 2
        assert h.data_access(8) == h.l1d.latency    # line 1: prefetched
        assert h.data_access(16) == h.l1d.latency   # line 2: prefetched

    def test_sequential_stream_mostly_hits(self):
        cold = CacheHierarchy()
        warm = CacheHierarchy(prefetch_lines=4)
        cold_latency = sum(cold.data_access(a) for a in range(0, 512))
        warm_latency = sum(warm.data_access(a) for a in range(0, 512))
        assert warm_latency < cold_latency / 2

    def test_pointer_chase_unaffected(self):
        import random

        rng = random.Random(1)
        addresses = [rng.randrange(1 << 22) for _ in range(300)]
        plain = CacheHierarchy()
        prefetching = CacheHierarchy(prefetch_lines=4)
        plain_latency = sum(plain.data_access(a) for a in addresses)
        pf_latency = sum(prefetching.data_access(a) for a in addresses)
        # Random accesses gain nothing from next-line prefetching.
        assert pf_latency >= plain_latency * 0.9

    def test_no_duplicate_prefetch(self):
        h = CacheHierarchy(prefetch_lines=1)
        h.data_access(0)
        issued = h.prefetches_issued
        h.data_access(1)  # same line: hit, no more prefetches
        assert h.prefetches_issued == issued
