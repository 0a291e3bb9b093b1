"""Unit tests for BTB and RAS."""

from repro.branch.btb import BranchTargetBuffer
from repro.branch.ras import ReturnAddressStack


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(num_entries=16, associativity=2)
        assert btb.lookup(0x1000) is None
        btb.insert(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_update_existing(self):
        btb = BranchTargetBuffer(num_entries=16, associativity=2)
        btb.insert(0x1000, 0x2000)
        btb.insert(0x1000, 0x3000)
        assert btb.lookup(0x1000) == 0x3000

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(num_entries=2, associativity=2)  # 1 set
        btb.insert(0x1000, 0xA)
        btb.insert(0x1004, 0xB)
        btb.lookup(0x1000)           # touch A so B becomes LRU
        btb.insert(0x1008, 0xC)      # evicts B
        assert btb.lookup(0x1000) == 0xA
        assert btb.lookup(0x1004) is None
        assert btb.lookup(0x1008) == 0xC


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_snapshot_restore(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(1)
        snap = ras.snapshot()
        ras.push(2)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.pop() == 1
        assert ras.pop() is None

