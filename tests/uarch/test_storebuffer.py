"""Unit tests for the Section 2.5 store-buffer forwarding rules."""

from repro.uarch.storebuffer import (
    ForwardDecision,
    StoreBuffer,
)


def make_buffer():
    return StoreBuffer(capacity=16)


class TestRule1NonPredicatedStores:
    def test_forwards_to_any_later_load(self):
        sb = make_buffer()
        sb.insert(address=100, seq=1, data_ready_cycle=10)
        result = sb.lookup(address=100, load_seq=2)
        assert result.decision == ForwardDecision.FORWARD
        assert result.entry.data_ready_cycle == 10

    def test_no_forward_to_older_load(self):
        sb = make_buffer()
        sb.insert(address=100, seq=5, data_ready_cycle=10)
        result = sb.lookup(address=100, load_seq=3)
        assert result.decision == ForwardDecision.MEMORY

    def test_different_address_goes_to_memory(self):
        sb = make_buffer()
        sb.insert(address=100, seq=1, data_ready_cycle=10)
        assert sb.lookup(address=200, load_seq=2).decision == (
            ForwardDecision.MEMORY
        )

    def test_youngest_older_store_wins(self):
        sb = make_buffer()
        sb.insert(address=100, seq=1, data_ready_cycle=10)
        sb.insert(address=100, seq=2, data_ready_cycle=20)
        result = sb.lookup(address=100, load_seq=3)
        assert result.entry.seq == 2


class TestRule2ResolvedPredicates:
    def test_resolved_true_forwards(self):
        sb = make_buffer()
        sb.insert(
            address=100, seq=1, data_ready_cycle=10,
            predicate_id=7, predicate_ready_cycle=50, predicate_value=True,
        )
        result = sb.lookup(address=100, load_seq=2, current_cycle=60)
        assert result.decision == ForwardDecision.FORWARD

    def test_resolved_false_is_skipped(self):
        sb = make_buffer()
        sb.insert(address=100, seq=1, data_ready_cycle=5)  # older plain store
        sb.insert(
            address=100, seq=2, data_ready_cycle=10,
            predicate_id=7, predicate_ready_cycle=50, predicate_value=False,
        )
        result = sb.lookup(address=100, load_seq=3, current_cycle=60)
        assert result.decision == ForwardDecision.FORWARD
        assert result.entry.seq == 1  # fell through to the older store


class TestRule3UnresolvedPredicates:
    def test_same_predicate_id_forwards(self):
        sb = make_buffer()
        sb.insert(
            address=100, seq=1, data_ready_cycle=10,
            predicate_id=7, predicate_ready_cycle=50, predicate_value=True,
        )
        # Before cycle 50 the predicate is architecturally unresolved.
        result = sb.lookup(
            address=100, load_seq=2, load_predicate_id=7, current_cycle=20
        )
        assert result.decision == ForwardDecision.FORWARD

    def test_different_predicate_id_waits(self):
        sb = make_buffer()
        sb.insert(
            address=100, seq=1, data_ready_cycle=10,
            predicate_id=7, predicate_ready_cycle=50, predicate_value=True,
        )
        result = sb.lookup(
            address=100, load_seq=2, load_predicate_id=9, current_cycle=20
        )
        assert result.decision == ForwardDecision.WAIT
        assert result.wait_until == 50

    def test_unpredicated_load_waits(self):
        sb = make_buffer()
        sb.insert(
            address=100, seq=1, data_ready_cycle=10,
            predicate_id=7, predicate_ready_cycle=50, predicate_value=True,
        )
        result = sb.lookup(address=100, load_seq=2, current_cycle=20)
        assert result.decision == ForwardDecision.WAIT

    def test_wait_counts_tracked(self):
        sb = make_buffer()
        sb.insert(
            address=100, seq=1, data_ready_cycle=10,
            predicate_id=7, predicate_ready_cycle=50, predicate_value=True,
        )
        sb.lookup(address=100, load_seq=2, current_cycle=0)
        assert sb.waited == 1


class TestBufferMechanics:
    def test_capacity_drains_oldest(self):
        sb = StoreBuffer(capacity=2)
        sb.insert(address=1, seq=1, data_ready_cycle=1)
        sb.insert(address=2, seq=2, data_ready_cycle=1)
        sb.insert(address=3, seq=3, data_ready_cycle=1)
        assert len(sb) == 2
        assert sb.lookup(address=1, load_seq=9).decision == (
            ForwardDecision.MEMORY
        )
