"""Exact-equivalence checks for the shared hot-path micro-optimizations.

Several leaf components were rewritten for speed with the contract that
behavior is *identical* — same outputs, same hit/miss accounting, same
forwarding decisions — to the straightforward implementations they
replaced.  Each test here drives the optimized component and a
transliteration of the original, simple implementation through the same
randomized stimulus and requires exact agreement.
"""

import random
from collections import OrderedDict

from repro.branch.btb import BranchTargetBuffer
from repro.branch.perceptron import PerceptronPredictor
from repro.memsys.cache import Cache
from repro.program.trace import BlockExec, Trace
from repro.uarch.storebuffer import ForwardDecision, StoreBuffer
from repro.workloads.suite import build_benchmark


class NaivePerceptron(PerceptronPredictor):
    """The original dense dot-product / clip-per-weight implementation."""

    def predict(self, pc):
        from repro.branch.base import Prediction

        index = (pc >> 2) % self.num_perceptrons
        weights = self._weights[index]
        history = self.history.bits
        output = weights[0]
        bits = history
        for i in range(1, self.history_bits + 1):
            output += weights[i] if bits & 1 else -weights[i]
            bits >>= 1
        return Prediction(
            output >= 0, pc, index=index, history=history, output=output
        )

    def train(self, prediction, actual):
        mispredicted = prediction.taken != actual
        if not mispredicted and abs(prediction.output) > self.theta:
            return
        weights = self._weights[prediction.index]
        t = 1 if actual else -1
        weights[0] = self._clip(weights[0] + t)
        bits = prediction.history
        for i in range(1, self.history_bits + 1):
            x = 1 if bits & 1 else -1
            weights[i] = self._clip(weights[i] + t * x)
            bits >>= 1


class TestPerceptron:
    def test_matches_naive_implementation(self):
        rng = random.Random(7)
        fast = PerceptronPredictor(num_perceptrons=13, history_bits=9)
        slow = NaivePerceptron(num_perceptrons=13, history_bits=9)
        pcs = [rng.randrange(0, 4096) * 4 for _ in range(25)]
        for step in range(20000):
            pc = rng.choice(pcs)
            p_fast = fast.predict(pc)
            p_slow = slow.predict(pc)
            assert (p_fast.taken, p_fast.output, p_fast.index) == (
                p_slow.taken, p_slow.output, p_slow.index
            ), f"diverged at step {step}"
            actual = rng.random() < 0.7
            fast.spec_update(p_fast.taken)
            slow.spec_update(p_slow.taken)
            fast.train(p_fast, actual)
            slow.train(p_slow, actual)
            if p_fast.taken != actual:
                fast.repair(p_fast, actual)
                slow.repair(p_slow, actual)
        assert fast._weights == slow._weights


class OrderedDictCache:
    """LRU cache built on OrderedDict — the behavior the plain-dict
    delete/reinsert implementation must reproduce."""

    def __init__(self, num_sets, associativity, line_words):
        self.num_sets = num_sets
        self.associativity = associativity
        self.line_words = line_words
        self._sets = [OrderedDict() for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address):
        line = address // self.line_words
        entry_set = self._sets[line % self.num_sets]
        if line in entry_set:
            entry_set.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(entry_set) >= self.associativity:
            entry_set.popitem(last=False)
        entry_set[line] = True
        return False


class TestCacheLru:
    def test_matches_ordereddict_model(self):
        rng = random.Random(11)
        cache = Cache("test", size_words=16 * 8 * 4, associativity=4)
        model = OrderedDictCache(
            cache.num_sets, cache.associativity, cache.line_words
        )
        for _ in range(30000):
            address = rng.randrange(0, 4096)
            assert cache.access(address) == model.access(address)
        assert (cache.hits, cache.misses) == (model.hits, model.misses)
        for _ in range(200):
            address = rng.randrange(0, 4096)
            line = address // cache.line_words
            assert cache.probe(address) == (
                line in model._sets[line % model.num_sets]
            )


class TestBtbLru:
    def test_matches_ordereddict_model(self):
        rng = random.Random(13)
        btb = BranchTargetBuffer(num_entries=64, associativity=4)
        model = [OrderedDict() for _ in range(btb.num_sets)]

        def model_lookup(pc):
            entry_set = model[(pc >> 2) % btb.num_sets]
            if pc in entry_set:
                entry_set.move_to_end(pc)
                return entry_set[pc]
            return None

        def model_insert(pc, target):
            entry_set = model[(pc >> 2) % btb.num_sets]
            if pc in entry_set:
                entry_set.move_to_end(pc)
                entry_set[pc] = target
                return
            if len(entry_set) >= btb.associativity:
                entry_set.popitem(last=False)
            entry_set[pc] = target

        pcs = [rng.randrange(0, 512) * 4 for _ in range(80)]
        for _ in range(30000):
            pc = rng.choice(pcs)
            if rng.random() < 0.5:
                assert btb.lookup(pc) == model_lookup(pc)
            else:
                target = rng.randrange(0, 1 << 16)
                btb.insert(pc, target)
                model_insert(pc, target)
        for entries, model_entries in zip(btb._sets, model):
            assert list(entries.items()) == list(model_entries.items())


class NaiveStoreBuffer(StoreBuffer):
    """Original lookup: a youngest-first scan over the whole deque."""

    def lookup(self, address, load_seq, load_predicate_id=None,
               current_cycle=0):
        from repro.uarch.storebuffer import ForwardResult

        for entry in reversed(self._entries):
            if entry.seq >= load_seq or entry.address != address:
                continue
            if not entry.is_predicated:
                self.forwarded += 1
                return ForwardResult(ForwardDecision.FORWARD, entry)
            if self._is_resolved(entry, current_cycle):
                if entry.predicate_value:
                    self.forwarded += 1
                    return ForwardResult(ForwardDecision.FORWARD, entry)
                continue
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
            return ForwardResult(ForwardDecision.WAIT, entry,
                                 wait_until=wait_until)
        return ForwardResult(ForwardDecision.MEMORY)


class TestStoreBufferIndex:
    def test_matches_full_scan(self):
        rng = random.Random(17)
        fast = StoreBuffer(capacity=16)
        slow = NaiveStoreBuffer(capacity=16)
        seq = 0
        for _ in range(20000):
            op = rng.random()
            address = rng.randrange(0, 24)
            cycle = rng.randrange(0, 500)
            if op < 0.45:
                predicated = rng.random() < 0.5
                kwargs = {}
                if predicated:
                    kwargs = {
                        "predicate_id": rng.randrange(0, 4),
                        "predicate_ready_cycle": cycle + rng.randrange(0, 40),
                        "predicate_value": rng.choice(
                            [None, True, False]
                        ),
                    }
                fast.insert(address, seq, cycle, **kwargs)
                slow.insert(address, seq, cycle, **kwargs)
                seq += 1
            else:
                load_pred = rng.choice([None, 0, 1, 2, 3])
                load_seq = rng.randrange(0, seq + 1)
                a = fast.lookup(address, load_seq, load_pred, cycle)
                b = slow.lookup(address, load_seq, load_pred, cycle)
                assert a.decision == b.decision
                assert a.wait_until == b.wait_until
                assert (a.entry is None) == (b.entry is None)
                if a.entry is not None:
                    assert a.entry.seq == b.entry.seq
            assert len(fast) == len(slow)
        assert (fast.forwarded, fast.waited) == (slow.forwarded, slow.waited)


class TestTraceCounters:
    def test_counters_match_instruction_scan(self):
        from repro.isa.instructions import Opcode

        workload = build_benchmark("parser", 80, 0)
        trace = workload.run()
        loads = stores = 0
        for record in trace.records:
            for instr in record.block.instructions:
                if instr.opcode == Opcode.LOAD:
                    loads += 1
                elif instr.opcode == Opcode.STORE:
                    stores += 1
        assert trace.load_count == loads
        assert trace.store_count == stores

    def test_append_accumulates(self):
        workload = build_benchmark("gzip", 40, 0)
        source = workload.run()
        rebuilt = Trace(source.program_name)
        for record in source.records:
            rebuilt.append(
                BlockExec(record.function, record.block, record.taken,
                          record.mem_addrs)
            )
        assert rebuilt.load_count == source.load_count
        assert rebuilt.store_count == source.store_count
        assert rebuilt.instruction_count == source.instruction_count
        assert rebuilt.branch_count == source.branch_count
