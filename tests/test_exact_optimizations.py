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

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.perceptron import PerceptronPredictor
from repro.memsys.cache import Cache
from repro.program.trace import BlockExec, Trace
from repro.uarch.storebuffer import ForwardDecision, StoreBuffer
from repro.workloads.suite import build_benchmark


class PerBitPerceptron:
    """The per-bit perceptron: a dense ±1 dot product and a clip per
    weight, with its own history register.  Standalone on purpose — the
    predictor under test shares one zero row between untrained
    perceptrons, so nothing here may touch its tables."""

    def __init__(self, num_perceptrons, history_bits, weight_bits):
        self.num_perceptrons = num_perceptrons
        self.history_bits = history_bits
        self.theta = int(1.93 * history_bits + 14)
        self.weight_max = (1 << (weight_bits - 1)) - 1
        self.weight_min = -(1 << (weight_bits - 1))
        self.weights = [
            [0] * (history_bits + 1) for _ in range(num_perceptrons)
        ]
        self.history = 0
        self.clamped = set()

    def _clip(self, value):
        if value > self.weight_max:
            self.clamped.add("max")
            return self.weight_max
        if value < self.weight_min:
            self.clamped.add("min")
            return self.weight_min
        return value

    def predict(self, pc):
        """Returns ``(taken, index, history, output)``."""
        index = (pc >> 2) % self.num_perceptrons
        weights = self.weights[index]
        output = weights[0]
        bits = self.history
        for i in range(1, self.history_bits + 1):
            output += weights[i] if bits & 1 else -weights[i]
            bits >>= 1
        return output >= 0, index, self.history, output

    def spec_update(self, taken):
        mask = (1 << self.history_bits) - 1
        self.history = ((self.history << 1) | int(taken)) & mask

    def train(self, prediction, actual):
        taken, index, history, output = prediction
        if taken == actual and abs(output) > self.theta:
            return
        weights = self.weights[index]
        t = 1 if actual else -1
        weights[0] = self._clip(weights[0] + t)
        for i in range(1, self.history_bits + 1):
            x = 1 if history & 1 else -1
            weights[i] = self._clip(weights[i] + t * x)
            history >>= 1

    def repair(self, prediction, actual):
        self.history = prediction[2]
        self.spec_update(actual)


def _perceptron_stream(rng):
    """(pc, outcome) pairs: random biased outcomes over PCs that alias
    onto shared perceptrons, a history-correlated phase, and long
    one-direction runs that drive weights into both clamps."""
    pcs = [rng.randrange(0, 4096) * 4 for _ in range(25)]
    pcs += [pcs[0] + 13 * 4 * k for k in range(1, 4)]  # same index
    for _ in range(6000):
        yield rng.choice(pcs), rng.random() < 0.7
    recent = [False] * 3
    for _ in range(4000):
        outcome = recent[-3] != (rng.random() < 0.05)
        recent.append(outcome)
        yield pcs[1], outcome
    for outcome in (True, False, True):
        for _ in range(300):
            yield pcs[2], outcome
        for _ in range(300):
            yield pcs[2], rng.random() < 0.5


class TestPerceptron:
    @pytest.mark.parametrize("weight_bits", [4, 8])
    @pytest.mark.parametrize("history_bits", [1, 9, 12, 31, 59])
    def test_matches_per_bit_oracle(self, history_bits, weight_bits):
        rng = random.Random(history_bits * 10 + weight_bits)
        fast = PerceptronPredictor(
            num_perceptrons=13, history_bits=history_bits,
            weight_bits=weight_bits,
        )
        slow = PerBitPerceptron(13, history_bits, weight_bits)
        for step, (pc, actual) in enumerate(_perceptron_stream(rng)):
            p_fast = fast.predict(pc)
            p_slow = slow.predict(pc)
            assert (
                p_fast.taken, p_fast.index, p_fast.history, p_fast.output
            ) == p_slow, f"diverged at step {step}"
            fast.spec_update(p_fast.taken)
            slow.spec_update(p_slow[0])
            fast.train(p_fast, actual)
            slow.train(p_slow, actual)
            if p_fast.taken != actual:
                fast.repair(p_fast, actual)
                slow.repair(p_slow, actual)
        assert fast._weights == slow.weights
        if weight_bits == 4:
            assert slow.clamped == {"max", "min"}

    def test_training_leaves_untrained_rows_zero(self):
        predictor = PerceptronPredictor(num_perceptrons=4, history_bits=9)
        for _ in range(50):
            prediction = predictor.predict(0)
            predictor.train(prediction, False)
        assert predictor._weights[0] != [0] * 10
        assert predictor._weights[1:] == [[0] * 10] * 3
        assert predictor.predict(4).output == 0


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
        # A never-touched set is None: the same as an empty one.
        for entries, model_entries in zip(cache._sets, model._sets):
            assert list((entries or {}).items()) == list(
                model_entries.items()
            )
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
        # A never-touched set is None: the same as an empty one.
        for entries, model_entries in zip(btb._sets, model):
            assert list((entries or {}).items()) == list(
                model_entries.items()
            )


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
