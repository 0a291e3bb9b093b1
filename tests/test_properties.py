"""Property-based tests (hypothesis) on core data structures and
cross-module invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.branch.perceptron import PerceptronPredictor
from repro.branch.perfect import PerfectPredictor
from repro.confidence.jrs import JRSConfidenceEstimator
from repro.isa.registers import NUM_ARCH_REGS
from repro.program.interpreter import Interpreter
from repro.uarch.config import MachineConfig
from repro.uarch.rat import RegisterAliasTable
from repro.uarch.storebuffer import ForwardDecision, StoreBuffer
from repro.uarch.timing import TimingSimulator
from repro.workloads.generator import GadgetSpec, WorkloadSpec, build_workload


# ---------------------------------------------------------------------------
# Global history
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=64),
    st.lists(st.booleans(), max_size=200),
)
def test_ghr_width_invariant(width, outcomes):
    """The GHR never exceeds its width and reflects the newest outcomes."""
    predictor = PerfectPredictor(history_bits=width)
    for taken in outcomes:
        predictor.spec_update(taken)
        assert 0 <= predictor.history.bits < (1 << width)
    if outcomes:
        assert (predictor.history.bits & 1) == int(outcomes[-1])


@given(
    st.lists(st.booleans(), min_size=1, max_size=50),
    st.lists(st.booleans(), max_size=50),
)
def test_ghr_snapshot_restore_roundtrip(prefix, suffix):
    predictor = PerfectPredictor(history_bits=16)
    for taken in prefix:
        predictor.spec_update(taken)
    snap = predictor.snapshot()
    for taken in suffix:
        predictor.spec_update(taken)
    predictor.restore(snap)
    assert predictor.history.bits == snap


# ---------------------------------------------------------------------------
# RAT
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.integers(min_value=1, max_value=NUM_ARCH_REGS - 1),
        max_size=60,
    ),
    st.lists(
        st.integers(min_value=1, max_value=NUM_ARCH_REGS - 1),
        max_size=60,
    ),
)
def test_rat_select_count_matches_path_writes(pred_writes, alt_writes):
    """After a checkpointed two-path rename sequence, exactly the registers
    written by at least one path need a select-uop."""
    rat = RegisterAliasTable()
    rat.clear_modified()
    cp1 = rat.checkpoint()
    for arch in pred_writes:
        rat.rename_dest(arch)
    cp2 = rat.checkpoint()
    rat.restore(cp1)
    for arch in alt_writes:
        rat.rename_dest(arch)
    selects = rat.compute_selects(cp2)
    expected = set(pred_writes) | set(alt_writes)
    assert {s.arch for s in selects} == expected


@given(
    st.lists(
        st.integers(min_value=0, max_value=NUM_ARCH_REGS - 1),
        max_size=100,
    )
)
def test_rat_tags_strictly_increase(writes):
    rat = RegisterAliasTable()
    previous = -1
    for arch in writes:
        tag = rat.rename_dest(arch)
        assert tag > previous
        previous = tag


# ---------------------------------------------------------------------------
# Store buffer
# ---------------------------------------------------------------------------

_store_ops = st.lists(
    st.tuples(
        st.sampled_from(["store", "pstore", "load"]),
        st.integers(min_value=0, max_value=7),  # address
    ),
    max_size=60,
)


@given(_store_ops)
def test_storebuffer_never_forwards_from_younger(ops):
    """Forwarding only ever comes from an *older* store to the address."""
    sb = StoreBuffer(capacity=16)
    seq = 0
    for kind, address in ops:
        seq += 1
        if kind == "store":
            sb.insert(address, seq, data_ready_cycle=seq)
        elif kind == "pstore":
            sb.insert(
                address, seq, data_ready_cycle=seq,
                predicate_id=seq % 3,
                predicate_ready_cycle=seq + 50,
                predicate_value=bool(seq % 2),
            )
        else:
            result = sb.lookup(address, seq, current_cycle=seq)
            if result.decision == ForwardDecision.FORWARD:
                assert result.entry.seq < seq
                assert result.entry.address == address


@given(_store_ops)
def test_storebuffer_capacity_respected(ops):
    sb = StoreBuffer(capacity=8)
    seq = 0
    for kind, address in ops:
        seq += 1
        if kind != "load":
            sb.insert(address, seq, data_ready_cycle=seq)
        assert len(sb) <= 8


# ---------------------------------------------------------------------------
# JRS
# ---------------------------------------------------------------------------

@given(st.lists(st.booleans(), max_size=300))
def test_jrs_counter_bounds(outcomes):
    jrs = JRSConfidenceEstimator(table_size=64, counter_bits=4)
    for correct in outcomes:
        jrs.update(0x40, 0, correct)
        assert all(0 <= c <= 15 for c in jrs._counters)


@given(st.integers(min_value=1, max_value=30))
def test_jrs_confidence_requires_streak(streak):
    jrs = JRSConfidenceEstimator(
        table_size=64, counter_bits=4, threshold=12
    )
    for _ in range(streak):
        jrs.update(0x40, 0, True)
    assert jrs.is_confident(0x40, 0) == (streak >= 12)


# ---------------------------------------------------------------------------
# Perceptron
# ---------------------------------------------------------------------------

@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_perceptron_weights_bounded(outcomes):
    predictor = PerceptronPredictor(
        num_perceptrons=8, history_bits=8, weight_bits=6
    )
    for taken in outcomes:
        prediction = predictor.predict(0x80)
        predictor.spec_update(prediction.taken)
        predictor.train(prediction, taken)
        if prediction.taken != taken:
            predictor.repair(prediction, taken)
    for weights in predictor._weights:
        assert all(-32 <= w <= 31 for w in weights)


# ---------------------------------------------------------------------------
# Whole-stack: interpreter determinism and timing sanity on random workloads
# ---------------------------------------------------------------------------

_gadget_kind = st.sampled_from(
    ["if", "ifelse", "nested", "loop", "mem", "fp"]
)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(_gadget_kind, min_size=1, max_size=4),
    st.integers(min_value=5, max_value=40),
    st.integers(min_value=0, max_value=3),
)
def test_random_workload_end_to_end(kinds, iterations, seed):
    spec = WorkloadSpec(
        name="prop",
        iterations=iterations,
        gadgets=[GadgetSpec(kind, work=3) for kind in kinds],
        seed=seed,
    )
    workload = build_workload(spec)
    trace1 = workload.run()
    trace2 = workload.run()
    # Functional determinism.
    assert trace1.instruction_count == trace2.instruction_count
    assert trace1.branch_outcomes() == trace2.branch_outcomes()
    # Timing sanity: the machine can never beat its fetch bandwidth and
    # always retires exactly the architectural instruction count.
    config = MachineConfig()
    stats = TimingSimulator(workload.program, trace1, config).run()
    assert stats.cycles >= trace1.instruction_count / config.fetch_width
    assert stats.retired_instructions == trace1.instruction_count
    assert stats.mispredictions <= trace1.branch_count
