"""The fuzz program generator: validity, boundedness, determinism."""

import pytest

from repro.fuzz import (
    FUZZ_GADGET_KINDS,
    FuzzGadget,
    FuzzKnobs,
    FuzzSpec,
    build_fuzz_workload,
    draw_spec,
    static_instruction_count,
)
from repro.fuzz.generator import _trip_mask
from repro.program.interpreter import ExecutionLimitExceeded


class TestDrawSpec:
    def test_pure_function_of_seed_and_knobs(self):
        assert draw_spec(17) == draw_spec(17)
        assert draw_spec(17, FuzzKnobs()) == draw_spec(17)

    def test_different_seeds_draw_different_specs(self):
        specs = [draw_spec(seed) for seed in range(10)]
        assert len({repr(s.gadgets) for s in specs}) > 1

    def test_knobs_bound_the_draw(self):
        knobs = FuzzKnobs(min_gadgets=2, max_gadgets=3, iterations=77)
        for seed in range(30):
            spec = draw_spec(seed, knobs)
            assert 2 <= len(spec.gadgets) <= 3
            assert spec.iterations == 77

    def test_every_kind_is_reachable(self):
        seen = set()
        for seed in range(120):
            seen.update(g.kind for g in draw_spec(seed).gadgets)
        assert seen == set(FUZZ_GADGET_KINDS)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            FuzzKnobs(min_gadgets=0)
        with pytest.raises(ValueError):
            FuzzKnobs(min_gadgets=3, max_gadgets=2)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FuzzGadget(kind="goto-considered-harmful")

    def test_colon_in_name_rejected(self):
        # Colon-joined data-seed tags must never be ambiguous.
        with pytest.raises(ValueError):
            FuzzSpec(seed=1, gadgets=[FuzzGadget(kind="hammock")], name="a:b")

    def test_empty_merge_block_rejected(self):
        # Blocks must be non-empty so every merge point has a first_pc.
        with pytest.raises(ValueError):
            FuzzGadget(kind="hammock", merge_work=0)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            build_fuzz_workload(FuzzSpec(seed=1, gadgets=[]))


@pytest.mark.parametrize("kind", FUZZ_GADGET_KINDS)
class TestEveryKind:
    def test_builds_and_terminates(self, kind):
        spec = FuzzSpec(
            seed=3, iterations=60, gadgets=[FuzzGadget(kind=kind)]
        )
        workload = build_fuzz_workload(spec)
        # Termination-by-construction: a small explicit cap, far below
        # the interpreter default, must never be hit.
        try:
            trace = workload.run(max_instructions=500_000)
        except ExecutionLimitExceeded:  # pragma: no cover
            pytest.fail(f"gadget {kind!r} did not terminate")
        assert trace.instruction_count > 0

    def test_static_count_matches_program(self, kind):
        spec = FuzzSpec(
            seed=3, iterations=60, gadgets=[FuzzGadget(kind=kind)]
        )
        count = static_instruction_count(spec)
        assert count == build_fuzz_workload(spec).program.instruction_count()
        assert count >= 5  # at least the main-loop skeleton


class TestGnarlyShapes:
    """Structural spot-checks that the adversarial shapes really have
    the CFG properties they claim."""

    def _blocks(self, kind, **fields):
        spec = FuzzSpec(
            seed=5, iterations=40, gadgets=[FuzzGadget(kind=kind, **fields)]
        )
        cfg = build_fuzz_workload(spec).program.entry_function
        return {block.name: block for block in cfg}

    def test_nest_is_properly_nested(self):
        blocks = self._blocks("nest", depth=3)
        # Merges unwind innermost-first: textual order ... M2, M1, M0 —
        # so each outer diverge region strictly contains the inner ones.
        nest_merges = [n for n in blocks if "_L" in n and n.endswith("_M")]
        assert nest_merges == ["g0_L2_M", "g0_L1_M", "g0_L0_M"]
        # Level 0's branch skips the entire inner nest to its own merge.
        assert "g0_L0_M" in blocks["g0_L0_A"].successors()

    def test_overlap_shares_a_tail_block(self):
        blocks = self._blocks("overlap")
        # The not-taken arm (B) cross-branches into the taken arm's
        # continuation (T2): T2 has predecessors from both arms, so
        # neither inner region is a hammock.
        assert "g0_T2" in blocks["g0_B"].successors()
        assert "g0_T2" in blocks["g0_C"].successors()

    def test_dispatch_arms_scale(self):
        few = self._blocks("dispatch", arms=2)
        many = self._blocks("dispatch", arms=5)
        assert len(many) > len(few)

    def test_multiexit_loop_has_two_exits(self):
        blocks = self._blocks("multiexit_loop")
        assert "g0_X" in blocks and "g0_X2" in blocks

    def test_trip_masks_are_pinned(self):
        # Loops run 1..mask+1 times: trips 1, 2, 3, 4 allow up to 2, 4,
        # 4 and 8 trips.  Pinned: the masks shape every loop program.
        assert tuple(_trip_mask(t) for t in (1, 2, 3, 4)) == (1, 3, 3, 7)


class TestDeterminism:
    def test_build_is_bit_reproducible(self):
        a = build_fuzz_workload(draw_spec(9))
        b = build_fuzz_workload(draw_spec(9))
        assert a.memory._words == b.memory._words
        assert a.program.instruction_count() == b.program.instruction_count()
        ta, tb = a.run(), b.run()
        assert ta.instruction_count == tb.instruction_count

    def test_seed_reshapes_the_data(self):
        gadgets = [FuzzGadget(kind="hammock")]
        a = build_fuzz_workload(FuzzSpec(seed=1, gadgets=gadgets))
        b = build_fuzz_workload(FuzzSpec(seed=2, gadgets=gadgets))
        assert a.memory._words != b.memory._words

    def test_gadgets_never_share_data_arrays(self):
        # Two gadgets with identical knobs draw from *different* seeded
        # streams (the per-gadget index is in the data seed).
        spec = FuzzSpec(
            seed=1,
            iterations=64,
            gadgets=[FuzzGadget(kind="hammock"), FuzzGadget(kind="hammock")],
        )
        memory = build_fuzz_workload(spec).memory
        first = [memory._words.get(1_000_000 + i, 0) for i in range(64)]
        # The second array starts after the first plus padding.
        base2 = 1_000_000 + 64 + 64
        second = [memory._words.get(base2 + i, 0) for i in range(64)]
        assert first != second
