"""Seeded random mini-ISA program generator for differential fuzzing.

Where :mod:`repro.workloads.generator` composes *curated* gadgets into
benchmarks that mimic published SPEC behaviour, this generator draws
*adversarial* control-flow shapes — the CFG patterns the DMP state
machine (diverge episodes, CFM matching, Table 1 exits, select-uop
merges) has to survive but the 15 benchmarks never stress:

=================  =====================================================
``hammock``        plain if hammock (the DHP/DMP bread-and-butter)
``ifelse``         if-else hammock with work on both arms
``shortleg``       hammock whose frequently-executed leg is one
                   instruction long (short-leg diverge region: episode
                   enters and merges almost immediately)
``nest``           hammocks nested to a drawn depth, each level with its
                   own data-driven branch
``overlap``        two regions sharing a tail block: one arm of the
                   outer branch jumps *into* the other arm's
                   continuation, so the region is not a hammock and the
                   CFM point is the far post-dominator
``dispatch``       indirect-ish dispatch chain: a loaded selector walks
                   a compare-and-branch ladder into one of ``arms``
                   bodies that all rejoin (switch lowering)
``multiexit_loop`` bounded loop with a second, data-dependent break exit
                   (two loop exits, one loop-carried diverge branch)
``loop``           plain counted inner loop (see ``FuzzGadget.trips``)
``call``           hammock with a helper-function call on one arm
``mem``            dependent load/store over a drawn footprint
``fp``             floating-point dependency chain
``straight``       straight-line filler (dilutes branchiness)
=================  =====================================================

Every shape is described by a plain :class:`FuzzGadget` dataclass and
the whole program by a :class:`FuzzSpec`, so a generated program is
(a) perfectly reproducible from its spec, (b) serializable into the
counterexample corpus (:mod:`repro.fuzz.corpus`) and (c) shrinkable by
the delta-debugging minimizer (:mod:`repro.fuzz.minimize`), which only
ever edits the spec and rebuilds.

Termination is guaranteed by construction: the single outer loop runs
``iterations`` times and every inner loop is bounded by a counter
derived from a loaded data value (1 up to the smallest power of two
above ``trips``).  Branch entropy comes from the same seeded behaviour
arrays the workload suite uses (:mod:`repro.workloads.behaviors`), so
branch predictability is a drawable knob.

Register conventions follow the workload generator: ``r3`` is the outer
loop index, ``r4``–``r8`` per-gadget data values, ``r10``–``r12`` inner
loop counters/selectors, ``r13``–``r16`` filler scratch, ``r27``/``r28``
merge accumulators.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import List, Optional, Tuple

from repro.cfg.builder import BlockHandle, CFGBuilder
from repro.isa.instructions import Condition
from repro.program.memory import Memory
from repro.program.program import Program
from repro.workloads import behaviors
from repro.workloads.generator import Workload, _ArrayAllocator, _emit_work

#: Data arrays live where the workload suite puts them.
_DATA_BASE = 1_000_000
_HEAP_BASE = 50_000_000

FUZZ_GADGET_KINDS = (
    "hammock",
    "ifelse",
    "shortleg",
    "nest",
    "overlap",
    "dispatch",
    "multiexit_loop",
    "loop",
    "call",
    "mem",
    "fp",
    "straight",
)

#: Branch-data behaviours the generator draws from, worst first: coin
#: flips (never predictable — always diverge-selected), noisy patterns
#: (hard-ish), and biased easy branches (confidence stays high, so the
#: machine mostly predicts through them).
_DATA_POOL: Tuple[Tuple, ...] = (
    ("uniform",),
    ("periodic", (30, 200, 70, 190, 110, 240), 0.25),
    ("periodic", (40, 200, 90, 180), 0.1),
    ("biased", 0.85),
    ("biased", 0.15),
    ("biased", 0.5),
)


@dataclasses.dataclass
class FuzzGadget:
    """One drawn control-flow shape inside a fuzz program."""

    kind: str
    #: Primary branch-value behaviour (see workloads.behaviors).
    data: Tuple = ("uniform",)
    #: Secondary behaviour (inner branches, break conditions, overlap
    #: cross-jumps).
    inner_data: Tuple = ("uniform",)
    threshold: int = 128
    #: Filler ALU instructions per arm/body.
    work: int = 2
    #: Instructions in the merge/continuation block (>= 1: blocks must
    #: be non-empty so they have a ``first_pc`` to merge at).
    merge_work: int = 1
    #: Nesting depth for ``nest``/``overlap``.
    depth: int = 2
    #: Ladder arms for ``dispatch``.
    arms: int = 3
    #: Inner-loop trip knob for loop kinds: each entry runs 1 up to the
    #: smallest power of two above ``trips`` iterations (``trips`` 1, 2,
    #: 3, 4 allow up to 2, 4, 4, 8).
    trips: int = 3
    #: Word footprint of ``mem``.
    footprint: int = 1 << 10
    #: Access pattern for ``mem``: "chase" or "stride".
    access: str = "chase"

    def __post_init__(self) -> None:
        if self.kind not in FUZZ_GADGET_KINDS:
            raise ValueError(f"unknown fuzz gadget kind {self.kind!r}")
        if self.merge_work < 1:
            raise ValueError("merge_work must be >= 1 (blocks are non-empty)")
        if self.depth < 1 or self.arms < 2 or self.trips < 1:
            raise ValueError("depth >= 1, arms >= 2, trips >= 1 required")


@dataclasses.dataclass
class FuzzSpec:
    """A complete fuzz-program definition (the minimizer's substrate)."""

    seed: int
    iterations: int = 120
    gadgets: List[FuzzGadget] = dataclasses.field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"fuzz-{self.seed}"
        if ":" in self.name:
            # The workload generator's data-seed tags are colon-joined;
            # a colon in the name could alias two different specs' data
            # streams (see repro.workloads.generator._WorkloadBuilder).
            raise ValueError("fuzz program names must not contain ':'")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")

    def replace(self, **overrides) -> "FuzzSpec":
        spec = dataclasses.replace(self, **overrides)
        return spec


@dataclasses.dataclass(frozen=True)
class FuzzKnobs:
    """Size/branchiness/memory knobs bounding what :func:`draw_spec`
    may draw.  The defaults keep one program's dynamic footprint around
    10–30k instructions: large enough to trip every episode type, small
    enough that a 200-seed sweep stays interactive."""

    min_gadgets: int = 1
    max_gadgets: int = 4
    iterations: int = 120
    #: Probability that a drawn gadget is a branching shape (the rest
    #: are mem/fp/straight filler).
    branchiness: float = 0.8
    #: Probability that a branching gadget is one of the gnarly shapes
    #: (nest/overlap/dispatch/multiexit_loop) rather than a hammock.
    gnarl: float = 0.6
    max_depth: int = 3
    max_arms: int = 5
    max_trips: int = 4
    max_work: int = 6
    max_footprint_log2: int = 12

    def __post_init__(self) -> None:
        if self.min_gadgets < 1 or self.max_gadgets < self.min_gadgets:
            raise ValueError("need 1 <= min_gadgets <= max_gadgets")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")


_BRANCHY = (
    "hammock", "ifelse", "shortleg", "call",
)
_GNARLY = ("nest", "overlap", "dispatch", "multiexit_loop", "loop")
_FILLER = ("mem", "fp", "straight")


def draw_spec(seed: int, knobs: Optional[FuzzKnobs] = None) -> FuzzSpec:
    """Draw one program specification from a seed.

    The draw is a pure function of ``(seed, knobs)`` — the same pair
    always yields the same spec, and therefore (via
    :func:`build_fuzz_workload`) the same program bit for bit.
    """
    knobs = knobs or FuzzKnobs()
    rng = random.Random(seed)
    count = rng.randint(knobs.min_gadgets, knobs.max_gadgets)
    gadgets: List[FuzzGadget] = []
    for _ in range(count):
        if rng.random() < knobs.branchiness:
            if rng.random() < knobs.gnarl:
                kind = rng.choice(_GNARLY)
            else:
                kind = rng.choice(_BRANCHY)
        else:
            kind = rng.choice(_FILLER)
        gadgets.append(
            FuzzGadget(
                kind=kind,
                data=rng.choice(_DATA_POOL),
                inner_data=rng.choice(_DATA_POOL),
                threshold=rng.choice((96, 128, 160)),
                work=rng.randint(1, knobs.max_work),
                merge_work=rng.randint(1, 2),
                depth=rng.randint(1, knobs.max_depth),
                arms=rng.randint(2, knobs.max_arms),
                trips=rng.randint(1, knobs.max_trips),
                footprint=1 << rng.randint(6, knobs.max_footprint_log2),
                access=rng.choice(("chase", "stride")),
            )
        )
    return FuzzSpec(seed=seed, iterations=knobs.iterations, gadgets=gadgets)


def _data_seed(spec: FuzzSpec, index: int, stream: str) -> int:
    """Collision-resistant per-array data seed.

    Unlike the workload generator's colon-joined crc32 tags, this hashes
    an unambiguous ``repr`` tuple with a 64-bit digest, so two distinct
    ``(spec seed, gadget, stream)`` coordinates cannot alias a data
    array (the determinism-audit contract; see tests/fuzz).
    """
    tag = repr((spec.seed, spec.name, index, stream)).encode()
    return int.from_bytes(
        hashlib.blake2b(tag, digest_size=8).digest(), "big"
    )


def _materialize(data: Tuple, length: int, seed: int) -> List[int]:
    kind = data[0]
    if kind == "uniform":
        return behaviors.uniform(length, seed)
    if kind == "biased":
        return behaviors.biased(length, seed, taken_fraction=data[1])
    if kind == "periodic":
        noise = data[2] if len(data) > 2 else 0.1
        return behaviors.noisy_periodic(length, seed, data[1], noise=noise)
    raise ValueError(f"unknown data behaviour {data!r}")


class _FuzzBuilder:
    """Deterministically lowers a :class:`FuzzSpec` to a sealed program."""

    def __init__(self, spec: FuzzSpec) -> None:
        self.spec = spec
        self.memory = Memory()
        self.arrays = _ArrayAllocator(self.memory, base=_DATA_BASE)
        self.main = CFGBuilder("main")
        self._needs_helper = False

    # -- data -------------------------------------------------------------

    def _load_value(
        self, block: BlockHandle, reg: int, data: Tuple, index: int,
        stream: str,
    ) -> None:
        values = _materialize(
            data, self.spec.iterations, _data_seed(self.spec, index, stream)
        )
        base = self.arrays.allocate(values)
        block.load(reg, 3, offset=base)

    # -- gadget emitters ---------------------------------------------------

    def _emit_hammock(self, g: FuzzGadget, p: str, i: int) -> None:
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        a.br(Condition.GE, 4, imm=g.threshold, taken=f"{p}_M")
        b = self.main.block(f"{p}_B")
        _emit_work(b, max(g.work, 1), i)
        m = self.main.block(f"{p}_M")
        _emit_work(m, g.merge_work, i + 7)

    def _emit_ifelse(self, g: FuzzGadget, p: str, i: int) -> None:
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        a.br(Condition.GE, 4, imm=g.threshold, taken=f"{p}_E")
        t = self.main.block(f"{p}_T")
        _emit_work(t, max(g.work, 1), i)
        t.addi(28, 28, 1)
        t.jmp(f"{p}_M")
        e = self.main.block(f"{p}_E")
        _emit_work(e, max(g.work, 1), i + 1)
        e.addi(28, 28, 2)
        m = self.main.block(f"{p}_M")
        m.add(27, 28, 13)
        _emit_work(m, g.merge_work - 1, i + 7)

    def _emit_shortleg(self, g: FuzzGadget, p: str, i: int) -> None:
        """Short-leg diverge region: the not-taken leg is exactly one
        instruction, so a predicated episode merges almost immediately
        (stresses the enter-then-instantly-match CFM path)."""
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        a.br(Condition.GE, 4, imm=g.threshold, taken=f"{p}_M")
        b = self.main.block(f"{p}_B")
        b.addi(13, 13, 1)
        m = self.main.block(f"{p}_M")
        _emit_work(m, g.merge_work, i + 7)

    def _emit_nest(self, g: FuzzGadget, p: str, i: int) -> None:
        """Properly *nested* hammocks to ``depth``: each level's branch
        skips its whole inner region to that level's merge, and the
        merges unwind innermost-first (textual order
        A0 B0 A1 B1 ... Mk ... M1 M0), so the outer diverge region
        contains the inner ones — CFM points at every nesting level."""
        for level in range(g.depth):
            reg = 4 + (level % 5)
            a = self.main.block(f"{p}_L{level}_A")
            data = g.data if level == 0 else g.inner_data
            self._load_value(a, reg, data, i + level, f"nest{level}")
            a.br(Condition.GE, reg, imm=g.threshold, taken=f"{p}_L{level}_M")
            b = self.main.block(f"{p}_L{level}_B")
            _emit_work(b, max(g.work, 1), i + level)
        for level in reversed(range(g.depth)):
            m = self.main.block(f"{p}_L{level}_M")
            if level == 0:
                _emit_work(m, g.merge_work, i + 9)
            else:
                m.addi(27, 27, level + 1)

    def _emit_overlap(self, g: FuzzGadget, p: str, i: int) -> None:
        """Overlapping regions sharing a tail: the outer branch's
        not-taken arm re-branches *into* the taken arm's continuation
        (T2), so neither inner region is a hammock and the only common
        post-dominator is the far merge block."""
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        self._load_value(a, 5, g.inner_data, i, "cross")
        a.br(Condition.GE, 4, imm=g.threshold, taken=f"{p}_C")
        b = self.main.block(f"{p}_B")
        _emit_work(b, max(g.work, 1), i)
        b.br(Condition.GE, 5, imm=128, taken=f"{p}_T2")
        t1 = self.main.block(f"{p}_T1")
        _emit_work(t1, max(g.work, 1), i + 1)
        t1.jmp(f"{p}_M")
        c = self.main.block(f"{p}_C")
        _emit_work(c, max(g.work, 1), i + 2)
        t2 = self.main.block(f"{p}_T2")
        _emit_work(t2, max(g.work, 1), i + 3)
        m = self.main.block(f"{p}_M")
        _emit_work(m, g.merge_work, i + 7)

    def _emit_dispatch(self, g: FuzzGadget, p: str, i: int) -> None:
        """Compare-and-branch ladder over a loaded selector — the
        mini-ISA lowering of an indirect dispatch: ``arms`` case bodies
        that all rejoin at one continuation."""
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        # Selector in [0, arms): mask to the next power of two, then a
        # final ladder arm catches the overflow values.
        mask = 1
        while mask < g.arms:
            mask <<= 1
        a.andi(10, 4, mask - 1)
        for arm in range(g.arms - 1):
            ladder = a if arm == 0 else self.main.block(f"{p}_D{arm}")
            ladder.br(Condition.EQ, 10, imm=arm, taken=f"{p}_C{arm}")
        # Fall-through default arm.
        default = self.main.block(f"{p}_Cdef")
        _emit_work(default, max(g.work, 1), i)
        default.jmp(f"{p}_M")
        for arm in range(g.arms - 1):
            body = self.main.block(f"{p}_C{arm}")
            _emit_work(body, max(g.work, 1), i + arm + 1)
            body.addi(28, 28, arm + 1)
            body.jmp(f"{p}_M")
        m = self.main.block(f"{p}_M")
        _emit_work(m, g.merge_work, i + 7)

    def _emit_multiexit_loop(self, g: FuzzGadget, p: str, i: int) -> None:
        """Bounded loop with a data-dependent break: exit either from
        the header (count exhausted) or from the body (break value
        crossed the threshold), two distinct exit blocks."""
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        self._load_value(a, 5, g.inner_data, i, "break")
        a.andi(10, 4, _trip_mask(g.trips))
        a.addi(10, 10, 1)
        a.movi(11, 0)
        h = self.main.block(f"{p}_H")
        h.br(Condition.GE, 11, 10, taken=f"{p}_X")
        b = self.main.block(f"{p}_B")
        _emit_work(b, max(g.work, 1), i)
        # March the break value toward the threshold so the break
        # triggers on different iterations for different data.
        b.addi(5, 5, 64)
        b.br(Condition.GE, 5, imm=256 + g.threshold, taken=f"{p}_X2")
        b2 = self.main.block(f"{p}_B2")
        b2.addi(11, 11, 1)
        b2.jmp(f"{p}_H")
        x2 = self.main.block(f"{p}_X2")
        _emit_work(x2, max(g.work, 1), i + 1)
        x = self.main.block(f"{p}_X")
        _emit_work(x, g.merge_work, i + 7)

    def _emit_loop(self, g: FuzzGadget, p: str, i: int) -> None:
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        a.andi(10, 4, _trip_mask(g.trips))
        a.addi(10, 10, 1)
        a.movi(11, 0)
        h = self.main.block(f"{p}_H")
        h.br(Condition.GE, 11, 10, taken=f"{p}_X")
        b = self.main.block(f"{p}_B")
        _emit_work(b, max(g.work, 1), i)
        b.addi(11, 11, 1)
        b.jmp(f"{p}_H")
        x = self.main.block(f"{p}_X")
        _emit_work(x, g.merge_work, i + 7)

    def _emit_call(self, g: FuzzGadget, p: str, i: int) -> None:
        self._needs_helper = True
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        a.br(Condition.GE, 4, imm=g.threshold, taken=f"{p}_E")
        t = self.main.block(f"{p}_T")
        _emit_work(t, max(g.work, 1), i)
        t.call("helper")
        tc = self.main.block(f"{p}_TC")
        tc.jmp(f"{p}_M")
        e = self.main.block(f"{p}_E")
        _emit_work(e, max(g.work, 1), i + 1)
        m = self.main.block(f"{p}_M")
        _emit_work(m, g.merge_work, i + 7)

    def _emit_mem(self, g: FuzzGadget, p: str, i: int) -> None:
        if g.access == "chase":
            indices = behaviors.pointer_chase_indices(
                self.spec.iterations,
                _data_seed(self.spec, i, "mem"),
                g.footprint,
            )
        else:
            indices = behaviors.strided_indices(
                self.spec.iterations, stride=3, footprint=g.footprint
            )
        index_base = self.arrays.allocate(indices)
        a = self.main.block(f"{p}_A")
        a.load(12, 3, offset=index_base)
        a.load(15, 12, offset=_HEAP_BASE)
        a.add(27, 15, 3)
        _emit_work(a, max(g.work, 1), i)
        a.store(27, 12, offset=_HEAP_BASE)

    def _emit_fp(self, g: FuzzGadget, p: str, i: int) -> None:
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        a.fadd(20, 27, 4)
        a.fmul(21, 20, 4)
        a.fdiv(22, 21, 4)
        a.add(27, 22, 4)
        _emit_work(a, max(g.work - 1, 0), i)

    def _emit_straight(self, g: FuzzGadget, p: str, i: int) -> None:
        a = self.main.block(f"{p}_A")
        self._load_value(a, 4, g.data, i, "primary")
        _emit_work(a, max(g.work, 1), i)

    # -- assembly ----------------------------------------------------------

    def build(self) -> Workload:
        spec = self.spec
        init = self.main.block("init")
        init.movi(3, 0)
        head = self.main.block("head")
        head.br(Condition.GE, 3, imm=spec.iterations, taken="exit")
        for index, gadget in enumerate(spec.gadgets):
            emitter = getattr(self, f"_emit_{gadget.kind}")
            emitter(gadget, f"g{index}", index * 16)
        step = self.main.block("step")
        step.addi(3, 3, 1)
        step.jmp("head")
        self.main.block("exit").halt()

        program = Program(spec.name)
        program.add_function(self.main.build())
        if self._needs_helper:
            helper = CFGBuilder("helper")
            h = helper.block("h_entry")
            _emit_work(h, 3, 99)
            h.add(27, 13, 14)
            h.ret()
            program.add_function(helper.build())
        program.seal()
        return Workload(spec, program, self.memory)


def _trip_mask(trips: int) -> int:
    """Smallest ``2^k - 1`` mask ``>= trips``.

    A loop masks a data value with it and adds one, so it runs
    ``1..mask + 1`` times.  That allows more trips than ``trips`` (the
    mask of ``trips=1`` is 1, not 0); tightening it would rebuild every
    committed loop program, so it stays.
    """
    mask = 1
    while mask < trips:
        mask = (mask << 1) | 1
    return mask


def build_fuzz_workload(spec: FuzzSpec) -> Workload:
    """Build (program + initialized memory) for one fuzz spec.

    The build is deterministic: equal specs produce bit-identical
    programs, data arrays and memory images.
    """
    if not spec.gadgets:
        raise ValueError("fuzz spec needs at least one gadget")
    return _FuzzBuilder(spec).build()


def static_instruction_count(spec: FuzzSpec) -> int:
    """Static instructions of the program ``spec`` builds (reproducer
    size, the minimizer's objective)."""
    return build_fuzz_workload(spec).program.instruction_count()
