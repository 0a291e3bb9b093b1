"""Pre-decoded block execution plans for the hot-path engine.

The reference timing model executes every *dynamic* instance of a basic
block by re-reading the same *static* facts about its instructions —
opcode class, source/destination registers, latency, whether it is a
conditional branch — one attribute at a time, for hundreds of
thousands of dynamic blocks.  A :class:`BlockPlan` decodes each static
block **once** into flat parallel tuples that the fast fetch/execute/
retire loops (``engine="fast"``, the default) iterate directly, with
all hot simulator state bound to locals.

Plans are pure derived data: building one never mutates the program,
and a plan built from a *copy* of a block (functional traces loaded
from the artifact cache contain unpickled block copies) is byte-for-
byte equivalent to one built from the program's own block, because the
builder always resolves instruction facts and successor blocks through
the authoritative :class:`~repro.program.program.Program`.  Plans are
cached at program scope by
:class:`repro.cfg.analysis.ProgramAnalysis` and attached to block
objects (``BasicBlock._plan``) for O(1) lookup.

Successor resolution doubles as the ``StaticWalker`` walk table: the
plan holds direct references to the taken/fallthrough/jump-target/
callee-entry blocks of the *program's* CFG, so wrong-path walks follow
object references instead of name→block dictionary lookups.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.instructions import Opcode

#: Terminator kinds (``BlockPlan.term_kind``).  ``TERM_NONE`` covers
#: plain fallthrough blocks *and* HALT blocks (HALT is not a control
#: instruction; a HALT plan simply has no successor).
TERM_NONE = 0
TERM_BR = 1
TERM_JMP = 2
TERM_CALL = 3
TERM_RET = 4

#: Instruction kind codes inside ``BlockPlan.rows``.
KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2


class BlockPlan:
    """One static basic block, decoded for the fast engine.

    ``rows`` is the per-instruction decode: one
    ``(is_cond_branch, kind, latency, max(latency, 1), dest, srcs)``
    tuple per instruction, where ``dest`` is ``-1`` for instructions
    that write no register and ``kind`` is one of the ``KIND_*`` codes.
    ``body_rows`` drops the terminating instruction (the
    ``skip_terminator`` fetch path, used for conditional branches the
    caller predicts separately).

    ``timing_rows`` is the batch engine's scalar row form —
    ``(kind, latency, max(latency, 1), dest, srcs, load_ordinal,
    store_ordinal)`` with the ordinals counting loads/stores within the
    block — precomputed here so the lockstep groups and the horizon
    macro blocks assemble their row tables without re-deriving it per
    group.
    """

    __slots__ = (
        "function",
        "block_name",
        "n",
        "first_pc",
        "rows",
        "body_rows",
        "timing_rows",
        "cond_flags",
        "term_kind",
        "term_pc",
        "taken_block",
        "fall_block",
        "target_block",
        "callee_name",
        "callee_block",
        "fallthrough_name",
        "taken_pc",
        "target_pc",
        "callee_pc",
        "return_pc",
    )

    def __init__(self, function: str, block_name: str) -> None:
        self.function = function
        self.block_name = block_name
        self.n = 0
        self.first_pc: Optional[int] = None
        self.rows: Tuple[Tuple, ...] = ()
        self.body_rows: Tuple[Tuple, ...] = ()
        self.timing_rows: Tuple[Tuple, ...] = ()
        self.cond_flags: Tuple[bool, ...] = ()
        self.term_kind = TERM_NONE
        self.term_pc: Optional[int] = None
        self.taken_block = None
        self.fall_block = None
        self.target_block = None
        self.callee_name: Optional[str] = None
        self.callee_block = None
        self.fallthrough_name: Optional[str] = None
        self.taken_pc: Optional[int] = None
        self.target_pc: Optional[int] = None
        self.callee_pc: Optional[int] = None
        self.return_pc: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"<BlockPlan {self.function}/{self.block_name} "
            f"({self.n} insts, term={self.term_kind})>"
        )


def build_block_plan(program, function: str, block) -> BlockPlan:
    """Decode one static block into a :class:`BlockPlan`.

    ``block`` may be any object equal in content to the program's block
    of the same name (e.g. an unpickled copy from a cached trace); the
    plan is always built from — and its successor references always
    point into — the authoritative program CFG.
    """
    cfg = program.function(function)
    auth = cfg.block(block.name)
    plan = BlockPlan(function, auth.name)
    instructions = auth.instructions
    plan.n = len(instructions)
    plan.first_pc = auth.first_pc

    rows = []
    timing = []
    loads = stores = 0
    for instr in instructions:
        op = instr.opcode
        if op == Opcode.LOAD:
            kind = KIND_LOAD
            lord, stord = loads, -1
            loads += 1
        elif op == Opcode.STORE:
            kind = KIND_STORE
            lord, stord = -1, stores
            stores += 1
        else:
            kind = KIND_ALU
            lord = stord = -1
        latency = instr.latency
        lat1 = latency if latency > 1 else 1
        dest = -1 if instr.dest is None else instr.dest
        rows.append(
            (
                op == Opcode.BR,
                kind,
                latency,
                lat1,
                dest,
                instr.srcs,
            )
        )
        timing.append(
            (kind, latency, lat1, dest, tuple(instr.srcs), lord, stord)
        )
    plan.rows = tuple(rows)
    plan.body_rows = plan.rows[:-1]
    plan.timing_rows = tuple(timing)
    plan.cond_flags = tuple(row[0] for row in rows)

    term = auth.terminator
    fallthrough = auth.fallthrough
    if term is None:
        # Plain fallthrough — or HALT / dead end, which have no successor.
        if not auth.ends_in_halt and fallthrough is not None:
            plan.fall_block = cfg.block(fallthrough)
        return plan
    plan.term_pc = term.pc
    op = term.opcode
    if op == Opcode.BR:
        plan.term_kind = TERM_BR
        plan.taken_block = cfg.block(term.target)
        plan.taken_pc = plan.taken_block.first_pc
        if fallthrough is not None:
            plan.fall_block = cfg.block(fallthrough)
    elif op == Opcode.JMP:
        plan.term_kind = TERM_JMP
        plan.target_block = cfg.block(term.target)
        plan.target_pc = plan.target_block.first_pc
    elif op == Opcode.CALL:
        plan.term_kind = TERM_CALL
        plan.callee_name = term.target
        plan.callee_block = program.function(term.target).entry
        plan.callee_pc = plan.callee_block.first_pc
        if fallthrough is not None:
            plan.fall_block = cfg.block(fallthrough)
            plan.fallthrough_name = fallthrough
            plan.return_pc = plan.fall_block.first_pc
    elif op == Opcode.RET:
        plan.term_kind = TERM_RET
    return plan
