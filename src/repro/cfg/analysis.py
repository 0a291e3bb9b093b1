"""Program-scoped static-analysis cache.

Every :class:`~repro.uarch.timing.TimingSimulator` instance used to
recompute immediate postdominators and reconvergence PCs from scratch,
even when a suite sweeps ten machine configurations over the same
program.  :class:`ProgramAnalysis` memoizes these — together with the
fast engine's pre-decoded :class:`~repro.uarch.plan.BlockPlan` tables —
once per :class:`~repro.program.program.Program` object, so every
simulator (any engine, any config) of the same program shares them.

The registry is a ``WeakKeyDictionary`` keyed by the program object and
the analysis itself only holds a weak reference back, so programs (and
their analyses) are garbage-collected normally and nothing is dragged
into pickles shipped to worker processes.  Nothing is persisted to
disk: the postdominator tables of all 15 suite benchmarks compute in a
few milliseconds, about what writing them to the artifact cache cost.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

from repro.cfg.dominators import immediate_postdominators

_REGISTRY: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class ProgramAnalysis:
    """Shared static-analysis results for one program."""

    __slots__ = (
        "_program_ref",
        "_plans",
        "_ipostdoms",
        "_reconv_pc",
        "__weakref__",
    )

    def __init__(self, program) -> None:
        self._program_ref = weakref.ref(program)
        #: ``(function, block_name) -> BlockPlan``
        self._plans: Dict[Tuple[str, str], object] = {}
        #: ``function -> {block_name -> ipostdom block name or None}``
        self._ipostdoms: Dict[str, Dict[str, Optional[str]]] = {}
        #: ``(function, block_name) -> reconvergence PC or None``
        self._reconv_pc: Dict[Tuple[str, str], Optional[int]] = {}

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def of(cls, program) -> "ProgramAnalysis":
        """The shared analysis for ``program`` (created on first use)."""
        analysis = _REGISTRY.get(program)
        if analysis is None:
            analysis = _REGISTRY[program] = cls(program)
        return analysis

    @classmethod
    def reset(cls, program) -> None:
        """Drop all cached analysis for ``program`` (used by ``repro
        bench`` to measure genuinely cold simulations)."""
        _REGISTRY.pop(program, None)
        for cfg in program.functions():
            for block in cfg:
                try:
                    block._plan = None
                except AttributeError:
                    pass  # foreign block type without the plan slot

    @property
    def program(self):
        program = self._program_ref()
        if program is None:
            raise RuntimeError("analyzed program has been garbage-collected")
        return program

    # -- block plans -------------------------------------------------------

    def block_plan(self, block, function: Optional[str] = None):
        """The :class:`~repro.uarch.plan.BlockPlan` for ``block``.

        ``block`` may be a trace-owned copy of a program block (cached
        traces unpickle copies); plans are keyed by
        ``(function, block name)`` and attached to every block object
        they are requested through, so both the copy and the program's
        own block resolve to the same plan object.
        """
        try:
            plan = block._plan
            if plan is not None:
                return plan
        except AttributeError:
            pass
        program = self.program
        if function is None:
            function = program.locate(block.instructions[0].pc)[0]
        key = (function, block.name)
        plan = self._plans.get(key)
        if plan is None:
            from repro.uarch.plan import build_block_plan  # lazy: avoids an import cycle

            plan = build_block_plan(program, function, block)
            self._plans[key] = plan
            # Attach to the authoritative block too, so program-side
            # lookups (wrong-path walks) skip the dictionary as well.
            try:
                program.function(function).block(block.name)._plan = plan
            except AttributeError:
                pass
        try:
            block._plan = plan
        except AttributeError:
            pass
        return plan

    # -- dominators / reconvergence ---------------------------------------

    def ipostdoms(self, function: str) -> Dict[str, Optional[str]]:
        table = self._ipostdoms.get(function)
        if table is None:
            table = immediate_postdominators(self.program.function(function))
            self._ipostdoms[function] = table
        return table

    def reconvergence_pc(self, function: str, block_name: str) -> Optional[int]:
        key = (function, block_name)
        try:
            return self._reconv_pc[key]
        except KeyError:
            pass
        ipd = self.ipostdoms(function).get(block_name)
        pc = (
            None
            if ipd is None
            else self.program.function(function).block(ipd).first_pc
        )
        self._reconv_pc[key] = pc
        return pc
