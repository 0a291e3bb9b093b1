"""The one-call ``simulate`` API: one trace through one machine.

Typical use::

    from repro.core import simulate
    from repro.uarch.config import MachineConfig

    stats = simulate(program, trace, MachineConfig.dmp(enhanced=True), hints,
                     warm_words=memory.warm_words())

or, going through the profiling pipeline end-to-end, use
:class:`repro.harness.experiment.BenchmarkContext`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dpred import PredicationAwareSimulator
from repro.isa.encoding import HintTable
from repro.program.program import Program
from repro.program.trace import Trace
from repro.uarch import lane
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.uarch.timing import TimingSimulator
from repro.validation.runtime import paranoid_enabled


def simulate(
    program: Program,
    trace: Trace,
    config: Optional[MachineConfig] = None,
    hints: Optional[HintTable] = None,
    benchmark: str = "",
    warm_words=None,
    tracer=None,
) -> SimStats:
    """Run one benchmark trace through one machine configuration.

    Dispatches on ``config.mode``: predicating modes get the
    :class:`PredicationAwareSimulator`, everything else the base model.
    With ``engine="fast"`` (the default), baseline and dual-path cells
    inside :mod:`repro.uarch.lane`'s envelope run on the compiled lane
    instead, with the same stats.

    Under process-wide paranoid mode (the CLI's ``--paranoid`` flag, or
    :func:`repro.validation.runtime.set_paranoid`) every run is upgraded
    to carry the oracle cross-checker and the watchdog; this only adds
    checking and never changes timing results.

    ``tracer`` (a :class:`repro.obs.events.Tracer`, duck-typed) turns on
    structured event tracing for this run; it receives episode-level
    events and the final stats, and never changes timing results either
    (docs/observability.md).
    """
    config = config or MachineConfig()
    if paranoid_enabled() and not (config.oracle_checks and config.watchdog):
        config = config.hardened()
    if config.engine == "batch":
        # Batch-of-one through the vectorized lockstep engine; cells
        # outside its vector envelope (predicating modes, hardened runs,
        # tracers, exotic structure sizes) fall back to the fast engine
        # inside run_batch, so this route accepts every configuration.
        from repro.uarch.batch import BatchCell, run_batch

        return run_batch([
            BatchCell(
                program=program, trace=trace, config=config, hints=hints,
                benchmark=benchmark, warm_words=warm_words, tracer=tracer,
            )
        ])[0]
    if config.engine == "fast":
        # Baseline and dual-path cells inside the compiled lane's
        # envelope run in C; every other cell, and every cell on a host
        # without a C compiler, runs the Python fast engine below.
        stats = lane.run(
            program, trace, config, benchmark=benchmark,
            warm_words=warm_words, tracer=tracer,
        )
        if stats is not None:
            return stats
    if config.mode == "mpp":
        # Hint-free DMP: the simulator builds its own learned hint table
        # (repro.core.mergepoint); a compiler table here would be a
        # caller mixing up modes, so fail loudly instead of ignoring it.
        if hints is not None:
            raise ValueError(
                "mode 'mpp' learns merge points at run time; "
                "do not pass a hint table"
            )
        simulator = PredicationAwareSimulator(
            program, trace, config, benchmark=benchmark,
            warm_words=warm_words, tracer=tracer,
        )
    elif config.is_predicating:
        if hints is None:
            raise ValueError(f"mode {config.mode!r} requires a hint table")
        simulator = PredicationAwareSimulator(
            program, trace, config, hints=hints, benchmark=benchmark,
            warm_words=warm_words, tracer=tracer,
        )
    else:
        simulator = TimingSimulator(
            program, trace, config, benchmark=benchmark,
            warm_words=warm_words, tracer=tracer,
        )
    return simulator.run()
