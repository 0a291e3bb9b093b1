"""Vectorized lockstep batch engine (``MachineConfig.engine="batch"``).

Public surface:

* :class:`BatchCell` — one (program, trace, config) simulation request.
* :func:`run_batch` — simulate a list of cells; vector-eligible cells
  advance in lockstep over numpy struct-of-arrays, the rest fall back
  to the fast engine.  Results are bit-identical to the reference
  engine either way (tests/core/test_engine_batch.py).
* :func:`batch_supported` — whether the vector path is available at
  all (numpy importable) — the engine degrades to per-cell fast-engine
  runs when it is not, so ``engine="batch"`` never fails outright.
* :func:`cell_supported` — per-cell vector-envelope check with a
  human-readable reason for fallbacks.

See docs/performance.md for the design and the measured speedups.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised indirectly by the fallback test
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except Exception:  # pragma: no cover
    _HAVE_NUMPY = False

if _HAVE_NUMPY:
    from repro.uarch.batch.engine import (  # noqa: F401
        BatchCell,
        cell_supported,
        run_batch,
    )
else:  # numpy missing: degrade every cell to the fast engine
    class BatchCell:  # type: ignore[no-redef]
        __slots__ = (
            "program", "trace", "config", "hints", "benchmark",
            "warm_words", "tracer",
        )

        def __init__(self, program, trace, config, hints=None,
                     benchmark="", warm_words=None, tracer=None):
            self.program = program
            self.trace = trace
            self.config = config
            self.hints = hints
            self.benchmark = benchmark
            self.warm_words = warm_words
            self.tracer = tracer

    def cell_supported(cell):  # type: ignore[no-redef]
        return False, "numpy is not importable"

    def run_batch(cells, fallback_reasons=None, profile=None,
                  gang_stats=None):  # type: ignore[no-redef]
        from repro.core.processors import simulate

        if fallback_reasons is not None:
            reason = "numpy is not importable"
            fallback_reasons[reason] = (
                fallback_reasons.get(reason, 0) + len(cells)
            )
        return [
            simulate(
                cell.program,
                cell.trace,
                cell.config.replace(engine="fast"),
                hints=cell.hints,
                benchmark=cell.benchmark,
                warm_words=cell.warm_words,
                tracer=cell.tracer,
            )
            for cell in cells
        ]


def batch_supported() -> bool:
    """True when the vectorized path (numpy) is available."""
    return _HAVE_NUMPY


__all__ = ["BatchCell", "batch_supported", "cell_supported", "run_batch"]
