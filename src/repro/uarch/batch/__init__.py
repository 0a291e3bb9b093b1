"""Vectorized lockstep batch engine (``MachineConfig.engine="batch"``).

Public surface:

* :class:`BatchCell` — one (program, trace, config) simulation request.
* :func:`run_batch` — simulate a list of cells; vector-eligible cells
  advance in lockstep over numpy struct-of-arrays, the rest fall back
  to the fast engine.  Results are bit-identical to the reference
  engine either way (tests/core/test_engine_batch.py).
* :func:`batch_supported` — whether the vector path is available at
  all (numpy importable) — without it every cell falls back to the fast
  engine under the reason "numpy is not importable", so
  ``engine="batch"`` never fails outright.
* :func:`cell_supported` — per-cell vector-envelope check with a
  human-readable reason for fallbacks.

See docs/performance.md for the design and the measured speedups.
"""

from repro.uarch.batch.engine import (
    BatchCell,
    batch_supported,
    cell_supported,
    run_batch,
)

__all__ = ["BatchCell", "batch_supported", "cell_supported", "run_batch"]
