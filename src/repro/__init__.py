"""Diverge-Merge Processor (DMP) reproduction.

A complete Python implementation of the MICRO 2006 paper "Diverge-Merge
Processor (DMP): Dynamic Predicated Execution of Complex Control-Flow
Graphs Based on Frequently Executed Paths" (Kim, Joao, Mutlu, Patt) —
compiler side, microarchitecture, baselines, workloads and the experiment
harness that regenerates every table and figure of the evaluation.

Quick start::

    from repro import BenchmarkContext, MachineConfig

    ctx = BenchmarkContext("parser", iterations=2000)
    base = ctx.simulate(MachineConfig.baseline())
    dmp = ctx.simulate(MachineConfig.dmp(enhanced=True))
    print(dmp.ipc / base.ipc)

Package map (see README.md / DESIGN.md for detail):

- :mod:`repro.core` — the dynamic-predication engine and :func:`simulate`
- :mod:`repro.uarch` — machine config and the timing model substrate
- :mod:`repro.profiling` — the compiler side (selection heuristics)
- :mod:`repro.workloads` — the synthetic SPEC-2000-like suite
- :mod:`repro.harness` — per-figure experiment drivers
"""

from repro.core.processors import simulate
from repro.errors import (
    HintValidationError,
    OracleMismatchError,
    ReproError,
    SimulationError,
    SimulationHangError,
)
from repro.harness.experiment import BenchmarkContext
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

__version__ = "1.1.0"

__all__ = [
    "simulate",
    "BenchmarkContext",
    "MachineConfig",
    "SimStats",
    "BENCHMARK_NAMES",
    "build_benchmark",
    "ReproError",
    "SimulationError",
    "SimulationHangError",
    "OracleMismatchError",
    "HintValidationError",
    "__version__",
]
