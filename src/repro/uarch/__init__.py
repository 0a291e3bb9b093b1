"""Microarchitecture substrate: the out-of-order machine model.

This package provides everything *around* the diverge-merge mechanism: the
machine configuration mirroring Table 2 (:mod:`~repro.uarch.config`), the
register alias table with checkpoints and M bits (:mod:`~repro.uarch.rat`), the predicate-aware
store buffer (:mod:`~repro.uarch.storebuffer`), pre-decoded block
execution plans for the fast engine (:mod:`~repro.uarch.plan`),
fetch-stream helpers
(:mod:`~repro.uarch.frontend`), the statistics block
(:mod:`~repro.uarch.stats`) and the one-pass trace-driven timing model
(:mod:`~repro.uarch.timing`) that the DMP/DHP/dual-path policies plug into.
"""

from repro.uarch.config import MachineConfig
from repro.uarch.plan import BlockPlan, build_block_plan
from repro.uarch.stats import SimStats
from repro.uarch.rat import RegisterAliasTable
from repro.uarch.storebuffer import StoreBuffer, ForwardDecision
from repro.uarch.timing import TimingSimulator

__all__ = [
    "MachineConfig",
    "BlockPlan",
    "build_block_plan",
    "SimStats",
    "RegisterAliasTable",
    "StoreBuffer",
    "ForwardDecision",
    "TimingSimulator",
]
