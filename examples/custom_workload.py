"""Define your own benchmark and run it through the whole stack.

Shows the two ways to bring code to the diverge-merge processor:

1. compose a workload from the gadget library (parameterized CFG shapes
   with controlled branch behaviour) — the way the suite's 15 benchmarks
   are built;
2. write a program directly with the CFG builder DSL and push it through
   profiling + simulation by hand.

Run:  python examples/custom_workload.py
"""

from repro.core.processors import simulate
from repro.harness.experiment import BenchmarkContext
from repro.profiling import (
    build_hint_table,
    candidate_branch_pcs,
    collect_reconvergence,
    profile_trace,
    select_diverge_branches,
)
from repro.uarch.config import MachineConfig
from repro.workloads.generator import GadgetSpec, WorkloadSpec, build_workload


def gadget_composed_workload():
    """Way 1: compose gadgets.  This one is a 'database-like' mix: a
    hard-to-predict nested region (predicate evaluation), a pointer chase
    (index lookup) and well-predicted bulk work."""
    spec = WorkloadSpec(
        name="mydb",
        iterations=1200,
        gadgets=[
            GadgetSpec("nested", data=("uniform",), work=8),
            GadgetSpec("mem", access="chase", footprint=1 << 16, work=4),
            GadgetSpec("ifelse", data=("biased", 0.9), work=12),
            GadgetSpec("if", data=("periodic", (30, 220, 70), 0.05),
                       work=16),
        ],
        seed=7,
    )
    return build_workload(spec)


def main():
    workload = gadget_composed_workload()
    print(f"built workload '{workload.name}': "
          f"{workload.program.instruction_count()} static instructions")

    trace = workload.run()
    print(f"functional run: {trace.instruction_count} dynamic instructions, "
          f"{trace.branch_count} branches\n")

    # Way 2's manual pipeline, spelled out (BenchmarkContext does all of
    # this for the named suite):
    profile = profile_trace(workload.program, trace)
    candidates = candidate_branch_pcs(profile)
    reconvergence = collect_reconvergence(workload.program, trace, candidates)
    selections = select_diverge_branches(profile, reconvergence)
    hints = build_hint_table(selections)
    print(f"compiler: {profile.total_mispredictions} mispredictions, "
          f"{len(candidates)} candidates, {len(hints)} diverge branches\n")

    warm = workload.memory.warm_words()
    results = {}
    for label, config in (
        ("baseline", MachineConfig.baseline()),
        ("DMP", MachineConfig.dmp(enhanced=True)),
    ):
        results[label] = simulate(
            workload.program, trace, config,
            hints=hints if config.is_predicating else None,
            benchmark=workload.name, warm_words=warm,
        )

    base, dmp = results["baseline"], results["DMP"]
    print(f"{'':20s}{'baseline':>12s}{'DMP':>12s}")
    for label, attribute in (
        ("IPC", "ipc"),
        ("cycles", "cycles"),
        ("pipeline flushes", "pipeline_flushes"),
    ):
        b, d = getattr(base, attribute), getattr(dmp, attribute)
        fmt = "{:>12.3f}" if isinstance(b, float) else "{:>12d}"
        print(f"{label:20s}{fmt.format(b)}{fmt.format(d)}")
    print(f"\nDMP: {100 * (dmp.ipc / base.ipc - 1):+.1f}% IPC on your "
          f"workload")


if __name__ == "__main__":
    main()
