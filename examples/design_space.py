"""Design-space ablations around the diverge-merge processor.

Explores the design choices DESIGN.md calls out, beyond the paper's own
sweeps:

* confidence estimation quality (JRS table size / threshold vs. oracle);
* the GHR exit policy (paper footnote 7 chose the alternate path's
  history; our default keeps the predicted path's — compare both);
* each enhancement toggled *individually* (the paper only reports them
  cumulatively);
* predictor choice under DMP (perceptron vs. gshare vs. hybrid).

Run:  python examples/design_space.py [--iterations N] [--benchmark parser]
"""

import argparse

from repro.harness.experiment import BenchmarkContext
from repro.uarch.config import MachineConfig


def improvement(context, config, base):
    return 100.0 * (context.simulate(config).ipc / base.ipc - 1.0)


def section(title):
    print(f"\n--- {title} ---")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=800)
    parser.add_argument("--benchmark", type=str, default="parser")
    args = parser.parse_args()

    context = BenchmarkContext(args.benchmark, iterations=args.iterations)
    base = context.simulate(MachineConfig.baseline())
    print(f"benchmark={args.benchmark}  base IPC={base.ipc:.3f}  "
          f"MPKI={base.mpki:.2f}  diverge branches={len(context.diverge_hints)}")

    section("Confidence estimation (the paper: 'critically affects benefit')")
    for label, config in [
        ("JRS (default: 2K entries, thr 12)", MachineConfig.dmp()),
        ("JRS saturating threshold (15)",
         MachineConfig.dmp(confidence_args={"threshold": None})),
        ("JRS tiny table (256 entries)",
         MachineConfig.dmp(confidence_args={"table_size": 256})),
        ("JRS 12-bit history index",
         MachineConfig.dmp(confidence_args={"history_bits": 12})),
        ("perfect confidence (oracle)",
         MachineConfig.dmp(confidence_kind="perfect")),
        ("never confident (predicate always)",
         MachineConfig.dmp(confidence_kind="never")),
    ]:
        print(f"  {label:40s} {improvement(context, config, base):+7.1f}%")

    section("GHR policy on dpred exit (footnote 7 design choice)")
    for policy in ("predicted", "alternate"):
        config = MachineConfig.dmp(dpred_ghr_policy=policy)
        print(f"  keep {policy:10s} path history "
              f"{improvement(context, config, base):+7.1f}%")

    section("Enhancements individually (paper reports them cumulatively)")
    for label, kwargs in [
        ("basic", {}),
        ("+ multiple CFM only", {"multiple_cfm": True}),
        ("+ early exit only", {"early_exit": True}),
        ("+ multiple diverge only", {"multiple_diverge": True}),
        ("all three", {"multiple_cfm": True, "early_exit": True,
                       "multiple_diverge": True}),
    ]:
        config = MachineConfig.dmp(**kwargs)
        print(f"  {label:40s} {improvement(context, config, base):+7.1f}%")

    section("Direction predictor under DMP")
    for kind in ("perceptron", "gshare", "hybrid", "bimodal"):
        this_base = context.simulate(
            MachineConfig.baseline(predictor_kind=kind)
        )
        dmp = context.simulate(MachineConfig.dmp(predictor_kind=kind))
        gain = 100.0 * (dmp.ipc / this_base.ipc - 1.0)
        print(f"  {kind:12s} base IPC {this_base.ipc:6.3f}   "
              f"DMP {gain:+7.1f}%")

    section("Diverge loop branches (Section 2.7.4 extension)")
    with_loops = context.simulate(
        MachineConfig.dmp(enhanced=True, loop_predication=True)
    )
    loop_branches = sum(hint.is_loop for _, hint in context.loop_hints)
    enhanced = context.simulate(MachineConfig.dmp(enhanced=True))
    print(f"  enhanced DMP                             "
          f"{100 * (enhanced.ipc / base.ipc - 1):+7.1f}%")
    print(f"  + loop predication ({loop_branches} loop branches)      "
          f"{100 * (with_loops.ipc / base.ipc - 1):+7.1f}%   "
          f"({with_loops.loop_iteration_saves} exit flushes absorbed)")

    section("Alternate-path budget (hardware dpred_path_limit)")
    for limit in (32, 64, 128, 256):
        config = MachineConfig.dmp(dpred_path_limit=limit)
        print(f"  limit {limit:4d} insts "
              f"{improvement(context, config, base):+7.1f}%")


if __name__ == "__main__":
    main()
