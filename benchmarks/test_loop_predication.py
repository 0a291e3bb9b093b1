"""Ablation: diverge loop branches (the Section 2.7.4 extension).

The paper's mainline machine skips loop branches; this bench measures
what wish-loop-style iteration predication adds on the suite's
data-dependent inner loops.
"""

from repro.harness.experiment import BenchmarkContext
from repro.uarch.config import MachineConfig

#: Benchmarks with data-dependent inner loops in their recipes.
PANEL = ("parser", "gzip", "crafty")


def test_loop_predication_extension(benchmark, contexts, iterations):
    def run():
        out = {}
        for name in PANEL:
            context = contexts.setdefault(
                name, BenchmarkContext(name, iterations=iterations)
            )
            base = context.simulate(MachineConfig.baseline())
            mainline = context.simulate(MachineConfig.dmp(enhanced=True))
            with_loops = context.simulate(
                MachineConfig.dmp(enhanced=True, loop_predication=True)
            )
            out[name] = {
                "mainline": 100.0 * (mainline.ipc / base.ipc - 1),
                "with_loops": 100.0 * (with_loops.ipc / base.ipc - 1),
                "loop_branches": sum(
                    hint.is_loop for _, hint in context.loop_hints
                ),
                "saves": with_loops.loop_iteration_saves,
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'benchmark':10s}{'mainline':>10s}{'with-loops':>12s}"
          f"{'loop-brs':>10s}{'saves':>8s}")
    for name, r in results.items():
        print(f"{name:10s}{r['mainline']:>+9.1f}%{r['with_loops']:>+11.1f}%"
              f"{r['loop_branches']:>10d}{r['saves']:>8d}")

    # The extension engages somewhere and absorbs exit mispredictions.
    assert any(r["loop_branches"] > 0 for r in results.values())
    assert any(r["saves"] > 0 for r in results.values())
    # And it never costs much relative to the mainline machine.
    for name, r in results.items():
        assert r["with_loops"] >= r["mainline"] - 3.0, name
