"""The four benchmark workloads: what each runs, its cells, and digests.

A *cell* is one simulation whose SimStats the workload produces, named
by a key: ``<benchmark>/<config label>`` for the suite workloads and
``<fuzz program>/<mode>/<engine>`` for ``fuzz-diff``.  Every cell's
SimStats reduce to a sha256 digest, which the correctness gate compares
against golden digests computed on the reference engine.

The workload functions look every ``repro`` entry point up as a module
attribute at call time, so the wrappers of ``spans``/``layers`` see the
calls when they are installed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Iterable, List, Optional, Set, Tuple

WORKLOADS = ("suite-cold", "figure-warm", "dmp-sweep", "fuzz-diff")

#: Fixed sizes.  They are chosen so one run of each workload takes a few
#: seconds of host time, enough for several fresh-process repetitions
#: inside one measured run; the shapes (benchmarks, configurations,
#: sizings, fuzz modes) are the full ones.
SUITE_ITERATIONS = 150
SWEEP_ITERATIONS = 40
FUZZ_PROGRAMS = 12
FUZZ_ITERATIONS = 40

#: Engines compared per fuzz mode; the first is the trusted one.
FUZZ_ENGINES = ("reference", "fast")

#: The dmp-sweep machine sizings: (fetch width, depth, ROB, retire width).
#: The grid equals ``repro.fuzz.harness.GANG_SIZINGS`` today; it is kept
#: here so a change to the fuzz band cannot change the benchmark's inputs.
SWEEP_SIZINGS = tuple(
    (width, depth, rob, retire)
    for width in (4, 8)
    for depth in (10, 30)
    for rob in (128, 512)
    for retire in (4, 8)
)


def sizes() -> Dict[str, int]:
    """The size constants golden digests depend on."""
    return {
        "suite_iterations": SUITE_ITERATIONS,
        "sweep_iterations": SWEEP_ITERATIONS,
        "fuzz_programs": FUZZ_PROGRAMS,
        "fuzz_iterations": FUZZ_ITERATIONS,
    }


def import_all() -> None:
    """Import every module any workload reaches, numpy included, so a
    child pays its imports before the timed region, never inside it."""
    import repro.fuzz.harness  # noqa: F401
    import repro.harness.experiment  # noqa: F401
    import repro.profiling.wish_selection  # noqa: F401
    import repro.uarch.batch  # noqa: F401


def suite_configs(name: str):
    """The ``{label: MachineConfig}`` a suite workload runs."""
    from repro.harness.experiment import figure9_configs
    from repro.uarch.config import MachineConfig

    if name == "suite-cold":
        return {
            "base": MachineConfig.baseline(),
            "dmp": MachineConfig.dmp(),
            "dualpath": MachineConfig.dualpath(),
        }
    if name == "figure-warm":
        return figure9_configs()
    if name == "dmp-sweep":
        makers = (
            ("dmp", MachineConfig.dmp),
            ("dualpath", MachineConfig.dualpath),
            ("base", MachineConfig.baseline),
        )
        return {
            f"{mode}-w{width}-d{depth}-rob{rob}-rt{retire}": make(
                fetch_width=width, pipeline_depth=depth, rob_size=rob,
                retire_width=retire,
            )
            for mode, make in makers
            for (width, depth, rob, retire) in SWEEP_SIZINGS
        }
    raise ValueError(f"{name!r} is not a suite workload")


def iterations(name: str) -> int:
    """Iterations per benchmark of a suite workload."""
    return SWEEP_ITERATIONS if name == "dmp-sweep" else SUITE_ITERATIONS


def fuzz_specs(seed: int):
    """The fuzz-diff programs for one benchmark seed.

    Program *shapes* are the draws of spec seeds ``0..FUZZ_PROGRAMS-1``
    (default knobs at :data:`FUZZ_ITERATIONS`); the benchmark seed
    re-seeds their data, as it does for the 15 named benchmarks, so the
    spec seeds are ``seed*1000 .. seed*1000+FUZZ_PROGRAMS-1``.  Drawing
    fresh shapes per seed would change the amount of work by up to a
    quarter between seeds, which no timing bound could absorb."""
    from repro.fuzz.generator import FuzzKnobs, draw_spec

    knobs = FuzzKnobs(iterations=FUZZ_ITERATIONS)
    specs = []
    for index in range(FUZZ_PROGRAMS):
        spec_seed = seed * 1000 + index
        specs.append(
            draw_spec(index, knobs).replace(
                seed=spec_seed, name=f"fuzz-{spec_seed}"
            )
        )
    return specs


def expected_keys(name: str, seed: int) -> List[str]:
    """Every cell key the workload produces, in a fixed order."""
    from repro.workloads.suite import BENCHMARK_NAMES

    if name == "fuzz-diff":
        from repro.fuzz.harness import FUZZ_MODES

        return [
            f"{spec.name}/{mode}/{engine}"
            for spec in fuzz_specs(seed)
            for mode in FUZZ_MODES
            for engine in FUZZ_ENGINES
        ]
    return [
        f"{benchmark}/{label}"
        for benchmark in BENCHMARK_NAMES
        for label in suite_configs(name)
    ]


def digest(stats) -> str:
    """sha256 of the canonical JSON form of ``dataclasses.asdict(stats)``."""
    blob = json.dumps(
        dataclasses.asdict(stats), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def run(name: str, seed: int, cache_dir: Optional[str] = None
        ) -> Tuple[Dict[str, object], Set[str]]:
    """Run one workload once.

    Returns ``(stats by cell key, keys of failed cells)``.  Only the
    fuzz workload reports failed cells here (its findings); a suite
    workload either returns every cell or raises."""
    from repro.workloads.suite import BENCHMARK_NAMES

    if name == "fuzz-diff":
        return _run_fuzz(seed)
    from repro.harness import experiment

    executor = "batch" if name == "dmp-sweep" else "serial"
    result = experiment.run_suite(
        suite_configs(name),
        BENCHMARK_NAMES,
        iterations=iterations(name),
        seed=seed,
        cache=cache_dir,
        jobs=1,
        executor=executor,
    )
    stats = {
        f"{benchmark}/{label}": cell
        for benchmark, per_config in result.results.items()
        for label, cell in per_config.items()
    }
    return stats, set()


def _run_fuzz(seed: int) -> Tuple[Dict[str, object], Set[str]]:
    from repro.fuzz import harness

    stats: Dict[str, object] = {}
    original = harness.FuzzProgram.simulate

    def capture(self, mode, config, tracer=None):
        result = original(self, mode, config, tracer=tracer)
        stats[f"{self.spec.name}/{mode}/{config.engine}"] = result
        return result

    failed: Set[str] = set()
    harness.FuzzProgram.simulate = capture
    try:
        for spec in fuzz_specs(seed):
            findings = harness.check_spec(spec, engines=FUZZ_ENGINES)
            for finding in findings:
                failed.update(_finding_keys(spec.name, finding))
    finally:
        harness.FuzzProgram.simulate = original
    return stats, failed


def _finding_keys(program: str, finding) -> Iterable[str]:
    """The cells one fuzz finding fails."""
    from repro.fuzz.harness import FUZZ_MODES

    modes = FUZZ_MODES if finding.mode not in FUZZ_MODES else (finding.mode,)
    engines = (
        (finding.engine,) if finding.engine in FUZZ_ENGINES else FUZZ_ENGINES
    )
    return [f"{program}/{m}/{e}" for m in modes for e in engines]


def reference_stats(name: str, seed: int, keys: Iterable[str]
                    ) -> Dict[str, object]:
    """SimStats for ``keys`` computed on the reference engine, one cell
    at a time and without any cache (the golden digests and the sampled
    check of seeds without golden digests)."""
    out: Dict[str, object] = {}
    if name == "fuzz-diff":
        from repro.fuzz.harness import FuzzProgram, mode_configs

        specs = {spec.name: spec for spec in fuzz_specs(seed)}
        programs: Dict[str, FuzzProgram] = {}
        by_mode: Dict[Tuple[str, str], object] = {}
        for key in keys:
            program, mode, _engine = key.split("/")
            if (program, mode) not in by_mode:
                ctx = programs.setdefault(program, FuzzProgram(specs[program]))
                # The hardened config check_spec runs, on the reference
                # engine; the fast engine's cell must match it too.
                config = mode_configs()[mode].hardened(None)
                by_mode[(program, mode)] = ctx.simulate(
                    mode, config.replace(engine="reference")
                )
            out[key] = by_mode[(program, mode)]
        return out
    from repro.harness.experiment import BenchmarkContext

    configs = suite_configs(name)
    contexts: Dict[str, BenchmarkContext] = {}
    for key in keys:
        benchmark, label = key.split("/")
        ctx = contexts.setdefault(
            benchmark, BenchmarkContext(benchmark, iterations(name), seed)
        )
        out[key] = ctx.simulate(configs[label].replace(engine="reference"))
    return out


def model_metrics(name: str, stats: Dict[str, object]) -> Dict[str, float]:
    """Simulated (not host) results of one run: exact for a given seed
    and unvalidated against hardware.  The Figure 9 and Figure 11
    summaries exist only where the workload runs their configurations
    (``figure-warm``) and read 0 elsewhere."""
    entries = sum(cell.dpred_entries for cell in stats.values())
    gain = flush = 0.0
    if name == "figure-warm" and stats:
        gains, flushes = [], []
        benchmarks = sorted({key.split("/")[0] for key in stats})
        for benchmark in benchmarks:
            base = stats[f"{benchmark}/base"]
            enhanced = stats[f"{benchmark}/enhanced-mcfm-eexit-mdb"]
            gains.append(100.0 * (enhanced.ipc / base.ipc - 1.0))
            flushes.append(
                100.0 * (1.0 - enhanced.pipeline_flushes
                         / base.pipeline_flushes)
                if base.pipeline_flushes else 0.0
            )
        gain = sum(gains) / len(gains)
        flush = sum(flushes) / len(flushes)
    return {
        "model.enhanced_ipc_gain_pct": gain,
        "model.flush_reduction_pct": flush,
        "model.dpred_entries": float(entries),
    }
