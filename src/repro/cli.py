"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``suite``     run benchmarks through the machine configurations and print
              a comparison table
``figure``    regenerate one paper exhibit (fig1..fig13, table1..table3)
``inspect``   show one benchmark's compiler-side artifacts (profile,
              diverge branches, CFM points)
``validate``  oracle-checked validation of hint tables and simulator
              runs; ``--inject`` drives the adversarial fault-injection
              suite (docs/robustness.md)
``bench``     measure fast-engine vs reference-engine throughput and
              check for perf regressions against a committed
              ``BENCH_*.json`` baseline (docs/performance.md)
``trace``     run one benchmark with structured event tracing, verify
              the traced run is bit-identical to an untraced one, and
              reconcile the JSONL trace against the run's stats
``report``    render per-cell run reports (JSON/CSV rollups: exit-case
              histograms, dpred coverage, flush avoidance) from trace
              artifacts on disk or from a fresh suite run
``fuzz``      differential fuzzing: sweep seeded random programs across
              every engine x machine-mode cell with the oracle and
              watchdog armed; ``--minimize`` shrinks findings to small
              reproducers and ``--corpus-dir`` commits them to the
              regression corpus (docs/robustness.md)
``list``      list available benchmarks and machine configurations

``suite`` and ``figure`` accept ``--paranoid``: every simulation then
runs with the oracle cross-checker and watchdog armed.  They also
accept ``--jobs N`` (fan simulations out over N worker processes) and
``--cache-dir PATH`` / ``--no-cache`` (persist traces, profiles, hint
tables and finished stats across invocations; the ``REPRO_CACHE_DIR``
environment variable supplies a default directory).  Parallel and
cache-warm runs are bit-identical to serial cold runs; ``repro suite
--timings`` prints the per-stage wall-clock and cache-hit report.  See
docs/performance.md.

``suite``, ``figure`` and ``bench`` accept ``--trace`` /
``--trace-out DIR``: every simulation then streams a JSONL event trace
(one file per benchmark x config cell) into the directory, without
changing any simulation result (docs/observability.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.harness import figures
from repro.harness.cache import ArtifactCache
from repro.harness.experiment import BenchmarkContext, run_suite
from repro.obs.runtime import tracing
from repro.uarch.config import MachineConfig
from repro.validation import faults as fault_injection
from repro.validation.runtime import paranoid, paranoid_enabled
from repro.workloads.suite import BENCHMARK_NAMES

#: Named machine configurations selectable from the command line.
CONFIG_FACTORIES = {
    "base": MachineConfig.baseline,
    "dhp": MachineConfig.dhp,
    "dmp": MachineConfig.dmp,
    "dmp-enhanced": lambda: MachineConfig.dmp(enhanced=True),
    "dualpath": MachineConfig.dualpath,
    "mpp": MachineConfig.mpp,
    "perfect-cbp": lambda: MachineConfig.baseline(predictor_kind="perfect"),
    "dmp-perf-conf": lambda: MachineConfig.dmp(confidence_kind="perfect"),
}


def _parse_benchmarks(raw: str) -> List[str]:
    if not raw:
        return list(BENCHMARK_NAMES)
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in BENCHMARK_NAMES]
    if unknown:
        raise SystemExit(f"unknown benchmarks: {', '.join(unknown)}")
    return names


def cmd_list(args) -> int:
    print("benchmarks:")
    for name in BENCHMARK_NAMES:
        print(f"  {name}")
    print("\nmachine configurations:")
    for name, factory in CONFIG_FACTORIES.items():
        print(f"  {name:14s} {factory().describe()}")
    print("\nfigure drivers:")
    print("  " + " ".join(figures.ALL_DRIVERS))
    return 0


#: Default directory for ``--trace`` when ``--trace-out`` is not given.
DEFAULT_TRACE_DIR = "traces"


def _trace_dir(args) -> Optional[str]:
    """The trace directory selected by ``--trace`` / ``--trace-out``
    (``--trace-out DIR`` implies ``--trace``), or ``None``."""
    out = getattr(args, "trace_out", None)
    if out:
        return out
    if getattr(args, "trace", False):
        return DEFAULT_TRACE_DIR
    return None


def _add_trace_flags(parser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="stream a JSONL event trace per benchmark x "
                             f"config cell into ./{DEFAULT_TRACE_DIR}/ "
                             "(does not change any result)")
    parser.add_argument("--trace-out", default="", metavar="DIR",
                        help="trace into DIR instead (implies --trace)")


#: ``--engine`` help for ``suite`` and ``figure``; the crossover is
#: measured in docs/performance.md ("Why the batch engine runs no
#: generated code").
_ENGINE_HELP = (
    "simulation engine override (results are bit-identical); 'batch' "
    "runs every cell through the vectorized lockstep engine, which pays "
    "off only when many configurations share each trace: measured "
    "slower than 'fast' with 4 or fewer configurations per benchmark, "
    "faster with 8 or more (docs/performance.md)"
)


def _resolve_cache(args) -> Optional[ArtifactCache]:
    """The cache selected by ``--cache-dir`` / ``--no-cache`` /
    ``REPRO_CACHE_DIR`` (in that precedence), or ``None``."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(
        "REPRO_CACHE_DIR"
    )
    return ArtifactCache(cache_dir) if cache_dir else None


def cmd_suite(args) -> int:
    config_names = [c.strip() for c in args.configs.split(",") if c.strip()]
    unknown = [c for c in config_names if c not in CONFIG_FACTORIES]
    if unknown:
        raise SystemExit(f"unknown configs: {', '.join(unknown)}")
    benchmarks = _parse_benchmarks(args.benchmarks)
    configs = {name: CONFIG_FACTORIES[name]() for name in config_names}
    if args.engine:
        configs = {
            name: config.replace(engine=args.engine)
            for name, config in configs.items()
        }
    cache = _resolve_cache(args)
    with paranoid(args.paranoid or paranoid_enabled()), \
            tracing(_trace_dir(args)):
        result = run_suite(
            configs,
            benchmarks,
            iterations=args.iterations,
            seed=args.seed,
            jobs=args.jobs,
            cache=cache,
        )
    header = f"{'benchmark':10s}" + "".join(
        f"{name:>14s}" for name in config_names
    )
    print(header)
    print("-" * len(header))
    for name in benchmarks:
        cells = []
        base_ipc: Optional[float] = None
        for config_name in config_names:
            stats = result.stats(name, config_name)
            if args.relative and config_name != config_names[0]:
                cells.append(f"{100 * (stats.ipc / base_ipc - 1):+13.1f}%")
            else:
                cells.append(f"{stats.ipc:14.3f}")
                if base_ipc is None:
                    base_ipc = stats.ipc
        print(f"{name:10s}" + "".join(cells))
    if args.timings and result.timings is not None:
        print()
        print(result.timings.report())
    elif result.timings is not None and result.timings.batch_fallbacks:
        timings = result.timings
        fell = sum(timings.batch_fallbacks.values())
        total = fell + timings.batch_vector_cells
        print()
        print(
            f"batch fallbacks: {fell}/{total} cell(s) ran on the "
            "fast engine"
        )
        for reason, count in sorted(
            timings.batch_fallbacks.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            print(f"  {count:4d}  {reason}")
    return 0


def cmd_figure(args) -> int:
    driver = figures.ALL_DRIVERS.get(args.name)
    if driver is None:
        raise SystemExit(
            f"unknown exhibit {args.name!r}; "
            f"choose from: {' '.join(figures.ALL_DRIVERS)}"
        )
    with paranoid(args.paranoid or paranoid_enabled()), \
            tracing(_trace_dir(args)):
        if args.name in ("table1", "table2"):
            result = driver()
        else:
            result = driver(
                benchmarks=_parse_benchmarks(args.benchmarks),
                iterations=args.iterations,
                jobs=args.jobs,
                cache=_resolve_cache(args),
                engine=args.engine,
            )
    print(result.format())
    return 0


def cmd_inspect(args) -> int:
    context = BenchmarkContext(
        args.benchmark, iterations=args.iterations, seed=args.seed
    )
    trace = context.trace
    print(f"benchmark {args.benchmark}: {trace.instruction_count} insts, "
          f"{trace.branch_count} branches")
    profile = context.profile
    print(f"mispredictions: {profile.total_mispredictions} "
          f"({1000 * profile.total_mispredictions / trace.instruction_count:.2f} MPKI)")
    print(f"\ndiverge branches ({len(context.selections)} selected):")
    for selection in context.selections:
        stats = profile.branches[selection.pc]
        print(f"  @{selection.pc:#06x} {stats.function}/{stats.block:10s} "
              f"misp={selection.mispredictions:5d} "
              f"({stats.misprediction_rate:.1%})")
        for cfm in selection.cfm_points:
            print(f"     CFM @{cfm.pc:#06x}  score={cfm.score:.2f}  "
                  f"dist={cfm.mean_distance:.1f}")
    print(f"\nDHP simple hammocks: {len(context.hammock_hints)}")
    return 0


def cmd_validate(args) -> int:
    """Oracle-checked validation, optionally with injected hint faults.

    Exit codes: 0 — clean hints, every check passed; 1 — the robustness
    contract was violated (crash, hang, oracle mismatch, IPC below the
    bound, or missing exit-case coverage); 2 — injected faults were
    detected (the expected outcome of ``--inject``).  ``--expect-faults``
    flips the convention for CI: exit 0 iff faults were both survived
    AND detected.  ``--list-faults`` prints the corruption catalog and
    exits.
    """
    if args.list_faults:
        print(f"hint-corruption fault classes "
              f"({len(fault_injection.FAULT_CLASSES)}):")
        for fault in fault_injection.FAULT_CLASSES:
            if fault.statically_detectable is True:
                detect = "static "
            elif fault.statically_detectable is False:
                detect = "runtime"
            else:
                detect = "varies "
            print(f"  {fault.name:24s} [{detect}] {fault.description}")
        print("\n[static]  caught by hint-table validation before any "
              "simulation\n[runtime] caught by the armed oracle/watchdog "
              "during the run\n[varies]  detection depends on the "
              "benchmark/profile")
        return 0
    benchmarks = (
        _parse_benchmarks(args.benchmarks)
        if args.benchmarks
        else list(fault_injection.DEFAULT_BENCHMARKS)
    )
    if args.inject:
        if args.inject == "all":
            fault_names = list(fault_injection.FAULT_NAMES)
        else:
            fault_names = [f.strip() for f in args.inject.split(",") if f.strip()]
            unknown = [
                f for f in fault_names if f not in fault_injection.FAULT_NAMES
            ]
            if unknown:
                raise SystemExit(
                    f"unknown fault classes: {', '.join(unknown)}; "
                    f"choose from: {', '.join(fault_injection.FAULT_NAMES)}"
                )
        report = fault_injection.run_fault_suite(
            benchmarks=benchmarks,
            iterations=args.iterations,
            seed=args.seed,
            fault_names=fault_names,
            ipc_margin=args.margin,
        )
        print(report.format())
        robust = report.ok
        #: every injected fault class detected on at least one benchmark
        detected_classes = {r.fault for r in report.detections}
        all_detected = all(name in detected_classes for name in fault_names)
        if args.expect_faults:
            return 0 if (robust and all_detected) else 1
        if not robust:
            return 1
        return 2 if detected_classes else 0

    # Clean validation: hint tables are validated on build, then a
    # hardened (oracle + watchdog) run must complete for every benchmark.
    failures = 0
    for name in benchmarks:
        context = BenchmarkContext(
            name, iterations=args.iterations, seed=args.seed
        )
        try:
            hints = context.diverge_hints  # validates on build
            stats = context.simulate(MachineConfig.dmp(enhanced=True).hardened())
            print(
                f"{name:10s} ok: {len(hints)} hints valid, "
                f"IPC={stats.ipc:.3f}, "
                f"oracle checks={stats.oracle_checks}, "
                f"dpred entries={stats.dpred_entries}"
            )
        except ReproError as exc:
            failures += 1
            print(f"{name:10s} FAIL: {exc}")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    """Engine microbenchmark + regression gate (docs/performance.md).

    Exit codes: 0 — ran clean (and within the regression budget when a
    baseline was given); 1 — a fast/reference stats mismatch, a >
    ``--max-regression`` throughput drop against the baseline, or a
    geomean cold speedup below ``--min-speedup``.
    """
    from datetime import datetime, timezone

    from repro.harness import bench

    # Resolve `latest` before this run writes its own BENCH_*.json,
    # which would otherwise be the newest report in the directory.
    baseline_path = args.baseline
    if baseline_path == "latest":
        try:
            baseline_path = bench.find_latest_baseline()
        except FileNotFoundError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print(f"baseline: {baseline_path}")
    if args.smoke:
        benchmarks = list(bench.SMOKE_BENCHMARKS)
        configs = list(bench.SMOKE_CONFIGS)
        iterations = args.iterations or bench.SMOKE_ITERATIONS
        repeats = args.repeats or bench.SMOKE_REPEATS
    else:
        benchmarks = (
            _parse_benchmarks(args.benchmarks)
            if args.benchmarks
            else list(bench.DEFAULT_BENCHMARKS)
        )
        configs = (
            [c.strip() for c in args.configs.split(",") if c.strip()]
            if args.configs
            else list(bench.DEFAULT_CONFIGS)
        )
        iterations = args.iterations or bench.DEFAULT_ITERATIONS
        repeats = args.repeats or bench.DEFAULT_REPEATS
    unknown = [c for c in configs if c not in bench.CONFIG_FACTORIES]
    if unknown:
        raise SystemExit(f"unknown configs: {', '.join(unknown)}")
    report = bench.run_bench(
        benchmarks=benchmarks,
        configs=configs,
        iterations=iterations,
        seed=args.seed,
        repeats=repeats,
        cache=_resolve_cache(args),
        progress=print,
        trace_dir=_trace_dir(args),
        batch=(
            "off" if args.no_batch else "smoke" if args.smoke else "full"
        ),
        profile=args.profile,
    )
    summary = report["summary"]
    print(f"\ngeomean speedup: {summary['geomean_speedup_cold']:.2f}x cold, "
          f"{summary['geomean_speedup_warm']:.2f}x cache-warm; "
          f"all stats identical: {summary['all_identical']}; "
          f"tracing non-perturbing: {summary['all_traced_identical']}")
    if summary.get("geomean_batch_speedup"):
        print(f"batch sweep geomean speedup: "
              f"{summary['geomean_batch_speedup']:.2f}x vs reference")
    if summary.get("geomean_dmp_fast_speedup"):
        print(f"dmp sweep geomean speedup: "
              f"{summary['geomean_dmp_fast_speedup']:.2f}x vs the fast "
              f"engine on dmp-mode cells")
    if summary["degenerate_cells"]:
        print("degenerate cells (excluded from geomean): "
              + ", ".join(summary["degenerate_cells"]))
    if args.profile:
        for group, split in summary["profile"].items():
            total = sum(split.values()) or 1.0
            print(f"{group} phase attribution:")
            for phase, secs in split.items():
                print(f"  {phase:16s} {secs:8.2f}s  "
                      f"{100 * secs / total:5.1f}%")
        gangs = summary.get("gang_stats", {})
        if gangs.get("gangs"):
            lanes = gangs.get("ganged_lanes", 0)
            singles = gangs.get("singleton_lanes", 0)
            share = 100 * lanes / ((lanes + singles) or 1)
            print(f"episode gangs: {gangs['gangs']} gangs covering "
                  f"{lanes} lanes ({share:.0f}% of episode lanes, "
                  f"max gang {gangs.get('max_gang', 0)}); "
                  f"{singles} singletons ran as gangs of one")
        if gangs.get("pred_states"):
            print(f"predictor-state rows: {gangs['pred_states']} created, "
                  f"at most {gangs.get('max_pred_states', 0)} live at once")
    output = args.output
    if not output:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        output = f"BENCH_{stamp}.json"
    bench.save_report(report, output)
    print(f"wrote {output}")
    failed = (
        not summary["all_identical"]
        or not summary["all_traced_identical"]
    )
    if baseline_path:
        problems = bench.compare(
            report, bench.load_report(baseline_path),
            max_regression=args.max_regression,
        )
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        failed = failed or bool(problems)
    try:
        floors = _parse_min_speedup(args.min_speedup)
    except ValueError as exc:
        raise SystemExit(str(exc))
    floor_keys = {
        "cold": ("geomean_speedup_cold", "geomean cold speedup"),
        "dmp": ("geomean_dmp_fast_speedup",
                "dmp sweep geomean speedup vs the fast engine"),
        "batch": ("geomean_batch_speedup",
                  "batch sweep geomean speedup vs reference"),
    }
    for group, floor in floors.items():
        key, label = floor_keys[group]
        measured = summary.get(key, 0.0)
        if measured < floor:
            print(f"FAIL: {label} {measured:.2f}x is below the "
                  f"--min-speedup floor {floor:.2f}x",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _parse_min_speedup(spec: str) -> dict:
    """``--min-speedup`` floors: ``'1.5'`` gates the cold geomean
    (back-compatible), ``'cold=1.5,dmp=2.5,batch=4.0'`` gates per
    group."""
    spec = (spec or "").strip()
    if not spec:
        return {}
    if "=" not in spec:
        return {"cold": float(spec)}
    floors = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        group, _, value = part.partition("=")
        group = group.strip()
        if group not in ("cold", "dmp", "batch"):
            raise ValueError(
                f"unknown --min-speedup group {group!r} "
                "(expected cold, dmp or batch)")
        floors[group] = float(value)
    return floors


def cmd_trace(args) -> int:
    """Traced single run + verification (docs/observability.md).

    Runs the benchmark twice under the chosen configuration — once
    untraced, once streaming a JSONL event trace — then (1) asserts the
    two runs' stats are bit-identical (tracing must only observe) and
    (2) structurally validates and reconciles the trace against the
    traced run's final stats.  Exit codes: 0 — both checks passed;
    1 — the tracer perturbed the run or the trace failed to reconcile.
    """
    import dataclasses

    from repro.obs.events import JsonlTracer
    from repro.obs.reconcile import reconcile_trace
    from repro.obs.runtime import trace_path

    if args.benchmark not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark: {args.benchmark}")
    if args.config not in CONFIG_FACTORIES:
        raise SystemExit(f"unknown config: {args.config}")
    config = CONFIG_FACTORIES[args.config]()
    if args.engine:
        config = config.replace(engine=args.engine)
    context = BenchmarkContext(
        args.benchmark, iterations=args.iterations, seed=args.seed,
        cache=_resolve_cache(args),
    )
    untraced = context.simulate(config)
    out = args.out or trace_path(".", args.benchmark, args.config)
    out_dir = os.path.dirname(out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    tracer = JsonlTracer(
        out,
        meta={
            "benchmark": args.benchmark,
            "config": args.config,
            "iterations": context.iterations,
            "seed": args.seed,
        },
        capacity=args.ring,
    )
    try:
        traced = context.simulate(config, tracer=tracer)
    finally:
        tracer.close()
    identical = dataclasses.asdict(untraced) == dataclasses.asdict(traced)
    summary = reconcile_trace(out)  # raises TraceValidationError on failure
    print(summary.describe())
    print(f"wrote {out} ({summary.events} events)")
    if not identical:
        print("FAIL: traced run's stats differ from the untraced run",
              file=sys.stderr)
        return 1
    print("traced run bit-identical to untraced run; trace reconciles "
          "with its stats")
    return 0


def cmd_report(args) -> int:
    """Run reports from trace artifacts or a fresh suite run.

    With paths (trace ``*.jsonl`` files, directories of them, or bench
    ``BENCH_*.json`` reports): reconcile every trace and derive one
    rollup row per cell; bench reports print their speedup summaries.
    Without paths: run the requested suite and report its cells.
    """
    from repro.obs.metrics import RunMetrics, SuiteReport
    from repro.obs.reconcile import (
        reconcile_directory,
        reconcile_trace,
        trace_metrics,
    )

    cells = []
    meta = {"source": "traces" if args.paths else "suite"}
    if args.paths:
        meta["paths"] = list(args.paths)
        for path in args.paths:
            if os.path.isdir(path):
                for summary in reconcile_directory(path):
                    cells.append(trace_metrics(summary))
            elif path.endswith(".jsonl"):
                cells.append(trace_metrics(reconcile_trace(path)))
            elif path.endswith(".json"):
                from repro.harness import bench as bench_mod

                bench_report = bench_mod.load_report(path)
                summary = bench_report["summary"]
                # .get with 0.0: a report whose cells were all degenerate
                # (sub-tick timings) still loads — the geomeans are just
                # empty, which must roll up as "no data", not a crash.
                print(f"{path}: bench geomean speedup "
                      f"{summary.get('geomean_speedup_cold', 0.0):.2f}x cold, "
                      f"{summary.get('geomean_speedup_warm', 0.0):.2f}x warm, "
                      f"all identical: {summary.get('all_identical', False)}")
            else:
                raise SystemExit(
                    f"{path}: not a trace (.jsonl), trace directory, or "
                    "bench report (.json)"
                )
        if not cells:
            return 0
    else:
        config_names = [
            c.strip() for c in args.configs.split(",") if c.strip()
        ]
        unknown = [c for c in config_names if c not in CONFIG_FACTORIES]
        if unknown:
            raise SystemExit(f"unknown configs: {', '.join(unknown)}")
        benchmarks = _parse_benchmarks(args.benchmarks)
        configs = {name: CONFIG_FACTORIES[name]() for name in config_names}
        result = run_suite(
            configs,
            benchmarks,
            iterations=args.iterations,
            seed=args.seed,
            jobs=args.jobs,
            cache=_resolve_cache(args),
        )
        meta.update(iterations=args.iterations, seed=args.seed)
        report = SuiteReport.from_suite(result, meta=meta)
        cells = report.cells
    rendered = SuiteReport(cells, meta=meta).render(args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(rendered)
    return 0


def _parse_seeds(raw: str) -> List[int]:
    """``A:B`` (half-open range), ``a,b,c``, or a single seed."""
    raw = raw.strip()
    if ":" in raw:
        lo_text, hi_text = raw.split(":", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise SystemExit(f"bad seed range {raw!r}; expected A:B")
        if hi <= lo:
            raise SystemExit(f"empty seed range {raw!r}")
        return list(range(lo, hi))
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"bad seeds {raw!r}; expected A:B or a,b,c")
    if not seeds:
        # An empty seed list must be loud: ``repro fuzz --seeds ""``
        # would otherwise run zero seeds and exit 0 with a "clean"
        # report, silently disabling a nightly fuzz job.
        raise SystemExit(f"no seeds in {raw!r}; expected A:B or a,b,c")
    return seeds


def cmd_fuzz(args) -> int:
    """Differential fuzzing sweep (docs/robustness.md).

    Every seed's program runs across {reference, fast} engines x every
    machine mode, hardened; ``--engines reference,batch --no-harden``
    instead diffs the vectorized batch engine's vector path against the
    reference, and ``--gang`` adds the dmp-gang band (each program
    fanned across machine sizings as one batch group, driving the
    ganged-episode kernels).  Exit codes: 0 — every seed clean; 1 — at
    least one
    finding (its JSON report and, with ``--minimize --corpus-dir``, its
    corpus reproducer carry the evidence).
    """
    import json as json_mod

    from repro.fuzz import (
        FUZZ_MODES,
        GANG_MODE,
        FuzzKnobs,
        run_fuzz,
        save_reproducer,
    )

    seeds = _parse_seeds(args.seeds)
    knobs = FuzzKnobs(
        max_gadgets=args.max_gadgets, iterations=args.iterations
    )
    kwargs = {}
    if args.gang:
        kwargs["modes"] = FUZZ_MODES + (GANG_MODE,)
    if args.engines:
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
        if len(engines) < 2:
            raise SystemExit(
                f"--engines needs a reference plus at least one engine "
                f"to diff, got {args.engines!r}"
            )
        kwargs["engines"] = tuple(engines)
    if args.no_harden:
        kwargs["harden"] = False
    report = run_fuzz(
        seeds,
        budget=args.budget or None,
        jobs=args.jobs,
        minimize=args.minimize,
        knobs=knobs,
        progress=lambda line: print(f"  {line}"),
        **kwargs,
    )
    print(report.summary())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json_mod.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    if report.findings and args.minimize and args.corpus_dir:
        for finding in report.findings:
            if finding.spec is not None:
                path = save_reproducer(finding, directory=args.corpus_dir)
                print(f"saved reproducer {path}")
    return 1 if report.findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diverge-Merge Processor reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list benchmarks/configs/exhibits")
    p_list.set_defaults(func=cmd_list)

    p_suite = sub.add_parser("suite", help="compare machine configurations")
    p_suite.add_argument("--benchmarks", default="",
                         help="comma-separated benchmark subset")
    p_suite.add_argument("--configs", default="base,dhp,dmp,dmp-enhanced")
    p_suite.add_argument("--iterations", type=int, default=800)
    p_suite.add_argument("--seed", type=int, default=0,
                         help="workload generation seed")
    p_suite.add_argument("--relative", action="store_true",
                         help="print %% improvement over the first config")
    p_suite.add_argument("--paranoid", action="store_true",
                         help="arm the oracle cross-checker and watchdog "
                              "on every simulation")
    p_suite.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="fan simulations out over N worker processes "
                              "(results are bit-identical to --jobs 1)")
    p_suite.add_argument("--engine", default="",
                         choices=["", "fast", "reference", "batch"],
                         help=_ENGINE_HELP)
    p_suite.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="persist traces/profiles/hints/stats under "
                              "PATH and reuse them on later runs (default: "
                              "$REPRO_CACHE_DIR if set, else no cache)")
    p_suite.add_argument("--no-cache", action="store_true",
                         help="disable the artifact cache even if "
                              "REPRO_CACHE_DIR is set")
    p_suite.add_argument("--timings", action="store_true",
                         help="print per-stage wall-clock and cache-hit "
                              "accounting after the table")
    _add_trace_flags(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_fig = sub.add_parser("figure", help="regenerate one paper exhibit")
    p_fig.add_argument("name", help="fig1..fig13 or table1..table3")
    p_fig.add_argument("--benchmarks", default="")
    p_fig.add_argument("--iterations", type=int, default=800)
    p_fig.add_argument("--paranoid", action="store_true",
                       help="arm the oracle cross-checker and watchdog "
                            "on every simulation")
    p_fig.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan simulations out over N worker processes")
    p_fig.add_argument("--engine", default="",
                       choices=["", "fast", "reference", "batch"],
                       help=_ENGINE_HELP)
    p_fig.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="persist traces/profiles/hints/stats under "
                            "PATH and reuse them on later runs (default: "
                            "$REPRO_CACHE_DIR if set, else no cache)")
    p_fig.add_argument("--no-cache", action="store_true",
                       help="disable the artifact cache even if "
                            "REPRO_CACHE_DIR is set")
    _add_trace_flags(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_inspect = sub.add_parser(
        "inspect", help="show a benchmark's compiler-side artifacts"
    )
    p_inspect.add_argument("benchmark")
    p_inspect.add_argument("--iterations", type=int, default=800)
    p_inspect.add_argument("--seed", type=int, default=0,
                           help="workload generation seed")
    p_inspect.set_defaults(func=cmd_inspect)

    p_val = sub.add_parser(
        "validate",
        help="oracle-checked validation / adversarial hint fault injection",
    )
    p_val.add_argument("--benchmarks", default="",
                       help="comma-separated benchmark subset "
                            "(default: the fault-suite trio)")
    p_val.add_argument("--iterations", type=int, default=400)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--inject", default="",
                       help="comma-separated fault classes to inject, "
                            "or 'all'")
    p_val.add_argument("--margin", type=float,
                       default=fault_injection.DEFAULT_IPC_MARGIN,
                       help="allowed fractional IPC drop below baseline "
                            "under corrupted hints")
    p_val.add_argument("--expect-faults", action="store_true",
                       help="CI mode: exit 0 iff injected faults were "
                            "both survived and detected")
    p_val.add_argument("--list-faults", action="store_true",
                       help="print the hint-corruption fault catalog "
                            "and exit")
    p_val.set_defaults(func=cmd_validate)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the engines across machine modes",
    )
    p_fuzz.add_argument("--seeds", default="0:50",
                        help="seed range A:B (half-open) or list a,b,c "
                             "(default 0:50)")
    p_fuzz.add_argument("--budget", type=int, default=0,
                        help="cap on seeds actually checked "
                             "(0 = the whole range)")
    p_fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan seeds out over N worker processes "
                             "(findings are reported in seed order "
                             "regardless)")
    p_fuzz.add_argument("--minimize", action="store_true",
                        help="delta-minimize each finding's program to a "
                             "small reproducer")
    p_fuzz.add_argument("--corpus-dir", default="", metavar="DIR",
                        help="with --minimize: save each reproducer as a "
                             "corpus JSON entry under DIR (the committed "
                             "corpus lives in tests/fuzz/corpus/)")
    p_fuzz.add_argument("--engines", default="",
                        help="comma-separated engine list; the first is "
                             "the trusted reference the rest are diffed "
                             "against (default reference,fast)")
    p_fuzz.add_argument("--no-harden", action="store_true",
                        help="run configs without the oracle/watchdog "
                             "(required for the batch engine's vector "
                             "path: hardened cells always take the "
                             "scalar fallback)")
    p_fuzz.add_argument("--gang", action="store_true",
                        help="add the dmp-gang band: fan each program "
                             "across machine sizings as one batch group "
                             "so dpred episodes run through the "
                             "ganged-episode vector kernels, every lane "
                             "diffed against the reference engine")
    p_fuzz.add_argument("--iterations", type=int, default=120,
                        help="outer-loop iterations per generated program")
    p_fuzz.add_argument("--max-gadgets", type=int, default=4,
                        help="max control-flow gadgets per program")
    p_fuzz.add_argument("--output", default="", metavar="PATH",
                        help="write the schema-versioned JSON finding "
                             "report here")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_bench = sub.add_parser(
        "bench",
        help="engine throughput microbenchmark / perf-regression gate",
    )
    p_bench.add_argument("--smoke", action="store_true",
                         help="quick CI matrix (see docs/performance.md)")
    p_bench.add_argument("--benchmarks", default="",
                         help="comma-separated benchmark subset")
    p_bench.add_argument("--configs", default="",
                         help="comma-separated config subset")
    p_bench.add_argument("--iterations", type=int, default=0,
                         help="workload iterations per benchmark "
                              "(0 = preset default)")
    p_bench.add_argument("--repeats", type=int, default=0,
                         help="timing repeats per cell, best kept "
                              "(0 = preset default)")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="workload generation seed")
    p_bench.add_argument("--output", default="",
                         help="report path (default BENCH_<utc>.json)")
    p_bench.add_argument("--baseline", default="",
                         help="committed BENCH_*.json to gate against, "
                              "or 'latest' for the newest committed "
                              "report in the working directory")
    p_bench.add_argument("--max-regression", type=float, default=0.25,
                         help="allowed fractional speedup drop vs the "
                              "baseline report")
    p_bench.add_argument("--min-speedup", default="",
                         help="speedup floors: a bare number gates the "
                              "geomean cold speedup; 'cold=1.5,dmp=2.5,"
                              "batch=4.0' gates per group (cold / "
                              "dmp-sweep vs fast / batch sweeps vs "
                              "reference)")
    p_bench.add_argument("--profile", action="store_true",
                         help="split one extra fast run per scalar cell "
                              "into phases, and print that and the batch "
                              "sweeps' phase attribution and gang "
                              "statistics")
    p_bench.add_argument("--no-batch", action="store_true",
                         help="skip the lockstep batch-engine sweep "
                              "cells")
    p_bench.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="artifact cache for traces/profiles/hints")
    p_bench.add_argument("--no-cache", action="store_true",
                         help="disable the artifact cache")
    _add_trace_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser(
        "trace",
        help="traced single run: verify tracing is non-perturbing and "
             "the event stream reconciles with the stats",
    )
    p_trace.add_argument("benchmark")
    p_trace.add_argument("--config", default="dmp-enhanced",
                         help="machine configuration "
                              "(default: dmp-enhanced)")
    p_trace.add_argument("--engine", default="",
                         choices=("", "reference", "fast"),
                         help="engine override (default: config's choice)")
    p_trace.add_argument("--iterations", type=int, default=800)
    p_trace.add_argument("--seed", type=int, default=0,
                         help="workload generation seed")
    p_trace.add_argument("--out", default="",
                         help="trace file path "
                              "(default ./<benchmark>__<config>.jsonl)")
    p_trace.add_argument("--ring", type=int, default=256,
                         help="ring-buffer capacity for hang diagnostics")
    p_trace.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="artifact cache for traces/profiles/hints")
    p_trace.add_argument("--no-cache", action="store_true",
                         help="disable the artifact cache")
    p_trace.set_defaults(func=cmd_trace)

    p_report = sub.add_parser(
        "report",
        help="per-cell run reports (JSON/CSV) from trace artifacts or a "
             "fresh suite run",
    )
    p_report.add_argument("paths", nargs="*",
                          help="trace files (*.jsonl), directories of "
                               "them, or bench BENCH_*.json reports; "
                               "empty = run a suite")
    p_report.add_argument("--benchmarks", default="",
                          help="comma-separated benchmark subset "
                               "(suite mode)")
    p_report.add_argument("--configs", default="base,dhp,dmp,dmp-enhanced",
                          help="configs to run (suite mode)")
    p_report.add_argument("--iterations", type=int, default=800)
    p_report.add_argument("--seed", type=int, default=0,
                          help="workload generation seed")
    p_report.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes (suite mode)")
    p_report.add_argument("--format", default="json",
                          choices=("json", "csv"))
    p_report.add_argument("--output", default="",
                          help="write the report here instead of stdout")
    p_report.add_argument("--cache-dir", default=None, metavar="PATH",
                          help="artifact cache for traces/profiles/hints")
    p_report.add_argument("--no-cache", action="store_true",
                          help="disable the artifact cache")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Structured failure (oracle mismatch, watchdog trip, bad hint
        # table): report it cleanly instead of a traceback.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
