"""Differential harness: one fuzz program across every engine x mode cell.

Each generated program is a :class:`FuzzProgram` — a
:class:`~repro.harness.experiment.BenchmarkContext` over the spec's
workload — so its trace, profile and validated hint tables come from the
same pipeline the benchmarks use (no fuzz-only shortcuts).  The harness
then simulates every machine mode on both engines with the oracle
cross-checker and watchdog armed.  Anything abnormal becomes a
:class:`Finding`:

``divergence``   the two engines disagree on any SimStats field
``oracle``       the oracle cross-checker tripped (OracleMismatchError)
``hang``         the watchdog tripped (SimulationHangError)
``crash``        any other exception out of hint derivation (a table
                 that fails validation included) or simulation
``generator``    the spec failed to build or run functionally (a bug in
                 the fuzzer itself, reported rather than swallowed)

:func:`run_fuzz` sweeps a seed range, optionally fanning seeds over a
process pool (the PR-2 initializer pattern: knobs travel once per
worker, results merge in caller order), optionally delta-minimizing each
finding, and returns a schema-versioned :class:`FuzzReport`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import time
import traceback
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    OracleMismatchError,
    ReproError,
    SimulationHangError,
)
from repro.fuzz.generator import (
    FuzzKnobs,
    FuzzSpec,
    build_fuzz_workload,
    draw_spec,
)
from repro.harness.experiment import BenchmarkContext
from repro.profiling.diverge_selection import SelectionThresholds
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats

# Unused here: hint selection and simulation run through
# repro.harness.experiment.  perf/layers.py wraps these names on this
# module when it traces a run, and a traced run aborts on a missing
# attribute.
from repro.core.processors import simulate  # noqa: F401
from repro.profiling.diverge_selection import (  # noqa: F401
    build_hint_table,
    candidate_branch_pcs,
    select_diverge_branches,
)
from repro.profiling.hammock import find_simple_hammocks  # noqa: F401
from repro.profiling.loop_selection import (  # noqa: F401
    merge_hint_tables,
    select_diverge_loop_branches,
)
from repro.profiling.profiler import (  # noqa: F401
    collect_reconvergence,
    profile_trace,
)

#: Report schema identifier (bump on incompatible layout changes).
REPORT_SCHEMA = "repro-fuzz/1"

#: The machine modes every fuzz program is checked under.
FUZZ_MODES = (
    "baseline", "dualpath", "dmp", "dmp-basic", "dhp", "wish", "loop-pred",
    "mpp",
)

#: Engines compared per mode.
_ENGINES = ("reference", "fast")

#: The ganged-episode band: one fuzz program fanned across machine
#: sizings as a *single* batch-engine group.  Deliberately not part of
#: :data:`FUZZ_MODES` — single-cell groups only ever form gangs of
#: one, and hardened cells take the scalar fallback entirely — so the
#: unhardened batch sweep opts in with ``modes=FUZZ_MODES + (GANG_MODE,)``.
GANG_MODE = "dmp-gang"

#: Machine sizings fanned per spec for the gang band.  Every lane
#: shares the spec's program and trace, so each dpred episode is
#: entered by the whole group at the same record with the same
#: (trace, signature) key — many-lane gangs, not gangs of one.
GANG_SIZINGS = tuple(
    (width, depth, rob, retire)
    for width in (4, 8)
    for depth in (10, 30)
    for rob in (128, 512)
    for retire in (4, 8)
)


def mode_configs() -> Dict[str, MachineConfig]:
    """One un-hardened, engine-unspecified configuration per fuzz mode.

    ``dmp`` runs fully enhanced (multiple CFM + early exit + multiple
    diverge) and ``loop-pred`` adds loop predication on top — the widest
    predication surface the simulator has, which is what the fuzzer
    should be hammering.  ``dmp-basic`` is the plain Table-1 machine:
    unlike the enhanced variant it sits inside the batch engine's
    vector envelope, so an unhardened batch sweep exercises the
    vectorized predicated-episode path rather than the scalar
    fallback."""
    return {
        "baseline": MachineConfig.baseline(),
        "dualpath": MachineConfig.dualpath(),
        "dmp": MachineConfig.dmp(enhanced=True),
        "dmp-basic": MachineConfig.dmp(),
        "dhp": MachineConfig.dhp(),
        "wish": MachineConfig.wish(),
        "loop-pred": MachineConfig.dmp(enhanced=True, loop_predication=True),
        # Hint-free DMP: fuzz programs are tiny, so drop the training
        # floor enough for the predictor to open episodes, and tighten
        # the path budgets (with early exit on) so learned-merge
        # mispredictions — and their recovery flushes and retrains —
        # are reachable within a fuzz run, not just the happy path.
        "mpp": MachineConfig.mpp(
            merge_min_instances=4,
            merge_window_instructions=64,
            multiple_cfm=True,
            early_exit=True,
            early_exit_default_threshold=24,
            dpred_path_limit=48,
        ),
    }


@dataclasses.dataclass
class Finding:
    """One abnormal result from one ``(seed, mode, engine)`` cell."""

    seed: int
    kind: str  # divergence | oracle | hang | crash | generator
    mode: str  # machine mode, or "build" for generator findings
    engine: str  # engine that failed; "both" for divergences
    detail: str
    #: SimStats fields that differ (divergence findings only).
    stat_diff: List[str] = dataclasses.field(default_factory=list)
    #: The spec that reproduces the finding (minimized when the harness
    #: ran the minimizer; the original draw otherwise).
    spec: Optional[FuzzSpec] = None
    minimized: bool = False
    static_instructions: int = 0

    def summary(self) -> str:
        extra = f" fields={','.join(self.stat_diff)}" if self.stat_diff else ""
        size = (
            f" [{self.static_instructions} static insns"
            + (", minimized]" if self.minimized else "]")
            if self.static_instructions
            else ""
        )
        return (
            f"seed={self.seed} {self.kind} mode={self.mode} "
            f"engine={self.engine}{extra}{size}: {self.detail}"
        )


class FuzzProgram(BenchmarkContext):
    """One fuzz spec as a benchmark context: the workload is built from
    the spec, and the trace, profile and every hint table (validated
    with :func:`~repro.validation.hints.check_hint_table`) come from
    :class:`~repro.harness.experiment.BenchmarkContext`."""

    def __init__(
        self,
        spec: FuzzSpec,
        thresholds: Optional[SelectionThresholds] = None,
    ) -> None:
        super().__init__(spec.name, spec.iterations, spec.seed, thresholds)
        self.spec = spec

    def _build_workload(self):
        return build_fuzz_workload(self.spec)

    def simulate(
        self, mode: str, config: MachineConfig, tracer=None
    ) -> SimStats:
        """One ``(mode, engine)`` cell, simulated afresh: fuzz cells are
        never memoized, since fingerprinting the config would cost more
        than it saves.  ``mode`` only names the cell; the hints are
        :meth:`hints_for` ``config``."""
        return self.simulate_fresh(config, tracer)[0]


def _stat_diff(ref: SimStats, fast: SimStats) -> List[str]:
    a, b = dataclasses.asdict(ref), dataclasses.asdict(fast)
    return sorted(field for field in a if a[field] != b[field])


def _check_gang(ctx: FuzzProgram, spec: FuzzSpec) -> List[Finding]:
    """The ``dmp-gang`` band: one spec, :data:`GANG_SIZINGS` lanes, one
    batch group.

    All lanes carry the same program, trace and diverge hints, so every
    dpred episode is reached by the whole group at the same trace record
    and the engine's (trace, signature) gangs span many lanes, not
    one.  Each lane's SimStats is then diffed against a
    reference-engine run of the same sizing.  Without numpy the engine
    has no vector path to gang and the band is a no-op."""
    from repro.uarch.batch import BatchCell, batch_supported, run_batch

    if not batch_supported():
        return []
    try:
        base = MachineConfig.dmp()
        hints = ctx.hints_for(base)
        warm = ctx.workload.memory.warm_words()
        configs = [
            base.replace(
                engine="batch",
                fetch_width=width,
                pipeline_depth=depth,
                rob_size=rob,
                retire_width=retire,
            )
            for (width, depth, rob, retire) in GANG_SIZINGS
        ]
        cells = [
            BatchCell(
                ctx.program, ctx.trace, config, hints=hints,
                benchmark=spec.name, warm_words=warm,
            )
            for config in configs
        ]
        grouped = run_batch(cells)
    except Exception as exc:
        tb = traceback.format_exc(limit=3)
        return [
            Finding(
                seed=spec.seed, kind="crash", mode=GANG_MODE,
                engine="batch",
                detail=f"{type(exc).__name__}: {exc} | {tb.strip()}",
                spec=spec,
            )
        ]
    findings: List[Finding] = []
    for config, got in zip(configs, grouped):
        lane = (
            f"w={config.fetch_width} d={config.pipeline_depth} "
            f"rob={config.rob_size} rw={config.retire_width}"
        )
        try:
            ref = ctx.simulate(GANG_MODE, config.replace(engine="reference"))
        except Exception as exc:
            findings.append(
                Finding(
                    seed=spec.seed, kind="crash", mode=GANG_MODE,
                    engine="reference",
                    detail=f"lane {lane}: {type(exc).__name__}: {exc}",
                    spec=spec,
                )
            )
            continue
        diff = _stat_diff(ref, got)
        if diff:
            findings.append(
                Finding(
                    seed=spec.seed, kind="divergence", mode=GANG_MODE,
                    engine="both",
                    detail=(
                        f"ganged batch lane ({lane}) disagrees with "
                        f"reference on {len(diff)} SimStats field(s)"
                    ),
                    stat_diff=diff,
                    spec=spec,
                )
            )
    return findings


def check_spec(
    spec: FuzzSpec,
    modes: Sequence[str] = FUZZ_MODES,
    thresholds: Optional[SelectionThresholds] = None,
    cycle_limit: Optional[int] = None,
    engines: Sequence[str] = _ENGINES,
    harden: bool = True,
) -> List[Finding]:
    """Differential-check one spec; the empty list means it passed.

    ``engines[0]`` is the trusted reference; every other engine is
    diffed against it.  By default every simulation runs hardened
    (oracle + watchdog); pass ``harden=False`` to run the configs as-is
    — that is how the batch engine's *vector* path gets covered, since
    a hardened config always takes its scalar fallback.  The first
    failure per ``(mode, engine)`` cell is recorded and the sweep
    continues, so one bad mode does not mask another."""
    findings: List[Finding] = []
    ctx = FuzzProgram(spec, thresholds)
    try:
        _ = ctx.trace  # build + functional run
    except Exception as exc:  # pragma: no cover - generator bugs only
        return [
            Finding(
                seed=spec.seed,
                kind="generator",
                mode="build",
                engine="-",
                detail=f"{type(exc).__name__}: {exc}",
                spec=spec,
            )
        ]

    configs = mode_configs()
    for mode in modes:
        if mode == GANG_MODE:
            # The gang band runs its own group-shaped check: many batch
            # lanes in one run_batch call, each diffed against the
            # reference engine.  ``harden`` does not apply — a hardened
            # cell would take the scalar fallback and gang nothing.
            findings.extend(_check_gang(ctx, spec))
            continue
        base = configs[mode]
        if harden:
            base = base.hardened(cycle_limit)
        try:
            ctx.hints_for(base)
        except Exception as exc:
            findings.append(
                Finding(
                    seed=spec.seed,
                    kind="crash",
                    mode=mode,
                    engine="-",
                    detail=(
                        f"hint derivation failed: "
                        f"{type(exc).__name__}: {exc}"
                    ),
                    spec=spec,
                )
            )
            continue
        stats: Dict[str, Optional[SimStats]] = {}
        for engine in engines:
            config = base.replace(engine=engine)
            try:
                stats[engine] = ctx.simulate(mode, config)
            except SimulationHangError as exc:
                stats[engine] = None
                findings.append(
                    Finding(
                        seed=spec.seed, kind="hang", mode=mode,
                        engine=engine, detail=str(exc), spec=spec,
                    )
                )
            except OracleMismatchError as exc:
                stats[engine] = None
                findings.append(
                    Finding(
                        seed=spec.seed, kind="oracle", mode=mode,
                        engine=engine, detail=str(exc), spec=spec,
                    )
                )
            except Exception as exc:
                stats[engine] = None
                tb = traceback.format_exc(limit=3)
                findings.append(
                    Finding(
                        seed=spec.seed, kind="crash", mode=mode,
                        engine=engine,
                        detail=f"{type(exc).__name__}: {exc} | {tb.strip()}",
                        spec=spec,
                    )
                )
        ref = stats.get(engines[0])
        if ref is not None:
            for engine in engines[1:]:
                other = stats.get(engine)
                if other is None:
                    continue
                diff = _stat_diff(ref, other)
                if diff:
                    findings.append(
                        Finding(
                            seed=spec.seed,
                            kind="divergence",
                            mode=mode,
                            engine="both",
                            detail=(
                                f"engines disagree ({engines[0]} vs "
                                f"{engine}) on {len(diff)} "
                                f"SimStats field(s)"
                            ),
                            stat_diff=diff,
                            spec=spec,
                        )
                    )
    return findings


@dataclasses.dataclass
class FuzzReport:
    """Result of one fuzz sweep (JSON layout: ``REPORT_SCHEMA``)."""

    seeds: List[int]
    checked: int
    findings: List[Finding]
    elapsed_seconds: float = 0.0
    jobs: int = 1
    minimized: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict:
        from repro.fuzz.corpus import spec_to_dict

        return {
            "schema": REPORT_SCHEMA,
            "seeds": self.seeds,
            "checked": self.checked,
            "jobs": self.jobs,
            "minimized": self.minimized,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "findings": [
                {
                    "seed": f.seed,
                    "kind": f.kind,
                    "mode": f.mode,
                    "engine": f.engine,
                    "detail": f.detail,
                    "stat_diff": list(f.stat_diff),
                    "minimized": f.minimized,
                    "static_instructions": f.static_instructions,
                    "spec": spec_to_dict(f.spec) if f.spec else None,
                }
                for f in self.findings
            ],
        }

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.checked} seed(s) checked, "
            f"{len(self.findings)} finding(s), "
            f"{self.elapsed_seconds:.1f}s (jobs={self.jobs})"
        ]
        lines.extend("  " + f.summary() for f in self.findings)
        return "\n".join(lines)


# -- process-pool plumbing (the pattern of run_suite's pool executor) -----

_WORKER_ARGS: Tuple = ()


def _init_fuzz_worker(payload: bytes) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = pickle.loads(payload)


def _check_seed(seed: int) -> Tuple[int, List[Finding]]:
    knobs, modes, thresholds, cycle_limit, engines, harden = _WORKER_ARGS
    spec = draw_spec(seed, knobs)
    return seed, check_spec(
        spec, modes=modes, thresholds=thresholds, cycle_limit=cycle_limit,
        engines=engines, harden=harden,
    )


def run_fuzz(
    seeds: Iterable[int],
    budget: Optional[int] = None,
    jobs: int = 1,
    minimize: bool = False,
    knobs: Optional[FuzzKnobs] = None,
    modes: Sequence[str] = FUZZ_MODES,
    thresholds: Optional[SelectionThresholds] = None,
    cycle_limit: Optional[int] = None,
    engines: Sequence[str] = _ENGINES,
    harden: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Sweep ``seeds`` (capped at ``budget``) through the differential
    check; optionally shrink each finding's spec with the delta
    minimizer.  ``jobs > 1`` fans seeds over a process pool; findings
    merge in seed order, so a parallel sweep reports identically to a
    serial one."""
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    seed_list = list(seeds)
    if budget is not None:
        seed_list = seed_list[:budget]
    knobs = knobs or FuzzKnobs()
    start = time.perf_counter()
    by_seed: Dict[int, List[Finding]] = {}

    if jobs > 1 and len(seed_list) > 1:
        payload = pickle.dumps(
            (knobs, tuple(modes), thresholds, cycle_limit, tuple(engines),
             harden),
            protocol=4,
        )
        with multiprocessing.Pool(
            processes=min(jobs, len(seed_list)),
            initializer=_init_fuzz_worker,
            initargs=(payload,),
        ) as pool:
            for seed, findings in pool.imap_unordered(
                _check_seed, seed_list, chunksize=4
            ):
                by_seed[seed] = findings
                if progress and findings:
                    progress(f"seed {seed}: {len(findings)} finding(s)")
    else:
        for seed in seed_list:
            spec = draw_spec(seed, knobs)
            findings = check_spec(
                spec, modes=modes, thresholds=thresholds,
                cycle_limit=cycle_limit, engines=engines, harden=harden,
            )
            by_seed[seed] = findings
            if progress and findings:
                progress(f"seed {seed}: {len(findings)} finding(s)")

    findings: List[Finding] = []
    for seed in seed_list:  # caller order, not completion order
        findings.extend(by_seed.get(seed, []))

    if minimize and findings:
        from repro.fuzz.minimize import minimize_finding

        findings = [
            minimize_finding(
                finding,
                modes=modes,
                thresholds=thresholds,
                cycle_limit=cycle_limit,
                engines=engines,
                harden=harden,
            )
            for finding in findings
        ]

    return FuzzReport(
        seeds=seed_list,
        checked=len(seed_list),
        findings=findings,
        elapsed_seconds=time.perf_counter() - start,
        jobs=jobs,
        minimized=minimize,
    )
