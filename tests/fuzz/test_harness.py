"""The differential harness: clean sweeps, bug catching, reporting.

The centerpiece is the injected-bug demonstration: an engine-asymmetric
mutation (the fast engine drops one select-uop per episode exit) must be
caught by the differential check and minimized to a reproducer of at
most 12 static instructions — the subsystem's acceptance contract.
"""

import dataclasses
import json

import pytest

from repro.core.dpred import PredicationAwareSimulator
from repro.fuzz import (
    FUZZ_MODES,
    FuzzKnobs,
    check_spec,
    draw_spec,
    minimize_finding,
    mode_configs,
    run_fuzz,
    static_instruction_count,
)
from repro.fuzz.harness import REPORT_SCHEMA, FuzzProgram
from repro.harness import experiment
from repro.isa.encoding import DivergeHint, HintTable
from repro.validation.hints import check_hint_table

#: Seeds used by the clean-sweep tests (kept small: each seed runs a
#: 6-mode x 2-engine hardened matrix).
CLEAN_SEEDS = range(4)


class TestCleanSweep:
    def test_head_is_clean_on_smoke_seeds(self):
        for seed in CLEAN_SEEDS:
            findings = check_spec(draw_spec(seed))
            assert findings == [], [f.summary() for f in findings]

    def test_unhardened_cells_run_on_the_compiled_lane(self, lane_calls):
        """Un-hardened baseline and dual-path cells of generated
        programs go down the compiled lane and match the reference."""
        for seed in CLEAN_SEEDS:
            findings = check_spec(
                draw_spec(seed), modes=("baseline", "dualpath"),
                engines=("reference", "fast"), harden=False,
            )
            assert findings == [], [f.summary() for f in findings]
        assert len(lane_calls) == 2 * len(CLEAN_SEEDS)

    def test_mode_configs_cover_every_fuzz_mode(self):
        configs = mode_configs()
        assert set(configs) == set(FUZZ_MODES)
        # Oracle/watchdog are armed by the harness, not baked in here.
        for config in configs.values():
            assert not config.oracle_checks and not config.watchdog

    def test_report_is_schema_versioned_json(self):
        report = run_fuzz(range(2))
        assert report.ok and report.checked == 2
        payload = report.to_dict()
        assert payload["schema"] == REPORT_SCHEMA
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_budget_caps_the_sweep(self):
        report = run_fuzz(range(50), budget=3)
        assert report.checked == 3 and report.seeds == [0, 1, 2]

    def test_parallel_sweep_matches_serial(self):
        serial = run_fuzz(CLEAN_SEEDS, jobs=1)
        parallel = run_fuzz(CLEAN_SEEDS, jobs=2)
        assert serial.seeds == parallel.seeds
        assert [dataclasses.asdict(f) for f in serial.findings] == [
            dataclasses.asdict(f) for f in parallel.findings
        ]


@pytest.fixture
def drop_one_select_on_fast_engine(monkeypatch):
    """Engine-asymmetric bug injection: on the fast engine only, the
    RAT 'forgets' the last select-uop request at every episode exit."""
    real = PredicationAwareSimulator._exit_after_alternate

    def broken(self, *args, **kwargs):
        if self.config.engine != "fast":
            return real(self, *args, **kwargs)
        orig = self.rat.compute_selects

        def dropped(cp2_rat):
            selects = orig(cp2_rat)
            return selects[:-1] if selects else selects

        self.rat.compute_selects = dropped
        try:
            return real(self, *args, **kwargs)
        finally:
            self.rat.compute_selects = orig

    monkeypatch.setattr(
        PredicationAwareSimulator, "_exit_after_alternate", broken
    )


class TestInjectedEngineBug:
    def test_mutation_is_caught_and_minimized(
        self, drop_one_select_on_fast_engine
    ):
        spec = draw_spec(0)
        findings = check_spec(spec)
        assert findings, "differential check missed the injected bug"
        divergences = [f for f in findings if f.kind == "divergence"]
        assert divergences, [f.summary() for f in findings]
        finding = divergences[0]
        assert finding.mode in ("dmp", "dhp", "loop-pred")
        assert "select_uops" in finding.stat_diff

        minimized = minimize_finding(finding)
        assert minimized.minimized
        assert minimized.static_instructions <= 12, (
            f"reproducer has {minimized.static_instructions} static "
            "instructions; acceptance bound is 12"
        )
        # The shrunk spec still reproduces the exact failure class.
        refound = check_spec(minimized.spec, modes=(finding.mode,))
        assert any(
            f.kind == "divergence" and f.mode == finding.mode
            for f in refound
        )

    def test_run_fuzz_reports_the_finding(
        self, drop_one_select_on_fast_engine
    ):
        report = run_fuzz(range(1), minimize=True)
        assert not report.ok
        assert report.minimized
        for finding in report.findings:
            assert finding.seed == 0
            if finding.kind == "divergence":
                assert finding.minimized
                assert 0 < finding.static_instructions <= 12
        # The JSON report carries the reproducer spec inline.
        payload = report.to_dict()
        assert payload["findings"][0]["spec"] is not None


class TestHintValidation:
    def test_broken_table_is_a_crash_before_anything_simulates(
        self, monkeypatch
    ):
        """Fuzz tables pass the production check_hint_table: a table
        with a mid-block CFM point is a ``crash`` finding for every mode
        that reads it, and no simulator ever sees it."""
        spec = draw_spec(0)
        mid_block = next(
            block.instructions[1].pc
            for cfg in FuzzProgram(spec).program.functions()
            for block in cfg
            if len(block.instructions) > 2
        )
        real = experiment.build_hint_table

        def with_mid_block_cfm(*args, **kwargs):
            table = real(*args, **kwargs)
            assert len(table), "spec earns no diverge hints to break"
            broken = HintTable()
            for pc, hint in table:
                broken.add(pc, DivergeHint(hint.cfm_pcs + (mid_block,)))
            return broken

        simulated = []
        monkeypatch.setattr(experiment, "build_hint_table", with_mid_block_cfm)
        monkeypatch.setattr(
            FuzzProgram, "simulate",
            lambda self, mode, config, tracer=None: simulated.append(mode),
        )
        modes = ("dmp", "dmp-basic", "loop-pred")
        findings = check_spec(spec, modes=modes)
        assert simulated == []
        assert [(f.kind, f.mode) for f in findings] == [
            ("crash", mode) for mode in modes
        ]
        for finding in findings:
            assert finding.detail.startswith(
                "hint derivation failed: HintValidationError"
            ), finding.detail

    @pytest.mark.parametrize("seed", CLEAN_SEEDS)
    def test_every_mode_table_passes_validation(self, seed):
        """Each fuzz mode reads the context's table for its config, that
        table passes check_hint_table on its own, and the loop table
        holds every diverge hint."""
        ctx = FuzzProgram(draw_spec(seed))
        configs = mode_configs()
        tables = {mode: ctx.hints_for(configs[mode]) for mode in FUZZ_MODES}
        for mode in ("baseline", "dualpath", "mpp"):
            assert tables.pop(mode) is None, mode
        for mode, table in tables.items():
            check_hint_table(ctx.program, table)
        assert tables["dmp"] is tables["dmp-basic"] is ctx.diverge_hints
        assert tables["loop-pred"] is ctx.loop_hints
        loop = dict(tables["loop-pred"])
        assert all(
            loop.get(pc) == hint for pc, hint in tables["dmp"]
        )


class TestKnobsPropagate:
    def test_custom_knobs_change_the_programs(self):
        small = FuzzKnobs(min_gadgets=1, max_gadgets=1, iterations=50)
        spec = draw_spec(5, small)
        assert len(spec.gadgets) == 1 and spec.iterations == 50
        assert static_instruction_count(spec) < static_instruction_count(
            draw_spec(5, FuzzKnobs(min_gadgets=4, max_gadgets=4))
        )
