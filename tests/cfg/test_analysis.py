"""Program-scoped static-analysis cache (repro.cfg.analysis)."""

from repro.cfg.analysis import ProgramAnalysis
from repro.cfg.dominators import immediate_postdominators, reconvergence_point
from repro.workloads.suite import build_benchmark


def _program():
    return build_benchmark("parser", 50, 0).program


class TestRegistry:
    def test_one_analysis_per_program(self):
        program = _program()
        assert ProgramAnalysis.of(program) is ProgramAnalysis.of(program)

    def test_distinct_programs_distinct_analyses(self):
        a, b = _program(), _program()
        assert ProgramAnalysis.of(a) is not ProgramAnalysis.of(b)

    def test_reset_starts_fresh(self):
        program = _program()
        analysis = ProgramAnalysis.of(program)
        cfg = next(program.functions())
        analysis.ipostdoms(cfg.name)
        ProgramAnalysis.reset(program)
        fresh = ProgramAnalysis.of(program)
        assert fresh is not analysis
        assert not fresh._ipostdoms


class TestMemoization:
    def test_ipostdoms_match_direct_computation(self):
        program = _program()
        analysis = ProgramAnalysis.of(program)
        for cfg in program.functions():
            assert analysis.ipostdoms(cfg.name) == (
                immediate_postdominators(cfg)
            )

    def test_ipostdoms_memoized(self):
        program = _program()
        analysis = ProgramAnalysis.of(program)
        cfg = next(program.functions())
        assert analysis.ipostdoms(cfg.name) is analysis.ipostdoms(cfg.name)

    def test_reconvergence_pc_matches_direct_computation(self):
        program = _program()
        analysis = ProgramAnalysis.of(program)
        for cfg in program.functions():
            for block in cfg:
                expected_block = reconvergence_point(cfg, block.name)
                expected = (
                    None
                    if expected_block is None
                    else cfg.block(expected_block).first_pc
                )
                assert analysis.reconvergence_pc(cfg.name, block.name) == (
                    expected
                )

