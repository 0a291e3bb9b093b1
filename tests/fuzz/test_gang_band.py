"""The ``dmp-gang`` fuzz band: many-lane groups over shared episodes.

The per-mode differential matrix runs one cell at a time, so the batch
engine's ganged-episode kernels — one episode structure computed for
every lane sharing a (trace, signature) key, timing replayed per lane —
are only ever exercised with gangs of size one.  The gang band fans a
single fuzz program across :data:`GANG_SIZINGS` machine sizings as one
``run_batch`` group; these tests pin that the band really forms
many-lane gangs (not silent scalar fallbacks) and that every ganged
lane stays bit-identical to the reference engine.
"""

import pytest

from repro.fuzz import FuzzKnobs, check_spec, draw_spec
from repro.fuzz.harness import GANG_MODE, GANG_SIZINGS, FuzzProgram
from repro.uarch.config import MachineConfig

np = pytest.importorskip("numpy")

from repro.uarch.batch import BatchCell, run_batch  # noqa: E402

#: Seeds probed for a program that earns diverge hints.  The generator
#: is deterministic, so the first ganging seed is stable across runs.
_PROBE_SEEDS = range(24)


def _gang_cells(ctx: FuzzProgram):
    hints = ctx.hints_for(MachineConfig.dmp())
    warm = ctx.workload.memory.warm_words()
    return [
        BatchCell(
            ctx.program,
            ctx.trace,
            MachineConfig.dmp().replace(
                engine="batch", fetch_width=width, pipeline_depth=depth,
                rob_size=rob, retire_width=retire,
            ),
            hints=hints,
            benchmark=ctx.spec.name,
            warm_words=warm,
        )
        for (width, depth, rob, retire) in GANG_SIZINGS
    ]


@pytest.fixture(scope="module")
def ganging_spec():
    """The first probe seed whose program actually gangs lanes."""
    for seed in _PROBE_SEEDS:
        spec = draw_spec(seed, FuzzKnobs())
        ctx = FuzzProgram(spec)
        gang_stats = {}
        fallback_reasons = {}
        try:
            run_batch(
                _gang_cells(ctx),
                fallback_reasons=fallback_reasons,
                gang_stats=gang_stats,
            )
        except Exception:
            continue
        if gang_stats.get("ganged_lanes", 0) >= 2:
            return spec, ctx, gang_stats, fallback_reasons
    pytest.fail(
        f"no probe seed in {_PROBE_SEEDS} formed a many-lane gang — "
        f"the dmp-gang band would be exercising nothing"
    )


def test_band_forms_many_lane_gangs(ganging_spec):
    _, _, gang_stats, _ = ganging_spec
    assert gang_stats["max_gang"] >= 2, gang_stats
    assert gang_stats["ganged_lanes"] >= 2, gang_stats
    assert gang_stats["gangs"] >= 1, gang_stats


def test_band_lanes_stay_on_the_vector_path(ganging_spec):
    # A plain-dmp sizing that falls off the vector envelope would turn
    # the band into a fast-engine self-comparison; the ganging seed
    # must keep every lane vectorized.
    _, _, _, fallback_reasons = ganging_spec
    assert fallback_reasons == {}, fallback_reasons


def test_band_is_clean_against_the_reference_engine(ganging_spec):
    spec, _, _, _ = ganging_spec
    findings = check_spec(spec, modes=(GANG_MODE,), harden=False)
    assert findings == [], [f.summary() for f in findings]
