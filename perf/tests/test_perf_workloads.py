import json
import re
from pathlib import Path

import pytest

import child
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def tiny_suite(monkeypatch):
    """suite-cold shrunk to 2 benchmarks at 60 iterations."""
    from repro.workloads import suite

    monkeypatch.setattr(suite, "BENCHMARK_NAMES", ("eon", "parser"))
    monkeypatch.setattr(workloads, "SUITE_ITERATIONS", 60)


def _run(tmp_path, traced, tag):
    return child.run_job({
        "job": "run", "workload": "suite-cold", "seed": 0, "traced": traced,
        "cache_dir": str(tmp_path / f"cache-{tag}"),
        "spans_path": str(tmp_path / f"{tag}.jsonl"),
    })


def test_spans_do_not_perturb_results(tiny_suite, tmp_path):
    from repro.harness import experiment

    run_suite = experiment.run_suite
    plain = _run(tmp_path, traced=False, tag="plain")
    traced = _run(tmp_path, traced=True, tag="traced")
    assert plain["error"] is None and traced["error"] is None
    assert len(plain["digests"]) == 6
    assert plain["digests"] == traced["digests"]
    assert experiment.run_suite is run_suite  # wrappers restored

    layer = traced["layers"]
    assert layer["uarch.fast.cells"] == 6
    assert layer["harness.cache.stores"] > 0
    assert layer["program.interpret_s"] > 0
    assert layer["trace.unattributed_frac"] <= 0.03
    spans = (tmp_path / "traced.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["name"] == "harness.suite"


def test_every_benchmark_metric_is_emitted(tiny_suite, tmp_path):
    plain = _run(tmp_path, traced=False, tag="plain")
    traced = _run(tmp_path, traced=True, tag="traced")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    outcome = {"attempted": 12, "failed": 0, "check": "test"}
    summary = run.summarize(
        "suite-cold", [plain], [traced], [0.3], outcome, None, units
    )
    assert set(summary["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(summary["end_to_end"])
    for name in list(summary["per_layer"]) + list(summary["end_to_end"]):
        assert NAME.fullmatch(name), name


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [
        m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"]
        + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("seed", [0, 1])
def test_golden_digests_match_the_reference_engine(seed):
    golden = run.load_golden(seed)
    for name, keys in (
        ("suite-cold", ["eon/dmp"]),
        ("fuzz-diff", ["fuzz-%d/dhp/fast" % (seed * 1000 + 3)]),
    ):
        cells = golden["workloads"][name]["cells"]
        assert sorted(cells) == sorted(workloads.expected_keys(name, seed))
        stats = workloads.reference_stats(name, seed, keys)
        assert {k: workloads.digest(v) for k, v in stats.items()} == {
            k: cells[k] for k in keys
        }
