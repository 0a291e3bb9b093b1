import json

import pytest

import compare


def _result(walls, failed=0, attempted=100, workload="suite-cold"):
    return {
        "schema": "perf-result/1",
        "workloads": {
            workload: {
                "attempted": attempted,
                "failed": failed,
                "end_to_end": {
                    "wall_s": {"value": sorted(walls)[len(walls) // 2],
                               "unit": "s", "samples": walls},
                },
            }
        },
    }


@pytest.mark.parametrize("change, parent, expected", [
    ([9.0, 9.1, 9.2], [10.0, 10.1, 10.2], "improved"),
    ([10.05, 10.1, 10.15], [10.0, 10.1, 10.2], "unchanged"),
    ([12.0, 12.1, 12.2], [10.0, 10.1, 10.2], "regressed"),
    # Spread wider than the bound on the parent side: no claim either way.
    ([10.0, 10.1, 10.2], [8.0, 10.0, 14.0], "unresolved"),
    # Every change run beats every parent run, so not unresolved; but the
    # medians differ by less than the parent's quartile distance, so no
    # gain is claimed either.
    ([7.0, 7.1, 7.2], [8.0, 10.0, 14.0], "unchanged"),
    ([5.0, 5.1, 5.2], [8.0, 10.0, 14.0], "improved"),
    # Worse by more than the bound and every run worse: still a regression.
    ([15.0, 16.0, 17.0], [8.0, 10.0, 14.0], "regressed"),
])
def test_verdicts(change, parent, expected):
    assert compare.verdict(change, parent, "lower", 0.1)["verdict"] == expected


def test_direction_flips_for_higher_is_better():
    row = compare.verdict([12.0, 12.1, 12.2], [10.0, 10.1, 10.2], "higher", 0.1)
    assert row["verdict"] == "improved"
    assert row["delta"] == pytest.approx(0.198, abs=1e-3)
    assert row["wins"] == 1.0


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_exit_status(tmp_path, capsys):
    parent = _write(tmp_path, "p.json", _result([10.0, 10.1, 10.2]))
    same = _write(tmp_path, "a.json", _result([10.0, 10.05, 10.2]))
    slow = _write(tmp_path, "b.json", _result([13.0, 13.1, 13.2]))
    broken = _write(tmp_path, "c.json", _result([10.0, 10.1, 10.2], failed=1))
    assert compare.main([same, "--against", parent]) == 0
    assert compare.main([slow, "--against", parent]) == 1
    assert compare.main([broken, "--against", parent]) == 1
    out = capsys.readouterr().out
    assert "error_rate" in out and "regressed" in out


def test_runs_of_several_files_are_pooled(tmp_path):
    parents = [
        _write(tmp_path, f"p{i}.json", _result([10.0 + i / 10]))
        for i in range(3)
    ]
    changes = [
        _write(tmp_path, f"a{i}.json", _result([8.0 + i / 10]))
        for i in range(3)
    ]
    spec = {"workloads": [{"name": "suite-cold"}],
            "end_to_end": [{"name": "wall_s", "better": "lower",
                            "bound": 0.1}]}
    load = [json.load(open(p)) for p in changes + parents]
    rows = compare.compare(load[:3], load[3:], spec)
    wall = next(row for row in rows if row["metric"] == "wall_s")
    assert wall["verdict"] == "improved" and wall["wins"] == 1.0
