"""Fixtures shared across the test packages."""

import pytest


@pytest.fixture
def lane_calls(monkeypatch):
    """A list that grows by one per cell the compiled lane simulates.

    Skips the test when this host cannot build the lane (no C compiler);
    CI checks separately that the lane loads, so these tests cannot skip
    there unnoticed."""
    from repro.uarch import lane

    if lane.load() is None:
        pytest.skip(f"compiled lane unavailable: {lane.unavailable_reason()}")
    calls = []
    execute = lane._execute

    def counting(lib, tables):
        calls.append(1)
        return execute(lib, tables)

    monkeypatch.setattr(lane, "_execute", counting)
    return calls
