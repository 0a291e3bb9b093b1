import types

import pytest

from spans import Patches, Recorder, Span, reconcile, self_times


def _span(id, name, parent, start, end):
    return Span(id=id, name=name, parent=parent, start=start, end=end)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, "suite", None, 0.0, 10.0),
        _span(1, "sim", 0, 1.0, 4.0),
        _span(2, "cache", 1, 2.0, 3.0),
        _span(3, "sim", 0, 5.0, 9.0),
        _span(4, "cache", 3, 6.0, 6.5),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.5, 4: 0.5}
    assert sum(own.values()) == spans[0].duration


def test_overlapping_children_are_counted_once():
    spans = [
        _span(0, "a", None, 0.0, 10.0),
        _span(1, "b", 0, 1.0, 5.0),
        _span(2, "b", 0, 4.0, 6.0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_reconcile_counts_time_outside_root_spans_as_unattributed():
    spans = [
        _span(0, "a", None, 1.0, 4.0),
        _span(1, "b", 0, 2.0, 3.0),
        _span(2, "a", None, 5.0, 9.0),
    ]
    check = reconcile(spans, wall=10.0)
    assert check["attributed_s"] == pytest.approx(7.0)
    assert check["unattributed_s"] == pytest.approx(3.0)
    assert check["unattributed_frac"] == pytest.approx(0.3)
    assert check["sum_error_frac"] == pytest.approx(0.0)


def test_recorder_nests_spans_by_call_order():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    assert inner.parent == outer.id and outer.parent is None
    assert (outer.start, inner.start, inner.end, outer.end) == (0, 1, 2, 3)
    with pytest.raises(RuntimeError):
        a = recorder.open("a")
        recorder.open("b")
        recorder.close(a)


class _Base:
    def inherited(self, x):
        return ("inherited", x)


class _Thing(_Base):
    def method(self, x):
        return ("method", self, x)

    @staticmethod
    def static(x):
        return ("static", x)


def test_wrappers_pass_results_and_exceptions_and_restore():
    module = types.ModuleType("fake")

    def compute(x, *, scale=1):
        return x * scale

    def explode():
        raise KeyError("boom")

    module.compute, module.explode = compute, explode
    originals = (
        vars(_Thing)["method"], vars(_Thing)["static"], _Base.inherited,
    )
    recorder = Recorder()
    seen = []
    patches = Patches()
    patches.wrap(module, "compute", recorder, "c",
                 lambda span, args, kwargs, result: seen.append(result))
    patches.wrap(module, "explode", recorder, "e")
    patches.wrap(_Thing, "method", recorder,
                 lambda args, kwargs: f"m{args[1]}")
    patches.wrap(_Thing, "static", recorder, "s")
    patches.wrap(_Thing, "inherited", recorder, "i")

    thing = _Thing()
    assert module.compute(3, scale=2) == 6 and seen == [6]
    with pytest.raises(KeyError, match="boom"):
        module.explode()
    assert thing.method(7) == ("method", thing, 7)
    assert thing.inherited(1) == ("inherited", 1)
    assert [s.name for s in recorder.spans] == ["c", "e", "m7", "i"]
    assert recorder.spans[1].attrs["error"] == "KeyError"
    assert recorder.current is None

    patches.restore()
    assert module.compute is compute and module.explode is explode
    assert vars(_Thing)["method"] is originals[0]
    assert vars(_Thing)["static"] is originals[1]
    assert "inherited" not in vars(_Thing)
    assert _Thing.inherited is originals[2]
