"""Unit tests for the confidence estimators."""

import pytest

from repro.confidence import make_estimator
from repro.confidence.jrs import JRSConfidenceEstimator
from repro.confidence.perfect import (
    AlwaysConfident,
    NeverConfident,
    PerfectConfidenceEstimator,
)


class TestJRS:
    def test_starts_unconfident(self):
        jrs = JRSConfidenceEstimator(table_size=64, counter_bits=4)
        assert not jrs.is_confident(0x1000, 0)

    def test_becomes_confident_after_streak(self):
        jrs = JRSConfidenceEstimator(table_size=64, counter_bits=4)
        for _ in range(15):
            jrs.update(0x1000, 0, was_correct=True)
        assert jrs.is_confident(0x1000, 0)

    def test_misprediction_resets(self):
        jrs = JRSConfidenceEstimator(table_size=64, counter_bits=4)
        for _ in range(15):
            jrs.update(0x1000, 0, was_correct=True)
        jrs.update(0x1000, 0, was_correct=False)
        assert not jrs.is_confident(0x1000, 0)

    def test_history_contexts_are_separate(self):
        jrs = JRSConfidenceEstimator(
            table_size=64, history_bits=6, counter_bits=2
        )
        for _ in range(3):
            jrs.update(0x1000, 0b101010, was_correct=True)
        assert jrs.is_confident(0x1000, 0b101010)
        assert not jrs.is_confident(0x1000, 0b010101)

    def test_custom_threshold(self):
        jrs = JRSConfidenceEstimator(
            table_size=64, counter_bits=4, threshold=2
        )
        jrs.update(0x1000, 0, True)
        assert not jrs.is_confident(0x1000, 0)
        jrs.update(0x1000, 0, True)
        assert jrs.is_confident(0x1000, 0)

    def test_counter_saturates(self):
        jrs = JRSConfidenceEstimator(table_size=64, counter_bits=2)
        for _ in range(100):
            jrs.update(0x1000, 0, True)
        assert jrs._counters[(0x1000 >> 2) % 64] == 3

    def test_power_of_two_table(self):
        with pytest.raises(ValueError):
            JRSConfidenceEstimator(table_size=100)


class TestJRSPaperPreset:
    """The Table 2 instance: 1KB = 2048 x 4-bit MDCs, 12-bit history,
    full-saturation confidence threshold."""

    def test_paper_parameters(self):
        jrs = JRSConfidenceEstimator.paper()
        assert jrs.table_size == 2048
        assert jrs.history_bits == 12
        assert jrs.counter_max == 15          # 4-bit counters
        assert jrs.threshold == jrs.counter_max  # full saturation
        # 2048 counters x 4 bits = 1KB of state.
        assert jrs.table_size * 4 // 8 == 1024

    def test_paper_requires_full_saturation(self):
        jrs = JRSConfidenceEstimator.paper()
        for _ in range(14):
            jrs.update(0x1000, 0, was_correct=True)
        assert not jrs.is_confident(0x1000, 0)
        jrs.update(0x1000, 0, was_correct=True)
        assert jrs.is_confident(0x1000, 0)

    def test_paper_uses_twelve_history_bits(self):
        jrs = JRSConfidenceEstimator.paper()
        # History bit 10 lands inside both the 12-bit history mask and
        # the 2048-entry table index, so it selects a different counter;
        # bit 12 is masked off entirely, so that context aliases.
        for _ in range(15):
            jrs.update(0x1000, 0, was_correct=True)
        assert jrs.is_confident(0x1000, 1 << 12)
        assert not jrs.is_confident(0x1000, 1 << 10)

    def test_defaults_differ_from_paper(self):
        """The constructor defaults are deliberately NOT the Table 2
        instance (shorter history, sub-saturation threshold)."""
        default = JRSConfidenceEstimator()
        paper = JRSConfidenceEstimator.paper()
        assert default.table_size == paper.table_size == 2048
        assert default.history_bits == 4
        assert paper.history_bits == 12
        assert default.threshold == 12
        assert paper.threshold == 15

    def test_describe_mentions_parameters(self):
        text = JRSConfidenceEstimator.paper().describe()
        assert "2048" in text and "12" in text


class TestOracles:
    def test_perfect_tracks_oracle(self):
        est = PerfectConfidenceEstimator()
        est.set_oracle(prediction_will_be_correct=False)
        assert not est.is_confident(0x1000, 0)
        est.set_oracle(prediction_will_be_correct=True)
        assert est.is_confident(0x1000, 0)

    def test_always(self):
        est = AlwaysConfident()
        assert est.is_confident(0, 0)
        est.update(0, 0, False)
        assert est.is_confident(0, 0)

    def test_never(self):
        est = NeverConfident()
        assert not est.is_confident(0, 0)
        est.update(0, 0, True)
        assert not est.is_confident(0, 0)


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_estimator("jrs"), JRSConfidenceEstimator)
        assert isinstance(make_estimator("always"), AlwaysConfident)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_estimator("magic")
