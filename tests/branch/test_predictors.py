"""Unit tests for the direction predictors."""

import random

import pytest

from repro.branch import make_predictor
from repro.branch.base import GlobalHistory
from repro.branch.bimodal import BimodalPredictor
from repro.branch.gshare import GSharePredictor
from repro.branch.hybrid import HybridPredictor
from repro.branch.perceptron import PerceptronPredictor
from repro.branch.perfect import PerfectPredictor


def run_stream(predictor, outcomes, pc=0x1000):
    """Drive the full predict/spec_update/train/repair protocol over an
    outcome stream (history is repaired on mispredictions, as a front end
    does on a flush); return accuracy."""
    correct = 0
    for taken in outcomes:
        pred = predictor.predict(pc)
        predictor.spec_update(pred.taken)
        predictor.train(pred, taken)
        if pred.taken == taken:
            correct += 1
        else:
            predictor.repair(pred, taken)
    return correct / len(outcomes)


class TestGlobalHistory:
    """The speculative GHR as every predictor shifts and checkpoints it."""

    def test_shift(self):
        predictor = PerfectPredictor(history_bits=4)
        for taken in (True, False, True):
            predictor.spec_update(taken)
        assert predictor.history.bits == 0b101

    def test_width_mask(self):
        predictor = PerfectPredictor(history_bits=3)
        for _ in range(10):
            predictor.spec_update(True)
        assert predictor.history.bits == 0b111

    def test_snapshot_restore(self):
        predictor = PerfectPredictor(history_bits=8)
        predictor.spec_update(True)
        snap = predictor.snapshot()
        predictor.spec_update(False)
        predictor.restore(snap)
        assert predictor.history.bits == snap

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            GlobalHistory(0)


class TestBimodal:
    def test_learns_biased_branch(self):
        p = BimodalPredictor(table_size=64)
        accuracy = run_stream(p, [True] * 100)
        assert accuracy > 0.95

    def test_learns_never_taken(self):
        p = BimodalPredictor(table_size=64)
        accuracy = run_stream(p, [False] * 100)
        assert accuracy > 0.9

    def test_cannot_learn_alternating_well(self):
        # Bimodal has no history: strict alternation defeats it.
        p = BimodalPredictor(table_size=64)
        accuracy = run_stream(p, [i % 2 == 0 for i in range(200)])
        assert accuracy < 0.7

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalPredictor(table_size=100)


class TestGShare:
    def test_learns_alternating_pattern(self):
        p = GSharePredictor(table_size=1024, history_bits=8)
        accuracy = run_stream(p, [i % 2 == 0 for i in range(500)])
        assert accuracy > 0.9

    def test_learns_period_4_pattern(self):
        p = GSharePredictor(table_size=1024, history_bits=8)
        pattern = [True, True, False, False] * 200
        assert run_stream(p, pattern) > 0.9

    def test_random_stream_is_hard(self):
        rng = random.Random(42)
        p = GSharePredictor(table_size=1024, history_bits=8)
        accuracy = run_stream(p, [rng.random() < 0.5 for _ in range(1000)])
        assert accuracy < 0.65


class TestPerceptron:
    def test_learns_biased_branch(self):
        p = PerceptronPredictor(num_perceptrons=64, history_bits=16)
        assert run_stream(p, [True] * 200) > 0.95

    def test_learns_history_correlation(self):
        # Outcome = outcome three branches ago: linearly separable.
        p = PerceptronPredictor(num_perceptrons=64, history_bits=16)
        outcomes = [True, False, True]
        for i in range(3, 600):
            outcomes.append(outcomes[i - 3])
        assert run_stream(p, outcomes) > 0.9

    def test_theta_formula(self):
        p = PerceptronPredictor(history_bits=31)
        assert p.theta == int(1.93 * 31 + 14)

    def test_weights_saturate(self):
        p = PerceptronPredictor(
            num_perceptrons=4, history_bits=4, weight_bits=4
        )
        run_stream(p, [True] * 500)
        flat = [w for ws in p._weights for w in ws]
        assert max(flat) <= 7
        assert min(flat) >= -8

    def test_outperforms_gshare_on_long_correlation(self):
        # A period-24 pseudo-random pattern: a 30-bit-history perceptron
        # sees the full period, a 6-bit-history gshare cannot.
        rng = random.Random(1)
        outcomes = [rng.random() < 0.5 for _ in range(24)]
        for i in range(24, 2000):
            outcomes.append(outcomes[i - 24])
        perc = PerceptronPredictor(num_perceptrons=64, history_bits=30)
        gsh = GSharePredictor(table_size=256, history_bits=6)
        assert run_stream(perc, outcomes) > run_stream(gsh, outcomes) + 0.05


class TestHybrid:
    def test_learns_biased_branch(self):
        p = HybridPredictor(table_size=256, history_bits=8)
        assert run_stream(p, [True] * 200) > 0.9

    def test_chooser_picks_gshare_for_patterns(self):
        p = HybridPredictor(table_size=1024, history_bits=8)
        pattern = [i % 2 == 0 for i in range(600)]
        assert run_stream(p, pattern) > 0.85

    def test_history_restore_propagates(self):
        p = HybridPredictor(table_size=256, history_bits=8)
        p.spec_update(True)
        snap = p.snapshot()
        p.spec_update(False)
        p.restore(snap)
        assert p.history.bits == snap
        assert p.gshare.history.bits == snap
        assert p.bimodal.history.bits == snap


class TestPerfect:
    def test_oracle_followed(self):
        p = PerfectPredictor()
        p.set_oracle(True)
        assert p.predict(0x1000).taken is True
        p.set_oracle(False)
        assert p.predict(0x1000).taken is False

    def test_without_oracle_predicts_not_taken(self):
        p = PerfectPredictor()
        assert p.predict(0x1000).taken is False


class TestFactory:
    def test_known_kinds(self):
        for kind in ("perceptron", "gshare", "bimodal", "hybrid", "perfect"):
            assert make_predictor(kind) is not None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_predictor("tage")
