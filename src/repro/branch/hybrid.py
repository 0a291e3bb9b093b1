"""Hybrid (tournament) predictor: gshare + bimodal with a chooser.

Used to reproduce the related-work comparison context (Klauser et al.
evaluated DHP with a hybrid gshare+bimodal predictor) and as an ablation
point between bimodal and perceptron.
"""

from __future__ import annotations

from repro.branch.base import (
    BranchPredictor,
    Prediction,
    saturating_decrement,
    saturating_increment,
)
from repro.branch.bimodal import BimodalPredictor
from repro.branch.gshare import GSharePredictor


class _HybridMeta:
    __slots__ = ("gshare_pred", "bimodal_pred", "choice_index")

    def __init__(self, gshare_pred, bimodal_pred, choice_index):
        self.gshare_pred = gshare_pred
        self.bimodal_pred = bimodal_pred
        self.choice_index = choice_index


class HybridPredictor(BranchPredictor):
    """McFarling-style tournament: a 2-bit chooser selects per branch."""

    def __init__(
        self,
        table_size: int = 4096,
        history_bits: int = 12,
    ) -> None:
        super().__init__(history_bits)
        self.gshare = GSharePredictor(table_size, history_bits)
        self.bimodal = BimodalPredictor(table_size, history_bits)
        self.table_size = table_size
        # 0..1 -> prefer bimodal, 2..3 -> prefer gshare
        self._choice = [2] * table_size

    def predict(self, pc: int) -> Prediction:
        g = self.gshare.predict(pc)
        b = self.bimodal.predict(pc)
        choice_index = (pc >> 2) & (self.table_size - 1)
        use_gshare = self._choice[choice_index] >= 2
        taken = g.taken if use_gshare else b.taken
        return Prediction(
            taken,
            pc,
            history=self.history.bits,
            meta=_HybridMeta(g, b, choice_index),
        )

    def spec_update(self, taken: bool) -> None:
        super().spec_update(taken)
        self.gshare.spec_update(taken)
        self.bimodal.spec_update(taken)

    def restore(self, snap: int) -> None:
        super().restore(snap)
        self.gshare.restore(snap)
        self.bimodal.restore(snap)

    def train(self, prediction: Prediction, actual: bool) -> None:
        meta: _HybridMeta = prediction.meta
        self.gshare.train(meta.gshare_pred, actual)
        self.bimodal.train(meta.bimodal_pred, actual)
        g_correct = meta.gshare_pred.taken == actual
        b_correct = meta.bimodal_pred.taken == actual
        if g_correct != b_correct:
            counter = self._choice[meta.choice_index]
            if g_correct:
                self._choice[meta.choice_index] = saturating_increment(
                    counter, 3
                )
            else:
                self._choice[meta.choice_index] = saturating_decrement(counter)
