"""Perfect conditional-branch predictor (the ``perfect-cbp`` series).

The timing model tells the predictor the actual outcome just before asking
for the prediction (an oracle channel that only this class uses).
"""

from __future__ import annotations

from repro.branch.base import BranchPredictor, Prediction


class PerfectPredictor(BranchPredictor):
    """Always predicts the actual outcome.

    The driver must call :meth:`set_oracle` with the branch's true direction
    before each :meth:`predict`; this mirrors how execution-driven
    simulators implement perfect prediction.
    """

    def __init__(self, history_bits: int = 16) -> None:
        super().__init__(history_bits)
        self._oracle_outcome = None

    def set_oracle(self, taken: bool) -> None:
        self._oracle_outcome = taken

    def predict(self, pc: int) -> Prediction:
        if self._oracle_outcome is None:
            # Off the correct path there is no oracle; fall back to
            # not-taken (this only happens inside wrong-path walks, which a
            # perfect predictor never extends anyway).
            return Prediction(False, pc)
        taken = self._oracle_outcome
        self._oracle_outcome = None
        return Prediction(taken, pc)

    def train(self, prediction: Prediction, actual: bool) -> None:
        return  # nothing to learn
