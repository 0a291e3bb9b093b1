"""Common interface for direction predictors and the global history register."""

from __future__ import annotations

import abc
from typing import Optional


class GlobalHistory:
    """A fixed-width global branch history register (GHR).

    Stored as an integer bit-vector, newest outcome in bit 0.  The owning
    :class:`BranchPredictor` shifts it and takes and restores the
    checkpoints DMP uses: the GHR is checkpointed before entering
    dynamic-predication mode and variants of it are installed on the
    predicted and alternate paths (the last bit set for the taken path,
    cleared for the not-taken path — Section 2.3, footnote 6).
    """

    __slots__ = ("bits", "width", "_mask")

    def __init__(self, width: int, bits: int = 0) -> None:
        if width <= 0:
            raise ValueError("history width must be positive")
        self.width = width
        self._mask = (1 << width) - 1
        self.bits = bits & self._mask

    def restore(self, bits: int) -> None:
        self.bits = bits & self._mask

    def __repr__(self) -> str:
        return f"GlobalHistory({self.bits:0{self.width}b})"


class Prediction:
    """The result of one direction prediction.

    Carries the predictor-private context (table index, history bits, raw
    output) needed to train at retirement with the state the prediction
    actually used.
    """

    __slots__ = ("taken", "pc", "index", "history", "output", "meta")

    def __init__(
        self,
        taken: bool,
        pc: int,
        index: int = 0,
        history: int = 0,
        output: int = 0,
        meta: Optional[object] = None,
    ) -> None:
        self.taken = taken
        self.pc = pc
        self.index = index
        self.history = history
        self.output = output
        self.meta = meta

    def __repr__(self) -> str:
        return f"Prediction({'T' if self.taken else 'NT'} @{self.pc:#x})"


class BranchPredictor(abc.ABC):
    """Abstract direction predictor.

    Protocol (mirrors how the timing model drives it):

    1. ``predict(pc)`` at fetch — returns a :class:`Prediction`;
    2. ``spec_update(taken)`` immediately after, shifting the speculative
       GHR with the *predicted* direction;
    3. ``train(prediction, actual)`` at retirement — updates the pattern
       tables (the paper trains at retire so wrong-path branches never
       pollute them);
    4. ``snapshot()`` / ``restore(snap)`` around flushes and dpred mode.
    """

    def __init__(self, history_bits: int) -> None:
        self.history = GlobalHistory(history_bits)

    @abc.abstractmethod
    def predict(self, pc: int) -> Prediction:
        """Predict the direction of the conditional branch at ``pc``."""

    @abc.abstractmethod
    def train(self, prediction: Prediction, actual: bool) -> None:
        """Update tables at retirement."""

    def spec_update(self, taken: bool) -> None:
        """Shift the predicted direction into the speculative history."""
        history = self.history
        history.bits = ((history.bits << 1) | taken) & history._mask

    def snapshot(self) -> int:
        return self.history.bits

    def restore(self, snap: int) -> None:
        self.history.restore(snap)

    def repair(self, prediction: Prediction, actual: bool) -> None:
        """Fix the speculative history after a misprediction flush: restore
        the history the branch predicted with and shift in the real outcome
        (what a front end does during misprediction recovery)."""
        self.restore(prediction.history)
        self.spec_update(actual)


def saturating_increment(value: int, maximum: int) -> int:
    return value + 1 if value < maximum else value


def saturating_decrement(value: int, minimum: int = 0) -> int:
    return value - 1 if value > minimum else value
