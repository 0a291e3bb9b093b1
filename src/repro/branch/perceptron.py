"""Perceptron branch predictor (Jiménez & Lin, HPCA 2001).

The paper's baseline uses a 64KB perceptron predictor with 59-bit history
and 1021 entries (Table 2).  We implement the same algorithm with
configurable table size and history length; the default is scaled to the
synthetic workloads' working sets (and a paper-sized instance is a one-line
config change).
"""

from __future__ import annotations

from itertools import chain, compress
from operator import add
from typing import List

from repro.branch.base import BranchPredictor, Prediction

#: Per history byte value, its eight bits LSB first: as 0/1 selector
#: bytes (the dot product's ``compress``) and as ±1 weight steps
#: (training's per-weight increments).
_SELECT = tuple(bytes((b >> i) & 1 for i in range(8)) for b in range(256))
_STEP = tuple(tuple((b >> i) & 1 or -1 for i in range(8)) for b in range(256))
_select = _SELECT.__getitem__
_step = _STEP.__getitem__
_join = b"".join
_steps = chain.from_iterable


class PerceptronPredictor(BranchPredictor):
    """Table of perceptrons, dot-product of signed weights with history.

    Prediction is ``taken`` when the output (bias + Σ w_i · x_i, with
    x_i = +1 for a taken history bit and −1 otherwise) is non-negative.
    Training bumps weights toward the outcome whenever the prediction was
    wrong or the output magnitude is below the threshold
    θ = ⌊1.93·h + 14⌋.

    Both run at C level over byte-indexed tables.  Row ``i`` is
    ``[bias, w_1 … w_h]`` and ``_offsets[i]`` is ``bias − Σ w_1…h``, so
    the output is ``offset + 2·Σ_{set bits} w`` — one ``compress`` of
    the row by the history shifted past the bias.  Training builds a
    fresh clamped row rather than mutating one, which lets every
    untrained perceptron share a single zero row.
    """

    def __init__(
        self,
        num_perceptrons: int = 1021,
        history_bits: int = 31,
        weight_bits: int = 8,
    ) -> None:
        super().__init__(history_bits)
        self.num_perceptrons = num_perceptrons
        self.history_bits = history_bits
        self.theta = int(1.93 * history_bits + 14)
        mx = self._weight_max = (1 << (weight_bits - 1)) - 1
        mn = self._weight_min = -(1 << (weight_bits - 1))
        zero_row = [0] * (history_bits + 1)  # shared; train never mutates
        self._weights: List[List[int]] = [zero_row] * num_perceptrons
        self._offsets: List[int] = [0] * num_perceptrons
        # Bytes holding the bias slot plus h history bits.
        self._nbytes = (history_bits + 8) // 8
        self._flip = (1 << 8 * self._nbytes) - 1
        # One training step moves a weight to at most mx + 1 or mn − 1;
        # negative indexes wrap onto the tail, so this list clamps both.
        self._clamp = (
            [min(w, mx) for w in range(mx + 2)]
            + [max(w, mn) for w in range(mn - 1, 0)]
        ).__getitem__

    def predict(self, pc: int) -> Prediction:
        index = (pc >> 2) % self.num_perceptrons
        history = self.history.bits
        inputs = (history << 1).to_bytes(self._nbytes, "little")
        output = self._offsets[index] + 2 * sum(
            compress(self._weights[index], _join(map(_select, inputs)))
        )
        return Prediction(output >= 0, pc, index, history, output)

    def train(self, prediction: Prediction, actual: bool) -> None:
        if prediction.taken == actual and abs(prediction.output) > self.theta:
            return
        # Bit 0 is the bias's always-set input; a not-taken outcome
        # steps every weight the other way.
        inputs = (prediction.history << 1) | 1
        if not actual:
            inputs ^= self._flip
        weights = list(map(self._clamp, map(
            add,
            self._weights[prediction.index],
            _steps(map(_step, inputs.to_bytes(self._nbytes, "little"))),
        )))
        self._weights[prediction.index] = weights
        self._offsets[prediction.index] = 2 * weights[0] - sum(weights)
