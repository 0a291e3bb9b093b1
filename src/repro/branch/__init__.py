"""Branch-prediction substrate.

The paper's baseline front end uses a 64KB perceptron predictor
(Jiménez & Lin), a 4K-entry BTB, a 64-entry return address stack and an
indirect target cache (Table 2).  All but the last are implemented here —
the mini-ISA's only indirect transfer is RET, which the return address
stack predicts — plus the simpler bimodal/gshare/hybrid predictors used
for ablations and a perfect predictor for the ``perfect-cbp`` series of
Figure 7.

Every direction predictor shares the :class:`~repro.branch.base.BranchPredictor`
interface: ``predict`` returns a :class:`~repro.branch.base.Prediction`
capturing the state used to predict (so training at retirement uses the
history the prediction saw, as real designs do), ``spec_update`` shifts the
speculative global history at fetch, ``train`` updates the tables at
retirement, and ``snapshot``/``restore`` provide the history checkpointing
DMP relies on (Section 2.3).
"""

from repro.branch.base import BranchPredictor, GlobalHistory, Prediction
from repro.branch.bimodal import BimodalPredictor
from repro.branch.gshare import GSharePredictor
from repro.branch.hybrid import HybridPredictor
from repro.branch.perceptron import PerceptronPredictor
from repro.branch.perfect import PerfectPredictor
from repro.branch.btb import BranchTargetBuffer
from repro.branch.ras import ReturnAddressStack

__all__ = [
    "BranchPredictor",
    "GlobalHistory",
    "Prediction",
    "BimodalPredictor",
    "GSharePredictor",
    "HybridPredictor",
    "PerceptronPredictor",
    "PerfectPredictor",
    "BranchTargetBuffer",
    "ReturnAddressStack",
]


def make_predictor(kind: str, **kwargs) -> BranchPredictor:
    """Factory used by machine configs: ``perceptron``, ``gshare``,
    ``bimodal``, ``hybrid`` or ``perfect``."""
    predictors = {
        "perceptron": PerceptronPredictor,
        "gshare": GSharePredictor,
        "bimodal": BimodalPredictor,
        "hybrid": HybridPredictor,
        "perfect": PerfectPredictor,
    }
    if kind not in predictors:
        raise ValueError(f"unknown predictor kind {kind!r}")
    return predictors[kind](**kwargs)
