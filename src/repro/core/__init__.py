"""The diverge-merge processor core (the paper's contribution).

* :mod:`repro.core.modes` — the dynamic-predication exit cases (Table 1)
  and path outcomes;
* :mod:`repro.core.cfm` — the CFM-point CAM (basic single-entry and the
  Section 2.7.1 multiple-CFM variant);
* :mod:`repro.core.dpred` — the dynamic-predication engine: a timing
  simulator subclass implementing the Section 2.3–2.7 fetch/rename state
  machine for both DMP and DHP;
* :mod:`repro.core.mergepoint` — the dynamic merge-point predictor
  behind the hint-free ``"mpp"`` mode (learned CFM points);
* :mod:`repro.core.processors` — :func:`simulate`, which runs one
  trace through one machine configuration.
"""

from repro.core.modes import ExitCase, PathOutcome
from repro.core.cfm import CfmCam
from repro.core.dpred import PredicationAwareSimulator
from repro.core.mergepoint import LearnedHintTable, MergePointPredictor
from repro.core.processors import simulate

__all__ = [
    "ExitCase",
    "PathOutcome",
    "CfmCam",
    "LearnedHintTable",
    "MergePointPredictor",
    "PredicationAwareSimulator",
    "simulate",
]
