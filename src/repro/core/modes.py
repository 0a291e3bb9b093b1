"""Dynamic-predication mode outcomes: the six exit cases of Table 1.

========  ==============  ==============  ============  =========================
case      predicted path  alternate path  prediction    processor action
========  ==============  ==============  ============  =========================
1         reached CFM     reached CFM     correct       normal exit (overhead)
2         reached CFM     reached CFM     mispredicted  normal exit (flush saved)
3         reached CFM     no reach        correct       re-direct fetch to CFM
4         reached CFM     no reach        mispredicted  no special action
5         no reach        —               correct       no special action
6         no reach        —               mispredicted  flush the pipeline
========  ==============  ==============  ============  =========================
"""

from __future__ import annotations

import enum


class PathOutcome(enum.Enum):
    """How fetching one dynamically predicated path ended."""

    REACHED_CFM = "cfm"            # next fetch address hit a CFM point
    RESOLVED = "resolution"        # the diverge branch resolved first
    LIMIT = "limit"                # instruction budget exceeded (early exit)
    EXHAUSTED = "exhausted"        # the walk fell off the program
    NEW_DIVERGE = "new-diverge"    # another low-confidence diverge branch
    #: The path suffered a nested-branch misprediction flush that aborts
    #: dynamic predication (only possible for on-trace paths).
    NESTED_FLUSH = "nested-flush"


class ExitCase(enum.IntEnum):
    """Table 1's exit cases."""

    NORMAL_CORRECT = 1
    NORMAL_MISPREDICTED = 2
    REDIRECT_TO_CFM = 3
    CONTINUE_ALTERNATE = 4
    CONTINUE_PREDICTED = 5
    FLUSH = 6

