"""The CFM-point register/CAM.

The basic diverge-merge processor stores a single CFM point in the "CFM
register"; the enhanced mechanism (Section 2.7.1) stores all the compiler's
candidate CFM points in a small content-addressable memory and compares the
next fetch address against all of them.  The *first* CFM point seen on the
predicted path then becomes the only CFM point that can end the alternate
path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.errors import CfmError


class CfmCam:
    def __init__(self, cfm_pcs: Iterable[int], capacity: int = 8) -> None:
        pcs = tuple(cfm_pcs)
        if not pcs:
            raise CfmError("need at least one CFM point")
        #: Hardware CAMs are small; extra candidates are dropped (most
        #: frequent first, so the useful ones survive).  Deduplicate
        #: BEFORE truncating: a duplicated compiler/learned hint must
        #: cost one CAM slot, not evict a distinct candidate.
        deduped = tuple(dict.fromkeys(pcs))
        self._pcs: Tuple[int, ...] = deduped[:capacity]
        self._locked: Optional[int] = None

    @property
    def entries(self) -> Tuple[int, ...]:
        return self._pcs if self._locked is None else (self._locked,)

    def matches(self, pc: int) -> bool:
        """Does the next fetch address hit a live CFM point?"""
        if self._locked is not None:
            return pc == self._locked
        return pc in self._pcs

    def lock(self, pc: int) -> None:
        """The predicted path ended at ``pc``: it becomes the only CFM
        point that can end the alternate path."""
        if not self.matches(pc):
            raise CfmError(f"{pc:#x} is not a live CFM point")
        self._locked = pc
