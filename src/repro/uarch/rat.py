"""Register alias table with checkpoints and M (modified) bits.

Implements the renaming state machine of Section 2.4 and Figure 5:

* physical registers are monotonically increasing tags allocated on every
  register write;
* a *checkpoint* captures the full arch→phys mapping (plus the M bits),
  exactly like the RAT checkpoints real processors take at branches;
* the per-entry **M bit** is set whenever an entry is renamed during
  dynamic-predication mode; select-uop insertion ORs the M bits of the two
  path-end RATs and emits one select-uop per set bit whose mappings differ.

The companion *scoreboard* (phys tag → completion cycle) lives in the
timing model; this class is purely the mapping structure so it can be unit
tested against the paper's REGMAP1–REGMAP4 walk-through.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.registers import NUM_ARCH_REGS


class RatCheckpoint:
    """An immutable snapshot of the RAT (mapping + M bits)."""

    __slots__ = ("mapping", "modified")

    def __init__(self, mapping: Tuple[int, ...], modified: Tuple[bool, ...]):
        self.mapping = mapping
        self.modified = modified

    def phys(self, arch: int) -> int:
        return self.mapping[arch]


class SelectRequest:
    """One required select-uop: merge two phys regs into ``arch``."""

    __slots__ = ("arch", "pred_tag", "alt_tag")

    def __init__(self, arch: int, pred_tag: int, alt_tag: int) -> None:
        self.arch = arch
        self.pred_tag = pred_tag
        self.alt_tag = alt_tag

    def __repr__(self) -> str:
        return f"<select r{self.arch}: t{self.pred_tag}/t{self.alt_tag}>"


class RegisterAliasTable:
    def __init__(self, num_regs: int = NUM_ARCH_REGS) -> None:
        self.num_regs = num_regs
        self._next_tag = num_regs  # tags 0..n-1 are the initial mappings
        self._mapping: List[int] = list(range(num_regs))
        self._modified: List[bool] = [False] * num_regs

    # -- renaming ------------------------------------------------------------

    def lookup(self, arch: int) -> int:
        """Current physical register for an architectural register."""
        return self._mapping[arch]

    def rename_dest(self, arch: int) -> int:
        """Allocate a fresh physical register for a write to ``arch`` and
        set its M bit.  Returns the new tag."""
        tag = self._next_tag
        self._next_tag += 1
        self._mapping[arch] = tag
        self._modified[arch] = True
        return tag

    def allocate_tag(self) -> int:
        """Allocate a tag without binding it (select-uop destinations are
        bound by :meth:`apply_selects`)."""
        tag = self._next_tag
        self._next_tag += 1
        return tag

    # -- M bits ----------------------------------------------------------------

    def clear_modified(self) -> None:
        """Clear all M bits (done on entering dynamic-predication mode)."""
        self._modified = [False] * self.num_regs

    # -- checkpoints ------------------------------------------------------------

    def checkpoint(self) -> RatCheckpoint:
        return RatCheckpoint(tuple(self._mapping), tuple(self._modified))

    def restore(self, cp: RatCheckpoint) -> None:
        self._mapping = list(cp.mapping)
        self._modified = list(cp.modified)

    # -- select-uop insertion ------------------------------------------------

    def compute_selects(self, predicted_end: RatCheckpoint) -> List[SelectRequest]:
        """Select-uops needed to merge the predicted path's final RAT
        (``predicted_end``, the paper's CP2/REGMAP2) with the *active* RAT
        (end of the alternate path, REGMAP3).

        Per Section 2.4: OR the M bits of the two tables; every set bit
        whose physical mappings differ yields one select-uop.
        """
        selects = []
        modified = self._modified
        pred_mapping = predicted_end.mapping
        pred_modified = predicted_end.modified
        for arch, alt_tag in enumerate(self._mapping):
            if modified[arch] or pred_modified[arch]:
                pred_tag = pred_mapping[arch]
                if pred_tag != alt_tag:
                    selects.append(SelectRequest(arch, pred_tag, alt_tag))
        return selects

    def apply_selects(self, selects: List[SelectRequest]) -> Dict[int, int]:
        """Allocate and install destination tags for select-uops, producing
        the merged RAT (REGMAP4).  Returns ``{arch: new_tag}``.  Also
        clears the M bits, as the paper does after creating the uops."""
        installed = {}
        for request in selects:
            tag = self.allocate_tag()
            self._mapping[request.arch] = tag
            installed[request.arch] = tag
        self.clear_modified()
        return installed
