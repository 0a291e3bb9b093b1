"""Unit tests for the register alias table: the paper's Figure 5 walk-through."""

from repro.uarch.rat import RegisterAliasTable


def modified(rat):
    """Architectural registers whose M bit is set."""
    return [arch for arch, bit in enumerate(rat.checkpoint().modified) if bit]


class TestRenaming:
    def test_initial_identity_mapping(self):
        rat = RegisterAliasTable(num_regs=8)
        assert [rat.lookup(i) for i in range(8)] == list(range(8))

    def test_rename_allocates_fresh_tags(self):
        rat = RegisterAliasTable(num_regs=8)
        t1 = rat.rename_dest(1)
        t2 = rat.rename_dest(1)
        assert t1 != t2
        assert rat.lookup(1) == t2

    def test_rename_sets_m_bit(self):
        rat = RegisterAliasTable(num_regs=8)
        rat.clear_modified()
        rat.rename_dest(3)
        assert modified(rat) == [3]


class TestCheckpoints:
    def test_restore_returns_old_mapping(self):
        rat = RegisterAliasTable(num_regs=8)
        rat.rename_dest(1)
        cp = rat.checkpoint()
        old = rat.lookup(1)
        rat.rename_dest(1)
        rat.restore(cp)
        assert rat.lookup(1) == old

    def test_restore_returns_m_bits(self):
        rat = RegisterAliasTable(num_regs=8)
        rat.clear_modified()
        cp = rat.checkpoint()
        rat.rename_dest(2)
        rat.restore(cp)
        assert modified(rat) == []


class TestFigure5WalkThrough:
    """Reproduce the paper's REGMAP1..REGMAP4 example exactly.

    Predicted path (blocks B, E) writes R1 and R3; alternate path (block
    C) writes R1.  Two select-uops result: R1 (written on both paths) and
    R3 (written only on the predicted path).
    """

    def test_example(self):
        rat = RegisterAliasTable(num_regs=5)  # R0..R4
        # REGMAP1 / CP1: taken before renaming block B.
        rat.clear_modified()
        cp1 = rat.checkpoint()
        pr13 = rat.lookup(3)
        # Predicted path: B writes R1, E writes R3.
        pr21 = rat.rename_dest(1)
        pr23 = rat.rename_dest(3)
        cp2 = rat.checkpoint()  # REGMAP2
        # Alternate path starts from CP1.
        rat.restore(cp1)
        assert rat.lookup(3) == pr13  # C sources the pre-branch R3
        pr31 = rat.rename_dest(1)     # REGMAP3
        # Select-uop insertion.
        selects = rat.compute_selects(cp2)
        merged = {s.arch: (s.pred_tag, s.alt_tag) for s in selects}
        assert set(merged) == {1, 3}
        assert merged[1] == (pr21, pr31)
        assert merged[3] == (pr23, pr13)
        installed = rat.apply_selects(selects)
        # REGMAP4: R1 and R3 now map to fresh select destinations.
        assert rat.lookup(1) == installed[1]
        assert rat.lookup(3) == installed[3]
        assert rat.lookup(2) == cp1.phys(2)  # untouched registers keep CP1
        assert modified(rat) == []

    def test_register_written_identically_needs_no_select(self):
        rat = RegisterAliasTable(num_regs=4)
        rat.clear_modified()
        cp1 = rat.checkpoint()
        rat.rename_dest(1)
        cp2 = rat.checkpoint()
        rat.restore(cp1)
        # Alternate path writes nothing: R1 still differs (predicted wrote it).
        selects = rat.compute_selects(cp2)
        assert [s.arch for s in selects] == [1]
        # But a register untouched by both paths yields nothing.
        assert all(s.arch != 2 for s in selects)

    def test_no_selects_when_paths_write_nothing(self):
        rat = RegisterAliasTable(num_regs=4)
        rat.clear_modified()
        cp1 = rat.checkpoint()
        cp2 = rat.checkpoint()
        rat.restore(cp1)
        assert rat.compute_selects(cp2) == []
