"""Unit tests for the CFM CAM."""

import pytest

from repro.core.cfm import CfmCam


class TestCfmCam:
    def test_single_entry(self):
        cam = CfmCam((0x2000,))
        assert cam.matches(0x2000)
        assert not cam.matches(0x2004)

    def test_multiple_entries(self):
        cam = CfmCam((0x2000, 0x3000))
        assert cam.matches(0x2000)
        assert cam.matches(0x3000)

    def test_lock_restricts_to_first_seen(self):
        cam = CfmCam((0x2000, 0x3000))
        cam.lock(0x3000)
        assert cam.matches(0x3000)
        assert not cam.matches(0x2000)
        assert cam.entries == (0x3000,)

    def test_lock_requires_live_entry(self):
        cam = CfmCam((0x2000,))
        with pytest.raises(ValueError):
            cam.lock(0x9999)

    def test_capacity_drops_extras(self):
        cam = CfmCam(range(100), capacity=4)
        assert len(cam.entries) == 4
        assert cam.matches(3)
        assert not cam.matches(99)

    def test_duplicates_cost_one_slot(self):
        # Regression: the CAM deduplicates BEFORE truncating, so a
        # candidate repeated by a sloppy (or learned) hint occupies one
        # slot instead of pushing a distinct candidate off the edge.
        cam = CfmCam((0x2000, 0x2000, 0x2000, 0x3000), capacity=2)
        assert cam.entries == (0x2000, 0x3000)
        assert cam.matches(0x3000)

    def test_duplicates_keep_first_seen_order(self):
        cam = CfmCam((0x3000, 0x2000, 0x3000), capacity=8)
        assert cam.entries == (0x3000, 0x2000)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CfmCam(())

    def test_errors_are_structured(self):
        # CfmError slots into the ReproError hierarchy while remaining a
        # ValueError for the raw raises it replaced.
        from repro.errors import CfmError, ReproError, SimulationError

        assert issubclass(CfmError, ReproError)
        assert issubclass(CfmError, SimulationError)
        assert issubclass(CfmError, ValueError)
        with pytest.raises(CfmError):
            CfmCam(())
        cam = CfmCam((0x2000,))
        with pytest.raises(CfmError):
            cam.lock(0x9999)
