"""Unit tests for MachineConfig."""

import pytest

from repro.uarch.config import MachineConfig


class TestMachineConfig:
    def test_table2_defaults(self):
        config = MachineConfig()
        assert config.fetch_width == 8
        assert config.max_branches_per_cycle == 3
        assert config.pipeline_depth == 30
        assert config.rob_size == 512
        assert config.predictor_kind == "perceptron"
        assert config.confidence_kind == "jrs"
        assert config.btb_entries == 4096
        assert config.ras_depth == 64
        assert config.memory_latency == 300

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(mode="warp")

    @pytest.mark.parametrize("overrides", [
        {"fetch_width": 0},
        {"rob_size": 0},
        {"retire_width": 0},
        {"max_branches_per_cycle": 0},
        {"store_buffer_size": 0},
        {"ras_depth": 0},
        {"btb_entries": 0},
        {"btb_entries": 4095},
        {"dpred_path_limit": 0},
        {"dpred_path_limit": -1},
        {"pipeline_depth": -5},
        {"memory_latency": -300},
        {"prefetch_lines": -1},
        {"early_exit_default_threshold": -1},
        {"max_nested_diverge": -1},
    ])
    def test_size_validation(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=name):
            MachineConfig(**overrides)

    def test_size_lower_bounds_accepted(self):
        bounds = dict(
            retire_width=1, max_branches_per_cycle=1, store_buffer_size=1,
            ras_depth=1, btb_entries=4, dpred_path_limit=1,
            pipeline_depth=0, memory_latency=0, prefetch_lines=0,
            early_exit_default_threshold=0, max_nested_diverge=0,
        )
        config = MachineConfig(**bounds)
        assert {name: getattr(config, name) for name in bounds} == bounds

    def test_dmp_factory_basic(self):
        config = MachineConfig.dmp()
        assert config.mode == "dmp"
        assert not config.multiple_cfm

    def test_dmp_factory_enhanced(self):
        config = MachineConfig.dmp(enhanced=True)
        assert config.multiple_cfm
        assert config.early_exit
        assert config.multiple_diverge

    def test_dhp_factory_disables_enhancements(self):
        config = MachineConfig.dhp()
        assert config.mode == "dhp"
        assert not config.multiple_cfm

    def test_replace(self):
        config = MachineConfig().replace(rob_size=128)
        assert config.rob_size == 128
        assert config.fetch_width == 8

    def test_is_predicating(self):
        assert MachineConfig.dmp().is_predicating
        assert MachineConfig.dhp().is_predicating
        assert MachineConfig.mpp().is_predicating
        assert not MachineConfig.baseline().is_predicating
        assert not MachineConfig.dualpath().is_predicating

    def test_mpp_factory(self):
        config = MachineConfig.mpp()
        assert config.mode == "mpp"
        # The learned-table geometry defaults (see
        # docs/merge_point_prediction.md).
        assert config.merge_table_entries == 128
        assert config.merge_max_candidates == 8
        assert config.merge_window_instructions == 120
        assert config.merge_min_instances == 16
        assert config.merge_min_fraction == 0.7
        assert (config.merge_conf_init, config.merge_conf_max) == (2, 7)
        assert config.merge_miss_penalty == 2

    @pytest.mark.parametrize("overrides", [
        {"merge_table_entries": 0},
        {"merge_max_candidates": 0},
        {"merge_window_instructions": -1},
        {"merge_min_instances": 0},
        {"merge_min_fraction": 0.0},
        {"merge_min_fraction": 1.5},
        {"merge_conf_init": 0},
        {"merge_conf_init": 5, "merge_conf_max": 4},
        {"merge_miss_penalty": -1},
    ])
    def test_merge_knob_validation(self, overrides):
        with pytest.raises(ValueError, match="merge"):
            MachineConfig.mpp(**overrides)

    def test_describe_mentions_enhancements(self):
        text = MachineConfig.dmp(enhanced=True).describe()
        assert "mcfm" in text and "eexit" in text and "mdb" in text

    def test_dualpath_uses_saturated_confidence(self):
        config = MachineConfig.dualpath()
        assert config.confidence_args.get("threshold", "missing") is None

