"""Canonical fingerprinting: the cache/memo keys must be total over the
object's data, independent of dict insertion order, and follow the
package's source code."""

import dataclasses
import importlib
import shutil

import pytest

from repro.harness.fingerprint import (
    canonicalize,
    config_fingerprint,
    context_fingerprint,
    fingerprint,
    source_digest,
)
from repro.profiling.diverge_selection import SelectionThresholds
from repro.uarch.config import MachineConfig


class TestCanonicalize:
    def test_dict_order_independent(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert canonicalize(a) == canonicalize(b)
        assert fingerprint(a) == fingerprint(b)

    def test_type_distinctions(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(1) != fingerprint(True)
        assert fingerprint("1") != fingerprint(1)

    def test_nested_structures(self):
        a = {"outer": {"b": 2, "a": 1}, "seq": [1, 2, (3, 4)]}
        b = {"seq": [1, 2, (3, 4)], "outer": {"a": 1, "b": 2}}
        assert fingerprint(a) == fingerprint(b)

    def test_rejects_arbitrary_objects(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            canonicalize(Opaque())


class TestConfigFingerprint:
    def test_repr_order_bug_regression(self):
        """Two equal configs whose dict fields differ only in insertion
        order used to get distinct ``repr``-based memo keys (wasted
        runs); the canonical fingerprint must unify them."""
        a = MachineConfig.baseline(
            confidence_args={"table_size": 2048, "threshold": 12}
        )
        b = MachineConfig.baseline(
            confidence_args={"threshold": 12, "table_size": 2048}
        )
        assert a == b
        assert repr(a) != repr(b)  # the old, broken key
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_every_field_participates(self):
        """No field can be omitted from the key (a ``repr`` omission
        would collide two different configs onto the same cached
        stats): flipping any field changes the fingerprint."""
        base = MachineConfig.baseline()
        seen = {config_fingerprint(base)}
        for field in dataclasses.fields(MachineConfig):
            value = getattr(base, field.name)
            if isinstance(value, bool):
                changed = not value
            elif field.name == "btb_entries":
                changed = value * 2  # must stay a multiple of the ways
            elif isinstance(value, int):
                changed = value + 1
            elif isinstance(value, str):
                candidates = {
                    "mode": "dmp",
                    "engine": "reference",
                    "predictor_kind": "gshare",
                    "confidence_kind": "perfect",
                    "dpred_ghr_policy": "alternate",
                    "multiple_diverge_policy": "nested",
                }
                changed = candidates[field.name]
            elif isinstance(value, dict):
                changed = {"marker": 1}
            elif value is None:
                changed = 123456
            else:  # pragma: no cover - no other field types today
                continue
            fp = config_fingerprint(
                dataclasses.replace(base, **{field.name: changed})
            )
            assert fp not in seen, f"field {field.name} not in fingerprint"
            seen.add(fp)

    def test_distinct_configs_distinct_keys(self):
        assert config_fingerprint(MachineConfig.dmp()) != config_fingerprint(
            MachineConfig.dhp()
        )


class TestContextFingerprint:
    def test_sensitive_to_every_parameter(self):
        base = context_fingerprint("parser", 100, 0, SelectionThresholds())
        assert base != context_fingerprint(
            "gzip", 100, 0, SelectionThresholds()
        )
        assert base != context_fingerprint(
            "parser", 200, 0, SelectionThresholds()
        )
        assert base != context_fingerprint(
            "parser", 100, 1, SelectionThresholds()
        )
        assert base != context_fingerprint(
            "parser", 100, 0, SelectionThresholds(min_misprediction_rate=0.5)
        )

    def test_stable_across_calls(self):
        assert context_fingerprint(
            "parser", 100, 0, SelectionThresholds()
        ) == context_fingerprint("parser", 100, 0, SelectionThresholds())


class TestCodeDigest:
    """A cache warmed by other code must not serve its stats: the
    package's source digest is folded into every fingerprint."""

    module = importlib.import_module("repro.harness.fingerprint")

    def test_editing_one_file_changes_the_digest(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(
            self.module._PACKAGE_ROOT, tree,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        before = source_digest(str(tree))
        # Content-addressed: the copy hashes like the live package.
        assert before == self.module.code_digest()
        model = tree / "uarch" / "timing.py"
        model.write_bytes(model.read_bytes().swapcase())  # same length
        assert source_digest(str(tree)) != before

    @pytest.mark.parametrize("name", ["lane.c", "lane.h"])
    def test_editing_c_source_changes_the_digest(self, tmp_path, name):
        """The compiled lane's C source decides stats as much as the
        Python does, so an edit to it must move the digest too."""
        tree = tmp_path / "repro"
        shutil.copytree(
            self.module._PACKAGE_ROOT, tree,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        source = tree / "uarch" / name
        source.write_bytes(b"/* one */\n")
        before = source_digest(str(tree))
        source.write_bytes(b"/* two */\n")
        assert source_digest(str(tree)) != before

    def test_config_fingerprint_follows_the_digest(self, monkeypatch):
        config = MachineConfig.dmp()
        monkeypatch.setattr(self.module, "code_digest", lambda: "a" * 64)
        first = config_fingerprint(config)
        monkeypatch.setattr(self.module, "code_digest", lambda: "b" * 64)
        assert config_fingerprint(config) != first
