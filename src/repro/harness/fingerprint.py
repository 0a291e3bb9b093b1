"""Canonical fingerprints for experiment keying.

Both the in-memory simulation memo (:meth:`BenchmarkContext.simulate`)
and the on-disk artifact cache (:mod:`repro.harness.cache`) need a key
that identifies "the same experiment".  ``repr()`` is not that key:

* dict-valued fields (``predictor_args``/``confidence_args``) render in
  insertion order, so two equal configs can produce different reprs
  (wasted runs), and
* a field accidentally omitted from a future ``__repr__`` would make
  two *different* configs collide onto the same key — silently
  returning the wrong cached stats.

The canonicalizer here walks every dataclass field via
``dataclasses.fields`` (nothing can be omitted), sorts dict/set members,
and hashes the result, so the fingerprint is total over the object's
data and independent of insertion order.  :func:`code_digest` — a hash
of the ``repro`` package's own source — is folded into every digest, so
any change to the code that produced a cached artifact invalidates it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
from typing import Any, Optional

from repro.uarch.config import MachineConfig

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: Source files that decide results: the Python modules and the
#: compiled lane's C source (:mod:`repro.uarch.lane`).
_SOURCE_SUFFIXES = (".py", ".c", ".h")


def source_digest(root: str) -> str:
    """Hex SHA-256 over every ``.py``, ``.c`` and ``.h`` file under
    ``root``: the sorted relative paths, each followed by its file's
    bytes."""
    rels = []
    for dirpath, _dirs, files in os.walk(root):
        rels.extend(
            os.path.relpath(os.path.join(dirpath, name), root)
            for name in files if name.endswith(_SOURCE_SUFFIXES)
        )
    h = hashlib.sha256()
    for rel in sorted(rel.replace(os.sep, "/") for rel in rels):
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """:func:`source_digest` of the ``repro`` package, computed once
    per process on first use (not at import)."""
    return source_digest(_PACKAGE_ROOT)


def canonicalize(obj: Any) -> Any:
    """A deterministic, order-independent structure for ``obj``.

    Supports primitives, bytes, sequences, dicts/sets (sorted), and
    dataclasses (every field, sorted by name).  Raises ``TypeError`` on
    anything else rather than guessing — an unfingerprintable object in
    a cache key is a correctness bug, not an inconvenience.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = sorted(f.name for f in dataclasses.fields(obj))
        return (
            "dataclass",
            type(obj).__qualname__,
            tuple((name, canonicalize(getattr(obj, name))) for name in names),
        )
    if isinstance(obj, dict):
        items = sorted(
            (repr(canonicalize(k)), canonicalize(v)) for k, v in obj.items()
        )
        return ("dict", tuple(items))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(canonicalize(v) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(canonicalize(v)) for v in obj)))
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        # Include the type name: 1 vs 1.0 vs True must not collide.
        return ("lit", type(obj).__name__, obj)
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!s} for fingerprinting"
    )


def fingerprint(obj: Any) -> str:
    """Hex SHA-256 of the canonical form of ``obj``."""
    payload = repr((code_digest(), canonicalize(obj)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_fingerprint(config: MachineConfig) -> str:
    """Canonical key for one machine configuration."""
    return fingerprint(config)


def context_fingerprint(
    name: str, iterations: Optional[int], seed: int, thresholds: Any
) -> str:
    """Canonical key for one benchmark context's machine-independent
    artifacts: ``(benchmark, iterations, seed, selection thresholds)``."""
    return fingerprint(("context", name, iterations, seed, thresholds))


def workload_fingerprint(spec: Any) -> str:
    """Canonical key for one workload *specification* (a
    :class:`~repro.workloads.generator.WorkloadSpec` or a
    :class:`~repro.fuzz.generator.FuzzSpec`).

    The canonicalizer walks every dataclass field — the generation
    ``seed`` included — so two specs that differ only in seed (or in any
    gadget knob) can never alias one cached artifact.  This is the
    determinism-audit contract for generated programs: everything the
    builder's ``random.Random`` streams descend from is in the key
    (tests/fuzz/test_determinism.py)."""
    return fingerprint(("workload", spec))
