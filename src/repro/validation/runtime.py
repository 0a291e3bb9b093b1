"""Process-wide paranoid mode.

The CLI's ``--paranoid`` flag must harden *every* simulation a command
runs — including ones buried inside figure drivers that build their own
:class:`~repro.uarch.config.MachineConfig` objects.  Rather than thread
a flag through every driver signature, :func:`repro.core.processors
.simulate` consults this toggle and upgrades any config to
``oracle_checks=True, watchdog=True`` when it is set.

The toggle only ever *adds* checking; it never changes timing results.
Memo and disk-cache entries are keyed on the configuration that
actually runs (:meth:`repro.harness.experiment.BenchmarkContext
.sim_key` fingerprints the hardened config), so a paranoid run never
reuses a plain run's entry, nor a plain run a paranoid one's: over a
cache a plain run warmed, a paranoid run simulates every cell again,
under the oracle and the watchdog.
"""

from __future__ import annotations

import contextlib

_PARANOID = False


def set_paranoid(enabled: bool = True) -> bool:
    """Set the process-wide paranoid flag; returns the previous value."""
    global _PARANOID
    previous = _PARANOID
    _PARANOID = bool(enabled)
    return previous


def paranoid_enabled() -> bool:
    return _PARANOID


@contextlib.contextmanager
def paranoid(enabled: bool = True):
    """Context manager: paranoid mode inside the ``with`` block."""
    previous = set_paranoid(enabled)
    try:
        yield
    finally:
        set_paranoid(previous)
