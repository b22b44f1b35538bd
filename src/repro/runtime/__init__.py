"""Experiment runtime: wiring topologies, MAC layers, and algorithms.

:func:`~repro.runtime.runner.run_standard` runs a standard-model MMB
execution to quiescence and returns a :class:`~repro.runtime.results.RunResult`
with the MMB verdict, per-message latencies, the MAC layer's delivery
record, broadcast counts, and the instance log (for axiom certification).
FMMB has its own entry point in :mod:`repro.core.fmmb` because it runs on
the slotted-rounds substrate.

:func:`~repro.runtime.validate.mmb_outcome` is the one MMB verdict: every
substrate judges its runs with it, among survivors when given the fault
engine.

:mod:`~repro.runtime.observations` defines the typed observation stream
(:class:`Observation`/:class:`Probe`) every execution substrate emits
through; :mod:`~repro.runtime.journal` persists it as gzip-framed
journals, the one trace file format, and
:func:`~repro.runtime.observations.instance_log` rebuilds the MAC
instance log from its MAC-event subset.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.runtime.observations": (
        "OBSERVATION_KINDS",
        "Observation",
        "Probe",
    ),
    "repro.runtime.results": ("RunResult",),
    "repro.runtime.runner": ("run_standard",),
    "repro.runtime.validate": (
        "MMBOutcome",
        "mmb_outcome",
        "required_deliveries",
    ),
}

__all__ = [
    "MMBOutcome",
    "RunResult",
    "run_standard",
    "mmb_outcome",
    "required_deliveries",
    "Observation",
    "Probe",
    "OBSERVATION_KINDS",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
