"""Experiment runtime: wiring topologies, MAC layers, and algorithms.

:func:`~repro.runtime.runner.run_standard` runs a standard-model MMB
execution to quiescence and returns a :class:`~repro.runtime.results.RunResult`
with completion times, per-message latencies, broadcast counts, and the
instance log (for axiom certification).  FMMB has its own entry point in
:mod:`repro.core.fmmb` because it runs on the slotted-rounds substrate.

:mod:`~repro.runtime.observations` defines the typed observation stream
(:class:`Observation`/:class:`Probe`) every execution substrate emits
through; :mod:`~repro.runtime.journal` persists it as gzip-framed
journals, the one trace file format, and
:func:`~repro.runtime.observations.instance_log` rebuilds the MAC
instance log from its MAC-event subset.
"""

from repro.runtime.observations import OBSERVATION_KINDS, Observation, Probe
from repro.runtime.results import DeliveryLog, RunResult
from repro.runtime.runner import run_standard
from repro.runtime.validate import required_deliveries, solved

__all__ = [
    "DeliveryLog",
    "RunResult",
    "run_standard",
    "solved",
    "required_deliveries",
    "Observation",
    "Probe",
    "OBSERVATION_KINDS",
]
