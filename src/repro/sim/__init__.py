"""Discrete-event simulation kernel.

This subpackage is the substrate on which the abstract MAC layer and all
algorithms run.  It provides:

* :class:`~repro.sim.kernel.Simulator` — a heap-based event loop with
  deterministic tie-breaking for same-timestamp events (FIFO in scheduling
  order), cancellable events, and an event budget guard.
* :class:`~repro.sim.events.EventHandle` — a cancellation token.
* :class:`~repro.sim.rng.RandomSource` — hierarchical seeded randomness so
  every component (scheduler, each node, each subroutine) draws from an
  independent, reproducible stream.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.sim.events": ("EventHandle", "ScheduledEvent"),
    "repro.sim.kernel": ("Simulator",),
    "repro.sim.rng": ("RandomSource",),
}

__all__ = ["EventHandle", "ScheduledEvent", "Simulator", "RandomSource"]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
