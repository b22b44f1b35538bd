"""The paper's algorithms: BMMB, FMMB, and comparison baselines.

* :mod:`~repro.core.bmmb` — Basic Multi-Message Broadcast (§3.2.2): the
  FIFO flooding protocol whose analysis occupies §3 of the paper.
* :mod:`~repro.core.fmmb` — Fast Multi-Message Broadcast (§4): the
  enhanced-model algorithm built from an MIS subroutine, a gathering
  subroutine, and overlay spreading.
* :mod:`~repro.core.baselines` — naive comparators (sequential flooding)
  that quantify the value of BMMB's pipelining.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.core.bmmb": ("BMMBNode",),
    "repro.core.baselines": ("SequentialFloodingCoordinator",),
}

__all__ = ["BMMBNode", "SequentialFloodingCoordinator"]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
