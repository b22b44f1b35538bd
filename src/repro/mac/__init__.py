"""Abstract MAC layer models (standard and enhanced).

The abstract MAC layer (Kuhn, Lynch, Newport [29, 30]) hides contention and
signal propagation behind an *acknowledged local broadcast* primitive over a
dual graph ``(G, G')``:

* a broadcast by ``u`` is delivered to **every** ``G``-neighbor and to an
  arbitrary, scheduler-chosen subset of ``G' \\ G``-neighbors;
* the sender then receives an acknowledgment;
* the **acknowledgment bound** ``Fack`` caps bcast→ack latency;
* the **progress bound** ``Fprog`` guarantees a node receives *some* message
  whenever a ``G``-neighbor has been broadcasting for longer than ``Fprog``.

This package implements:

* :mod:`~repro.mac.interfaces` — the automaton/API surface nodes program to;
* :mod:`~repro.mac.messages` — message-instance bookkeeping (the paper's
  "cause" function made concrete);
* :mod:`~repro.mac.standard` — the standard layer (event-driven, no clocks);
* :mod:`~repro.mac.enhanced` — the enhanced layer (adds ``abort``, timers,
  and knowledge of ``Fack``/``Fprog``);
* :mod:`~repro.mac.rounds` — lock-step ``Fprog`` rounds built from the
  enhanced layer's capabilities (used by FMMB);
* :mod:`~repro.mac.schedulers` — the model's nondeterministic message
  scheduler, as pluggable policies (benign, contention, worst-case ack,
  and the paper's lower-bound adversaries);
* :mod:`~repro.mac.axioms` — a post-hoc validator certifying that a recorded
  execution satisfies all five MAC-layer constraints.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.mac.interfaces": ("Automaton", "MACApi"),
    "repro.mac.messages": ("InstanceLog", "MessageInstance"),
    "repro.mac.standard": ("StandardMACLayer",),
    "repro.mac.enhanced": ("EnhancedMACLayer",),
    "repro.mac.axioms": ("AxiomReport", "check_axioms"),
}

__all__ = [
    "Automaton",
    "MACApi",
    "MessageInstance",
    "InstanceLog",
    "StandardMACLayer",
    "EnhancedMACLayer",
    "AxiomReport",
    "check_axioms",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
