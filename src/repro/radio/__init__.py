"""Low-level slotted radio networks: the layer *below* the abstract MAC.

The abstract MAC layer abstracts real link layers; this subpackage builds
one such link layer so the abstraction can be validated from below, the way
the paper's footnote 2 motivates it:

* :mod:`~repro.radio.slotted` — a synchronous slotted radio network over a
  dual graph: per slot each node transmits or listens; a listener receives
  iff exactly one of its *live* neighbors transmits (collisions destroy
  both packets, no collision detection).  Reliable edges are always live;
  unreliable edges are live per-slot with a fade probability — the
  low-level dual graph / dynamic fault model of [8, 29].
* :mod:`~repro.radio.decay` — the classic decay back-off schedule
  (Bar-Yehuda–Goldreich–Itai [2, 3]): cycle through exponentially
  decreasing transmission probabilities so that *some* nearby transmitter
  wins the channel within ``O(log Δ)`` slots with constant probability.
* :mod:`~repro.radio.mac_adapter` — :class:`RadioMACLayer`, an
  implementation of the acknowledged-local-broadcast interface **on top of
  the radio substrate**: sender runs a decay schedule, the local "ack" is
  the schedule completing (footnote 1: the ack is the MAC asking for the
  next packet, not a receiver acknowledgment).  It measures the *empirical*
  ``Fack`` and ``Fprog`` of each execution, regenerating footnote 2's
  claim: progress stays polylogarithmic in contention while
  acknowledgments grow linearly with it.
* :mod:`~repro.radio.sinr` — :class:`SINRRadioNetwork`, the same slot
  surface under SINR (signal-to-interference-plus-noise) reception over an
  embedded topology, after the local broadcast layer of Halldórsson,
  Holzer & Lynch.  :func:`sinr_mac_layer` plugs it under the unchanged
  :class:`RadioMACLayer`, backing the ``sinr`` experiment substrate.

Each reception model has one pure-python pass, driven by the slot's
transmitters: the collision pass costs O(Σ transmitter degree) per slot,
the SINR pass O(audible listeners × senders).
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.radio.decay": ("DecaySchedule",),
    "repro.radio.mac_adapter": ("EmpiricalBounds", "RadioMACLayer"),
    "repro.radio.sinr": ("SINRRadioNetwork", "sinr_mac_layer"),
    "repro.radio.slotted": ("SlottedRadioNetwork",),
}

__all__ = [
    "SlottedRadioNetwork",
    "SINRRadioNetwork",
    "sinr_mac_layer",
    "DecaySchedule",
    "RadioMACLayer",
    "EmpiricalBounds",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
