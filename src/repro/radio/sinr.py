"""An SINR-reception slotted radio network over an embedded dual graph.

The graph-based collision model of :mod:`repro.radio.slotted` treats
interference as binary: two transmitting neighbors always collide.  The
SINR (signal-to-interference-plus-noise-ratio) model — the physical model
of Halldórsson, Holzer & Lynch's local broadcast layer — is geometric
instead: a listener decodes a transmitter when the transmitter's received
power beats the *sum* of all other transmitters' power plus ambient noise
by the threshold ``beta``:

    ``SINR(u → v) = P·d(u,v)^-alpha / (N + Σ_{w≠u} P·d(w,v)^-alpha) ≥ beta``

Semantics per slot:

* every node either **transmits** one packet or **listens**; transmitters
  hear nothing;
* received power follows path loss ``P·d^-alpha`` from the topology's
  plane embedding (``dual.positions``; the topology must be a geometric
  family such as ``random_geometric``);
* a listener decodes the strongest ``G'``-neighbor whose SINR clears
  ``beta`` (for ``beta ≥ 1`` at most one transmitter can clear it);
  interference counts **every** transmitter in the network, neighbor or
  not — far-away traffic degrades reception, which the binary model
  cannot express;
* the default noise floor is calibrated so a *lone* transmitter is decoded
  up to distance ``reach`` (``N = P / (beta · reach^alpha)``), which with
  ``reach ≥ 1`` covers every reliable (unit-disk) edge — so the decay MAC
  adapter's adaptive acknowledgment terminates for the same reason it does
  on the binary radio.

The class mirrors :class:`~repro.radio.slotted.SlottedRadioNetwork`'s
surface (``run_slot`` / ``slot`` / ``stats`` / ``fault_engine``), so
:class:`~repro.radio.mac_adapter.RadioMACLayer` drives it unchanged —
BMMB runs on SINR exactly as it runs on the collision radio, and the
adapter's empirical ``Fack``/``Fprog`` extraction applies as-is.

Fault semantics: crashed/absent nodes neither transmit nor listen (the
engine's ``is_active``).  Link flapping is ignored — SINR reception is
derived from geometry, not from the reliable/grey edge split.
"""

from __future__ import annotations

from repro.errors import MACError
from repro.radio.slotted import Receptions, SlotStats, Transmissions
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph

#: Distances below this are clamped (coincident nodes would otherwise
#: receive infinite power).
MIN_DISTANCE = 1e-6


class SINRRadioNetwork:
    """Executes radio slots under SINR reception over an embedded graph.

    Args:
        dual: The network; must carry a plane embedding
            (``dual.positions``), e.g. any geometric topology family.
        rng: Random stream (reserved for fading extensions; the base model
            draws nothing, so executions are seed-stable by construction).
        alpha: Path-loss exponent (free space ≈ 2, urban 3–5).
        beta: SINR decoding threshold; ``beta ≥ 1`` guarantees at most one
            decodable transmitter per listener per slot.
        power: Uniform transmit power.
        reach: Lone-transmitter decoding range used to calibrate the
            default noise floor; must cover the reliable (unit-disk)
            radius or the MAC adapter's adaptive mode cannot terminate.
        noise: Explicit ambient noise floor; overrides ``reach``.
        engine: Reception-engine key (``reference``/``vectorized``/``auto``,
            see :mod:`repro.radio.engines`); all engines compute identical
            receptions.

    Raises:
        MACError: Missing embedding or non-positive model constants.
    """

    def __init__(
        self,
        dual: DualGraph,
        rng: RandomSource,
        alpha: float = 3.0,
        beta: float = 2.0,
        power: float = 1.0,
        reach: float = 1.2,
        noise: float | None = None,
        engine: str = "reference",
    ):
        from repro.radio.engines import resolve_engine

        if dual.positions is None:
            raise MACError(
                "the SINR model needs an embedded topology "
                "(dual.positions); use a geometric family such as "
                "'random_geometric'"
            )
        if alpha <= 0 or beta <= 0 or power <= 0 or reach <= 0:
            raise MACError(
                f"SINR constants must be positive (alpha={alpha}, "
                f"beta={beta}, power={power}, reach={reach})"
            )
        if noise is None:
            noise = power / (beta * reach**alpha)
        if noise <= 0:
            raise MACError(f"noise floor must be positive: {noise}")
        self.dual = dual
        self._rng = rng
        self.alpha = alpha
        self.beta = beta
        self.power = power
        self.noise = noise
        self.engine = resolve_engine(engine)
        self._slot_pass = None  # built lazily on the first slot
        self.slot = 0
        self.stats: list[SlotStats] = []
        #: Optional :class:`~repro.faults.engine.FaultEngine` (set by the
        #: radio MAC adapter): dead nodes neither transmit nor listen.
        self.fault_engine = None

    def run_slot(self, transmissions: Transmissions) -> Receptions:
        """Execute one slot and return who decoded what.

        ``transmissions`` maps each transmitting node to its packet; all
        other nodes listen.
        """
        nodes = self.dual.reliable_adjacency
        for sender in transmissions:
            if sender not in nodes:
                raise MACError(f"unknown transmitter {sender}")
        if self._slot_pass is None:
            self._slot_pass = self.engine.sinr_pass(self)
        receptions, collisions = self._slot_pass(transmissions)
        self.stats.append(
            SlotStats(
                slot=self.slot,
                transmitters=len(transmissions),
                receptions=len(receptions),
                collisions=collisions,
            )
        )
        self.slot += 1
        return receptions


def sinr_mac_layer(
    dual: DualGraph,
    rng: RandomSource,
    slot_duration: float = 1.0,
    adaptive: bool = True,
    phases: int | None = None,
    depth: int | None = None,
    fault_engine=None,
    alpha: float = 3.0,
    beta: float = 2.0,
    power: float = 1.0,
    reach: float = 1.2,
    noise: float | None = None,
    engine: str = "reference",
):
    """Build a :class:`~repro.radio.RadioMACLayer` over SINR reception.

    This is the ``sinr`` entry of the MAC registry — same call shape as
    the ``radio`` entry (the class itself), with the SINR model constants
    as extra keywords, all sweepable via ``model.params.<key>`` axes.
    The reception network draws from the same ``fading`` child stream the
    collision radio would, so the stream-derivation contract is identical
    across the radio family.
    """
    from repro.radio.mac_adapter import RadioMACLayer

    network = SINRRadioNetwork(
        dual,
        rng.child("fading"),
        alpha=alpha,
        beta=beta,
        power=power,
        reach=reach,
        noise=noise,
        engine=engine,
    )
    return RadioMACLayer(
        dual,
        rng,
        slot_duration=slot_duration,
        adaptive=adaptive,
        phases=phases,
        depth=depth,
        fault_engine=fault_engine,
        network=network,
    )
