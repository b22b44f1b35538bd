"""The benchmark's metric table: names, units, directions, and what moves them.

``BENCHMARK.json`` lists the same names, units and directions; the
benchmark's own tests hold the two in step.  Every per-layer metric names
the module it measures and the end-to-end metric (and workload) it should
move, so a change that claims a gain on one can be checked against the
other.

Timing metrics of single layers are *self* times: a span's duration
minus the spans nested inside it.  Counts marked exact repeat bit for bit
between two runs of the same code on the same seed.
"""

from __future__ import annotations

WORKLOADS = ("mmb_event", "radio_slots", "service_journaled")
SCALES = ("full", "tiny")

#: Fabric worker processes in every cold pass (the benchmark host has two
#: cores; more workers would only contend).
WORKERS = 2

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("cached_s", "s", "lower"),
    ("point_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# name, unit, better, module, what it should move
PER_LAYER = (
    ("import.modules", "count", "lower", "repro/__init__", "setup_s, all workloads"),
    ("import.s", "s", "lower", "repro/__init__", "setup_s, all workloads"),
    ("topology.build_s", "s", "lower", "topology", "cold_s and point_p50_s on mmb_event"),
    ("topology.builds", "count", "lower", "topology", "cold_s on mmb_event"),
    (
        "substrate.prepare_s",
        "s",
        "lower",
        "experiments.substrates",
        "cold_s and point_p50_s on mmb_event",
    ),
    ("sim.events", "count", "lower", "sim", "cold_s on mmb_event; flat on radio_slots"),
    ("sim.run_s", "s", "lower", "sim / mac / mac.schedulers / core.bmmb", "cold_s on mmb_event"),
    ("sim.events_per_s", "1/s", "higher", "sim", "cold_s on mmb_event"),
    ("mac.bcasts", "count", "lower", "mac", "cold_s on mmb_event; flat on radio_slots"),
    ("mac.rcvs", "count", "lower", "mac", "cold_s on mmb_event; flat on radio_slots"),
    ("mac.deliveries", "count", "lower", "mac", "cold_s on mmb_event; flat on radio_slots"),
    ("rng.draws", "count", "lower", "sim.rng", "cold_s on mmb_event"),
    ("fmmb.rounds", "count", "lower", "core.fmmb / mac.rounds", "cold_s on mmb_event"),
    ("fmmb.run_s", "s", "lower", "core.fmmb / mac.rounds", "cold_s on mmb_event"),
    ("radio.slots", "count", "lower", "radio", "cold_s on radio_slots"),
    ("radio.slot_calls", "count", "lower", "radio.slotted / radio.sinr", "cold_s on radio_slots"),
    ("radio.slot_s", "s", "lower", "radio.engines", "cold_s on radio_slots"),
    ("radio.slots_per_s", "1/s", "higher", "radio.mac_adapter", "cold_s on radio_slots"),
    (
        "observe.events",
        "count",
        "lower",
        "runtime.observations",
        "cold_s and peak_rss_mb on service_journaled; zero in summary capture",
    ),
    (
        "observe.s",
        "s",
        "lower",
        "runtime.observations",
        "cold_s and peak_rss_mb on service_journaled",
    ),
    ("journal.bytes", "bytes", "lower", "runtime.journal", "cold_s on service_journaled"),
    ("journal.encode_s", "s", "lower", "runtime.journal", "cold_s on service_journaled"),
    ("journal.decodes", "count", "lower", "runtime.journal", "cached_s on service_journaled"),
    ("journal.decode_s", "s", "lower", "runtime.journal", "cached_s on service_journaled"),
    ("store.encode_s", "s", "lower", "campaigns.store", "cold_s on service_journaled"),
    ("store.put_s", "s", "lower", "store.local", "cold_s on service_journaled"),
    ("store.bytes", "bytes", "lower", "campaigns.store", "cold_s on service_journaled"),
    ("store.writes", "count", "lower", "campaigns.store", "cold_s on service_journaled"),
    ("store.get_s", "s", "lower", "campaigns.store / store.local", "cached_s, all workloads"),
    ("store.hits", "count", "higher", "campaigns.store", "cached_s, all workloads"),
    (
        "fabric.dispatched",
        "count",
        "lower",
        "campaigns.supervision",
        "cold_s on service_journaled and mmb_event",
    ),
    ("fabric.retried", "count", "lower", "campaigns.supervision", "cold_s, all workloads"),
    ("fabric.failed", "count", "lower", "campaigns.supervision", "cold_s, all workloads"),
    (
        "fabric.utilization",
        "frac",
        "higher",
        "campaigns.supervision",
        "cold_s on service_journaled and mmb_event",
    ),
    ("checks.s", "s", "lower", "campaigns.checks", "cached_s"),
    ("trace_checks.s", "s", "lower", "campaigns.trace_checks", "cached_s on service_journaled"),
    ("report.s", "s", "lower", "campaigns.report", "cached_s"),
    ("report.bytes", "bytes", "lower", "campaigns.report", "cached_s"),
    (
        "trace.overhead",
        "frac",
        "lower",
        "the benchmark's tracer",
        "nothing: traced serial wall over untraced, minus one",
    ),
)

#: Per-layer counts that must repeat exactly between two runs of one seed.
EXACT_COUNTERS = (
    "import.modules",
    "topology.builds",
    "sim.events",
    "mac.bcasts",
    "mac.rcvs",
    "mac.deliveries",
    "rng.draws",
    "fmmb.rounds",
    "radio.slots",
    "radio.slot_calls",
    "observe.events",
    "journal.bytes",
    "journal.decodes",
    "store.bytes",
    "store.writes",
    "store.hits",
    "report.bytes",
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
