"""Steady-state MMB service mode under open arrival streams.

The one-shot experiments inject everything at time 0 and report a finish
time; ``repro.traffic`` turns the same simulator into a *service*:

- :mod:`repro.traffic.arrivals` — registered arrival processes
  (``poisson``, ``bursty``, ``diurnal``) exposed through the workload
  registry as the ``open_arrivals`` workload kind.
- :mod:`repro.traffic.metrics` — warmup-trimmed throughput, latency
  percentiles, and in-flight gauges emitted as ordinary result metrics.
- :mod:`repro.traffic.smoke` — the CI traffic-smoke check.

Importing :mod:`repro.traffic.arrivals` registers the arrival processes
and the ``open_arrivals`` workload; the workload registry imports it the
first time it is read, so specs, sweep workers, and the CLI all see
them.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.traffic.arrivals": (
        "ARRIVAL_STREAM",
        "ARRIVALS",
        "OpenArrivalSchedule",
        "list_arrivals",
        "register_arrival",
    ),
    "repro.traffic.metrics": (
        "LATENCY_PERCENTILES",
        "SERIES_WINDOWS",
        "steady_state_metrics",
        "window_series",
    ),
    "repro.traffic.smoke": ("STEADY_GAUGES", "traffic_smoke"),
}

__all__ = [
    "ARRIVAL_STREAM",
    "ARRIVALS",
    "LATENCY_PERCENTILES",
    "SERIES_WINDOWS",
    "OpenArrivalSchedule",
    "STEADY_GAUGES",
    "list_arrivals",
    "register_arrival",
    "steady_state_metrics",
    "traffic_smoke",
    "window_series",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
