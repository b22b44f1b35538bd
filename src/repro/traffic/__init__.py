"""Steady-state MMB service mode under open arrival streams.

The one-shot experiments inject everything at time 0 and report a finish
time; ``repro.traffic`` turns the same simulator into a *service*:

- :mod:`repro.traffic.arrivals` — registered arrival processes
  (``poisson``, ``bursty``, ``diurnal``) exposed through the workload
  registry as the ``open_arrivals`` workload kind.
- :mod:`repro.traffic.metrics` — warmup-trimmed throughput, latency
  percentiles, and in-flight gauges emitted as ordinary result metrics.
- :mod:`repro.traffic.smoke` — the CI traffic-smoke check.

Importing this package registers the arrival processes and the
``open_arrivals`` workload; ``repro.experiments`` imports it at the end
of its own init so specs, sweep workers, and the CLI all see them.
"""

from repro.traffic.arrivals import (
    ARRIVAL_STREAM,
    ARRIVALS,
    OpenArrivalSchedule,
    list_arrivals,
    register_arrival,
)
from repro.traffic.metrics import (
    LATENCY_PERCENTILES,
    SERIES_WINDOWS,
    steady_state_metrics,
    window_series,
)
from repro.traffic.smoke import STEADY_GAUGES, traffic_smoke

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
