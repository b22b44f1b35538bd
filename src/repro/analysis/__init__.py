"""Analysis: closed-form bounds, scaling fits, and report tables.

The paper's evaluation is its table of asymptotic results (Figure 1); this
package provides the machinery the campaign checks use to compare
measured completion times against those bounds:

* :mod:`~repro.analysis.bounds` — closed-form predictions for every cell of
  Figure 1 (with the explicit constants the proofs yield, where available);
* :mod:`~repro.analysis.fitting` — least-squares scaling fits (is measured
  time linear in ``D``? in ``k``? with what slope?);
* :mod:`~repro.analysis.tables` — ASCII rendering of paper-style tables;
* :mod:`~repro.analysis.stats` — small summary-statistics helpers.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.analysis.bounds": (
        "bmmb_arbitrary_bound",
        "bmmb_gg_bound",
        "bmmb_r_restricted_bound",
        "choke_lower_bound",
        "figure2_lower_bound",
        "fmmb_bound_rounds",
        "fmmb_bound_time",
    ),
    "repro.analysis.fitting": ("linear_fit",),
    "repro.analysis.tables": ("render_table",),
}

__all__ = [
    "bmmb_gg_bound",
    "bmmb_r_restricted_bound",
    "bmmb_arbitrary_bound",
    "figure2_lower_bound",
    "choke_lower_bound",
    "fmmb_bound_rounds",
    "fmmb_bound_time",
    "linear_fit",
    "render_table",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
