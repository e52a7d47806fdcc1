"""Analysis layer: closed forms, per-figure/table data generators and reports.

Every figure and table of the paper's evaluation — and the serving, fleet,
prefix-cache and tenant-QoS comparisons — has a generator here that returns
one type, :class:`~repro.analysis.report.Table`: a title, :class:`Column`
specs (header, row key, format), plain dict rows, optional free text
(Figures 4/5) or panels (Figure 6), the experiment's summary scalars and the
key layout of its golden metrics.  ``Table.to_text()`` renders it through
:func:`~repro.analysis.report.render_table`, ``Table.row(**fields)`` finds
one row, and ``Table.golden_metrics()`` flattens it for the golden harness.

:data:`EXPERIMENTS` (:mod:`repro.analysis.experiments`) maps every
``experiments`` CLI name (``fig1``-``fig14``, ``tab2``-``tab4``,
``serving``, ``sweep``, ``fleet``, ``prefix-cache``, ``tenant-qos``) to its
generator and golden; the CLI, the golden harness
(:mod:`repro.sweep.golden`) and the matching ``benchmarks/`` modules all
read the same rows.
"""

from ..schedules.formulas import (
    activation_memory_factor,
    available_schemes,
    bubble_fraction_estimate,
    slimpipe_accumulated_activation_factor,
)
from . import figures, observability, report, tables
from .experiments import EXPERIMENTS, Experiment
from .report import Column, Table


def __getattr__(name):
    # Imported lazily: analysis.serving / analysis.fleet drive repro.serving
    # and repro.fleet, whose metrics render through analysis.report — an
    # eager import here would be cyclic.
    if name == "serving":
        from . import serving

        return serving
    if name == "fleet":
        from . import fleet

        return fleet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Column",
    "Table",
    "figures",
    "tables",
    "report",
    "observability",
    "serving",
    "fleet",
    "activation_memory_factor",
    "bubble_fraction_estimate",
    "slimpipe_accumulated_activation_factor",
    "available_schemes",
]
