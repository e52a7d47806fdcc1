"""The experiment registry: one entry per ``experiments`` CLI name.

:data:`EXPERIMENTS` maps every name the ``experiments`` command accepts
(``fig1``-``fig14``, ``tab2``-``tab4`` and the ``serving``, ``sweep``,
``fleet``, ``prefix-cache`` and ``tenant-qos`` comparisons) to an
:class:`Experiment`: the generator that returns the experiment's
:class:`~repro.analysis.report.Table` and, for the paper's figures and
tables, the golden that pins it.  Three consumers read it:

* ``python -m repro.cli experiments`` — its names, ``--list`` and the
  rendered tables;
* :mod:`repro.sweep.golden` — one golden per entry that names one, holding
  the metrics the table's ``golden`` layout declares, computed at the
  entry's ``golden_kwargs`` (a cheaper operating point where the full
  figure takes seconds);
* the tests and benchmarks, through the same generators.

The comparison generators import :mod:`repro.analysis.serving` /
:mod:`repro.analysis.fleet` (and through them the serving and fleet
simulators) only when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping

from ..model.config import LLAMA_70B
from . import figures, tables
from .report import Table

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: its table generator and optional golden."""

    generate: Callable[..., Table]
    #: Golden name (``tests/goldens/<golden>.json``); empty for no golden.
    golden: str = ""
    description: str = ""
    golden_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def golden_metrics(self) -> Dict[str, Any]:
        return self.generate(**self.golden_kwargs).golden_metrics()


def _serving() -> Table:
    from .serving import serving_comparison

    return serving_comparison(scenarios=("chat", "bursty-long"))


def _prefix_cache() -> Table:
    from .serving import prefix_cache_comparison

    return prefix_cache_comparison()


def _tenant_qos() -> Table:
    from .serving import tenant_qos_comparison

    return tenant_qos_comparison()


def _fleet() -> Table:
    from .fleet import fleet_comparison

    return fleet_comparison(
        scenarios=("canary-chat", "unreliable"), routers=("round-robin", "least-tokens")
    )


def _sweep() -> Table:
    from ..sweep import get_sweep_spec, run_sweep

    return run_sweep(get_sweep_spec("scheme-context")).table()


_SCHEME_GOLDEN_POINTS = {"sequence_ks": (64, 256)}

EXPERIMENTS: Dict[str, Experiment] = {
    "serving": Experiment(_serving),
    "sweep": Experiment(_sweep),
    "fleet": Experiment(_fleet),
    "prefix-cache": Experiment(_prefix_cache),
    "tenant-qos": Experiment(_tenant_qos),
    "fig1": Experiment(
        figures.figure1_memory_footprint, "fig01", "memory footprint vs PP size (Llama 70B, 64K)"
    ),
    "fig2": Experiment(
        figures.figure2_max_context, "fig02", "maximum context length per PP scheme (Llama 13B)"
    ),
    "fig3": Experiment(
        figures.figure3_bubble_fractions, "fig03", "theoretical bubble fractions per scheme"
    ),
    "fig4": Experiment(
        figures.figure4_schedule_structure, "fig04", "SlimPipe schedule structure (p=4, m=3, n=8)"
    ),
    "fig5": Experiment(
        figures.figure5_interleaved_schedule,
        "fig05",
        "interleaved SlimPipe schedule structure (p=4, m=2, n=8, v=2)",
    ),
    "fig6": Experiment(
        figures.figure6_slices_sweep, "fig06", "activation memory and bubbles vs number of slices"
    ),
    "fig7": Experiment(
        figures.figure7_imbalance_bubbles,
        "fig07",
        "imbalance bubbles with / without context exchange",
    ),
    "fig8": Experiment(
        figures.figure8_context_exchange_plan, "fig08", "context-exchange rebalancing plan"
    ),
    "fig9": Experiment(
        figures.figure9_vocab_parallel_bubble,
        "fig09",
        "output-layer bubble with / without vocabulary parallelism",
    ),
    # The full grid takes several seconds; the 32K column with two pipeline
    # sizes pins the same code paths at a fraction of the cost.
    "fig10": Experiment(
        figures.figure10_memory_scaling,
        "fig10",
        "memory scaling vs PP size (32K slice of the grid)",
        {"sequence_ks": (32,), "pipeline_sizes": (2, 4)},
    ),
    "fig11": Experiment(figures.figure11_mfu_vs_slices, "fig11", "MFU vs number of slices"),
    "fig12": Experiment(
        figures.figure12_end_to_end,
        "fig12",
        "end-to-end MFU headline cells (Llama 70B, 128 GPUs)",
        {"models": (LLAMA_70B,), "gpu_counts": (128,), "sequence_ks": (64, 256)},
    ),
    "fig13": Experiment(
        figures.figure13_scheme_mfu,
        "fig13",
        "scheme MFU across context lengths",
        _SCHEME_GOLDEN_POINTS,
    ),
    "fig14": Experiment(
        figures.figure14_scheme_memory,
        "fig14",
        "scheme peak memory across context lengths",
        _SCHEME_GOLDEN_POINTS,
    ),
    "tab2": Experiment(
        tables.table2_scheme_comparison,
        "tab02",
        "closed-form scheme comparison at the Table 2 point",
    ),
    "tab3": Experiment(
        tables.table3_model_specifications, "tab03", "model parameter counts (Table 3)"
    ),
    "tab4": Experiment(
        tables.table4_ultra_long_context, "tab04", "ultra-long-context offloading (Table 4)"
    ),
}
