"""Table 4 — ultra-long-context training with PP-aware activation offloading.

Paper claim: with selective checkpointing plus adaptive offloading, SlimPipe
trains Llama 70B at 2048K (45% MFU), Llama 149B at 1024K, Mixtral 8x7B at
4096K and Mixtral 8x22B at 2048K on at most 256 GPUs.  The reproduction
evaluates the same configurations and checks that every point is feasible with
high MFU, and that the dense models genuinely need offloading.  It also sweeps
the offload ratio (an ablation of the offload planner) to show the overhead
stays hidden.
"""

from repro.analysis.tables import PAPER_TABLE4_CONFIGS, table4_ultra_long_context
from repro.constants import GIB
from repro.core.offload import OffloadPlanner
from repro.hardware.gpu import HOPPER_80GB


def test_table4_ultra_long_context(once):
    table = once(table4_ultra_long_context)
    print()
    print(table.to_text())

    rows = table.rows
    assert len(rows) == len(PAPER_TABLE4_CONFIGS)
    for row in rows:
        assert row["feasible"], row
        assert row["mfu"] > 0.25
        assert row["peak_memory_gib"] <= 80.0
    by_model = {r["model"]: r for r in rows}
    assert by_model["mixtral-8x7b"]["context_k"] == 4096
    assert by_model["llama-70b"]["offload_ratio"] > 0.0


def test_offload_ratio_sweep(benchmark):
    """Ablation: overhead of increasing offload ratios on a Table-4-sized slice."""

    def sweep():
        planner = OffloadPlanner(HOPPER_80GB)
        peak, budget, slice_bytes, compute = 120 * GIB, 60 * GIB, 1.5 * GIB, 0.25
        return [
            planner.plan(peak, budget, slice_bytes, compute, ratio=ratio)
            for ratio in (0.25, 0.5, 0.75, 1.0)
        ]

    decisions = benchmark(sweep)
    print()
    for d in decisions:
        print(
            f"ratio {d.ratio:.2f}: resident {d.resident_bytes / GIB:5.1f} GiB, "
            f"transfer {d.transfer_seconds_per_slice * 1e3:5.1f} ms/slice, "
            f"exposed {d.exposed_seconds_per_slice * 1e3:5.1f} ms/slice"
        )
    # Resident memory falls monotonically; the transfers stay overlapped.
    residents = [d.resident_bytes for d in decisions]
    assert residents == sorted(residents, reverse=True)
    assert all(d.fully_overlapped for d in decisions)
    assert decisions[-1].feasible
