"""Print every benchmark metric by name and unit, one workload per row.

Usage, from the root of a checkout::

    python3 perfbench/report.py

Prints the metric catalogue of ``BENCHMARK.json`` and the per-layer ->
end-to-end mapping of ``catalog.py``, then runs every workload through
``run.py`` on the pinned seed for the contract's ``run_seconds``, twice —
``--trace 0`` for the end-to-end metrics, ``--trace 1`` for the per-layer
ones — and prints the end-to-end table (with the error rate behind
``success_rate``), then every per-layer value next to the end-to-end metric
and workloads it is predicted to move, so later changes can cite metric and
workload names.
"""

import json
import subprocess
import sys
from pathlib import Path

import catalog
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def catalogue_lines(contract):
    lines = ["end-to-end metrics (tracing off)"]
    for metric in contract["end_to_end"]:
        lines.append(f"  {metric['name']} [{metric['unit']}], {metric['better']} is better")
    lines.append("  error_rate [ratio] = failed / attempted operations = 1 - success_rate")
    lines += ["", "per-layer metric -> end-to-end metric it should move, on which workloads"]
    labels = [f"{m['name']} [{m['unit']}]" for m in contract["per_layer"]]
    width = max(map(len, labels)) + 2
    for label, metric in zip(labels, contract["per_layer"]):
        target, moves_on = catalog.MOVES[metric["name"]]
        lines.append(f"  {label:<{width}} -> {target} on {', '.join(moves_on)}")
    lines.append(
        "  a layer with zero calls on a workload predicts no change there; "
        f"held-out seed for serving workloads: {workloads.HELD_OUT_SEED}, "
        f"pinned seed: {workloads.PINNED_SEED}"
    )
    return lines


def run_workload(workload, seconds, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(workloads.PINNED_SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def table(header, rows):
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    return ["  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
            for row in [header] + rows]


def main():
    contract = catalog.contract()
    seconds = contract["run_seconds"]
    print("\n".join(catalogue_lines(contract)))

    results = {
        name: {trace: run_workload(name, seconds, trace) for trace in (0, 1)}
        for name in catalog.WORKLOADS
    }
    e2e = contract["end_to_end"]
    header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in e2e]
    header += ["error_rate [ratio]", "traced error_rate [ratio]"]
    rows = []
    for name, result in results.items():
        row = [name] + [f"{result[0]['metrics'][m['name']]['value']:.6g}" for m in e2e]
        row += [f"{r['failed'] / r['attempted']:.3g}" for r in (result[0], result[1])]
        rows.append(row)
    print(f"\nend-to-end, seed {workloads.PINNED_SEED}, {seconds} s per run")
    print("\n".join(table(header, rows)))

    rows = []
    for name, result in results.items():
        for metric, value in result[1]["metrics"].items():
            target, moves_on = catalog.MOVES[metric]
            moves = target if name in moves_on else "not a target here"
            rows.append([name, metric, f"{value['value']:.6g}", value["unit"], moves])
    print("\nper-layer, traced run, per batch job")
    print("\n".join(table(["workload", "metric", "value", "unit", "moves"], rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
