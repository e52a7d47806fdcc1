"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, measured
with tracing off.  Their times (``setup_s``, ``run_s`` and the
``sim_items_per_min`` derived from it) are adjusted for host speed by
``hostspeed.AdjustedClock``, so that a shared host's neighbours do not move
them; the raw wall-clock of every job is kept in the run's ``.perfbench/``
record.

``--trace 1`` alternates untraced and traced batch jobs and reports the
per-layer metrics of the traced ones — calls per job and each layer's share
of the traced wall-clock — plus ``trace.overhead``: traced over untraced
median job wall-clock, minus 1.  No host-speed probe runs in this mode, so
no probe time lands in a layer's span.

Every job's output is checked (see ``workloads.py``).  A job that raises
``RuntimeError``/``DeadlockError`` or fails a check counts as a failed
operation; ``success_rate`` is one minus the error rate.  The digest of
every job must equal the first job's (traced jobs included, which shows
tracing changes no simulated number), and on the pinned seed it must equal
the digest recorded in ``digests.json``.

The last line of standard output is the result object; the line before it
is the run's manifest (Python version, usable CPUs, git revision, code
fingerprint, seed and output digest).  Both, with per-job times and the
traced span table, are also written to ``.perfbench/`` in the checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import catalog
import layers
import workloads
from hostspeed import AdjustedClock, WallClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Set-up samples: this process plus fresh-interpreter probes.
SETUP_SAMPLES = 5
#: Timed jobs (untraced; or traced/untraced pairs) a run makes at least.
MIN_JOBS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only import and build the workload; print the seconds it took",
    )
    return parser.parse_args(argv)


def timed_build(workload, seed):
    """Import the simulator and build the workload's configs and engines."""
    with AdjustedClock() as clock:
        sys.path.insert(0, str(SRC))
        ctx = workload.build(seed)
    return ctx, clock.seconds


def setup_probes(args, count):
    """Set-up seconds measured in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if probe.returncode != 0:
            fail(f"set-up probe failed: {probe.stderr.strip()[-500:]}")
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


class Checker:
    """Checks every job's output and tallies operations and failures."""

    def __init__(self, workload, ctx, pinned_digest):
        self.workload = workload
        self.ctx = ctx
        self.pinned_digest = pinned_digest
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, raw, error):
        """Check one job; return the result-side stats of its outcome."""
        operations = self.workload.operations(self.ctx)
        self.attempted += operations
        if error is not None:
            self.failed += operations
            self.messages.append(error)
            return {}
        outcome = self.workload.check(self.ctx, raw)
        if self.digest is None:
            self.digest = outcome.digest
        expected = self.pinned_digest or self.digest
        if outcome.digest != expected:
            self.failed += operations
            self.messages.append(f"output digest {outcome.digest} != expected {expected}")
        else:
            self.failed += min(len(outcome.failures), operations)
        self.messages.extend(outcome.failures)
        return outcome.stats


def run_job(workload, ctx, checker, stats=None, clock=None):
    """One batch job timed by ``clock`` (wall-clock by default); returns the clock.

    The job's output is checked after the clock stops.
    """
    gc.collect()
    clock = clock or WallClock()
    error = raw = None
    with clock:
        try:
            raw = workload.job(ctx)
        except workloads.FAILURES as exc:
            error = f"{type(exc).__name__}: {exc}"
    outcome_stats = checker.record(raw, error)
    if stats is not None:
        stats.update(outcome_stats)
    return clock


def measure_untraced(workload, ctx, checker, seconds):
    """Clocks of jobs run back to back for ``seconds``, adjusted for host speed."""
    clocks = []
    start = time.perf_counter()
    while len(clocks) < MIN_JOBS or time.perf_counter() - start < seconds:
        clocks.append(run_job(workload, ctx, checker, clock=AdjustedClock()))
    return clocks


def measure_traced(workload, ctx, checker, seconds):
    """Alternate untraced and traced jobs; fold the traced ones' spans."""
    tracer = Tracer()
    stats = Counter()
    hits = misses = 0
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_JOBS or time.perf_counter() - start < seconds:
        plain.append(run_job(workload, ctx, checker).seconds)
        layers.install(tracer)
        before = layers.flops_cache_counts()
        try:
            traced.append(run_job(workload, ctx, checker, stats).seconds)
        finally:
            after = layers.flops_cache_counts()
            tracer.uninstall()
        hits += after[0] - before[0]
        misses += after[1] - before[1]
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = layers.per_layer_metrics(tracer, traced, stats, (hits, misses), overhead)
    return plain, traced, metrics, tracer.table()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no simulator sources at {SRC}; run from the root of a full checkout")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        _, seconds = timed_build(workload, args.seed)
        print(repr(seconds))
        return 0
    if not catalog.CONTRACT_PATH.is_file():
        fail(f"missing {catalog.CONTRACT_PATH}")
    units = {m["name"]: m["unit"] for m in catalog.contract()["end_to_end"]}

    ctx, own_setup = timed_build(workload, args.seed)
    setup_samples = [own_setup] + setup_probes(args, SETUP_SAMPLES - 1)
    digest_seed = workloads.PINNED_SEED if workload.seed_independent else args.seed
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    checker = Checker(workload, ctx, recorded.get(str(digest_seed)))
    run_job(workload, ctx, checker)  # warm-up: fills caches, finishes lazy set-up

    if args.trace:
        plain, traced, metrics, spans = measure_traced(workload, ctx, checker, args.seconds)
        detail = {"untraced_job_s": plain, "traced_job_s": traced, "spans": spans}
    else:
        clocks = measure_untraced(workload, ctx, checker, args.seconds)
        run_s = statistics.median(clock.seconds for clock in clocks)
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": run_s,
            "sim_items_per_min": workload.items(ctx) * 60.0 / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - checker.failed / checker.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        detail = {
            "job_s": [clock.seconds for clock in clocks],
            "job_wall_s": [clock.wall for clock in clocks],
            "job_host_slowdown": [clock.slowdown for clock in clocks],
            "setup_samples_s": setup_samples,
        }

    from repro.sweep.cache import code_fingerprint

    if args.seed == workloads.PINNED_SEED:
        role = "pinned"
    elif args.seed == workloads.HELD_OUT_SEED and not workload.seed_independent:
        role = "held-out"
    else:
        role = "generated"
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": role,
        "trace": args.trace,
        "output_digest": checker.digest,
        "pinned_digest": checker.pinned_digest,
        "python": platform.python_version(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "code_fingerprint": code_fingerprint(),
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(
        {"manifest": manifest, "result": result, "checks": checker.messages[:20], **detail},
        indent=1,
    ) + "\n")
    for message in checker.messages[:20]:
        print(f"check failed: {message}")
    print("manifest " + json.dumps(manifest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
