"""Sensitivity self-check: can the benchmark see a regression of its own bound?

Usage, from the root of a checkout::

    python3 perfbench/sensitivity.py

A benchmark-side wrapper (no source edit) slows ``_Pool.iteration_time``,
the serving engine's per-iteration pricing: each call spins for ``factor``
times its own duration, with ``factor`` sized from calibration jobs so that
the injected time adds ``SLOWDOWN`` (30%) of a ``serve-stream`` job.

The verdict goes through the benchmark's own path: ``PAIRS`` baseline and
``PAIRS`` injected runs of ``run.measure_untraced`` for the contract's
``run_seconds`` each, alternating which comes first, each reporting
``run_s`` as its median host-speed-adjusted job time.  The change is the median injected
``run_s`` over the median baseline ``run_s``, as two sets of runs are
compared, and the spread (IQR over median) of each set is printed with it.
The check passes when ``serve-stream`` ``run_s`` gets worse by more than its
``BENCHMARK.json`` bound, and ``train-plan`` — which never prices a serving
iteration — moves by less than that bound.
"""

import statistics
import sys
import time

import catalog
import run
import workloads

#: Injected time as a share of a serve-stream job.
SLOWDOWN = 0.30
#: Baseline/injected run pairs per workload.
PAIRS = 10


def slowed(original, factor):
    """``original``, spinning afterwards for ``factor`` times its own duration."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        result = original(*args, **kwargs)
        end = start + (clock() - start) * (1.0 + factor)
        while clock() < end:
            pass
        return result

    return wrapper


def prepare(name):
    """Build and warm up ``name``; return (workload, ctx, checker, _Pool)."""
    workload = workloads.WORKLOADS[name]
    ctx, _ = run.timed_build(workload, workloads.PINNED_SEED)
    from repro.serving.engine import _Pool

    checker = run.Checker(workload, ctx, None)
    run.run_job(workload, ctx, checker)
    return workload, ctx, checker, _Pool


def calibrate(jobs=3):
    """Spin factor making the injected time ``SLOWDOWN`` of a serve-stream job."""
    workload, ctx, checker, pool = prepare(catalog.SERVE)
    original = pool.__dict__["iteration_time"]
    inside = [0.0]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - start

    shares = []
    pool.iteration_time = timed
    try:
        for _ in range(jobs):
            inside[0] = 0.0
            elapsed = run.run_job(workload, ctx, checker).seconds
            shares.append(inside[0] / elapsed)
    finally:
        pool.iteration_time = original
    return SLOWDOWN / statistics.median(shares)


def spread(values):
    """Distance between the first and third quartile, over the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(name, factor, seconds):
    """Median run_s of baseline and injected runs, alternating their order."""
    workload, ctx, checker, pool = prepare(name)
    original = pool.__dict__["iteration_time"]
    injected_wrapper = slowed(original, factor)

    def run_s(injected):
        pool.iteration_time = injected_wrapper if injected else original
        try:
            clocks = run.measure_untraced(workload, ctx, checker, seconds)
            return statistics.median(clock.seconds for clock in clocks)
        finally:
            pool.iteration_time = original

    baseline, injected = [], []
    for index in range(PAIRS):
        for inject in ((False, True) if index % 2 == 0 else (True, False)):
            (injected if inject else baseline).append(run_s(inject))
    if checker.failed:
        raise SystemExit(f"{name}: output checks failed: {checker.messages[:3]}")
    return baseline, injected


def main():
    contract = catalog.contract()
    seconds = contract["run_seconds"]
    bound = next(m["bound"] for m in contract["end_to_end"] if m["name"] == "run_s")

    factor = calibrate()
    print(f"each iteration_time call spins for {factor:.2f} times its own duration; "
          f"{PAIRS} baseline and {PAIRS} injected runs of {seconds} s per workload")
    verdicts = []
    for name, expect_flag in ((catalog.SERVE, True), (catalog.TRAIN, False)):
        baseline, injected = compare(name, factor, seconds)
        base = statistics.median(baseline)
        change = statistics.median(injected) / base - 1.0
        flagged = change > bound
        ok = flagged if expect_flag else abs(change) <= bound
        verdicts.append(ok)
        print(
            f"{name:14s} run_s median baseline {base:.4f} s, injected {change:+.1%}; "
            f"spread baseline {spread(baseline):.3f}, injected {spread(injected):.3f}; "
            f"bound {bound:.0%}: {'flagged worse' if flagged else 'within bound'} "
            f"({'as expected' if ok else 'UNEXPECTED'})"
        )
    print("sensitivity check " + ("passed" if all(verdicts) else "FAILED"))
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
