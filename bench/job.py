"""One benchmark job, run in a fresh process by run.py.

    PYTHONPATH=src python3 bench/job.py WORKLOAD OFFSET [--trace | --setup]

Without a flag it runs the workload once, writing exactly what the program
prints to stdout. With --trace it does the same with the per-layer
wrappers installed. With --setup it only imports loophom and builds the
workload's pages, timing that.

Untraced jobs and set-up probes also sample the machine's speed while
they run: a SIGALRM timer runs a fixed calibration kernel every
SAMPLE_INTERVAL_S of wall time, and once more at the start and at the
end. The benchmark is run on shared hosts whose speed for interpreter
code drifts by tens of percent over minutes, and the kernel's time moves
with the job's; run.py divides the job's time by it. Traced jobs are not
sampled, so the handler's time does not fall into any span.

The last line on stderr is a JSON report: the loophom module file, the
process's peak resident set in KiB, the exit code, the calibration
samples' count, mean and total, the set-up time with --setup and the
per-layer metrics with --trace.
"""

from __future__ import annotations

import json
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from workloads import (
    INCLUSION_CUTOFF,
    INCLUSION_DEGREES,
    INCLUSION_N,
    INCLUSION_P,
    INCLUSION_WEIGHTS,
    WORKLOADS,
)

SAMPLE_INTERVAL_S = 0.005


def calibration() -> dict:
    """A fixed piece of pure-Python work, about 0.1 ms, that does not touch
    loophom: Fraction arithmetic and the allocation, sorting and hashing
    of small tuples. Of the kernels tried, this mix tracked the jobs' own
    slowdowns most closely on both workloads."""
    x = Fraction(1)
    for i in range(1, 12):
        x = x * Fraction(i % 7 + 1, i % 5 + 1) + 1
    rows = [tuple(sorted((i % 5, i % 3, i % 7))) for i in range(40)]
    return {row: x for row in rows}


@contextmanager
def sampled_speed():
    """Yield a list that receives the duration of every calibration run:
    one now, one every SAMPLE_INTERVAL_S while the block runs, one at
    its end."""
    samples = []

    def sample(*_):
        start = perf_counter()
        calibration()
        samples.append(perf_counter() - start)

    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sample()


def _setup(workload, samples: list) -> float:
    """Seconds to import loophom and build the workload's pages, less the
    calibration runs that fell inside that time."""
    first = len(samples)
    start = perf_counter()
    import loophom  # noqa: F401  (the package import is part of set-up)
    from loophom.scalars import make_field
    from loophom.spaces import e2_page

    for n, characteristic, variant, cutoff in workload.pages:
        e2_page(n, make_field(characteristic), variant, cutoff)
    elapsed = perf_counter() - start
    return elapsed - sum(samples[first:])


def _run(workload, offset: int) -> int:
    from loophom import cli
    from loophom.scalars import make_field
    from loophom.spaces import hol_to_loop_inclusion

    code = 0
    for argv in workload.cli_calls(offset):
        code = max(code, cli.main(argv))
    if workload.runs_inclusion:
        inclusion = hol_to_loop_inclusion(
            INCLUSION_N, make_field(INCLUSION_P), cutoff=INCLUSION_CUTOFF
        )
        report = inclusion.induced_homology(
            range(*INCLUSION_DEGREES), range(*INCLUSION_WEIGHTS)
        )
        cells = [
            [d, w, c.rank, c.betti_sub, c.betti_big]
            for (d, w), c in sorted(report.cells.items())
        ]
        sys.stdout.write(
            json.dumps({"injective": report.injective, "cells": cells}, separators=(",", ":"))
            + "\n"
        )
    return code


def _peak_rss_kb() -> int:
    """VmHWM, the high-water mark of this process's own address space.
    Not ru_maxrss: Linux carries that across exec, so a child started by
    vfork reports at least its parent's resident set."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list) -> int:
    name, offset, *flags = argv
    workload = WORKLOADS[name]
    report = {}
    code = 0
    if flags == ["--trace"]:
        from tracing import traced

        with traced() as tracer:
            code = _run(workload, int(offset))
        report["trace"] = tracer.metrics()
    elif flags in ([], ["--setup"]):
        with sampled_speed() as samples:
            if flags:
                report["setup_s"] = _setup(workload, samples)
            else:
                code = _run(workload, int(offset))
        report["calibration"] = {
            "count": len(samples),
            "mean_s": sum(samples) / len(samples),
            "total_s": sum(samples),
        }
    else:
        raise SystemExit(f"unknown flags {flags}")
    import loophom

    sys.stdout.flush()
    report.update(
        loophom_file=loophom.__file__,
        peak_rss_kb=_peak_rss_kb(),
        exit=code,
    )
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
