"""One benchmark process: set-up, a cold pass, then the warm re-run(s).

``perfbench/run.py`` starts it as ``python3 -m perfbench.child`` from the
checkout root with ``PYTHONPATH=src`` and reads the JSON report it writes
to ``--out``, which holds the ``time.monotonic`` bounds of every pass for
the host-speed scaling (:mod:`perfbench.speed`); the child of a serial
workload pins itself to one CPU first, so that one sampler follows it.
With ``--trace 1`` the ledger wraps the simulator's layers for the whole
process and restores every original object before the report is written;
``--capture`` reports the raw outputs instead of checking them against the
reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
import traceback
from typing import Callable, Optional

from . import reference
from .workloads import WORKLOADS


def _timed(fn: Callable[[], None], ledger, name: str):
    """Run one pass: ``(seconds, window, ledger delta or None, error or
    None)``, ``window`` being its ``time.monotonic`` bounds.  A pass that
    raises is reported, so its units count as failed."""
    mark = span = None
    if ledger is not None:
        mark = ledger.mark()
        span = ledger.open_span(name)
    error = None
    window = [time.monotonic()]
    start = time.perf_counter()
    try:
        fn()
    except Exception:  # noqa: BLE001 - a failing pass is a measured outcome
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    window.append(time.monotonic())
    if ledger is None:
        return seconds, window, None, error
    ledger.close_span(span)
    return seconds, window, ledger.delta(mark), error


class _Tally:
    """Units attempted and failed against one input seed's reference."""

    def __init__(self, name: str, seed: int, capture: bool) -> None:
        self.name = name
        self.seed = seed
        self.capture = capture
        self.entry: Optional[dict] = None
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.outputs: dict = {}

    def check(self, phase: str, outputs: Callable[[], dict],
              error: Optional[str]) -> None:
        if self.capture:
            if error is not None:
                raise RuntimeError(f"{phase} pass failed:\n{error}")
            self.outputs[phase] = outputs()
            return
        if self.entry is None:
            self.entry = reference.expected(self.name, self.seed)
        want = reference.phase_units(self.entry, phase)
        if error is not None:
            self.attempted += len(want)
            self.failed += len(want)
            self.failures.append(f"{phase}: {error.strip().splitlines()[-1]}")
            return
        attempted, failed = reference.compare(outputs(), want)
        self.attempted += attempted
        self.failed += len(failed)
        self.failures += [f"{phase}: {unit}" for unit in failed]


def _peak_rss_kb() -> int:
    """Peak resident set of this process and of its reaped workers."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--capture", action="store_true")
    args = parser.parse_args(argv)

    cpu = None
    if WORKLOADS[args.workload].serial:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    import numpy
    import repro  # noqa: F401 - its import time is the setup layer
    import_s = time.perf_counter() - start

    workload = WORKLOADS[args.workload]()
    ledger = patches = None
    if args.trace:
        from .layers import targets
        from .ledger import Ledger, install
        ledger = Ledger()
        patches = install(targets(ledger))
    workload.setup(args.input_seed, args.workdir)
    first_unit = time.monotonic()

    tally = _Tally(args.workload, args.input_seed, args.capture)
    cold_s, cold_window, cold_delta, error = _timed(workload.cold, ledger,
                                                    "bench.cold")
    tally.check("cold", workload.cold_outputs, error)
    passed = error is None
    warm_s, warm_windows, warm_delta = [], [], None
    for _ in range(workload.warm_repeats):
        seconds, window, delta, error = _timed(workload.warm, ledger,
                                               "bench.warm")
        warm_s.append(seconds)
        warm_windows.append(window)
        warm_delta = delta if warm_delta is None else warm_delta
        tally.check("warm", workload.warm_outputs, error)
        passed = passed and error is None
    results = workload.results() if passed else {}

    report = {"traced": bool(args.trace), "import_s": import_s,
              "first_unit": first_unit, "cold_s": cold_s, "warm_s": warm_s,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures[:20], "numpy": numpy.__version__,
              "python": platform.python_version(), "cpu": cpu,
              "windows": {"cold": cold_window, "warm": warm_windows}}
    if ledger is not None:
        from .layers import evaluate
        from .ledger import restore
        restore(patches)
        report["layers"] = evaluate(cold_delta, warm_delta, results,
                                    import_s, ledger.pid)
        report["ledger"] = {"cold": cold_delta, "warm": warm_delta}
    if args.capture:
        report["outputs"] = tally.outputs
    report["peak_rss_kb"] = _peak_rss_kb()
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
