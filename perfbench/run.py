"""Run one benchmark workload and print every metric by name and unit.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout (the directory holding ``src/repro``).
Every pass runs in a fresh child process (``python3 -m perfbench.child``):
set-up, one cold pass, then the warm re-run(s).  Children run one at a
time, at least three, until ``--seconds`` is spent.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, medians over the
children, times scaled by the host speed sampled while they ran
(``perfbench/speed.py``) where the workload says so; with ``--trace 1``
untraced and traced children alternate, never sharing a process, and the
metrics are the per-layer ledger of the traced ones plus
``trace_overhead``.  ``perfbench/rationale.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import reference, speed  # noqa: E402
from perfbench.layers import METRICS, TRACE_OVERHEAD  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Scratch files of a run and the ledgers it writes (git-ignored).
OUT_DIR = ".perfbench"

#: An invocation must end within 180 s, so no child may run past this.
RUN_LIMIT_S = 165.0

MIN_CHILDREN = 3

#: The end-to-end time metrics, in the order they are printed.
TIMES = ("wall_s", "warm_s", "setup_s")


class BenchError(RuntimeError):
    """The benchmark could not measure; distinct from a failed check."""


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env.pop("EVE_STRICT_CHECK", None)
    env.update(WORKLOADS[workload].env)
    return env


def run_child(workload: str, seed: int, workdir: str, *, trace: bool = False,
              capture: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one child process to completion and return its report, with
    its set-up time (launch to first unit of work) and total time."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "report.json")
    command = [sys.executable, "-m", "perfbench.child", "--workload",
               workload, "--input-seed", str(seed), "--trace",
               str(int(trace)), "--workdir", workdir, "--out", out]
    if capture:
        command.append("--capture")
    launch = time.monotonic()
    try:
        proc = subprocess.run(command, env=child_env(workload),
                              stdout=sys.stderr, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited with status "
                         f"{proc.returncode}")
    with open(out) as handle:
        report = json.load(handle)
    report["launch"] = launch
    report["setup_s"] = report["first_unit"] - launch
    report["child_s"] = time.monotonic() - launch
    return report


def measure(args, seed: int) -> list:
    """Children one at a time until ``--seconds`` would be overrun, while
    one sampler per CPU records the host's speed."""
    start = time.monotonic()
    reports: list = []
    os.makedirs(os.path.join(OUT_DIR, "work"), exist_ok=True)
    with speed.Samplers(os.path.join(OUT_DIR, "work")) as samplers:
        while True:
            trace = bool(args.trace) and len(reports) % 2 == 1
            workdir = os.path.join(OUT_DIR, "work", str(len(reports)))
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            reports.append(run_child(args.workload, seed, workdir,
                                     trace=trace, timeout=remaining))
            elapsed = time.monotonic() - start
            longest = max(report["child_s"] for report in reports)
            if (len(reports) >= MIN_CHILDREN
                    and elapsed + longest > min(args.seconds, RUN_LIMIT_S)):
                break
    timelines = samplers.timelines()
    for report in reports:
        report["speed"] = interval_speeds(report, timelines)
    return reports


def interval_speeds(report: dict, timelines: dict) -> dict:
    """The mean relative host speed during each interval a child timed:
    on the CPU it pinned itself to, or over every CPU."""
    if report["cpu"] is not None:
        samples = timelines[report["cpu"]]
    else:
        samples = sorted(sample for timeline in timelines.values()
                         for sample in timeline)
    windows = report["windows"]
    return {"setup": speed.speed_in(samples, report["launch"],
                                    report["first_unit"]),
            "cold": speed.speed_in(samples, *windows["cold"]),
            "warm": [speed.speed_in(samples, *window)
                     for window in windows["warm"]]}


def median(values) -> float:
    return statistics.median(list(values))


def child_times(report: dict, scaled=()) -> dict:
    """One child's time metrics, those named in ``scaled`` multiplied by
    the relative host speed sampled while they ran."""
    factors = report["speed"]
    timed = {"wall_s": [(report["cold_s"], factors["cold"])],
             "warm_s": list(zip(report["warm_s"], factors["warm"])),
             "setup_s": [(report["setup_s"], factors["setup"])]}
    return {name: median(seconds * (factor if name in scaled else 1.0)
                         for seconds, factor in pairs)
            for name, pairs in timed.items()}


def end_to_end(reports: list, scaled=()) -> dict:
    times = [child_times(report, scaled) for report in reports]
    metrics = {name: (median(t[name] for t in times), "s") for name in TIMES}
    metrics["peak_rss_mb"] = (median(r["peak_rss_kb"] / 1024
                                     for r in reports), "MB")
    return metrics


def per_layer(reports: list, scaled=()) -> dict:
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    metrics = {m.name: (median(r["layers"][m.name] for r in traced), m.unit)
               for m in METRICS}

    def wall(group):
        return median(child_times(r, scaled)["wall_s"] for r in group)
    name, unit, _better = TRACE_OVERHEAD
    metrics[name] = (wall(traced) / wall(plain), unit)
    return metrics


def git_stamp() -> dict:
    """SHA and clean/dirty flag when the checkout is a git work tree (git
    is stopped from looking above it)."""
    if not os.path.exists(".git"):
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))

    def git(*argv):
        try:
            out = subprocess.run(("git",) + argv, capture_output=True,
                                 text=True, env=env, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="run seed: picks the input seed from the "
                             "workload's run seeds")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input-seed", type=int,
                        help="run on this captured input seed instead, e.g. "
                             f"the held-out {reference.HELD_OUT_SEED}")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: run it from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    seed = (args.input_seed if args.input_seed is not None
            else reference.RUN_SEEDS[args.seed % len(reference.RUN_SEEDS)])
    try:
        reference.expected(args.workload, seed)
    except (OSError, KeyError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    try:
        reports = measure(args, seed)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(OUT_DIR, "work"), ignore_errors=True)

    scaled = WORKLOADS[args.workload].scaled
    metrics = (per_layer(reports, scaled) if args.trace
               else end_to_end(reports, scaled))
    measured = end_to_end([r for r in reports if not r["traced"]])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    stamp = {"workload": args.workload, "seed": args.seed, "input_seed": seed,
             "traced": bool(args.trace), "seconds": args.seconds,
             "children": len(reports), "nproc": os.cpu_count(),
             "measured_s": {name: measured[name][0] for name in TIMES},
             "speed": median(r["speed"]["cold"] for r in reports),
             "python": platform.python_version(),
             "numpy": reports[0]["numpy"], "git": git_stamp()}
    with open(os.path.join(OUT_DIR, f"ledger-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as handle:
        json.dump({"stamp": stamp, "children": reports}, handle)
    for report in reports:
        for failure in report["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>18.9g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
