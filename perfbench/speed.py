"""Host-speed sampling: how fast each CPU was while a pass ran on it.

The measuring host is a small shared VM.  Each of its vCPUs switches,
every tenth of a second to a few seconds, between a fast state and one
about 1.7x slower, independently of the other vCPU, and a process's own
CPU time slows the same way, so no clock the benchmark can read is
immune.  A pass takes from a fraction of a second to several seconds, so
its time alone measures the host's states as much as the program.

``run.py`` therefore keeps one sampler process per CPU running for the
whole run (:class:`Samplers`).  Each pins itself to its CPU and, every
``INTERVAL_S``, times a fixed piece of work (:func:`lru_stream`, about
0.8 ms in the fast state) by its own CPU time, and records ``REFERENCE_S``
over that time as the relative speed of the moment: 1.0 in the fast
state, about 0.6 in the slow one.  A child reports the
``time.monotonic`` bounds of each interval it times, and ``run.py`` scales
the interval's seconds by the mean speed sampled during it
(:func:`speed_in`): on the one CPU a serial child pins itself to, or over
every CPU for a workload that fans out.  The result reads as seconds in
the fast state.  A change to the simulator moves the pass and not the
samples, so it shows at its full size; a change of the host's state moves
both.

The sampled work is the kind of interpreter work a pass spends most of its
time in, a small set-associative LRU fed by a linear congruential address
stream, and it runs in its own process, so nothing a pass does to its heap
or its interpreter reaches it.

    python3 -m perfbench.speed --cpu N --out FILE   # one sampler
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: CPU seconds of one sample's work in the measuring host's fast state
#: (2-vCPU Xeon, 2.1 GHz): relative speed 1.0.
REFERENCE_S = 0.00082

#: Seconds between samples.
INTERVAL_S = 0.05

#: A sampler stops after this long, or when its parent exits, even if it
#: is never told to: no run outlives it.
LIFETIME_S = 200.0

SETS = 64
WAYS = 8
ACCESSES = 2_500

Sample = Tuple[float, float]


def lru_stream(tables: List[list], accesses: int) -> int:
    """Run ``accesses`` line addresses through ``tables``, one list per
    set, least recently used first; returns the hits."""
    x = 1
    hits = 0
    for _ in range(accesses):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = x >> 20
        ways = tables[line % SETS]
        if line in ways:
            hits += 1
            ways.remove(line)
        elif len(ways) == WAYS:
            del ways[0]
        ways.append(line)
    return hits


def sample(cpu: int, out) -> None:
    """Write ``time.monotonic() speed`` lines for ``cpu`` to ``out`` until
    SIGTERM, the parent's exit or ``LIFETIME_S``."""
    stop: List[int] = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    end = time.monotonic() + LIFETIME_S
    tables: List[list] = [[] for _ in range(SETS)]
    while not stop and os.getppid() == parent and time.monotonic() < end:
        time.sleep(INTERVAL_S)
        for ways in tables:
            ways.clear()
        start = time.process_time()
        lru_stream(tables, ACCESSES)
        seconds = time.process_time() - start
        out.write(f"{time.monotonic()!r} {REFERENCE_S / seconds!r}\n")
        out.flush()


class Samplers:
    """One sampler process per CPU this process may run on, for the length
    of a ``with`` block; :meth:`timelines` reads what they sampled."""

    def __init__(self, directory: str) -> None:
        self.paths = {cpu: os.path.join(directory, f"speed-cpu{cpu}.txt")
                      for cpu in sorted(os.sched_getaffinity(0))}
        self.procs: List[subprocess.Popen] = []

    def __enter__(self) -> "Samplers":
        try:
            for cpu, path in self.paths.items():
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "perfbench.speed", "--cpu",
                     str(cpu), "--out", path]))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def timelines(self) -> Dict[int, List[Sample]]:
        """``cpu -> [(time.monotonic(), relative speed), ...]``."""
        timelines = {}
        for cpu, path in self.paths.items():
            with open(path) as handle:
                timelines[cpu] = [(float(t), float(value)) for t, value
                                  in (line.split() for line in handle)]
        return timelines


def speed_in(samples: Sequence[Sample], t0: float, t1: float) -> float:
    """Mean relative speed sampled in ``[t0, t1]``, or the sample nearest
    its end when none fell inside."""
    inside = [value for t, value in samples if t0 <= t <= t1]
    if inside:
        return statistics.fmean(inside)
    return min(samples, key=lambda sample: abs(sample[0] - t1))[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.out, "w") as out:
        sample(args.cpu, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
