"""Host speed: put the benchmark's times on one scale across runs.

On a small shared host, the speed of each CPU drifts by up to 2x over
seconds to minutes, and independently on each CPU, because of work this
benchmark cannot see (other tenants of the machine).  CPU time slows
with wall time, so ``process_time`` does not help, and a run of 40 s can
sit wholly in a slow or a fast period.

So the benchmark pins itself to one CPU, and a probe process pinned to
the same CPU times two fixed kernels every ``PERIOD_S`` (``python3 -m
perfbench.hostspeed CPU FILE`` writes one ``monotonic loop_s walk_s``
line per period):

* ``loop``: interpreted Python on small integers, which stays in the
  core and its first-level cache;
* ``walk``: interpreted Python adding up boxed floats scattered over a
  working set larger than the CPU caches.

Kernels are timed in the probe's own CPU time: sharing the CPU, the
program may preempt the probe in the middle of a kernel, and wall time
would count that.  The host's slowdown shows in CPU time as it does in
wall time.

Over any interval, each kernel's median time against its reference time
is its slowdown, and the host's slowdown is the geometric mean of the
two.  A time divided by the slowdown of its interval is a *reference
time*: what it would have taken with the CPU at reference speed.  The
probe takes about 2% of the CPU.

The program's flows are interpreted Python over large object graphs
with numpy in between, and neither kernel alone follows them at every
time: the host's contention changes character.  Run beside repeated
pairs pinned to one CPU while the host slowed them by up to 1.8x, pair
time rose as ``loop`` time to the power 1.34 (small ``m256``), 1.04
(golden-scale ``m256``) and 0.91 (``aes`` at 0.25), and as ``walk`` time
to the power 1.02, 0.74 and 0.77.  The geometric mean gave 0.90 on the
last two; dividing by it cut the pairs' spread (quartile distance over
median) from 0.24 to 0.06 and from 0.20 to 0.07.  A numpy kernel
followed the program worst (correlation 0.36 to 0.58).

A change to the program does not move the slowdown, since the kernel
runs in its own process; it moves the measured time, and so the
reference time, in proportion.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

LOOPS = 10_000
# Boxed floats in the working set (about 19 MB), and how many of them
# one walk adds up.
OBJECTS = 600_000
SLICE = 20_000
PERIOD_S = 0.1
# Kernel times (loop, walk) near the fastest seen on the host of the
# first measured numbers (perfbench/README.md); they set the scale of
# every reference time.
REFERENCE_S = (0.6e-3, 1.5e-3)
# The fewest samples a slowdown is taken over; a shorter interval
# borrows the samples nearest to it.
MIN_SAMPLES = 5
START_TIMEOUT_S = 10.0
STOP_TIMEOUT_S = 10.0


def working_set() -> List[float]:
    """Floats allocated in index order and listed in a fixed random
    order, so that walking the list jumps around memory."""
    values = [float(i) for i in range(OBJECTS)]
    random.Random(0).shuffle(values)
    return values


def loop() -> float:
    """CPU seconds the ``loop`` kernel takes."""
    start = time.thread_time()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.thread_time() - start


def walk(values: List[float], offset: int) -> float:
    """CPU seconds it takes to add up ``SLICE`` values from ``offset``."""
    start = time.thread_time()
    total = 0.0
    for value in values[offset:offset + SLICE]:
        total += value
    return time.thread_time() - start


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process, and every thread and child it starts later, to
    one usable CPU; None where the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


Sample = Tuple[float, float, float]     # monotonic s, loop s, walk s


def slowdown(samples: List[Sample], start: float, end: float) -> float:
    """The host's slowdown over ``[start, end]``: the geometric mean of
    each kernel's median time there against its ``REFERENCE_S``.

    When fewer than ``MIN_SAMPLES`` samples fall in the interval, the
    ones nearest its middle are used instead.
    """
    if not samples:
        raise ValueError("the host speed probe recorded no sample")
    inside = [s for s in samples if start <= s[0] <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2.0
        inside = sorted(samples, key=lambda s: abs(s[0] - middle)
                        )[:MIN_SAMPLES]
    ratios = [statistics.median(s[k] for s in inside) / REFERENCE_S[k - 1]
              for k in (1, 2)]
    return math.sqrt(ratios[0] * ratios[1])


class HostSpeed:
    """The probe process on the benchmark's CPU and its samples.

    Start it after ``pin_to_one_cpu``; ``stop`` it on every path out.
    """

    def __init__(self, cpu: Optional[int], path: Path) -> None:
        self.cpu = cpu
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostspeed",
             str(-1 if cpu is None else cpu), str(path)],
            cwd=ROOT, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.samples():
            if self.proc.poll() is not None or \
                    time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the host speed probe did not start")
            time.sleep(0.01)

    def samples(self) -> List[Sample]:
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        out = []
        for line in text.splitlines():
            fields = line.split()
            if len(fields) == 3:        # the last line may be partial
                out.append((float(fields[0]), float(fields[1]),
                            float(fields[2])))
        return out

    def slowdown(self, start: float, end: float) -> float:
        return slowdown(self.samples(), start, end)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def main(argv) -> int:
    cpu, path = int(argv[0]), Path(argv[1])
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    values = working_set()
    offset = 0
    parent = os.getppid()
    with open(path, "w", buffering=1) as out:
        while os.getppid() == parent:   # ends if the benchmark dies
            took = loop(), walk(values, offset)
            out.write(f"{time.monotonic():.6f} {took[0]:.9f} "
                      f"{took[1]:.9f}\n")
            offset = (offset + SLICE) % (OBJECTS - SLICE)
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
