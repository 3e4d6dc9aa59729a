"""Benchmark environment hygiene and the host fingerprint of a run."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

# Variables that would change what the program computes or where it
# reads and writes; the benchmark always runs the defaults.
SCRUBBED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_CHECKPOINT_DIR",
                "REPRO_GOLDEN_DIR")

# Variables set for every run.  OpenBLAS otherwise starts one thread per
# CPU, and on a small shared host those threads compete for the cores
# with each other and with other work, which widens the spread.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}

# A run that starts with more runnable work than this share of the CPUs
# is flagged as started on a busy host.
BUSY_LOAD_PER_CPU = 0.75


def scrub_environment(tmp_dir: Path) -> None:
    """Drop the program's selector variables, pin the BLAS threads and
    keep temp files local.

    Must run before ``repro`` and numpy are imported: the kernel backend
    and OpenBLAS read their variables at import time.
    """
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    import tempfile
    tempfile.tempdir = str(tmp_dir)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fingerprint(loadavg: Tuple[float, float, float], cpus: int,
                cpu: Optional[int]) -> Dict[str, object]:
    """CPU model, the usable CPUs and the load average
    ``os.getloadavg()`` read when the run started (``usable_cpus``),
    the CPU the run is pinned to, and interpreter and library versions."""
    import numpy
    import scipy

    load1, load5, load15 = loadavg
    return {
        "cpu_model": _cpu_model(),
        "nproc": cpus,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
        "env": dict(PINNED_ENV),
        "loadavg": [load1, load5, load15],
        "busy": load1 > BUSY_LOAD_PER_CPU * cpus,
    }
