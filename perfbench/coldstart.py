"""One cold start of the program: imports, both libraries, service start.

``setup_s`` is the median of several cold starts per run: the run's
own, plus probes in fresh interpreters (``python3 -m
perfbench.coldstart WORKLOAD`` from the repository root, which prints
one JSON line).  Each probe measures from its first statement, so
interpreter start-up is outside the number in every sample.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]


def cold_start(t0: float, workload: str,
               service_dir: Optional[Path]) -> Tuple[float, float, object]:
    """Import the program, build both libraries and, for the service
    workload, start a service on ``service_dir``.

    Returns ``(setup_s, library_s, service)``; ``setup_s`` counts from
    ``t0``, taken before the first import of the program.
    """
    from repro.flow.compare import run_iso_performance_comparison  # noqa
    from repro.flow.design_flow import library_for

    t_lib = time.perf_counter()
    library_for("45nm", False)
    library_for("45nm", True)
    library_s = time.perf_counter() - t_lib
    service = start_service(service_dir) if workload == "service" else None
    return time.perf_counter() - t0, library_s, service


def start_service(data_dir: Path):
    """A one-worker service on an ephemeral port with an empty store."""
    from repro.service import ReproService, ServiceConfig

    return ReproService(ServiceConfig(jobs=1, data_dir=data_dir)).start()


def main(argv) -> int:
    t0 = time.perf_counter()
    workload, work_dir = argv[0], Path(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.host import scrub_environment
    scrub_environment(work_dir / "tmp")
    setup_s, _, service = cold_start(t0, workload, work_dir / "service")
    if service is not None:
        service.stop()
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
