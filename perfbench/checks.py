"""Output checks: an operation that fails one counts in ``failed``.

Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional

# The seed whose Table 4 pairs are pinned by ``goldens/table4.json``.
GOLDEN_SEED = 0


def golden_row(circuit: str) -> Optional[Dict[str, object]]:
    """A one-row golden for ``circuit`` from ``goldens/table4.json``,
    with that file's own tolerances; None if the file has no such row."""
    from repro.check.goldens import load_golden

    golden = load_golden("table4")
    if golden is None:
        raise FileNotFoundError("goldens/table4.json is missing")
    for row in golden["rows"]:
        if row["circuit"] == circuit.upper():
            return {"experiment": "table4",
                    "tolerances": golden.get("tolerances", {}),
                    "rows": [row]}
    return None


def check_golden_row(golden: Mapping[str, object],
                     row: Mapping[str, object]) -> List[str]:
    """The pair's ``summary_row()`` against its golden row."""
    from repro.check.goldens import compare_rows

    diff = compare_rows(golden, [dict(row)])
    if diff.ok:
        return []
    bad = [d.describe() for d in diff.deviations if not d.within]
    return [f"table4 golden: {diff.message}"] + bad


def check_pair(pair) -> List[str]:
    """Both designs came back and the 2D design meets timing.

    A T-MI design that misses the 2D clock is the audit's warning, not
    a failure: LDPC T-MI misses timing at iso-performance.
    """
    problems = []
    if pair.result_2d is None or pair.result_3d is None:
        problems.append("pair is missing a design")
    elif not pair.result_2d.met:
        problems.append(
            f"2D design misses timing (WNS {pair.result_2d.wns_ps:.1f} ps)")
    return problems


def canonical(result: object) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def check_job(job_class: str, record: Mapping[str, object],
              first_result: Optional[str]) -> List[str]:
    """One finished service job against what its class must show.

    ``first_result`` is the canonical result of the first execution of
    the same key (None for a first execution).
    """
    problems = []
    if record.get("state") != "done":
        problems.append(f"{job_class} job ended {record.get('state')!r}: "
                        f"{record.get('message') or ''}")
        return problems
    metrics = record.get("metrics") or {}
    hits = {k.rsplit(".", 1)[1] for k, v in metrics.items()
            if k.startswith("checkpoint.stage_hits.") and v}
    misses = {k.rsplit(".", 1)[1] for k, v in metrics.items()
              if k.startswith("checkpoint.stage_misses.") and v}
    if first_result is not None and \
            canonical(record.get("result")) != first_result:
        problems.append(f"{job_class} result differs from the first "
                        f"execution of job {record.get('key')}")
    if job_class == "dup" and misses:
        problems.append(f"dup job missed stage(s) {sorted(misses)}")
    elif job_class == "repower" and misses != {"power"}:
        problems.append(f"repower job missed {sorted(misses)}, "
                        f"expected only power")
    elif job_class == "reroute" and not {"synthesis", "placement"} <= hits:
        problems.append(f"reroute job hit {sorted(hits)}, expected "
                        f"synthesis and placement")
    elif job_class == "cold" and hits:
        problems.append(f"cold job hit stage(s) {sorted(hits)}")
    return problems
