"""The set-up a first call pays: import cutseq and fill its lazy caches.

Run as `python perfbench/lazy_setup.py <workload>` from the checkout root, it
does this in a fresh interpreter and prints the step times and its peak
resident memory as one JSON line; the benchmark reports the median of several
such children as `setup_s` and `rss_mb`.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time


def run(workload: str) -> dict[str, float]:
    """Import cutseq and warm what the workload's jobs use; seconds per step."""
    t0 = time.perf_counter()
    import cutseq

    if workload == "cli":
        import cutseq.cli

        cutseq.cli.build_parser()
    t1 = time.perf_counter()
    sizes = (4, 6) if workload == "trajectory-analysis" else (4,)
    for n in sizes:
        cutseq.build_polygon(n)
    t2 = time.perf_counter()
    cutseq.synthesize_table(4)
    t3 = time.perf_counter()
    if workload != "cli":
        for n in sizes:
            for i in range(2 * n):
                cutseq.build_diagram(i, n)
                cutseq.farey_apply(cutseq.ApproxDirection((i + 0.5) * math.pi / (2 * n)), n)
    if workload == "exact-directions":
        for i in range(8):
            cutseq.sector_interval((i, 1), 4)
    if workload == "generation-roundtrip":
        for k in range(8):
            cutseq.periodic_seeds(k, 4)
    t4 = time.perf_counter()
    return {
        "setup_s": t4 - t0,
        "import_s": t1 - t0,
        "build_polygon_ms": (t2 - t1) * 1e3,
        "synthesize_table_ms": (t3 - t2) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    sys.path.insert(0, "src")
    print(json.dumps(run(sys.argv[1])))
