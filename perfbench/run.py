"""Fixed-seed benchmark of cutseq through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; cutseq is imported from `src/`.  One process,
one thread, a closed loop with one job at a time (the `cli` workload keeps at
most one child process alive).  Every job's output is checked.

--trace 0 runs jobs for S seconds of loop time at the reference machine speed
(calibration.py) and reports the end-to-end metrics.
--trace 1 runs a fixed number of jobs twice, untraced and then traced, so the
difference of the two job medians is the tracing overhead; it then runs a probe
(one job of every other workload) and the baseline cases, and reports the
per-layer metrics.  Spans, counts and the machine record go to `.perfbench/`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it list the same metrics
with their units, the machine record and the per-module busy and self times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trajectory-analysis", "exact-directions", "generation-roundtrip", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cutseq", "__init__.py")):
        sys.stderr.write("perfbench: no src/cutseq here; run from the root of a cutseq checkout\n")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness

    out = harness.benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in harness.report(out):
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
