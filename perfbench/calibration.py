"""Machine-speed calibration timed next to every job.

Shared cores change speed: on the 2-vCPU Xeon this benchmark was written on,
one fixed job repeated for a minute had an interquartile range of 35% of its
median, and its CPU time varied as much as its wall time.  The benchmark
therefore times a fixed piece of interpreter-bound work (a pass over a
12,000-letter text with zip, set, translate and dict operations, and some
Fraction arithmetic, as cutseq's jobs do) before and after each job and
reports the job's time rescaled to the reference speed:

    normalized = wall * REFERENCE_S / (mean of the two calibration times)

REFERENCE_S is the calibration's median time on that machine, so normalized
times read as seconds at its usual speed.  Raw wall times are kept in the
record beside them.  Over 90 seconds of fixed jobs of the three in-process
workloads, log job time against log calibration time had a slope of 1.08-1.14
and normalizing cut the spread of single jobs from about 0.25 to 0.13-0.16
(standard deviation of the log); a smaller integer loop had a slope of 0.71,
so it over-corrected.

The cli workload's jobs are child processes, which an in-process calibration
did not track (in trials it read a 15% spread of machine speed across runs
while the raw times of the same children spread by 6%).  Those jobs are rescaled by the
interpreter floor instead, `python -c pass` timed before and after each job,
over FLOOR_REFERENCE_S, and so are the set-up children.  The base record, the
floor itself and `import cutseq.cli`, is timed raw.
The benchmark pins itself and its children to one core, so calibration and
jobs run on the same core.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0024
FLOOR_REFERENCE_S = 0.065
_TEXT = "".join("ABCD"[(i * i + i // 3) % 4] for i in range(12_000))


def _work() -> int:
    s = _TEXT
    kept = "".join(b for a, b, c in zip(s, s[1:], s[2:]) if a == c)
    pairs = set(zip(s, s[1:]))
    swapped = s.translate(str.maketrans("ABCD", "DCBA"))
    seen: dict[str, int] = {}
    for i in range(1500):
        piece = s[i : i + 8]
        seen[piece] = seen.get(piece, 0) + 1
    f = Fraction(1, 3)
    for i in range(1, 30):
        f = f * Fraction(i, i + 1) + Fraction(1, i)
    return len(kept) + len(pairs) + len(swapped) + len(seen) + f.denominator % 7


def measure() -> float:
    """Seconds for one run of the calibration work."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def measure_floor() -> float:
    """Wall time of `python -c pass`, in seconds."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=120)
    return perf_counter() - t0
