"""Self-test of the benchmark; run `python3 perfbench/selftest.py` from the checkout root.

It checks the self-time arithmetic on a synthetic span tree, runs every
workload at a tiny size untraced and traced for two seeds, asserts that each
run is correct and prints exactly the metrics BENCHMARK.json names, with their
units, that another seed changes the inputs but not the metric names, and that
run.py prints its result as the last line and refuses a directory without
cutseq.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from run import WORKLOADS  # noqa: E402
from spans import layer_times, self_times  # noqa: E402


def check_self_times() -> None:
    # job [0, 10] has children [1, 4], [3, 6] (overlapping) and [9, 12] (clipped
    # to [9, 10]); a.f has child [2, 3].
    tree = [
        ("job", 0.0, 10.0, -1, 1),
        ("a.f", 1.0, 4.0, 0, 1),
        ("b.g", 3.0, 6.0, 0, 1),
        ("a.h", 2.0, 3.0, 1, 1),
        ("c.k", 9.0, 12.0, 0, 1),
    ]
    got = self_times(tree)
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, [4.0, 2.0, 3.0, 1.0, 3.0])), got
    layers = layer_times(tree)
    want = {"job": (10.0, 4.0), "a": (3.0, 3.0), "b": (3.0, 3.0), "c": (3.0, 3.0)}
    assert set(layers) == set(want), layers
    for key, (busy, own) in want.items():
        assert abs(layers[key][0] - busy) < 1e-12 and abs(layers[key][1] - own) < 1e-12, (key, layers)


def declared() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), spec["workloads"]
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def inputs(name: str, seed: int, scratch: str) -> list[str]:
    wl = harness.make_workload(name, scratch)
    return [repr({k: v for k, v in wl.make_input(seed, i).items() if k != "rng"}) for i in range(3)]


def check_workloads() -> None:
    spec = declared()
    scratch = os.path.join(harness.OUT_DIR, "selftest")
    os.makedirs(scratch, exist_ok=True)
    try:
        for name in WORKLOADS:
            assert inputs(name, 1, scratch) != inputs(name, 2, scratch), f"{name}: seed ignored"
            for traced, key in ((False, "end_to_end"), (True, "per_layer")):
                names = []
                for seed in (1, 2):
                    result = harness.benchmark(name, seed, 0.5, traced, tiny=True)["result"]
                    assert result["correct"], (name, traced, seed, result)
                    units = {k: m["unit"] for k, m in result["metrics"].items()}
                    assert units == spec[key], (name, key, set(units) ^ set(spec[key]))
                    names.append(list(units))
                assert names[0] == names[1], (name, traced)
                print(f"selftest: {name} trace={int(traced)} ok")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_command_line() -> None:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "generation-roundtrip",
            "--seed", "3", "--seconds", "0.5", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    bare = os.path.join(harness.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: command line ok")


def main() -> int:
    check_self_times()
    print("selftest: self times ok")
    check_command_line()
    check_workloads()
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
