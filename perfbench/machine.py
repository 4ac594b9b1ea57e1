"""The machine and base record that every run prints beside its metrics.

The base of every `cli` ratio is the interpreter floor, `python -c pass`,
which no cutseq change can move.  Part of that floor can be `site` importing
packages through `.pth` files in site-packages; the record names them.
"""

from __future__ import annotations

import glob
import os
import platform
import site
import statistics
import subprocess
import sys
import time


def wall_time(argv: list[str], cwd: str) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=cwd, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def site_imports(cwd: str) -> dict:
    """Modules that `site` imports at start-up taking at least 1 ms, and the .pth files that import."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "pass"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2][1:].rstrip()  # drop the space after the separator
            rows.append((name, int(parts[1])))
    heavy = {}
    site_us = 0
    for idx, (name, cumulative) in enumerate(rows):
        if name.strip() == "site" and name == name.lstrip():
            site_us = cumulative
            # site's direct children are printed just before it, indented by 2
            for child, child_us in reversed(rows[:idx]):
                if child == child.lstrip():
                    break
                if len(child) - len(child.lstrip()) == 2 and child_us >= 1000:
                    heavy[child.strip()] = round(child_us / 1e3, 3)
    pth = []
    for directory in site.getsitepackages():
        for path in sorted(glob.glob(os.path.join(directory, "*.pth"))):
            with open(path, encoding="utf-8", errors="replace") as fh:
                if any(line.startswith("import") for line in fh):
                    pth.append(os.path.basename(path))
    return {"site_ms": round(site_us / 1e3, 3), "site_heavy_imports_ms": heavy, "importing_pth": pth}


def record(root: str, repeats: int) -> dict:
    floor = [wall_time([sys.executable, "-c", "pass"], root) for _ in range(repeats)]
    importing = [
        wall_time([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import cutseq.cli"], root)
        for _ in range(repeats)
    ]
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "interpreter_s": statistics.median(floor),
        "import_cli_s": statistics.median(importing),
        "site": site_imports(root),
    }
