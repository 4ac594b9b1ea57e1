"""End-to-end metrics of the untraced run and per-layer metrics of the traced run."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import cached_property

from spans import busy_by_name, layer_times
from workloads import CLI_KINDS

MODULES = ("exact_arith", "polygon", "symbolic", "farey", "tracer", "generation", "coherence", "cli")


@dataclass
class Job:
    index: object
    seconds: float
    problems: list[str]
    counts: dict
    factor: float = 1.0  # machine slowness around the job, see calibration.py

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def normalized(self) -> float:
        return self.seconds / self.factor


@dataclass
class Phase:
    """Jobs of one traced phase with their spans and units of work."""

    jobs: list[Job]
    spans: list[tuple] = field(default_factory=list)
    units: dict[str, int] = field(default_factory=dict)

    def scale(self) -> dict:
        """Per job id, the factor that rescales its spans to the reference speed."""
        return {j.index: 1.0 / j.factor for j in self.jobs}

    @cached_property
    def busy(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, busy seconds at the reference speed)."""
        return busy_by_name(self.spans, self.scale())

    def durations(self, name: str) -> list[float]:
        scale = self.scale()
        return [(end - start) * scale[job] for n, start, end, _, job in self.spans if n == name]

    def total(self, key: str) -> int:
        return sum(j.counts.get(key, 0) for j in self.jobs)

    def largest(self, key: str) -> int:
        return max((j.counts.get(key, 0) for j in self.jobs), default=0)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, jobs beyond) of the highest percentile with ten jobs beyond it.

    That is the eleventh-slowest job, the percentile 100 (n - 10) / n; with ten
    jobs or fewer it is the slowest job, percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - 10) / n, ordered[-11], 10


def end_to_end(jobs: list[Job], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """Job times are normalized to the reference machine speed (calibration.py)."""
    times = [j.normalized for j in jobs]
    passed = sum(j.ok for j in jobs)
    percentile, tail_s, beyond = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (passed / sum(times), "1/s"),
        "pass_ratio": (passed / len(jobs), "ratio"),
        "rss_mb": (rss_mb, "MB"),
    }
    raw = [j.seconds for j in jobs]
    return metrics, {
        "tail_percentile": percentile, "jobs": len(jobs), "jobs_beyond_tail": beyond,
        "raw_job_p50_s": statistics.median(raw), "raw_job_tail_s": tail(raw)[1],
        "median_factor": statistics.median(j.factor for j in jobs),
    }


# (metric, span name, unit, scale): busy time of the span name per unit of work.
RATES = (
    ("tracer.float.ns_per_crossing", "tracer.trace_word", "ns", 1e9),
    ("tracer.exact.us_per_crossing", "tracer.detect_period.exact", "us", 1e6),
    ("symbolic.derive.ns_per_letter", "symbolic.derive", "ns", 1e9),
    ("symbolic.permute.ns_per_letter", "symbolic.permute", "ns", 1e9),
    ("symbolic.admissible_diagrams.ns_per_letter", "symbolic.admissible_diagrams", "ns", 1e9),
    ("symbolic.factor_counts_upto.ns_per_letter", "symbolic.factor_counts_upto", "ns", 1e9),
    ("symbolic.factor_set.ns_per_letter", "symbolic.factor_set", "ns", 1e9),
    ("coherence.renormalize.ms_per_level", "coherence.renormalize", "ms", 1e3),
    ("coherence.check_coherent.ns_per_letter", "coherence.check_coherent", "ns", 1e9),
    ("coherence.decompose_candidates.ns_per_letter", "coherence.decompose_candidates", "ns", 1e9),
    ("coherence.recognize_direction.ms_per_call", "coherence.recognize_direction", "ms", 1e3),
    ("farey.itinerary.exact.us_per_step", "farey.itinerary.exact", "us", 1e6),
    ("farey.sector_interval.us_per_entry", "farey.sector_interval", "us", 1e6),
    ("farey.is_terminating.us_per_step", "farey.is_terminating", "us", 1e6),
    ("farey.itinerary.float.us_per_step", "farey.itinerary.float", "us", 1e6),
    ("exact_arith.moebius_apply.us_per_call", "exact_arith.moebius_apply", "us", 1e6),
    ("exact_arith.mat2_matmul.us_per_call", "exact_arith.mat2_matmul", "us", 1e6),
    ("polygon.sector_of.exact.us_per_call", "polygon.sector_of.exact", "us", 1e6),
    ("generation.generate.ns_per_output_letter", "generation.generate", "ns", 1e9),
    ("generation.build_family.ms_per_level", "generation.build_family", "ms", 1e3),
    ("generation.enumerate_factors.ms_per_call", "generation.enumerate_factors", "ms", 1e3),
)

# (metric, job count key, value over the jobs that carry the key)
RATIOS = (
    ("tracer.exact.period_found_ratio", "period",
     lambda js: sum(j.counts["period"] > 0 for j in js) / len(js)),
    ("tracer.start_retry_ratio", "starts",
     lambda js: sum(j.counts["restarts"] for j in js) / sum(j.counts["starts"] for j in js)),
    ("coherence.window_regrow_ratio", "regrows",
     lambda js: sum(j.counts["regrows"] for j in js) / len(js)),
    ("generation.enumerate.ceiling_ratio", "ceiling_hits",
     lambda js: sum(j.counts["ceiling_hits"] for j in js) / len(js)),
)


def _workload_or_probe(main: Phase, probe: Phase, measure) -> tuple[float, str]:
    """measure(phase) on the workload's jobs, or on the probe's when it gives None."""
    for label, phase in (("workload", main), ("probe", probe)):
        value = measure(phase)
        if value is not None:
            return value, label
    return 0.0, "none"


def _rate(name: str, scale: float):
    def measure(phase: Phase):
        units = phase.units.get(name, 0)
        return phase.busy[name][1] / units * scale if units else None
    return measure


def _ratio(key: str, ratio):
    def measure(phase: Phase):
        carrying = [j for j in phase.jobs if key in j.counts]
        return ratio(carrying) if carrying else None
    return measure


def _median_duration(name: str):
    def measure(phase: Phase):
        durations = phase.durations(name)
        return statistics.median(durations) if durations else None
    return measure


def per_layer(main: Phase, probe: Phase, untraced: list[Job], setup: dict, base: dict,
              baseline: dict) -> tuple[dict, dict]:
    """Per-layer metrics and, per rate, whether the workload or the probe gave it.

    Times are normalized to the reference machine speed, span by span with the
    factor of the span's job.  Counts are totals over the traced phase.  A rate
    or ratio the workload's own jobs give no sample of is read from the probe,
    one job of every other workload, so each layer's unit cost is measured in
    every traced run.
    """
    out: dict[str, tuple[float, str]] = {}
    sources: dict[str, str] = {}
    measured = [(metric, unit, _rate(name, scale)) for metric, name, unit, scale in RATES]
    measured += [(metric, "ratio", _ratio(key, ratio)) for metric, key, ratio in RATIOS]
    measured += [(f"cli.{kind}.p50_s", "s", _median_duration(f"cli.{kind}")) for kind in CLI_KINDS]
    for metric, unit, measure in measured:
        value, sources[metric] = _workload_or_probe(main, probe, measure)
        out[metric] = (value, unit)
    jobs = len(main.jobs)
    symbolic_calls = sum(calls for name, (calls, _) in main.busy.items()
                         if name.startswith("symbolic."))
    out["symbolic.calls_per_job"] = (symbolic_calls / jobs, "calls/job")
    out["tracer.float.crossings"] = (main.units.get("tracer.trace_word", 0), "count")
    out["tracer.exact.crossings"] = (main.units.get("tracer.detect_period.exact", 0), "count")
    out["coherence.levels"] = (main.units.get("coherence.renormalize", 0), "count")
    for level in range(6):
        out[f"coherence.window_letters.l{level}"] = (main.total(f"l{level}"), "count")
    out["farey.exact_steps"] = (main.total("farey_steps"), "count")
    out["farey.max_coeff_bits"] = (main.largest("coeff_bits"), "bits")
    out["generation.max_family_letters"] = (main.largest("max_family_letters"), "count")
    out["polygon.build_polygon.ms"] = (setup["build_polygon_ms"], "ms")
    out["generation.synthesize_table.ms"] = (setup["synthesize_table_ms"], "ms")
    out["cli.interpreter_s"] = (base["interpreter_s"], "s")
    out["cli.import_s"] = (base["import_cli_s"], "s")
    job_time = sum(main.durations("job"))
    modules = layer_times(main.spans, main.scale())
    for module in MODULES:
        busy_s, self_s = modules.get(module, (0.0, 0.0))
        out[f"{module}.busy_share"] = (busy_s / job_time, "ratio")
        out[f"{module}.self_share"] = (self_s / job_time, "ratio")
    traced = statistics.median(j.normalized for j in main.jobs)
    plain = statistics.median(j.normalized for j in untraced)
    out["trace.traced_job_p50_s"] = (traced, "s")
    out["trace.untraced_job_p50_s"] = (plain, "s")
    out["trace.overhead_ratio"] = (traced / plain - 1.0, "ratio")
    for key, value in baseline.items():
        out[f"baseline.{key}"] = value
    detail = {
        "sources": sources,
        "modules_s": {m: dict(zip(("busy", "self"), modules.get(m, (0.0, 0.0)))) for m in MODULES},
        "job_s": job_time,
    }
    return out, detail
