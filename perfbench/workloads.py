"""The four benchmark workloads: inputs from a seed, one timed job, its checks.

Each workload draws the inputs of job `index` from its own random stream
(workload name, seed, index), so any job can be rebuilt alone and the same
seed always gives the same inputs.  `run` is the timed job: it calls cutseq's
public API through a Tracer, which records a span per call in the traced run.
`check` is untimed: it returns the problems found in the job's output and the
job's integer counts, which must repeat exactly on every run of the same seed.

Why these workloads (each stresses different layers):

- trajectory-analysis: the float tracer, the word kernel and coherence on
  traced windows of 10^4 letters or more; exact arithmetic and generation stay
  idle.
- exact-directions: exact Q(sqrt 2) scalars, the Farey map and the exact tracer,
  with coefficients that grow with depth; the word kernel stays idle.
- generation-roundtrip: the same word functions as trajectory-analysis, but on
  thousands of short words that grow under generation; the tracer stays idle.
- cli: one `python -m cutseq.cli` process per job, so interpreter start, import,
  argparse and JSON are paid on every call, as a shell user pays them.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import calibration
from cutseq import (
    ApproxDirection,
    ExactDirection,
    Expansion,
    Mat2,
    PeriodicWord,
    Q2Scalar,
    TraceConfig,
    VertexHit,
    admissible_diagrams,
    build_diagram,
    build_family,
    build_polygon,
    check_coherent,
    derive,
    detect_period,
    direction_from_expansion,
    enumerate_factors,
    generate,
    is_terminating,
    isometry_nu,
    itinerary,
    moebius_apply,
    periodic_seeds,
    permute,
    plot_svg,
    recognize_direction,
    renormalize,
    sector_interval,
    sector_of,
    sector_permutation,
    trace,
    trace_word,
    veech_elements,
)
from cutseq.coherence import decompose_candidates
from cutseq.symbolic import factor_counts_upto, factor_set, word_text

EXACT_START = (Q2Scalar(Fraction(1, 10)), Q2Scalar(Fraction(1, 7)))
FLOAT_START = (0.1, 1 / 7)


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def interior_point(rng: random.Random, n: int) -> tuple[float, float]:
    """Uniform point of the disc inside the regular 2n-gon with unit sides."""
    radius = 0.99 / (2.0 * math.tan(math.pi / (2 * n)))
    while True:
        x, y = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
        if x * x + y * y < radius * radius:
            return (x, y)


def _longest_parabolic_run(entries, n: int) -> int:
    best = run = 0
    prev = None
    for e in entries:
        run = run + 1 if e == prev and e in (1, 2 * n - 1) else 1
        prev = e
        best = max(best, run)
    return best


def generic_theta(rng: random.Random, n: int, sector: int) -> float:
    """A direction in the given sector, drawn as in acceptance criteria 06/07.

    Directions whose early expansion rides a parabolic fixed point for more
    than 7 steps sit within float distance of a terminating direction and are
    redrawn, as the criteria do.
    """
    lo = max(0.02, sector * math.pi / (2 * n))
    hi = min(math.pi - 0.02, (sector + 1) * math.pi / (2 * n))
    while True:
        theta = rng.uniform(lo, hi)
        d = ApproxDirection(theta)
        if is_terminating(d, n, 60).terminating:
            continue
        if _longest_parabolic_run(itinerary(d, n, 30), n) <= 7:
            return theta


def random_cycle(diagram, rng: random.Random, max_len: int = 24) -> PeriodicWord:
    """A random admissible periodic word, drawn as in acceptance criterion 04."""
    letters = sorted({a for a, _ in diagram.edges})
    while True:
        start = rng.choice(letters)
        path = [start]
        for _ in range(max_len):
            nxt = rng.choice(diagram.successors(path[-1]))
            if nxt == start and len(path) >= 3:
                return PeriodicWord.of("".join(path))
            path.append(nxt)


def random_prefix(rng: random.Random, depth: int, n: int = 4) -> tuple[int, ...]:
    top = 2 * n - 1
    return (rng.randint(0, top),) + tuple(rng.randint(1, top) for _ in range(depth - 1))


def random_mu(rng: random.Random, stratum: int | None = None) -> Q2Scalar:
    """A nonzero quadratic inverse slope a/q + (b/r) sqrt 2, drawn as in criterion 08.

    With a stratum, the denominators (q, r) are the stratum's pair among the
    nine in {1, 2, 3}^2 instead of random ones, so that a run's jobs cover the
    pairs evenly.
    """
    while True:
        if stratum is None:
            q, r = rng.randint(1, 3), rng.randint(1, 3)
        else:
            q, r = 1 + stratum % 3, 1 + stratum // 3 % 3
        mu = Q2Scalar(Fraction(rng.randint(-4, 4), q), Fraction(rng.randint(-4, 4), r))
        if not mu.is_zero():
            return mu


def periodic_mu(rng: random.Random, budget: int, stratum: int | None = None) -> Q2Scalar:
    """A quadratic slope whose orbit from the fixed start closes within budget.

    The float tracer screens the slope from the float image of the exact start;
    slopes with longer periods (or a vertex hit) are redrawn, as criterion 08
    keeps only short periods for its exact spot check.
    """
    poly = build_polygon(4)
    while True:
        mu = random_mu(rng, stratum)
        theta = ExactDirection.from_cot(mu).theta()
        try:
            period = detect_period(
                poly, FLOAT_START, ApproxDirection(theta), TraceConfig(max_crossings=budget)
            )
        except VertexHit:
            continue
        if period is not None:
            return mu


def coeff_bits(*values) -> int:
    """Largest numerator or denominator bit length among exact directions/matrices."""
    best = 0
    for v in values:
        scalars = v.entries() if isinstance(v, Mat2) else (v.x, v.y)
        for s in scalars:
            for f in (s.a, s.b):
                best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


def _order(a, b):
    return (a, b) if a.angle_key() <= b.angle_key() else (b, a)


# -- trajectory-analysis --------------------------------------------------------


class TrajectoryAnalysis:
    """Trace a generic direction, renormalize, check coherence, recognize.

    The window starts at FIRST_WINDOW letters and doubles, up to LAST_WINDOW,
    while a finite window can still be too short: while some factor count up to
    MAX_FACTOR is below (n-1)l+1 or, on the octagon, renormalization stops
    before LEVELS levels.  The check then demands exact counts, so a count above
    the bound, or one still below it at LAST_WINDOW, fails the job.  Every
    fourth job runs on the dodecagon and does only the trace and the factor
    counts.  Directions cycle through the sectors.
    """

    name = "trajectory-analysis"
    calibrate = staticmethod(calibration.measure)
    reference_s = calibration.REFERENCE_S
    jobs_per_second = 9
    LEVELS = 5
    COHERENCE_LEVELS = 3
    MAX_FACTOR = 20
    FIRST_WINDOW = 10_000
    LAST_WINDOW = 1_280_000

    def make_input(self, seed: int, index: int) -> dict:
        rng = job_rng(self.name, seed, index)
        n = 6 if index % 4 == 3 else 4
        theta = generic_theta(rng, n, (index // 4) % (2 * n))
        return {"n": n, "theta": theta, "start": interior_point(rng, n), "rng": rng}

    def run(self, inp: dict, tr) -> dict:
        n, theta = inp["n"], inp["theta"]
        poly = tr.call("polygon.build_polygon", 1, build_polygon, n)
        d = ApproxDirection(theta)
        out = {"starts": 0, "restarts": 0, "crossings": 0, "regrows": 0, "ren": None}
        start, window = inp["start"], self.FIRST_WINDOW
        while True:
            out["starts"] += 1
            try:
                word = tr.call(
                    "tracer.trace_word", window, trace_word, poly, start, d,
                    TraceConfig(max_crossings=window),
                )
            except VertexHit as hit:
                out["restarts"] += 1
                out["crossings"] += hit.crossing
                start = interior_point(inp["rng"], n)
                continue
            out["crossings"] += window
            counts = tr.call(
                "symbolic.factor_counts_upto", window, factor_counts_upto, word, self.MAX_FACTOR
            )
            complete = all(c >= (n - 1) * k + 1 for k, c in counts.items())
            ren = None
            if n == 4:
                ren = tr.call("coherence.renormalize", 0, renormalize, word, self.LEVELS, 4)
                tr.add_units("coherence.renormalize", ren.depth)
            settled = ren is None or (ren.failure is None and ren.depth == self.LEVELS)
            if (complete and settled) or window >= self.LAST_WINDOW:
                break
            window *= 2
            out["regrows"] += 1
        out.update(word=word, counts=counts, ren=ren)
        if n != 4:
            return out
        out["admissible"] = tr.call(
            "symbolic.admissible_diagrams", window, admissible_diagrams, word, 4
        )
        out["expected"] = tr.call("farey.itinerary.float", self.LEVELS, itinerary, d, 4, self.LEVELS)
        levels = []
        cur = word
        for lev in range(self.COHERENCE_LEVELS):
            i, j = ren.diagrams[lev], ren.diagrams[lev + 1]
            verdict = tr.call("coherence.check_coherent", len(cur), check_coherent, cur, i, j, 4)
            cands = tr.call(
                "coherence.decompose_candidates", len(cur), decompose_candidates, cur, i, 4
            )
            levels.append((cur, i, j, verdict, cands))
            normalized = tr.call("symbolic.permute", len(cur), permute, sector_permutation(i, 4), cur)
            cur = tr.call("symbolic.derive", len(normalized), derive, normalized)
        out["levels"] = levels
        out["interval"] = tr.call(
            "coherence.recognize_direction", 1, recognize_direction, word, self.LEVELS, 4
        )
        return out

    def check(self, inp: dict, out: dict) -> tuple[list[str], dict]:
        n = inp["n"]
        problems = []
        counts = out["counts"]
        for length in range(1, self.MAX_FACTOR + 1):
            if counts[length] != (n - 1) * length + 1:
                problems.append(f"factor count {counts[length]} at length {length}")
                break
        result = {
            "window": len(out["word"]),
            "crossings": out["crossings"],
            "regrows": out["regrows"],
            "restarts": out["restarts"],
            "starts": out["starts"],
            "factors": sum(counts.values()),
        }
        if n != 4:
            return problems, result
        ren = out["ren"]
        if ren.failure is not None or ren.depth != self.LEVELS:
            problems.append(f"renormalize stopped: {ren.failure} at depth {ren.depth}")
            return problems, result
        if ren.diagrams != out["expected"]:
            problems.append(f"diagrams {ren.diagrams} != itinerary {out['expected']}")
        if out["expected"][0] not in out["admissible"]:
            problems.append("window not admissible in its own sector")
        for lev, (cur, i, j, verdict, cands) in enumerate(out["levels"]):
            if word_text(ren.steps[lev].word) != cur:
                problems.append(f"level {lev}: derive(permute) differs from renormalize")
            if not verdict.accepted:
                problems.append(f"level {lev}: ({i},{j}) rejected with {verdict.failed}")
            sectors = [jj for jj, _ in cands]
            if j not in sectors:
                problems.append(f"level {lev}: sector {j} not among candidates {sectors}")
            if any(not check_coherent(cur, i, jj, 4).accepted for jj in sectors):
                problems.append(f"level {lev}: coherence routes disagree")
        if not out["interval"].contains_theta(inp["theta"]):
            problems.append("recognized interval misses theta")
        last = derive(ren.steps[-1].normalized)
        lengths = [len(word_text(s.word)) for s in ren.steps] + [len(word_text(last))]
        result.update({f"l{k}": v for k, v in enumerate(lengths)})
        result["levels"] = ren.depth
        return problems, result


# -- exact-directions -------------------------------------------------------------


class ExactDirections:
    """Exact expansion, cylinder pullback, exact period and double expansions.

    One quadratic slope per job (criterion 08's draw with the denominators
    cycling with the job index, screened for a period within PERIOD_BUDGET
    crossings from the fixed exact start), one random valid
    prefix whose depth cycles through 20-60 with the job index, and one
    double-expansion pair (criterion 10's form,
    after a random prefix).  The prefix's cylinder is pushed forward through
    every branch with moebius_apply and through their Mat2 product; one random
    intermediate image and the last one are compared with cylinders that
    sector_interval pulls back independently.
    """

    name = "exact-directions"
    calibrate = staticmethod(calibration.measure)
    reference_s = calibration.REFERENCE_S
    jobs_per_second = 9
    TERMINATION_DEPTH = 60
    ITINERARY_DEPTH = 40
    PERIOD_BUDGET = 80

    def make_input(self, seed: int, index: int) -> dict:
        rng = job_rng(self.name, seed, index)
        mu = periodic_mu(rng, self.PERIOD_BUDGET, stratum=index % 9)
        prefix = random_prefix(rng, 20 + (index * 17) % 41)
        head = random_prefix(rng, rng.randint(1, 3))[:-1]
        odd = rng.choice((3, 5, 7))
        return {
            "mu": mu,
            "prefix": prefix,
            "spot": rng.randrange(1, len(prefix)),
            "pair": (head + (odd,), head + (odd - 1,)),
        }

    def run(self, inp: dict, tr) -> dict:
        poly = tr.call("polygon.build_polygon", 1, build_polygon, 4)
        d = ExactDirection.from_cot(inp["mu"])
        out = {"sector": tr.call("polygon.sector_of.exact", 1, sector_of, d, 4)}
        term = tr.call("farey.is_terminating", 0, is_terminating, d, 4, self.TERMINATION_DEPTH)
        tr.add_units("farey.is_terminating", term.depth)
        out["term"] = term
        out["itinerary"] = tr.call(
            "farey.itinerary.exact", self.ITINERARY_DEPTH, itinerary, d, 4, self.ITINERARY_DEPTH
        )
        prefix = inp["prefix"]
        iv = tr.call("farey.sector_interval", len(prefix), sector_interval, prefix, 4)
        _, gamma = veech_elements(4)
        images = []
        lo, hi = iv.lo, iv.hi
        product = Mat2.identity()
        for entry in prefix[:-1]:
            branch = tr.call("exact_arith.mat2_matmul", 1, operator.matmul, gamma, isometry_nu(entry, 4))
            product = tr.call("exact_arith.mat2_matmul", 1, operator.matmul, branch, product)
            lo, hi = _order(
                tr.call("exact_arith.moebius_apply", 1, moebius_apply, branch, lo),
                tr.call("exact_arith.moebius_apply", 1, moebius_apply, branch, hi),
            )
            images.append((lo, hi))
        out.update(interval=iv, images=images, product=product)
        out["product_image"] = _order(
            tr.call("exact_arith.moebius_apply", 1, moebius_apply, product, iv.lo),
            tr.call("exact_arith.moebius_apply", 1, moebius_apply, product, iv.hi),
        )
        spot = prefix[inp["spot"]:]
        out["spot"] = tr.call("farey.sector_interval", len(spot), sector_interval, spot, 4)
        out["period"] = tr.call(
            "tracer.detect_period.exact", self.PERIOD_BUDGET, detect_period, poly, EXACT_START, d,
            TraceConfig(max_crossings=self.PERIOD_BUDGET, mode="exact"),
        )
        out["pair"] = [
            tr.call(
                "farey.direction_from_expansion", 60, direction_from_expansion,
                Expansion(4, form, 1), 60,
            )
            for form in inp["pair"]
        ]
        return out

    def check(self, inp: dict, out: dict) -> tuple[list[str], dict]:
        problems = []
        term, itin = out["term"], out["itinerary"]
        if not (term.terminating and term.certainty == "exact" and term.tail in (1, 7)):
            problems.append(f"termination {term.terminating}/{term.certainty}/{term.tail}")
        elif itin[: term.depth] != term.itinerary or any(e != term.tail for e in itin[term.depth:]):
            problems.append("itinerary disagrees with the termination tail")
        if out["sector"] != itin[0]:
            problems.append("sector_of disagrees with the itinerary")
        prefix, images = inp["prefix"], out["images"]
        spot = out["spot"]
        if images[inp["spot"] - 1] != (spot.lo, spot.hi):
            problems.append("branch image differs from the pulled-back cylinder")
        last = sector_interval(prefix[-1:], 4)
        if images[-1] != (last.lo, last.hi) or out["product_image"] != (last.lo, last.hi):
            problems.append("branches do not map the cylinder onto the last sector")
        if out["period"] is None:
            problems.append(f"no exact period within {self.PERIOD_BUDGET} crossings")
        a, b = out["pair"]
        if a.lo != b.lo:
            problems.append(f"double expansions {inp['pair']} differ")
        iv = out["interval"]
        return problems, {
            "term_depth": term.depth,
            "tail": term.tail or 0,
            "farey_steps": term.depth + self.ITINERARY_DEPTH,
            "prefix_depth": len(prefix),
            "coeff_bits": coeff_bits(iv.lo, iv.hi, out["product"]),
            "period": out["period"] or 0,
            "crossings": self.PERIOD_BUDGET,
        }


# -- generation-roundtrip ---------------------------------------------------------


class GenerationRoundtrip:
    """Generate, derive back and decompose a batch of short periodic words.

    The job's sector k, the family depth (2-7) and the words cycle with the job
    index, so every run sees the same mix.
    """

    name = "generation-roundtrip"
    calibrate = staticmethod(calibration.measure)
    reference_s = calibration.REFERENCE_S
    jobs_per_second = 8
    BATCH = 800

    def make_input(self, seed: int, index: int) -> dict:
        rng = job_rng(self.name, seed, index)
        k = 1 + index % 7
        diagram = build_diagram(k, 4)
        return {
            "k": k,
            "words": [random_cycle(diagram, rng) for _ in range(self.BATCH)],
            "prefix": random_prefix(rng, 2 + (index // 7) % 6),
            "factor_length": rng.randint(5, 20),
            "theta": generic_theta(rng, 4, rng.randrange(8)),
            "enum_length": rng.randint(10, 30),
        }

    def run(self, inp: dict, tr) -> dict:
        k = inp["k"]
        rounds = []
        for w in inp["words"]:
            g = tr.call("generation.generate", 0, generate, k, 0, w, 4)
            tr.add_units("generation.generate", len(g.period))
            v = tr.call("symbolic.derive", len(g.period), derive, g)
            cands = tr.call("coherence.decompose_candidates", len(g.period), decompose_candidates, g, 0, 4)
            rounds.append((g, v, cands))
        family = sorted(
            tr.call("generation.build_family", len(inp["prefix"]), build_family, inp["prefix"]),
            key=word_text,
        )
        factors = [
            tr.call("symbolic.factor_set", len(word_text(x)), factor_set, x, inp["factor_length"])
            for x in family
        ]
        enum = tr.call(
            "generation.enumerate_factors", 1, enumerate_factors,
            ApproxDirection(inp["theta"]), inp["enum_length"],
        )
        return {"rounds": rounds, "family": family, "factors": factors, "enum": enum}

    def check(self, inp: dict, out: dict) -> tuple[list[str], dict]:
        problems = []
        k = inp["k"]
        for w, (g, v, cands) in zip(inp["words"], out["rounds"]):
            if v != w:
                problems.append(f"derive(generate({k}->0, {w})) = {v}")
            if (k, w) not in cands:
                problems.append(f"decomposition of g({k}->0, {w}) misses sector {k}")
        first = build_diagram(inp["prefix"][0], 4)
        if not out["family"] or not all(first.admits(x) for x in out["family"]):
            problems.append(f"family of {inp['prefix']} not admissible in its first sector")
        lengths = [len(word_text(x)) for x in out["family"]]
        ceiling = 3 * inp["enum_length"] + 1
        return problems, {
            "generated_letters": sum(len(g.period) for g, _, _ in out["rounds"]),
            "family_words": len(lengths),
            "family_letters": sum(lengths),
            "max_family_letters": max(lengths, default=0),
            "factor_set_sizes": sum(len(f) for f in out["factors"]),
            "enum_factors": len(out["enum"]),
            "ceiling_hits": int(len(out["enum"]) >= ceiling),
        }


# -- cli ------------------------------------------------------------------------------


CLI_KINDS = (
    "trace", "trace-exact", "plot", "derive", "diagrams", "recognize", "expand-direction",
    "generate", "seeds", "families", "enumerate", "check-coherence", "complexity", "malformed",
)
# Every call carries a fixed --timestamp, as the repository's replay test does:
# a manifest written without one does not replay byte for byte, because the
# replayed manifest then lists --timestamp among its flags.
CLI_TIMESTAMP = "2026-01-01T00:00:00+00:00"


def _flag(name: str, value) -> str:
    return f"--{name}={value}"


def _cli_options() -> dict[str, dict[str, str]]:
    """Per subcommand, the option string that sets each manifest flag (dest)."""
    from cutseq.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and isinstance(a.choices, dict))
    return {
        name: {a.dest: a.option_strings[0] for a in sp._actions if a.option_strings}
        for name, sp in sub.choices.items()
    }


class Cli:
    """One `python -m cutseq.cli` process per job, the kinds taken in turn.

    Outputs are compared with the same call made in-process; the first job of
    each kind also replays its manifest and must reproduce the bytes exactly.
    The malformed input passes when it exits non-zero without a traceback.
    """

    name = "cli"
    calibrate = staticmethod(calibration.measure_floor)
    reference_s = calibration.FLOOR_REFERENCE_S
    jobs_per_second = 4
    CLI_TIMEOUT_S = 120

    def __init__(self, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH="src")
        self._options = None

    def _traced_window(self, rng, length: int) -> str:
        theta = generic_theta(rng, 4, rng.randrange(8))
        while True:
            try:
                return trace_word(
                    build_polygon(4), interior_point(rng, 4), ApproxDirection(theta),
                    TraceConfig(max_crossings=length),
                )
            except VertexHit:
                continue

    def make_input(self, seed: int, index: int) -> dict:
        rng = job_rng(self.name, seed, index)
        kind = CLI_KINDS[index % len(CLI_KINDS)]
        inp = {"kind": kind, "index": index}
        if kind in ("trace", "plot", "complexity", "enumerate"):
            inp["theta"] = generic_theta(rng, 4, rng.randrange(8))
        if kind == "trace":
            inp["start"] = interior_point(rng, 4)
            inp["crossings"] = rng.randint(100, 400)
            argv = ["trace", _flag("theta", repr(inp["theta"])), _flag("crossings", inp["crossings"]),
                    _flag("start", "%r,%r" % inp["start"])]
        elif kind == "trace-exact":
            inp["mu"] = periodic_mu(rng, 60)
            argv = ["trace", _flag("cot", inp["mu"]), "--exact", _flag("crossings", 60),
                    _flag("start", "1/10,1/7")]
        elif kind == "plot":
            inp["start"] = interior_point(rng, 4)
            argv = ["plot", _flag("theta", repr(inp["theta"])), _flag("crossings", 50),
                    _flag("start", "%r,%r" % inp["start"])]
        elif kind == "derive":
            inp["word"] = self._traced_window(rng, rng.randint(1000, 3000))
            inp["times"] = rng.randint(2, 3)
            argv = ["derive", _flag("word", inp["word"]), _flag("times", inp["times"])]
        elif kind == "diagrams":
            inp["n"] = rng.choice((3, 4, 5, 6, 8))
            argv = ["diagrams", _flag("n", inp["n"])]
        elif kind == "recognize":
            inp["word"] = self._traced_window(rng, 10_000)
            path = os.path.join(self.scratch, f"window-{index}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(inp["word"])
            # relative to the checkout, so the manifest (and the output) is the same in any checkout
            argv = ["recognize", _flag("word-file", os.path.relpath(path, self.root)), _flag("depth", 5)]
        elif kind == "expand-direction":
            inp["mu"] = random_mu(rng)
            inp["depth"] = rng.randint(8, 30)
            argv = ["expand-direction", _flag("cot", inp["mu"]), _flag("depth", inp["depth"])]
        elif kind == "generate":
            inp["src"], inp["dst"] = rng.randint(1, 7), rng.randint(0, 7)
            inp["word"] = random_cycle(build_diagram(inp["src"], 4), rng)
            argv = ["generate", _flag("from", inp["src"]), _flag("to", inp["dst"]),
                    _flag("word", str(inp["word"]))]
        elif kind == "seeds":
            inp["k"] = rng.randint(0, 7)
            argv = ["seeds", _flag("k", inp["k"])]
        elif kind == "families":
            inp["prefix"] = random_prefix(rng, rng.randint(2, 5))
            argv = ["families", _flag("prefix", ",".join(map(str, inp["prefix"])))]
        elif kind == "enumerate":
            inp["len"] = rng.randint(5, 25)
            argv = ["enumerate", _flag("theta", repr(inp["theta"])), _flag("len", inp["len"])]
        elif kind == "check-coherence":
            inp["word"] = self._traced_window(rng, rng.randint(2000, 5000))
            argv = ["check-coherence", _flag("word", inp["word"]), _flag("depth", 2)]
        elif kind == "complexity":
            inp["seed"] = rng.randint(0, 10**6)
            argv = ["complexity", _flag("theta", repr(inp["theta"])), _flag("len", 10),
                    _flag("crossings", 20_000), _flag("seed", inp["seed"])]
        else:
            argv = ["trace", _flag("theta", "pi/0")]
        if kind != "malformed":
            argv.append(_flag("timestamp", CLI_TIMESTAMP))
        inp["argv"] = argv
        return inp

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "cutseq.cli", *argv], cwd=self.root, env=self.env,
            capture_output=True, timeout=self.CLI_TIMEOUT_S,
        )

    def run(self, inp: dict, tr) -> subprocess.CompletedProcess:
        return tr.call(f"cli.{inp['kind']}", 1, self._spawn, inp["argv"])

    def _expected(self, inp: dict) -> dict:
        """Key results of the same request made in-process."""
        kind = inp["kind"]
        poly = build_polygon(4)
        if kind == "trace":
            word = trace_word(poly, inp["start"], ApproxDirection(inp["theta"]),
                              TraceConfig(max_crossings=inp["crossings"]))
            return {"word": word}
        if kind == "trace-exact":
            word = trace_word(poly, EXACT_START, ExactDirection.from_cot(inp["mu"]),
                              TraceConfig(max_crossings=60, mode="exact"))
            return {"word": word}
        if kind == "derive":
            w = inp["word"]
            for _ in range(inp["times"]):
                w = derive(w)
            return {"derived": w}
        if kind == "diagrams":
            n = inp["n"]
            return {"diagrams": {str(i): sorted(a + b for a, b in build_diagram(i, n).edges)
                                 for i in range(2 * n)}}
        if kind == "recognize":
            iv = recognize_direction(inp["word"], 5, 4)
            lo, hi = iv.theta_bounds()
            return {"diagrams": list(renormalize(inp["word"], 5, 4).diagrams),
                    "interval_lo": lo, "interval_hi": hi, "prefix": list(iv.prefix)}
        if kind == "expand-direction":
            d = ExactDirection.from_cot(inp["mu"])
            seq = itinerary(d, 4, inp["depth"])
            lo, hi = sector_interval(seq, 4).theta_bounds()
            term = is_terminating(d, 4, max(inp["depth"], 10))
            return {"itinerary": list(seq), "terminating": term.terminating,
                    "termination_certainty": term.certainty, "interval_lo": lo, "interval_hi": hi}
        if kind == "generate":
            return {"generated": str(generate(inp["src"], inp["dst"], inp["word"], 4))}
        if kind == "seeds":
            return {"seeds": sorted(str(w) for w in periodic_seeds(inp["k"], 4))}
        if kind == "families":
            return {"words": sorted(str(w) for w in build_family(inp["prefix"]))}
        if kind == "enumerate":
            factors = enumerate_factors(ApproxDirection(inp["theta"]), inp["len"])
            return {"count": len(factors), "factors": sorted(factors)}
        if kind == "check-coherence":
            diagrams = renormalize(inp["word"], 3, 4).diagrams
            return {"coherent": True, "step_i": list(diagrams[:2])}
        if kind == "complexity":
            start = _cli_random_start(poly, inp["seed"])
            word = trace_word(poly, start, ApproxDirection(inp["theta"]),
                              TraceConfig(max_crossings=20_000))
            counts = factor_counts_upto(word, 10)
            return {"counts": {str(k): v for k, v in sorted(counts.items())}}
        return {}

    def check(self, inp: dict, proc) -> tuple[list[str], dict]:
        kind = inp["kind"]
        err = proc.stderr.decode("utf-8", "replace")
        if kind == "malformed":
            if proc.returncode == 0 or "Traceback" in err:
                return [f"malformed input: exit {proc.returncode}, stderr {err[-200:]!r}"], {}
            return [], {"exit": proc.returncode}
        if proc.returncode != 0:
            return [f"{kind}: exit {proc.returncode}: {err[-300:]}"], {}
        if kind == "plot":
            start, theta = inp["start"], ApproxDirection(inp["theta"])
            _, log = trace(build_polygon(4), start, theta, TraceConfig(max_crossings=50))
            expected = plot_svg(log, build_polygon(4)) + "\n"
            ok = proc.stdout.decode("utf-8") == expected
            return ([] if ok else ["plot: SVG differs from plot_svg"]), {"bytes": len(proc.stdout)}
        doc = json.loads(proc.stdout)
        command = inp["argv"][0]
        problems = []
        if doc.get("schema") != f"cutseq/{command}/1":
            problems.append(f"{kind}: schema {doc.get('schema')!r}")
        got = dict(doc)
        if kind == "check-coherence":
            got["step_i"] = [s["i"] for s in doc["steps"]]
        for key, value in self._expected(inp).items():
            if got.get(key) != value:
                problems.append(f"{kind}: {key} differs from the library call")
        if inp["index"] < len(CLI_KINDS):
            problems += self._replay(kind, doc, proc.stdout)
        return problems, {"bytes": len(proc.stdout)}

    def _replay(self, kind: str, doc: dict, first: bytes) -> list[str]:
        if self._options is None:
            self._options = _cli_options()
        manifest = doc["manifest"]
        options = self._options[manifest["command"]]
        argv = [manifest["command"]]
        for dest, value in manifest["flags"].items():
            if value is True:
                argv.append(options[dest])
            elif value is not False:
                argv.append(f"{options[dest]}={value}")
        second = self._spawn(argv)
        if second.returncode != 0 or second.stdout != first:
            return [f"{kind}: manifest replay did not reproduce the output"]
        return []


def _cli_random_start(poly, seed: int):
    """The start `cutseq complexity` draws for --seed (its documented default)."""
    from cutseq.tracer import random_interior_point

    return random_interior_point(poly, random.Random(seed))
