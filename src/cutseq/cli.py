"""Command line front end: JSON (or SVG) on stdout, diagnostics on stderr.

Every output embeds a run manifest (command, flags, seed, version, timestamp);
re-running the same command with the manifest's flags, including its recorded
--timestamp, reproduces the output byte for byte.  Exit codes: 0 success,
1 usage errors, 2 domain errors (vertex hits, ambiguity, inadmissible words).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import random
import sys

from . import __version__
from .exact_arith import ApproxDirection, Direction, ExactDirection, Q2Scalar, direction_theta
from .farey import is_terminating, itinerary, sector_interval
from .generation import build_family, enumerate_factors, generate, periodic_seeds
from .coherence import (
    InsufficientWindowError,
    NotCoherentError,
    check_coherent,
    recognize_direction,
    renormalize,
)
from .polygon import InvalidN, build_polygon
from .symbolic import (
    AmbiguousDiagramError,
    InadmissibleWordError,
    PeriodicWord,
    build_diagram,
    derive,
    factor_counts_upto,
    format_word,
    parse_word,
    word_text,
)
from .tracer import (
    TraceConfig,
    VertexHit,
    plot_svg,
    random_exact_interior_point,
    random_interior_point,
    trace,
    trace_word,
)

DOMAIN_ERRORS = (
    VertexHit,
    AmbiguousDiagramError,
    InadmissibleWordError,
    NotCoherentError,
    InsufficientWindowError,
    InvalidN,
    ValueError,
    ZeroDivisionError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_direction(theta: str | None, cot: str | None, n: int) -> Direction:
    if (theta is None) == (cot is None):
        raise ValueError("give exactly one of --theta or --cot")
    if cot is not None:
        return ExactDirection.from_cot(Q2Scalar.parse(cot))
    t = theta.strip()
    if "pi" in t:
        # exact multiples like 3*pi/8 or pi/8
        head, _, denom = t.partition("/")
        coeff = head.replace("*", "").replace("pi", "").strip()
        k = float(coeff) if coeff else 1.0
        value = k * math.pi / (float(denom) if denom else 1.0)
    else:
        value = float(t)
    return ApproxDirection(value)


def _direction_json(d: Direction) -> dict:
    out = {"theta": direction_theta(d)}
    if isinstance(d, ExactDirection):
        out["cot"] = None if d.is_horizontal else str(d.mu())
        out["horizontal_sign"] = d.x.sign() if d.is_horizontal else None
    return out


def _interval_json(iv) -> dict:
    lo, hi = iv.theta_bounds()
    return {"interval_lo": lo, "interval_hi": hi, "prefix": list(iv.prefix)}


def _parse_any_word(text: str, n: int):
    if text.startswith("per:"):
        return PeriodicWord.of(parse_word(text[4:], n))
    return parse_word(text, n)


def _word_json(w, n: int) -> str:
    if isinstance(w, PeriodicWord):
        return "per:" + format_word(w.period, n)
    return format_word(word_text(w), n)


def _emit(payload: dict, args, command: str) -> None:
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command") and v is not None
    }
    manifest = {
        "command": command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": args.timestamp or datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    doc = {"schema": f"cutseq/{command}/1", "manifest": manifest}
    doc.update(payload)
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


# -- subcommands ----------------------------------------------------------------


def _trace_setup(args, poly, exact: bool = False):
    """Direction, start point (given or seeded), its JSON form and the trace config."""
    d = _parse_direction(args.theta, args.cot, args.n)
    if exact and not isinstance(d, ExactDirection):
        raise ValueError("--exact tracing needs an exact --cot direction")
    rng = random.Random(args.seed)
    if args.start:
        sx, sy = (Q2Scalar.parse(v) if exact else float(v) for v in args.start.split(","))
        start = (sx, sy)
    elif exact:
        start = random_exact_interior_point(poly, rng)
    else:
        start = random_interior_point(poly, rng)
    start_json = [str(v) for v in start] if exact else list(start)
    cfg = TraceConfig(
        epsilon=args.epsilon, max_crossings=args.crossings, mode="exact" if exact else "approx"
    )
    return d, start, start_json, cfg


def _cmd_trace(args) -> None:
    poly = build_polygon(args.n)
    d, start, start_json, cfg = _trace_setup(args, poly, args.exact)
    word, log = trace(poly, start, d, cfg)
    payload = {
        "direction": _direction_json(d),
        "start": start_json,
        "seed": args.seed,
        "word": format_word(word, args.n),
        "crossings": [
            {"letter": c.letter, "point": list(c.point), "side": c.side} for c in log.crossings
        ],
    }
    _emit(payload, args, "trace")


def _cmd_plot(args) -> None:
    poly = build_polygon(args.n)
    d, start, _, cfg = _trace_setup(args, poly)
    _, log = trace(poly, start, d, cfg)
    sys.stdout.write(plot_svg(log, poly) + "\n")


def _cmd_derive(args) -> None:
    w = _parse_any_word(args.word, args.n)
    out = w
    exhausted_at = None
    for step in range(args.times):
        if out is None or (not isinstance(out, PeriodicWord) and len(word_text(out)) == 0):
            exhausted_at = step
            break
        out = derive(out)
    if exhausted_at is not None:
        sys.stderr.write(
            f"cutseq: window exhausted after {exhausted_at} of {args.times} derivations\n"
        )
    payload = {"derived": None if out is None else _word_json(out, args.n)}
    if args.times > 1:
        payload["times"] = args.times
        payload["exhausted_at"] = exhausted_at
    _emit(payload, args, "derive")


def _cmd_diagrams(args) -> None:
    indices = [args.index] if args.index is not None else list(range(2 * args.n))
    diagrams = {}
    for i in indices:
        d = build_diagram(i, args.n)
        diagrams[str(i)] = sorted(a + b for a, b in d.edges)
    _emit({"n": args.n, "diagrams": diagrams}, args, "diagrams")


def _cmd_recognize(args) -> None:
    text = args.word
    if args.word_file:
        with open(args.word_file, encoding="ascii") as fh:
            text = fh.read().strip()
    w = _parse_any_word(text, args.n)
    iv = recognize_direction(w, args.depth, args.n)
    payload = {"diagrams": list(iv.prefix)}
    payload.update(_interval_json(iv))
    _emit(payload, args, "recognize")


def _cmd_expand(args) -> None:
    d = _parse_direction(args.theta, args.cot, args.n)
    seq = itinerary(d, args.n, args.depth)
    iv = sector_interval(seq, args.n)
    term = is_terminating(d, args.n, max(args.depth, 10))
    payload = {
        "itinerary": list(seq),
        "terminating": term.terminating,
        "termination_certainty": term.certainty,
    }
    payload.update(_interval_json(iv))
    _emit(payload, args, "expand-direction")


def _cmd_generate(args) -> None:
    w = _parse_any_word(args.word, args.n)
    out = generate(args.src, args.dst, w, args.n)
    _emit({"generated": _word_json(out, args.n)}, args, "generate")


def _cmd_seeds(args) -> None:
    seeds = periodic_seeds(args.k, args.n)
    _emit({"seeds": sorted(_word_json(w, args.n) for w in seeds)}, args, "seeds")


def _cmd_families(args) -> None:
    prefix = tuple(int(v) for v in args.prefix.split(","))
    seeds = None
    if args.seeds != "periodic":
        seeds = [_parse_any_word(t, args.n) for t in args.seeds.split(",")]
    fam = build_family(prefix, seeds, args.n)
    _emit(
        {"prefix": list(prefix), "words": sorted(_word_json(w, args.n) for w in fam)},
        args,
        "families",
    )


def _cmd_enumerate(args) -> None:
    if args.prefix:
        source = tuple(int(v) for v in args.prefix.split(","))
    else:
        source = _parse_direction(args.theta, args.cot, args.n)
    factors = enumerate_factors(source, args.len, args.depth, args.n)
    _emit(
        {"length": args.len, "count": len(factors), "factors": sorted(factors)},
        args,
        "enumerate",
    )


def _cmd_check_coherence(args) -> None:
    w = _parse_any_word(args.word, args.n)
    steps = []
    coherent = True
    tr = renormalize(w, args.depth + 1, args.n, start_diagram=args.start_diagram)
    if tr.failure is not None and tr.depth < 2:
        raise InadmissibleWordError(f"renormalization failed: {tr.failure}")
    for k in range(min(args.depth, tr.depth - 1)):
        i, j = tr.steps[k].diagram, tr.steps[k + 1].diagram
        verdict = check_coherent(tr.steps[k].word, i, j, args.n)
        steps.append(
            {"step": k, "i": i, "j": j, "accepted": verdict.accepted, "failed": verdict.failed}
        )
        coherent = coherent and verdict.accepted
    if not steps:
        # single-step check with explicit pair
        if args.i is None or args.j is None:
            raise ValueError("window too short for chained checks; give --i and --j")
    if args.i is not None and args.j is not None:
        verdict = check_coherent(w, args.i, args.j, args.n)
        steps.insert(
            0,
            {"step": "explicit", "i": args.i, "j": args.j, "accepted": verdict.accepted,
             "failed": verdict.failed},
        )
        coherent = verdict.accepted and (coherent or not steps)
    _emit({"coherent": coherent, "steps": steps}, args, "check-coherence")


def _cmd_complexity(args) -> None:
    poly = build_polygon(args.n)
    d = _parse_direction(args.theta, args.cot, args.n)
    rng = random.Random(args.seed)
    start = random_interior_point(poly, rng)
    cfg = TraceConfig(max_crossings=args.crossings)
    word = trace_word(poly, start, d, cfg)
    counts = factor_counts_upto(word, args.len)
    _emit(
        {
            "crossings": args.crossings,
            "counts": {str(k): v for k, v in sorted(counts.items())},
            "linear_bound": {str(k): (args.n - 1) * k + 1 for k in sorted(counts)},
        },
        args,
        "complexity",
    )


def build_parser() -> _Parser:
    p = _Parser(prog="cutseq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n_default=4):
        sp.add_argument("--n", type=int, default=n_default, help="side-pair count (alphabet size)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--timestamp", default=None, help="override manifest timestamp (replay)")

    def direction_flags(sp):
        sp.add_argument("--theta", default=None, help="angle in radians, or k*pi/m")
        sp.add_argument("--cot", default=None, help="exact inverse slope p/q+r/s*sqrt2")

    sp = sub.add_parser("trace", help="trace a trajectory and print its cutting sequence")
    common(sp)
    direction_flags(sp)
    sp.add_argument("--start", default=None, help="x,y (default: seeded random interior point)")
    sp.add_argument("--crossings", type=int, default=100)
    sp.add_argument("--epsilon", type=float, default=1e-9)
    sp.add_argument(
        "--exact", action="store_true",
        help="exact Q(sqrt 2) tracing; needs --cot and, if given, an exact --start",
    )
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser("plot", help="SVG picture of a traced trajectory")
    common(sp)
    direction_flags(sp)
    sp.add_argument("--start", default=None)
    sp.add_argument("--crossings", type=int, default=50)
    sp.add_argument("--epsilon", type=float, default=1e-9)
    sp.set_defaults(func=_cmd_plot)

    sp = sub.add_parser("derive", help="derived word (sandwiched letters)")
    common(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--times", type=int, default=1)
    sp.set_defaults(func=_cmd_derive)

    sp = sub.add_parser("diagrams", help="transition diagram edge lists")
    common(sp)
    sp.add_argument("--index", type=int, default=None)
    sp.set_defaults(func=_cmd_diagrams)

    sp = sub.add_parser("recognize", help="direction interval from a symbol window")
    common(sp)
    sp.add_argument("--word", default=None)
    sp.add_argument("--word-file", default=None)
    sp.add_argument("--depth", type=int, default=5)
    sp.set_defaults(func=_cmd_recognize)

    sp = sub.add_parser("expand-direction", help="itinerary / continued fraction of a direction")
    common(sp)
    direction_flags(sp)
    sp.add_argument("--depth", type=int, default=10)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("generate", help="apply a generation operator")
    common(sp)
    sp.add_argument("--from", dest="src", type=int, required=True)
    sp.add_argument("--to", dest="dst", type=int, required=True)
    sp.add_argument("--word", required=True)
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("seeds", help="periodic seed words next to a sector")
    common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_seeds)

    sp = sub.add_parser("families", help="generated word families along a prefix")
    common(sp)
    sp.add_argument("--prefix", required=True, help="comma separated entries, e.g. 0,1,6")
    sp.add_argument("--seeds", default="periodic")
    sp.set_defaults(func=_cmd_families)

    sp = sub.add_parser("enumerate", help="all factors of cutting sequences in a direction")
    common(sp)
    direction_flags(sp)
    sp.add_argument("--prefix", default=None)
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--depth", type=int, default=30)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("check-coherence", help="coherence verdict along the renormalization")
    common(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--start-diagram", type=int, default=None)
    sp.set_defaults(func=_cmd_check_coherence)

    sp = sub.add_parser("complexity", help="factor counts of a traced word")
    common(sp)
    direction_flags(sp)
    sp.add_argument("--len", type=int, default=20)
    sp.add_argument("--crossings", type=int, default=100000)
    sp.set_defaults(func=_cmd_complexity)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        args.func(args)
    except DOMAIN_ERRORS as exc:
        sys.stderr.write(f"cutseq: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
