"""Command line front end: JSON (or SVG) on stdout, diagnostics on stderr.

It only maps flags to library calls: words and scalars are read, written and
refused by the library (`parse_word`, `format_word`, `Q2Scalar.parse`), and so
is a float direction for exact tracing.  Every output embeds a run manifest
(command, flags, seed, version, timestamp); the flags always include the
timestamp, taken from --timestamp or from the clock, so re-running the same
command with the manifest's flags alone reproduces the output byte for byte.
Exit codes: 0 success, 1 usage errors (malformed flags or flag values), 2
domain errors (a CutseqError: vertex hits, ambiguity, inadmissible words).  Any
other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

# the package is lazy: names other than symbolic's are read from it when a
# subcommand calls them, so each subcommand loads only its layers, and --help none
import cutseq

from .symbolic import (
    CutseqError,
    build_diagram,
    derive,
    factor_counts_upto,
    format_word,
    is_exhausted,
    parse_word,
)


class UsageError(Exception):
    """Malformed flag text; exits 1 like argparse's own usage errors."""


def _parse_flag(flag: str, text: str, parse):
    """parse(text), with any failure reported as a usage error naming the flag."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"argument {flag}: invalid value {text!r}") from None


def _parse_angle(text: str) -> float:
    t = text.strip()
    if "pi" not in t:
        return float(t)
    # multiples like 3*pi/8 or pi/8, read as a float angle
    head, _, denom = t.partition("/")
    coeff = head.replace("*", "").replace("pi", "").strip()
    k = float(coeff) if coeff else 1.0
    return k * math.pi / (float(denom) if denom else 1.0)


def _parse_point(text: str, scalar) -> tuple:
    x, y = (scalar(v) for v in text.split(","))
    return x, y


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_direction(args) -> cutseq.Direction:
    theta, cot = args.theta, args.cot
    if (theta is None) == (cot is None):
        raise UsageError("give exactly one of --theta or --cot")
    if cot is not None:
        return cutseq.ExactDirection.from_cot(_parse_flag("--cot", cot, cutseq.Q2Scalar.parse))
    # an angle outside [0, pi] is malformed flag text like any other
    return _parse_flag("--theta", theta, lambda t: cutseq.ApproxDirection(_parse_angle(t)))


def _direction_json(d: cutseq.Direction) -> dict:
    out = {"theta": cutseq.direction_theta(d)}
    if isinstance(d, cutseq.ExactDirection):
        out["cot"] = None if d.is_horizontal else str(d.mu())
        out["horizontal_sign"] = d.x.sign() if d.is_horizontal else None
    return out


def _interval_json(iv) -> dict:
    lo, hi = iv.theta_bounds()
    return {"interval_lo": lo, "interval_hi": hi, "prefix": list(iv.prefix)}


def _emit(payload: dict, args) -> None:
    # resolved before the flags are recorded, so the flags alone replay the run
    if not args.timestamp:
        import datetime  # only a run without --timestamp reads the clock

        args.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command") and v is not None
    }
    manifest = {
        "command": args.command,
        "flags": flags,
        "seed": args.seed,
        "version": cutseq.__version__,
        "timestamp": args.timestamp,
    }
    doc = {"schema": f"cutseq/{args.command}/1", "manifest": manifest}
    doc.update(payload)
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


# -- subcommands: each returns its JSON payload (plot writes its SVG itself) ------


def _trace_setup(args, poly, exact: bool = False):
    """Direction, start point (given or seeded), its JSON form and the trace config."""
    d = _parse_direction(args)
    rng = random.Random(args.seed)
    if args.start:
        scalar = cutseq.Q2Scalar.parse if exact else float
        start = _parse_flag("--start", args.start, lambda t: _parse_point(t, scalar))
    elif exact:
        start = cutseq.random_exact_interior_point(poly, rng)
    else:
        start = cutseq.random_interior_point(poly, rng)
    start_json = [str(v) for v in start] if exact else list(start)
    cfg = cutseq.TraceConfig(
        epsilon=args.epsilon, max_crossings=args.crossings, mode="exact" if exact else "approx"
    )
    return d, start, start_json, cfg


def _cmd_trace(args) -> dict:
    poly = cutseq.build_polygon(args.n)
    d, start, start_json, cfg = _trace_setup(args, poly, args.exact)
    word, log = cutseq.trace(poly, start, d, cfg)
    return {
        "direction": _direction_json(d),
        "start": start_json,
        "seed": args.seed,
        "word": format_word(word, args.n),
        "crossings": [
            {"letter": c.letter, "point": list(c.point), "side": c.side} for c in log.crossings
        ],
    }


def _cmd_plot(args) -> None:
    poly = cutseq.build_polygon(args.n)
    d, start, _, cfg = _trace_setup(args, poly)
    _, log = cutseq.trace(poly, start, d, cfg)
    sys.stdout.write(cutseq.plot_svg(log, poly) + "\n")


def _cmd_derive(args) -> dict:
    if args.times < 0:
        raise UsageError(f"argument --times: must be >= 0, got {args.times}")
    w = parse_word(args.word, args.n)
    out = w
    exhausted_at = None
    for step in range(args.times):
        if is_exhausted(out):
            exhausted_at = step
            break
        out = derive(out)
    if exhausted_at is not None:
        sys.stderr.write(
            f"cutseq: window exhausted after {exhausted_at} of {args.times} derivations\n"
        )
    payload = {"derived": None if out is None else format_word(out, args.n)}
    if args.times > 1:
        payload["times"] = args.times
        payload["exhausted_at"] = exhausted_at
    return payload


def _cmd_diagrams(args) -> dict:
    indices = [args.index] if args.index is not None else list(range(2 * args.n))
    diagrams = {}
    for i in indices:
        d = build_diagram(i, args.n)
        diagrams[str(i)] = sorted(a + b for a, b in d.edges)
    return {"n": args.n, "diagrams": diagrams}


def _cmd_recognize(args) -> dict:
    text = args.word
    if args.word_file:
        # an undecodable byte becomes U+FFFD, which the alphabet check rejects
        try:
            with open(args.word_file, encoding="ascii", errors="replace") as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise UsageError(f"argument --word-file: {exc.strerror}: {args.word_file!r}") from None
    w = parse_word(text, args.n)
    iv = cutseq.recognize_direction(w, args.depth, args.n)
    payload = {"diagrams": list(iv.prefix)}
    payload.update(_interval_json(iv))
    return payload


def _cmd_expand(args) -> dict:
    d = _parse_direction(args)
    seq = cutseq.itinerary(d, args.n, args.depth)
    iv = cutseq.sector_interval(seq, args.n)
    term = cutseq.is_terminating(d, args.n, max(args.depth, 10))
    payload = {
        "itinerary": list(seq),
        "terminating": term.terminating,
        "termination_certainty": term.certainty,
    }
    payload.update(_interval_json(iv))
    return payload


def _cmd_generate(args) -> dict:
    w = parse_word(args.word, args.n)
    return {"generated": format_word(cutseq.generate(args.src, args.dst, w, args.n), args.n)}


def _cmd_seeds(args) -> dict:
    return {"seeds": sorted(format_word(w, args.n) for w in cutseq.periodic_seeds(args.k, args.n))}


def _cmd_families(args) -> dict:
    prefix = _parse_flag("--prefix", args.prefix, _parse_ints)
    seeds = None
    if args.seeds != "periodic":
        seeds = [parse_word(t, args.n) for t in args.seeds.split(",")]
    fam = cutseq.build_family(prefix, seeds, args.n)
    return {"prefix": list(prefix), "words": sorted(format_word(w, args.n) for w in fam)}


def _cmd_enumerate(args) -> dict:
    if not args.prefix:
        source = _parse_direction(args)
    elif args.theta is None and args.cot is None:
        source = _parse_flag("--prefix", args.prefix, _parse_ints)
    else:
        raise UsageError("give exactly one of --prefix, --theta or --cot")
    factors = cutseq.enumerate_factors(source, args.len, args.depth, args.n)
    return {"length": args.len, "count": len(factors), "factors": sorted(factors)}


def _cmd_check_coherence(args) -> dict:
    if (args.i is None) != (args.j is None):
        raise UsageError("give both of --i and --j, or neither")
    w = parse_word(args.word, args.n)
    explicit = args.i is not None
    steps = []
    if args.depth != 0 or not explicit:  # only --depth 0 with a pair asks for no chain
        tr = cutseq.renormalize(w, args.depth + 1, args.n, start_diagram=args.start_diagram)
        if tr.failure is not None and tr.depth < 2:
            raise cutseq.coherence.chain_refusal(tr, args.depth + 1)
        for k in range(min(args.depth, tr.depth - 1)):
            i, j = tr.steps[k].diagram, tr.steps[k + 1].diagram
            verdict = cutseq.check_coherent(tr.steps[k].word, i, j, args.n)
            steps.append(
                {"step": k, "i": i, "j": j, "accepted": verdict.accepted, "failed": verdict.failed}
            )
    if explicit:
        verdict = cutseq.check_coherent(w, args.i, args.j, args.n)
        steps.insert(
            0,
            {"step": "explicit", "i": args.i, "j": args.j, "accepted": verdict.accepted,
             "failed": verdict.failed},
        )
    elif not steps:
        raise CutseqError("window too short for chained checks; give --i and --j")
    return {"coherent": all(s["accepted"] for s in steps), "steps": steps}


def _cmd_complexity(args) -> dict:
    poly = cutseq.build_polygon(args.n)
    d = _parse_direction(args)
    rng = random.Random(args.seed)
    start = cutseq.random_interior_point(poly, rng)
    cfg = cutseq.TraceConfig(max_crossings=args.crossings)
    word = cutseq.trace_word(poly, start, d, cfg)
    counts = factor_counts_upto(word, args.len)
    return {
        "crossings": args.crossings,
        "counts": {str(k): v for k, v in sorted(counts.items())},
        "linear_bound": {str(k): (args.n - 1) * k + 1 for k in sorted(counts)},
    }


def build_parser() -> _Parser:
    p = _Parser(prog="cutseq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=4, help="side-pair count (alphabet size)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--timestamp", default=None, help="override manifest timestamp (replay)")
    direction = argparse.ArgumentParser(add_help=False)
    direction.add_argument("--theta", default=None, help="radians, or k*pi/m as a float angle")
    direction.add_argument(
        "--cot", default=None,
        help="exact inverse slope p/q+r/s*sqrt2; a negative one as --cot=-1/2+3/5*sqrt2",
    )

    def command(name, func, help, *parents):
        sp = sub.add_parser(name, help=help, parents=[common, *parents])
        sp.set_defaults(func=func)
        return sp

    def path_flags(sp, crossings: int):  # not a parent: a parent's --crossings has one default
        sp.add_argument(
            "--start", default=None, help="x,y (default: seeded random interior point)"
        )
        sp.add_argument("--crossings", type=int, default=crossings)
        sp.add_argument("--epsilon", type=float, default=1e-9)

    sp = command("trace", _cmd_trace, "trace a trajectory and print its cutting sequence",
                 direction)
    path_flags(sp, crossings=100)
    sp.add_argument(
        "--exact", action="store_true",
        help="exact Q(sqrt 2) tracing; needs --cot and, if given, an exact --start",
    )

    sp = command("plot", _cmd_plot, "SVG picture of a traced trajectory", direction)
    path_flags(sp, crossings=50)

    sp = command("derive", _cmd_derive, "derived word (sandwiched letters)")
    sp.add_argument("--word", required=True)
    sp.add_argument("--times", type=int, default=1)

    sp = command("diagrams", _cmd_diagrams, "transition diagram edge lists")
    sp.add_argument("--index", type=int, default=None)

    sp = command("recognize", _cmd_recognize, "direction interval from a symbol window")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--word", default=None)
    source.add_argument("--word-file", default=None)
    sp.add_argument("--depth", type=int, default=5)

    sp = command("expand-direction", _cmd_expand, "itinerary / continued fraction of a direction",
                 direction)
    sp.add_argument("--depth", type=int, default=10)

    sp = command("generate", _cmd_generate, "apply a generation operator")
    sp.add_argument("--from", dest="src", type=int, required=True)
    sp.add_argument("--to", dest="dst", type=int, required=True)
    sp.add_argument("--word", required=True)

    sp = command("seeds", _cmd_seeds, "periodic seed words next to a sector")
    sp.add_argument("--k", type=int, required=True)

    sp = command("families", _cmd_families, "generated word families along a prefix")
    sp.add_argument("--prefix", required=True, help="comma separated entries, e.g. 0,1,6")
    sp.add_argument("--seeds", default="periodic")

    sp = command("enumerate", _cmd_enumerate, "all factors of cutting sequences in a direction",
                 direction)
    sp.add_argument("--prefix", default=None)
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--depth", type=int, default=30)

    sp = command("check-coherence", _cmd_check_coherence,
                 "coherence verdict along the renormalization")
    sp.add_argument("--word", required=True)
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--start-diagram", type=int, default=None)

    sp = command("complexity", _cmd_complexity, "factor counts of a traced word", direction)
    sp.add_argument("--len", type=int, default=20)
    sp.add_argument("--crossings", type=int, default=100000)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload = args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"cutseq: error: {exc}\n")
        return 1
    except CutseqError as exc:
        sys.stderr.write(f"cutseq: {exc}\n")
        return 2
    if payload is not None:
        _emit(payload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
