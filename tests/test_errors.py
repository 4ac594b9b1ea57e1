"""One error root: every exception cutseq defines is a CutseqError, with two named exceptions.

Each domain check is written once, so every caller refuses with the same text.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cutseq
from cutseq.coherence import recognize_direction, renormalize
from cutseq.exact_arith import ApproxDirection
from cutseq.farey import farey_branch, is_terminating, itinerary
from cutseq.generation import enumerate_factors, sandwich_group
from cutseq.polygon import induced_permutation, isometry_nu
from cutseq.symbolic import (
    CutseqError,
    SectorIndexError,
    build_diagram,
    check_sector,
    factor_counts_upto,
    factor_set,
    sector_permutation,
)
from cutseq.tracer import TraceConfig

PACKAGE = Path(cutseq.__file__).parent
OUTSIDE_ROOT = {
    "cutseq.cli.UsageError",  # malformed flag text exits 1, not 2
    "cutseq.exact_arith.SingularMatrixError",  # an internal invariant of the exact layer
}


def defined_exceptions():
    for path in sorted(PACKAGE.glob("*.py")):
        name = "cutseq" if path.stem == "__init__" else f"cutseq.{path.stem}"
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == name:
                yield f"{name}.{attr}", obj


def test_every_exception_derives_from_cutseq_error():
    found = dict(defined_exceptions())
    assert OUTSIDE_ROOT <= found.keys()
    assert len(found) >= 12  # the root, its nine subclasses and the two outside it
    for name, cls in found.items():
        assert (name in OUTSIDE_ROOT) != issubclass(cls, CutseqError), name


def test_no_bare_value_error_outside_exact_arith():
    # exact_arith's parse errors stay ValueErrors: the CLI's flag parser wraps them
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "exact_arith":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert getattr(exc, "id", None) != "ValueError", f"{path.name}:{node.lineno}"


def test_no_bare_index_error():
    # an index out of range is a SectorIndexError: a CutseqError and an IndexError at once
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert getattr(exc, "id", None) != "IndexError", f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("l", [-1, 4, 5])
def test_sandwich_group_index_error_is_domain_and_index_error(l):
    with pytest.raises(SectorIndexError, match=rf"^sandwich group index {l} outside 0\.\.3$"):
        sandwich_group(l, 4)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: itinerary(ApproxDirection(0.5), 4, 0), "depth"),
        (lambda: is_terminating(ApproxDirection(0.5), 4, 0), "max_depth"),
        (lambda: renormalize("ADBDAD", 0), "max_depth"),
        (lambda: recognize_direction("ADBDAD", -1), "max_depth"),
        (lambda: enumerate_factors((0, 1, 6), 0), "length"),
        (lambda: enumerate_factors(ApproxDirection(0.5), 3, depth=0), "depth"),
        (lambda: enumerate_factors(ApproxDirection(0.5), 0, depth=0), "length"),
        (lambda: TraceConfig(max_crossings=0), "max_crossings"),
        (lambda: factor_set("ADBD", 0), "factor length"),
        (lambda: factor_counts_upto("ADBD", 0), "max_length"),
    ],
    ids=["itinerary", "is_terminating", "renormalize", "recognize_direction",
         "enumerate_length", "enumerate_depth", "enumerate_both", "TraceConfig", "factor_set",
         "factor_counts_upto"],
)
def test_counts_below_one_are_refused_with_one_text(call, name):
    with pytest.raises(CutseqError) as info:
        call()
    assert str(info.value) == f"{name} must be >= 1"


@pytest.mark.parametrize(
    "check", [check_sector, sector_permutation, build_diagram, isometry_nu,
              induced_permutation, farey_branch]
)
@pytest.mark.parametrize("i", [-1, 8, 99])
def test_sector_index_error_is_domain_and_index_error(check, i):
    with pytest.raises(CutseqError, match=f"sector index {i} outside 0..7") as info:
        check(i, 4)
    assert isinstance(info.value, IndexError)
