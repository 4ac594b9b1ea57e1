"""One error root: every exception cutseq defines is a CutseqError, with two named exceptions."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cutseq
from cutseq.farey import farey_branch
from cutseq.polygon import induced_permutation, isometry_nu
from cutseq.symbolic import CutseqError, build_diagram, check_sector, sector_permutation

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


@pytest.mark.parametrize(
    "check", [check_sector, sector_permutation, build_diagram, isometry_nu,
              induced_permutation, farey_branch]
)
@pytest.mark.parametrize("i", [-1, 8, 99])
def test_sector_index_error_is_domain_and_index_error(check, i):
    with pytest.raises(CutseqError, match=f"sector index {i} outside 0..7") as info:
        check(i, 4)
    assert isinstance(info.value, IndexError)
