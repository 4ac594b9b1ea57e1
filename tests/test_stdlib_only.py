"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import cutseq

PACKAGE = Path(cutseq.__file__).parent


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert top == "cutseq" or top in sys.stdlib_module_names, f"{path.name}: {name}"
