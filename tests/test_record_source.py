"""Records declare their fields once: `symbolic.Record` writes __init__, == and hash.

The source of every module is read: no record writes its own __init__, only
PeriodicWord its own == and hash (equality up to rotation), and no module but
symbolic fills a slot by hand.  Each compiled __init__ takes the parameters of
the dataclass twin in tests/test_records.py, in order, with the same defaults,
and fills every field through its slot's __set__.
"""

import ast
import inspect
from pathlib import Path

import pytest
from test_records import CASES, twin

import cutseq

SRC = Path(cutseq.__file__).parent


def records():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Record" for base in node.bases
            ):
                yield node.name, {f.name for f in node.body if isinstance(f, ast.FunctionDef)}


def test_no_record_writes_its_own_init_eq_or_hash():
    found = dict(records())
    assert len(found) == 16
    assert [name for name, defs in found.items() if "__init__" in defs] == []
    assert [name for name, defs in found.items() if defs & {"__eq__", "__hash__"}] == [
        "PeriodicWord"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_symbolic_fills_slots_by_hand(path):
    text = path.read_text()
    if path.stem != "symbolic":
        assert "_setfield" not in text and "object.__setattr__(" not in text


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.cls.__name__)
def test_init_signature_matches_the_twin(case):
    # the twin annotates every field; ours annotates none
    def bare(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    assert bare(case.cls) == bare(twin(case))


def test_every_record_init_fills_its_slots_through_set():
    # every record is frozen: none puts back object.__setattr__, and __init__ stores no field
    for case in CASES:
        cls, names = case.cls, [name for name, _ in case.fields]
        assert cls.__setattr__ is not object.__setattr__ and cls.__hash__ is not None
        assert "__setattr__" not in vars(cls) and "__delattr__" not in vars(cls)
        code = cls.__init__.__code__
        assert [n for n in code.co_names if n.startswith("_set_")] == [f"_set_{n}" for n in names]
        assert not set(names) & set(code.co_names), cls.__name__
