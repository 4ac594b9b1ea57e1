"""The lazy package surface, and the modules each CLI subcommand loads.

`import cutseq` loads none of its modules; a name loads the module that defines
it on first use.  The load checks run in a fresh interpreter without `site`
(-S), so nothing but cutseq itself can have imported a module.
"""

import ast
import builtins
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cutseq

SRC = Path(cutseq.__file__).parent.parent
README = SRC.parent / "README.md"

EXPORTS = {
    "exact_arith": [
        "ApproxDirection", "Direction", "ExactDirection", "Mat2", "Q2Scalar",
        "SingularMatrixError", "approx_from_exact", "direction_theta", "moebius_apply",
    ],
    "polygon": [
        "InvalidN", "LabeledPolygon", "build_polygon", "induced_permutation", "isometry_nu",
        "sector_of", "veech_elements",
    ],
    "symbolic": [
        "AmbiguousDiagramError", "CutseqError", "InadmissibleWordError", "LetterPermutation",
        "PeriodicWord", "TransitionDiagram", "admissible_diagrams", "boundary_diagram",
        "build_diagram", "derive", "factor_count", "factor_set", "normal_form", "permute",
        "sandwich_profile", "sector_permutation", "square_derive",
    ],
    "farey": [
        "Expansion", "SectorInterval", "TerminationResult", "direction_from_expansion",
        "farey_apply", "is_terminating", "itinerary", "sector_interval", "square_farey",
    ],
    "tracer": [
        "Crossing", "TraceConfig", "TraceLog", "VertexHit", "detect_period", "plot_svg",
        "random_exact_interior_point", "random_interior_point", "trace", "trace_word",
    ],
    "generation": [
        "InterpolationTable", "SynthesisFailure", "build_family", "enumerate_factors",
        "generate", "periodic_seeds", "sandwich_group", "synthesize_table",
    ],
    "coherence": [
        "CoherenceVerdict", "InsufficientWindowError", "NotCoherentError",
        "RenormalizationTrace", "check_coherent", "decompose_generation",
        "recognize_direction", "renormalize",
    ],
}

PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
def loaded():
    new = set(sys.modules) - before
    return {"cutseq": sorted(m for m in new if m.split(".")[0] == "cutseq"),
            "stdlib": sorted(m for m in new if m.split(".")[0] != "cutseq")}
out = []
import cutseq
out.append(loaded())
if sys.argv[1:]:
    from cutseq.cli import main
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        out.append(dict(loaded(), code=code))
print(json.dumps(out))
"""


def probe(*runs):
    """What has been loaded after `import cutseq`, then after each CLI run in turn.

    One fresh interpreter for all: each report counts every module loaded since start-up.
    """
    args = [json.dumps(list(runs))] if runs else []
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *args], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}, check=True,
    )
    return json.loads(proc.stdout)


def test_import_loads_no_module():
    (imported,) = probe()
    assert imported["cutseq"] == ["cutseq"]
    assert not {"dataclasses", "inspect"} & set(imported["stdlib"])


def test_all_is_the_pinned_exports():
    assert cutseq.__all__ == [name for names in EXPORTS.values() for name in names]
    assert set(cutseq.__all__) <= set(dir(cutseq))


@pytest.mark.parametrize("module", EXPORTS)
def test_each_name_is_its_module_object(module):
    defining = importlib.import_module(f"cutseq.{module}")
    assert getattr(cutseq, module) is defining
    for name in EXPORTS[module]:
        assert getattr(cutseq, name) is getattr(defining, name), name


def test_star_import_gives_the_readme_tour():
    text = README.read_text(encoding="utf-8")
    tour = text.split("## A two-minute tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(tour)
    bound = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names if node.module != "cutseq"}
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
    bound |= {n.id for n in names if isinstance(n.ctx, ast.Store)}
    used = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    needed = used - bound - set(dir(builtins))
    assert {"build_polygon", "trace", "renormalize", "is_terminating"} <= needed
    namespace = {}
    exec("from cutseq import *", namespace)
    assert needed <= namespace.keys()


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cutseq.no_such_name
    assert not hasattr(cutseq, "cli_main")
    with pytest.raises(ImportError):
        exec("from cutseq import no_such_name", {})


LOADS = {
    "derive": (["derive", "--word", "CACCCDBDCDC"], []),
    "trace": (["trace", "--cot", "2+1*sqrt2", "--exact", "--crossings", "12"],
              ["exact_arith", "polygon", "tracer"]),
    "expand-direction": (["expand-direction", "--cot", "2+1*sqrt2", "--depth", "6"],
                         ["exact_arith", "farey", "polygon"]),
    "generate": (["generate", "--from", "3", "--to", "0", "--word", "CDBAABDBD"],
                 ["exact_arith", "farey", "generation", "polygon"]),
    "recognize": (["recognize", "--word", "per:ADBCBCCBCBDADBCBCCBCCBCBD", "--depth", "2"],
                  ["coherence", "exact_arith", "farey", "generation", "polygon"]),
}


@pytest.mark.parametrize("command", LOADS)
def test_subcommand_loads_only_its_layers(command):
    argv, layers = LOADS[command]
    runs = [argv + ["--timestamp", "T"]]
    if command == "derive":  # and once more without --timestamp, which reads the clock
        runs.append(argv)
    imported, *ran = probe(*runs)
    first = ran[0]
    assert first["code"] == 0
    want = sorted(["cutseq", "cutseq.cli", "cutseq.symbolic"] + [f"cutseq.{m}" for m in layers])
    assert first["cutseq"] == want
    for done in (imported, *ran):
        assert "dataclasses" not in done["stdlib"]
    assert "datetime" not in first["stdlib"]
    if command == "derive":
        assert ran[1]["code"] == 0 and "datetime" in ran[1]["stdlib"]
