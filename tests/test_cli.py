import json
import xml.etree.ElementTree as ET

import pytest

from cutseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_derive_example(capsys):
    doc = run_json(capsys, "derive", "--word", "CACCCDBDCDC")
    assert doc["derived"] == "ACBCD"
    assert doc["schema"] == "cutseq/derive/1"
    assert doc["manifest"]["command"] == "derive"


def test_families_example(capsys):
    doc = run_json(capsys, "families", "--prefix", "0,1,6")
    assert doc["words"] == [
        "per:ADADBCBCCBCCBCBD",
        "per:ADADBCBD",
        "per:ADBCBCCBCBD",
        "per:ADBCBCCBCCBCBD",
    ]


def test_trace_vertical(capsys):
    doc = run_json(
        capsys, "trace", "--n", "4", "--theta", "1.5707963", "--crossings", "5",
        "--start", "0,0.01",
    )
    assert doc["word"] == "AAAAA"
    assert len(doc["crossings"]) == 5


def test_trace_exact_angle_syntax(capsys):
    doc = run_json(
        capsys, "trace", "--theta", "pi/2", "--crossings", "3", "--start", "0,0.01"
    )
    assert doc["word"] == "AAA"


def test_recognize(capsys):
    window = "AADBDAAAADBDBCBDBDAAAADBDAAAADBDAAAADBDBCBDBDAAADBDBDAAADB"
    doc = run_json(capsys, "recognize", "--word", window, "--depth", "3")
    assert doc["diagrams"] == [4, 7, 2]
    assert doc["interval_lo"] < doc["interval_hi"]


def test_expand_direction(capsys):
    doc = run_json(capsys, "expand-direction", "--cot", "2+1*sqrt2", "--depth", "6")
    assert doc["itinerary"][:3] == [0, 1, 6]
    assert doc["terminating"] is True
    assert doc["termination_certainty"] == "exact"


def test_generate_and_seeds(capsys):
    doc = run_json(capsys, "generate", "--from", "3", "--to", "0", "--word", "CDBAABDBD")
    assert doc["generated"] == "CBDBCCBCCBDADBCCBDADBCCBCCBDBCCBCCBD"
    doc = run_json(capsys, "seeds", "--k", "6")
    assert doc["seeds"] == ["per:AB", "per:AC", "per:CD", "per:D"]


def test_enumerate(capsys):
    doc = run_json(capsys, "enumerate", "--theta", "0.9", "--len", "2", "--depth", "10")
    assert doc["count"] == 7  # 3*2 + 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--len", "0"], "cutseq: length must be >= 1\n"),
        (["--len", "3", "--depth", "0"], "cutseq: depth must be >= 1\n"),
    ],
)
def test_enumerate_names_the_count_below_one(capsys, argv, err):
    assert run(capsys, "enumerate", "--theta", "0.9", *argv) == (2, "", err)


def test_failed_chain_is_refused_alike_by_check_coherence_and_recognize(capsys):
    refused = run(capsys, "check-coherence", "--word", "AB", "--depth", "0")
    assert refused == run(capsys, "recognize", "--word", "AB")
    assert refused == (2, "", "cutseq: admissible diagrams (2, 3, 6, 7) at depth 0\n")


@pytest.mark.parametrize("n", ["1", "0", "-1"])
def test_n_below_two_is_a_domain_error(capsys, n):
    code, out, err = run(capsys, "expand-direction", "--theta", "0.5", "--n", n)
    assert (code, out, err) == (2, "", f"cutseq: need at least 2 side pairs, got {n}\n")


def test_check_coherence_incoherent_word(capsys):
    doc = run_json(
        capsys, "check-coherence", "--word", "per:CCCBDBCCBDBCCBDBCBDADB", "--i", "0",
        "--j", "6", "--depth", "0",
    )
    step = doc["steps"][0]
    assert step["accepted"] is False and step["failed"] == "C1"
    assert doc["coherent"] is False


def test_check_coherence_chain(capsys):
    window = "AADBDAAAADBDBCBDBDAAAADBDAAAADBDAAAADBDBCBDBDAAADBDBDAAADB"
    doc = run_json(capsys, "check-coherence", "--word", window, "--depth", "2")
    assert doc["coherent"] is True
    assert [s["i"] for s in doc["steps"]] == [4, 7]


def test_complexity(capsys):
    doc = run_json(
        capsys, "complexity", "--theta", "0.9", "--len", "8", "--crossings", "20000"
    )
    assert doc["counts"]["8"] == doc["linear_bound"]["8"] == 25


def test_diagrams(capsys):
    doc = run_json(capsys, "diagrams", "--index", "0")
    assert doc["diagrams"]["0"] == ["AD", "BC", "BD", "CB", "CC", "DA", "DB"]


def test_plot_svg(capsys):
    code, out, err = run(
        capsys, "plot", "--theta", "0.7", "--start", "0.03,-0.04", "--crossings", "20"
    )
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "derive")  # missing --word
    assert code == 1


def test_unknown_command_exit_code(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1


def test_domain_error_exit_code(capsys):
    # a periodic word admissible in several diagrams cannot be recognized
    code, out, err = run(capsys, "recognize", "--word", "per:AD", "--depth", "3")
    assert code == 2
    assert "diagrams" in err or "ambig" in err.lower()


def test_vertex_hit_exit_code(capsys):
    # aim at a vertex from the center
    import math

    from cutseq.polygon import build_polygon

    vx, vy = build_polygon(4).vertices[2]
    theta = math.atan2(vy, vx)
    code, out, err = run(
        capsys, "trace", "--theta", repr(theta), "--start", "0,0", "--crossings", "5"
    )
    assert code == 2


def test_manifest_replay_byte_identical(capsys):
    argv = ["trace", "--theta", "0.4", "--crossings", "12", "--seed", "9"]
    code, first, _ = run(capsys, *argv, "--timestamp", "2026-01-01T00:00:00+00:00")
    assert code == 0
    manifest = json.loads(first)["manifest"]
    replay = ["trace"]
    for key, value in manifest["flags"].items():
        if value is True:
            replay.append(f"--{key}")
        elif value is not False:
            replay += [f"--{key}", str(value)]
    code, second, _ = run(capsys, *replay)
    assert code == 0
    assert first == second


def test_manifest_replay_without_timestamp(capsys):
    # a run given no --timestamp records the clock's in its flags, so the
    # flags alone replay it byte for byte
    code, first, _ = run(capsys, "derive", "--word", "CACCCDBDCDC")
    assert code == 0
    manifest = json.loads(first)["manifest"]
    assert manifest["flags"]["timestamp"] == manifest["timestamp"]
    replay = ["derive"]
    for key, value in manifest["flags"].items():
        replay += [f"--{key}", str(value)]
    code, second, _ = run(capsys, *replay)
    assert code == 0
    assert first == second


def test_trace_exact_mode(capsys):
    doc = run_json(
        capsys, "trace", "--cot", "2+1*sqrt2", "--exact", "--start", "1/10,1/7",
        "--crossings", "6",
    )
    assert doc["direction"]["cot"] == "2+1*sqrt2"
    assert len(doc["word"]) == 6
    # exact tracing demands an exact direction
    code, _, err = run(capsys, "trace", "--theta", "0.5", "--exact", "--crossings", "3")
    assert code == 2


def test_matrix_json_form():
    from cutseq.polygon import veech_elements

    sigma, _ = veech_elements(4)
    assert sigma.to_json() == ["1", "2+2*sqrt2", "0", "1"]


def test_derive_exhaustion_warning(capsys):
    doc_code, out, err = run(capsys, "derive", "--word", "ADADAD", "--times", "6")
    assert doc_code == 0
    doc = json.loads(out)
    assert doc["exhausted_at"] is not None
    assert "exhausted" in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--theta", ["trace", "--theta", "pi/0"]),
        ("--theta", ["trace", "--theta", "abc"]),
        ("--cot", ["trace", "--cot", "1/0"]),
        ("--cot", ["trace", "--cot", "1/0", "--exact"]),
        ("--prefix", ["families", "--prefix", "0,x"]),
        ("--prefix", ["enumerate", "--prefix", "0,x", "--len", "3"]),
        ("--start", ["trace", "--theta", "0.5", "--start", "1,2,3"]),
        ("--start", ["trace", "--cot", "1", "--exact", "--start", "1/2,x"]),
        ("--theta", ["trace", "--theta", "4"]),
        ("--theta", ["trace", "--theta", "-0.1"]),
    ],
)
def test_malformed_flag_is_usage_error(capsys, flag, argv):
    # one stderr line naming the flag, no traceback, exit 1 like argparse errors
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"argument {flag}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["trace"],
        ["trace", "--theta", "0.5", "--cot", "1"],
        ["expand-direction"],
    ],
)
def test_direction_flag_count_is_usage_error(capsys, argv):
    # neither or both of --theta and --cot: one stderr line, exit 1
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "exactly one of --theta or --cot" in err


WINDOW = "AADBDAAAADBDBCBDBDAAAADBDAAAADBDAAAADBDBCBDBDAAADBDBDAAADB"


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--theta", "1.5", "--start", "0,5", "--crossings", "5"],
        ["trace", "--theta", "0.5", "--start", "9,9"],
        ["trace", "--cot", "1/3", "--exact", "--start", "0,5"],
        ["plot", "--theta", "0.5", "--start", "0,5"],
        ["diagrams", "--index", "99"],
        ["check-coherence", "--word", WINDOW, "--i", "99", "--j", "1"],
        ["complexity", "--theta", "0.9", "--len", "0", "--crossings", "1000"],
    ],
)
def test_domain_error_is_one_line(capsys, argv):
    # a start off the surface, a sector index outside 0..2n-1, a factor length 0
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("cutseq: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["recognize", "--depth", "3"],
        ["recognize", "--word", WINDOW, "--word-file", "window.txt"],
    ],
)
def test_recognize_needs_exactly_one_word_source(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "--word" in err and "Traceback" not in err


def test_check_coherence_explicit_pair_needs_no_chain(capsys):
    # "AB" is admissible in four diagrams, so its chain cannot even start
    doc = run_json(
        capsys, "check-coherence", "--word", "AB", "--i", "2", "--j", "1", "--depth", "0"
    )
    assert doc["steps"] == [
        {"step": "explicit", "i": 2, "j": 1, "accepted": True, "failed": None}
    ]
    assert doc["coherent"] is True
    # without a pair the chain is all there is, and its failure is reported
    code, out, err = run(capsys, "check-coherence", "--word", "AB", "--depth", "0")
    assert (code, out, err) == (2, "", "cutseq: admissible diagrams (2, 3, 6, 7) at depth 0\n")
    code, out, err = run(capsys, "check-coherence", "--word", WINDOW, "--depth", "0")
    assert code == 2 and "give --i and --j" in err


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, IndexError])
def test_internal_error_keeps_traceback(capsys, monkeypatch, error):
    # only CutseqError is a domain error; anything else is a bug and propagates
    import cutseq.cli as cli

    def broken(w):
        raise error("bug")

    monkeypatch.setattr(cli, "derive", broken)
    with pytest.raises(error, match="bug"):
        main(["derive", "--word", "AD"])


@pytest.mark.parametrize(
    "argv, named",
    [
        (["derive", "--word", "L1,L99", "--n", "6"], "L99"),
        (["derive", "--word", "L0 L1", "--n", "6"], "L0"),
        (["enumerate", "--prefix", "0,99", "--len", "2"], "(0, 99)"),
    ],
)
def test_out_of_range_entry_is_domain_error(capsys, argv, named):
    # a label outside L1..Ln, a prefix entry outside 1..2n-1 anywhere in the prefix
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("cutseq: ")
    assert named in err


@pytest.mark.parametrize("name", ["NOSUCHFILE", "."])
def test_unreadable_word_file_is_usage_error(capsys, tmp_path, name):
    code, out, err = run(capsys, "recognize", "--word-file", str(tmp_path / name))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "argument --word-file" in err


def test_nan_epsilon_is_refused(capsys):
    code, out, err = run(capsys, "trace", "--theta", "0.9", "--epsilon", "nan")
    assert (code, out, err) == (2, "", "cutseq: epsilon must be positive\n")


def test_epsilon_of_one_half_or_more_is_refused(capsys):
    code, out, err = run(capsys, "trace", "--theta", "0.9", "--epsilon", "0.7")
    assert (code, out, err) == (2, "", "cutseq: epsilon must be below 0.5\n")


@pytest.mark.parametrize("flag", ["--i", "--j"])
def test_check_coherence_lone_i_or_j_is_usage_error(capsys, flag):
    # half a pair is malformed, like both or neither of --theta and --cot
    code, out, err = run(
        capsys, "check-coherence", "--word", "per:ADBCBCCBCBDADBCBCCBCCBCBD", flag, "0"
    )
    assert (code, out) == (1, "")
    assert err == "cutseq: error: give both of --i and --j, or neither\n"


def test_seeds_sector_outside_range_is_domain_error(capsys):
    code, out, err = run(capsys, "seeds", "--k", "99")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("cutseq: ") and "sector index 99" in err


def test_recognize_word_file(capsys, tmp_path):
    path = tmp_path / "window.txt"
    path.write_text(WINDOW + "\n")
    doc = run_json(capsys, "recognize", "--word-file", str(path), "--depth", "3")
    assert doc["diagrams"] == [4, 7, 2]
    # an undecodable byte is a letter outside the alphabet, not a crash
    path.write_bytes(b"AAD\xffB\n")
    code, out, err = run(capsys, "recognize", "--word-file", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "outside alphabet" in err


def test_families_with_explicit_seeds(capsys):
    doc = run_json(capsys, "families", "--prefix", "0,1,6", "--seeds", "per:AB,per:D")
    assert doc["words"] == ["per:ADADBCBD", "per:ADBCBCCBCBD"]


def test_trace_exact_seeded_start(capsys):
    from cutseq.exact_arith import Q2Scalar
    from cutseq.polygon import build_polygon

    argv = ["trace", "--cot", "2+1*sqrt2", "--exact", "--crossings", "6"]
    doc = run_json(capsys, *argv)
    x, y = (Q2Scalar.parse(v) for v in doc["start"])
    assert build_polygon(4).contains_exact(x, y)
    assert len(doc["word"]) == 6
    assert run_json(capsys, *argv)["start"] == doc["start"]  # the seed fixes the start


@pytest.mark.parametrize("direction", [["--theta", "0.5"], ["--cot", "1"]])
def test_enumerate_prefix_and_direction_is_usage_error(capsys, direction):
    code, out, err = run(capsys, "enumerate", "--prefix", "0,1,6", *direction, "--len", "3")
    assert (code, out) == (1, "")
    assert err == "cutseq: error: give exactly one of --prefix, --theta or --cot\n"


@pytest.mark.parametrize("cot", ["1/32/3*sqrt2", "3/3 2/3*sqrt2"])
def test_cot_without_a_sign_between_its_parts_is_usage_error(capsys, cot):
    code, out, err = run(capsys, "expand-direction", "--cot", cot)
    assert (code, out) == (1, "")
    assert err == f"cutseq: error: argument --cot: invalid value {cot!r}\n"


def test_exact_trace_of_a_float_direction_reports_the_library_refusal(capsys):
    code, out, err = run(capsys, "trace", "--theta", "0.5", "--exact", "--crossings", "3")
    assert (code, out, err) == (2, "", "cutseq: exact tracing needs an exact direction\n")


def test_periodic_marker_is_read_once(capsys):
    code, out, err = run(capsys, "derive", "--word", "per:per:AB")
    assert (code, out) == (2, "")
    assert err == "cutseq: letters [':', 'e', 'p', 'r'] outside alphabet of size 4\n"
    assert run_json(capsys, "derive", "--word", " per:AB")["derived"] == "per:AB"


def test_derive_labelled_periodic_word(capsys):
    doc = run_json(capsys, "derive", "--word", "per:L1 L2 L1 L3", "--n", "6", "--times", "2")
    assert doc["derived"] == "per:L2 L3"


def test_negative_times_is_usage_error(capsys):
    # range(-1) is empty: without the check the input came back as its own derivation
    code, out, err = run(capsys, "derive", "--word", "AB", "--times", "-1")
    assert (code, out) == (1, "")
    assert err == "cutseq: error: argument --times: must be >= 0, got -1\n"
    # --times 0 is the identity
    doc = run_json(capsys, "derive", "--word", "CACCCDBDCDC", "--times", "0")
    assert doc["derived"] == "CACCCDBDCDC"
    assert "times" not in doc
