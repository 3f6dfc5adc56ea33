import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from hypothesis import given, settings, strategies as st

from qpfiber import cli
from qpfiber.braidcore import BandRepresentation, EmbeddedBand, beta, exponent_sum, permutation_cycles
from qpfiber.cli import MAX_ARCS, MAX_LETTERS, MAX_STRANDS, run
from qpfiber.constructions import MAX_N, q_rep
from qpfiber.graphcalc import ArcEnd, Comb, CombedGraph, neighborhood_summary
from qpfiber.sampling import random_band_representation
from qpfiber.surface import BraidedSurface


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def bigon_doc():
    host = BraidedSurface(q_rep(2))
    graph = CombedGraph(
        host,
        (
            (Comb((ArcEnd(1, 0), ArcEnd(1, 1))),),
            (Comb((ArcEnd(1, 0), ArcEnd(1, 1))),),
        ),
    )
    return graph.to_json()


def test_nabla_verb(capsys):
    code, report = invoke(capsys, "nabla", "--n", "3")
    assert code == 0
    assert report["result"]["representation"]["bands"] == [
        [1, 2, 1], [2, 3, 1], [1, 2, 1], [2, 3, 1], [1, 2, 1], [2, 3, 1],
    ]


def test_output_is_deterministic(capsys):
    run(["qrep", "--n", "3"])
    first = capsys.readouterr().out
    run(["qrep", "--n", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_invalid_parameter_exits_1(capsys):
    code, report = invoke(capsys, "nabla", "--n", "1")
    assert code == 1
    assert report["ok"] is False


def test_unknown_verb_exits_1(capsys):
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize(
    "argv",
    [["verify-fiber", "--n", "abc"], ["nabla"], ["bogus"], ["nabla", "--n", "3", "--extra"], []],
    ids=["non-integer-n", "missing-n", "unknown-verb", "extra-argument", "no-arguments"],
)
def test_argument_errors_give_one_malformed_input_report(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # raises unless stdout is exactly one JSON document
    assert code == 1
    assert (report["command"], report["kind"], report["ok"]) == (argv, "malformed-input", False)
    assert captured.err == ""


def test_help_is_argparse_help(capsys):
    assert run(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: qpfiber")


def test_one_parser_serves_every_run_in_a_process(capsys):
    # a refused argument, a valid verb and -h in turn on the one cached parser
    assert cli._build_parser() is cli._build_parser()
    assert run(["verify-fiber", "--n", "abc"]) == 1
    capsys.readouterr()
    assert run(["verify-fiber", "--n", "3"]) == 0
    reused = capsys.readouterr().out
    assert run(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: qpfiber")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "qpfiber.cli", "verify-fiber", "--n", "3"],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    ).stdout
    assert reused.encode() == fresh


def test_invariants_verb(tmp_path, capsys):
    path = write_json(tmp_path, "trefoil.json", {"strands": 2, "bands": [[1, 2, 1]] * 3})
    code, report = invoke(capsys, "invariants", "--input", path)
    assert code == 0
    result = report["result"]
    assert result["chi"] == -1
    assert result["boundary"] == 1
    assert result["exponent_sum"] == 3
    assert result["alexander"] == [1, -1, 1]
    assert path in report["inputs"]


def test_invariants_reads_boundary_and_exponent_sum_off_the_bands(tmp_path, capsys):
    # the verb reads chi and boundary off the surface summary, and the exponent sum off the bands,
    # not off the letters of beta(rep); they must not change
    rng = random.Random(2504)
    reps = [random_band_representation(rng, max_strands=7, max_bands=8) for _ in range(40)]
    # strands that no band meets: each is a disk, bounded by one circle
    reps += [BandRepresentation(rep.strands + rng.randint(1, 3), rep.bands) for rep in reps[:20]]
    reps += [BandRepresentation(5, ()), BandRepresentation(6, (EmbeddedBand(2, 4, 1), EmbeddedBand(2, 4, -1)))]
    for trial, rep in enumerate(reps):
        path = write_json(tmp_path, f"rep{trial}.json", rep.to_json())
        code, report = invoke(capsys, "invariants", "--input", path)
        assert code == 0
        word = beta(rep)
        assert report["result"]["chi"] == rep.strands - len(rep.bands), rep
        assert report["result"]["boundary"] == len(permutation_cycles(word)), rep
        assert report["result"]["exponent_sum"] == exponent_sum(word), rep


def test_quasipositize_bigon_exits_2(tmp_path, capsys):
    path = write_json(tmp_path, "bigon.json", bigon_doc())
    code, report = invoke(capsys, "quasipositize", "--n", "2", "--input", path)
    assert code == 2
    assert report["kind"] == "NotFull"


def test_quasipositize_subset(capsys):
    code, report = invoke(capsys, "quasipositize", "--n", "2", "--subset", "1,2")
    assert code == 0
    assert report["result"]["output"]["bands"] == [[1, 2, 1], [1, 2, 1]]


def test_quasipositize_needs_one_input(capsys):
    code, _ = invoke(capsys, "quasipositize", "--n", "2")
    assert code == 1


def test_reduce_verb(tmp_path, capsys):
    host = BraidedSurface(q_rep(2))
    graph = CombedGraph(
        host,
        (
            (Comb((ArcEnd(1, 0), ArcEnd(1, 1), ArcEnd(2, 0))),),
            (Comb((ArcEnd(1, 0),)), Comb((ArcEnd(1, 1), ArcEnd(2, 0)))),
        ),
    )
    path = write_json(tmp_path, "graph.json", graph.to_json())
    code, report = invoke(capsys, "reduce", "--input", path)
    assert code == 0
    assert len(report["result"]["trace"]) == 1
    assert len(report["result"]["graph"]["arcs"]) == 2


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = invoke(capsys, "invariants", "--input", str(path))
    assert code == 1


def test_missing_file_exits_1(capsys):
    code, _ = invoke(capsys, "invariants", "--input", "/nonexistent.json")
    assert code == 1


def test_pad_verb_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"strands": 2, "letters": [[1, 1]]})))
    code, report = invoke(capsys, "pad", "--input", "-")
    assert code == 0
    assert report["result"]["n"] == 2


def test_expand_verb(tmp_path, capsys):
    path = write_json(tmp_path, "rep.json", {"strands": 3, "bands": [[1, 3, 1]]})
    code, report = invoke(capsys, "expand", "--input", path)
    assert code == 0
    assert report["result"]["word"]["letters"] == [[1, 1], [2, 1]]


def test_verify_fiber_verb(capsys):
    code, report = invoke(capsys, "verify-fiber", "--n", "3")
    assert code == 0
    assert report["result"]["ok"] is True


def test_quasipositize_subset_not_integers_exits_1(capsys):
    code, report = invoke(capsys, "quasipositize", "--n", "2", "--subset", "1,a")
    assert code == 1
    assert report["kind"] == "malformed-input"


def test_non_utf8_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"strands": 2, "bands": [], "note": "\xe9"}')
    code, report = invoke(capsys, "invariants", "--input", str(path))
    assert code == 1
    assert report["kind"] == "malformed-input"


def test_non_utf8_stdin_exits_1(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8"))
    code, report = invoke(capsys, "pad", "--input", "-")
    assert code == 1
    assert report["kind"] == "malformed-input"


def test_json_booleans_are_not_integers(tmp_path, capsys):
    bad_rep = write_json(tmp_path, "rep.json", {"strands": 3, "bands": [[1, 2, True]]})
    bad_word = write_json(tmp_path, "word.json", {"strands": True, "letters": []})
    graph = json.loads(json.dumps(bigon_doc()))
    graph["disks"][0][0]["comb"][0]["arc_end"] = [True, 0]
    bad_graph = write_json(tmp_path, "graph.json", graph)
    for verb, path in (("invariants", bad_rep), ("pad", bad_word), ("reduce", bad_graph)):
        code, report = invoke(capsys, verb, "--input", path)
        assert code == 1, verb
        assert report["kind"] == "malformed-input", verb


def test_malformed_stated_arcs_exit_1(tmp_path, capsys):
    graph = bigon_doc()
    graph["arcs"] = [["a", 0, 1]]
    path = write_json(tmp_path, "graph.json", graph)
    code, report = invoke(capsys, "reduce", "--input", path)
    assert code == 1
    assert report["kind"] == "malformed-input"


def float_graph_doc():
    graph = bigon_doc()
    graph["disks"][0][0]["comb"][1]["arc_end"] = [1, 0.5]
    return graph


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["invariants"], {"strands": 3, "bands": [[1, 2.7, 1]]}),
        (["reduce"], float_graph_doc()),
        (["quasipositize", "--n", "2"], float_graph_doc()),
    ],
    ids=["invariants", "reduce", "quasipositize"],
)
def test_json_floats_are_not_integers(tmp_path, capsys, argv, doc):
    path = write_json(tmp_path, "doc.json", doc)
    code, report = invoke(capsys, *argv, "--input", path)
    assert code == 1
    assert report["kind"] == "malformed-input"


def test_directory_input_exits_1(tmp_path, capsys):
    code, report = invoke(capsys, "invariants", "--input", str(tmp_path))
    assert code == 1
    assert report["kind"] == "unreadable-input"


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads files whatever their mode")
def test_unreadable_file_exits_1(tmp_path, capsys):
    path = write_json(tmp_path, "rep.json", {"strands": 2, "bands": [[1, 2, 1]]})
    os.chmod(path, 0)
    code, report = invoke(capsys, "invariants", "--input", path)
    assert code == 1
    assert report["kind"] == "unreadable-input"


@pytest.mark.parametrize(
    "argv",
    [
        ["nabla"],
        ["qrep"],
        ["verify-fiber"],
        ["quasipositize", "--subset", "1"],
        ["quasipositize", "--input", "/nonexistent.json"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_n_above_the_limit_exits_2_before_any_work(capsys, monkeypatch, argv):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started above the size limit")

    for name in ("nabla", "q_rep", "verify_fiber", "quasipositize", "quasipositize_handle_subsurface", "_read_document"):
        monkeypatch.setattr(cli, name, no_work)
    code, report = invoke(capsys, argv[0], "--n", str(MAX_N + 1), *argv[1:])
    assert code == 2
    assert report["kind"] == "SizeLimitExceeded"


def test_n_at_the_limit_is_accepted(capsys):
    code, report = invoke(capsys, "qrep", "--n", str(MAX_N))
    assert code == 0
    assert report["result"]["representation"]["strands"] == (MAX_N - 1) ** 2 + 1


def undrawable_doc():
    """Combs that cross on disk 1; on this annulus host they would report a punctured torus."""
    return {
        "host": {"strands": 2, "bands": [[1, 2, -1], [1, 2, 1]]},
        "disks": [
            [{"comb": [{"arc_end": [1, 0]}, {"arc_end": [2, 0]}]},
             {"comb": [{"arc_end": [2, 1]}, {"arc_end": [1, 1]}]}],
            [{"comb": [{"arc_end": [1, 0]}, {"arc_end": [1, 1]}, {"arc_end": [2, 0]}, {"arc_end": [2, 1]}]}],
        ],
    }


@pytest.mark.parametrize("verb", [["reduce"], ["quasipositize", "--n", "2"]])
def test_graph_that_cannot_be_drawn_exits_1(tmp_path, capsys, verb):
    path = write_json(tmp_path, "undrawable.json", undrawable_doc())
    code, report = invoke(capsys, *verb, "--input", path)
    assert code == 1
    assert report["kind"] == "malformed-input"


DEEP_ARRAY = "[" * 1000 + "]" * 1000
# hypothesis raises the recursion limit while it runs a test, so its deep
# array must be deeper than any limit it sets
DEEPER_ARRAY = "[" * 100_000 + "]" * 100_000

INPUT_VERBS = [["invariants"], ["reduce"], ["pad"], ["expand"], ["quasipositize", "--n", "2"]]


def run_on_stdin(argv, text):
    """Exit code and stdout of `run(argv + ["--input", "-"])` with `text` on stdin."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv + ["--input", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


@pytest.mark.parametrize(
    "text",
    [DEEP_ARRAY, '{"strands": ' + "1" * 5000 + ', "bands": []}'],
    ids=["deep-array", "integer-too-long-to-convert"],
)
@pytest.mark.parametrize("verb", INPUT_VERBS, ids=lambda argv: argv[0])
def test_json_the_decoder_refuses_exits_1(verb, text):
    code, out = run_on_stdin(verb, text)
    assert code == 1
    assert json.loads(out)["kind"] == "malformed-input"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_small_ints = st.integers(min_value=-2, max_value=6) | st.just(MAX_STRANDS + 1)
_fields = st.fixed_dictionaries(
    {},
    optional={
        "strands": _small_ints | _json_values,
        "bands": st.lists(st.lists(_small_ints, max_size=4), max_size=4) | _json_values,
        "letters": st.lists(st.lists(_small_ints, max_size=3), max_size=4) | _json_values,
        "host": st.fixed_dictionaries(
            {"strands": _small_ints, "bands": st.lists(st.lists(_small_ints, max_size=3), max_size=3)}
        ),
        "disks": _json_values,
        "arcs": _json_values,
    },
)
_documents = (
    (_json_values | _fields).map(json.dumps) | st.text(max_size=8) | st.sampled_from([DEEP_ARRAY, DEEPER_ARRAY])
)


@given(st.sampled_from(INPUT_VERBS), _documents)
@settings(max_examples=100, deadline=None)
def test_any_input_gives_one_json_document_and_a_documented_exit_code(verb, text):
    code, out = run_on_stdin(verb, text)
    assert code in (0, 1, 2)
    report = json.loads(out)  # raises unless stdout is exactly one JSON document
    assert report["ok"] is (code == 0)


def test_input_limits_come_from_the_largest_fiber():
    assert (MAX_STRANDS, MAX_LETTERS) == (101, 20_000)


def points_doc(host):
    """A combed graph of one isolated point per disk."""
    return {"host": host, "disks": [[{"point": True}]] * host["strands"]}


def arcs_doc(host, arcs):
    """A combed graph of `arcs` arcs through band 1, each joining two one-tooth combs."""
    disk = [{"comb": [{"arc_end": [1, slot]}]} for slot in range(arcs)]
    return {"host": host, "disks": [disk, disk]}


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("invariants", {"strands": MAX_STRANDS + 1, "bands": [[1, 2, 1]]}),
        ("invariants", {"strands": 2, "bands": [[1, 2, 1]] * (MAX_LETTERS + 1)}),
        ("expand", {"strands": MAX_STRANDS + 1, "bands": [[1, 2, 1]]}),
        ("expand", {"strands": 3, "bands": [[1, 3, 1]] * (MAX_LETTERS // 3 + 1)}),
        ("pad", {"strands": MAX_STRANDS + 1, "letters": [[1, 1]]}),
        ("pad", {"strands": 2, "letters": [[1, 1]] * (MAX_STRANDS + 1)}),
        ("reduce", points_doc({"strands": MAX_STRANDS + 1, "bands": []})),
        ("reduce", points_doc({"strands": 2, "bands": [[1, 2, 1]] * (MAX_LETTERS + 1)})),
        ("reduce", arcs_doc({"strands": 2, "bands": [[1, 2, 1]]}, MAX_ARCS + 1)),
        ("quasipositize --n 2", points_doc({"strands": MAX_STRANDS + 1, "bands": []})),
        ("quasipositize --n 2", arcs_doc(q_rep(2).to_json(), MAX_ARCS + 1)),
    ],
    ids=[
        "invariants-strands", "invariants-letters", "expand-strands", "expand-letters", "pad-strands", "pad-letters",
        "reduce-host-strands", "reduce-host-letters", "reduce-arcs", "quasipositize-host-strands", "quasipositize-arcs",
    ],
)
def test_input_above_the_limits_exits_2_before_any_work(monkeypatch, verb, doc):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started above the size limit")

    for name in ("BraidedSurface", "reduced_beta", "summary", "expand_bands", "pad_into_nabla", "reduce_with_trace", "quasipositize"):
        monkeypatch.setattr(cli, name, no_work)
    code, out = run_on_stdin(verb.split(), json.dumps(doc))
    assert code == 2
    assert json.loads(out)["kind"] == "SizeLimitExceeded"


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("pad", {"strands": MAX_STRANDS, "letters": [[1, 1]]}),
        ("expand", {"strands": MAX_STRANDS, "bands": [[1, 2, 1]]}),
        ("invariants", {"strands": MAX_STRANDS, "bands": [[1, 2, 1]]}),
        ("reduce", points_doc({"strands": MAX_STRANDS, "bands": []})),
        ("reduce", points_doc({"strands": 2, "bands": [[1, 2, 1]] * MAX_LETTERS})),
        ("reduce", arcs_doc({"strands": 2, "bands": [[1, 2, 1]]}, MAX_ARCS)),
    ],
    ids=["pad", "expand", "invariants", "reduce-host-strands", "reduce-host-letters", "reduce-arcs"],
)
def test_input_at_the_limits_is_accepted(verb, doc):
    code, out = run_on_stdin(verb.split(), json.dumps(doc))
    assert code == 0, out


_VERBS = ["nabla", "qrep", "pad", "expand", "invariants", "verify-fiber", "reduce", "quasipositize", "bogus"]
_FLAGS = ["--n", "--input", "--subset", "--seed", "--extra", "-n"]
# no --n between 5 and MAX_N, where a fiber verb would do seconds of work
_N_VALUES = st.integers(-3, 4) | st.integers(MAX_N + 1, 10**30)
_VALUES = (
    _N_VALUES.map(str)
    | st.sampled_from(["abc", "1.5", "", " ", "0x10", "-", "--", "/nonexistent.json", ".", "1,,2"])
    | st.lists(st.integers(-(10**30), 10**30) | st.integers(-3, 40), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))
    )
)
_ARGVS = st.lists(st.sampled_from(_VERBS) | st.sampled_from(_FLAGS) | _VALUES, max_size=6) | st.tuples(
    st.sampled_from(_VERBS), st.lists(st.sampled_from(_FLAGS) | _VALUES, max_size=5)
).map(lambda t: [t[0], *t[1]])


@given(_ARGVS)
@settings(max_examples=150, deadline=None)
def test_any_argv_gives_one_json_document_and_a_documented_exit_code(argv):
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(q_rep(2).to_json()))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    report = json.loads(out.getvalue())  # raises unless stdout is exactly one JSON document
    assert report["ok"] is (code == 0)


@pytest.mark.parametrize("verb", ["reduce", "quasipositize --n 3"])
def test_an_oversized_host_is_refused_in_time_proportional_to_its_size(verb):
    # validation reads each disk's incidence row, not every band, so a host far above the
    # strand limit is refused as fast as the document is read
    strands = 8000
    doc = points_doc({"strands": strands, "bands": [[i, i + 1, 1] for i in range(1, strands)]})
    start = time.perf_counter()
    code, out = run_on_stdin(verb.split(), json.dumps(doc))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert json.loads(out)["kind"] == "SizeLimitExceeded"


def star_doc(arcs):
    """S(q_2) with one disk-1 comb of `arcs` teeth into band 1, each arc to a one-tooth comb on disk 2.

    Every pair of neighbouring disk-1 teeth is a site, and each move merges
    two one-tooth combs on disk 2, so a reduction makes `arcs` - 1 moves.
    """
    return {
        "host": q_rep(2).to_json(),
        "disks": [
            [{"comb": [{"arc_end": [1, slot]} for slot in range(arcs)]}],
            [{"comb": [{"arc_end": [1, slot]}]} for slot in range(arcs)],
        ],
    }


def summary_of_report(verb, report):
    if verb == "reduce":
        graph = CombedGraph.from_json(report["result"]["graph"])
        return [list(c) for c in neighborhood_summary(graph).components]
    return report["result"]["summary"]["components"]


@pytest.mark.parametrize("verb", ["reduce", "quasipositize --n 2"])
def test_a_star_at_the_arc_limit_reduces_in_time_linear_in_its_size(verb):
    # a move works on the teeth it changes, not on the 2,000-tooth comb it takes its site from
    start = time.perf_counter()
    code, out = run_on_stdin(verb.split(), json.dumps(star_doc(MAX_ARCS)))
    assert time.perf_counter() - start < 2
    assert code == 0, out
    report = json.loads(out)
    assert len(report["result"]["trace"]) == MAX_ARCS - 1
    assert summary_of_report(verb, report) == [[1, 1]]


def nested_dead_end_doc(band):
    """A forest on S(q_2) whose disk-2 comb holds two teeth on `band` around a nested dead end."""
    def comb(*slots):
        return {"comb": [{"arc_end": [band, slot]} for slot in slots]}

    return {"host": q_rep(2).to_json(), "disks": [[comb(2), comb(1), comb(0)], [comb(0, 2), comb(1)]]}


@pytest.mark.parametrize("band", [1, 2])
def test_a_comb_around_a_nested_dead_end_is_quasipositized(band):
    # dropping the dead end makes a site on disk 2; the reduction goes on from there
    code, out = run_on_stdin(["quasipositize", "--n", "2"], json.dumps(nested_dead_end_doc(band)))
    assert code == 0, out
    report = json.loads(out)  # raises unless stdout is exactly one JSON document
    assert report["result"]["summary"]["components"] == [[1, 1], [1, 1]]
