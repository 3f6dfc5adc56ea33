import json
import os

import pytest

from qpfiber import cli
from qpfiber.cli import run
from qpfiber.constructions import MAX_N, q_rep
from qpfiber.graphcalc import ArcEnd, Comb, CombedGraph
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
