import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from planar_l21 import cli
from planar_l21.graphs import from_json
from planar_l21.labelling import labelling_to_json, Labelling


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, reports, captured.err


@pytest.fixture
def formula_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    return path


def test_reduce_writes_stage_files(tmp_path, formula_file, capsys):
    out = tmp_path / "out"
    code, reports, _ = run_cli(
        capsys, ["reduce", "--k", "4", "--input", str(formula_file), "--out", str(out)]
    )
    assert code == 0
    assert reports[0]["files"] == [
        "formula.cnf",
        "cubic.json",
        "planar.json",
        "aux.json",
        "instance.json",
        "manifest.json",
    ]
    graph, _, _, _ = from_json((out / "cubic.json").read_text())
    assert graph.n == 40


def test_reduce_stop_at_cubic(tmp_path, formula_file, capsys):
    out = tmp_path / "out"
    code, reports, _ = run_cli(
        capsys,
        ["reduce", "--k", "5", "--input", str(formula_file), "--out", str(out), "--stop-at", "cubic"],
    )
    assert code == 0
    assert reports[0]["files"] == ["formula.cnf", "cubic.json", "manifest.json"]


def test_reduce_rejects_small_k(tmp_path, formula_file, capsys):
    code, _, err = run_cli(
        capsys, ["reduce", "--k", "3", "--input", str(formula_file), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "at least 4" in err


def test_reduce_rejects_bad_formula(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 2 0\n")
    code, _, err = run_cli(capsys, ["reduce", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "text",
    ["p cnf 3_0 1\n1 2 3 0\n", "p cnf \u0663 1\n1 2 3 0\n", "p cnf 3 1\n+1 2 3 0\n"],
    ids=["underscore", "non-ascii digit", "plus sign"],
)
@pytest.mark.parametrize("command", ["reduce", "roundtrip"])
def test_non_dimacs_number_exits_2(tmp_path, capsys, command, text):
    assert_formula_rejected(tmp_path, capsys, command, text)


def assert_formula_rejected(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.cnf"
    bad.write_text(text, encoding="utf-8")
    option = {"reduce": "--input", "roundtrip": "--formula"}[command]
    argv = [command, option, str(bad)] + (["--out", str(tmp_path / "o")] if command == "reduce" else [])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert_bad_input(code, captured.err)
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["reduce", "roundtrip"])
def test_zero_inside_a_clause_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 3 1\n1 0 3 0\n")
    option = {"reduce": "--input", "roundtrip": "--formula"}[command]
    argv = [command, option, str(bad)] + (["--out", str(tmp_path / "o")] if command == "reduce" else [])
    code, reports, err = run_cli(capsys, argv)
    assert_bad_input(code, err)
    assert reports == []
    assert "line 2: literal 0 before the end of the line" in err


@pytest.mark.parametrize(
    "text",
    ["p cnf 3 1\n1\u00a02 3 0\n", "p cnf 5 2\n1 2 3 0\x1c5 1 1 0\n"],
    ids=["no-break space", "U+001C"],
)
@pytest.mark.parametrize("command", ["reduce", "roundtrip"])
def test_unicode_whitespace_exits_2(tmp_path, capsys, command, text):
    assert_formula_rejected(tmp_path, capsys, command, text)


@pytest.mark.parametrize("command", ["reduce", "roundtrip"])
def test_lone_carriage_return_exits_2(tmp_path, capsys, command):
    # a lone \r does not end a DIMACS line, so line 2 holds eight numbers
    assert_formula_rejected(tmp_path, capsys, command, "p cnf 5 2\n1 2 3 0\r5 1 1 0\n")


@pytest.mark.parametrize("command", ["reduce", "roundtrip"])
def test_crlf_formula_exits_0(tmp_path, capsys, command):
    path = tmp_path / "crlf.cnf"
    path.write_bytes(b"p cnf 3 1\r\n1 2 3 0\r\n")
    option = {"reduce": "--input", "roundtrip": "--formula"}[command]
    argv = [command, option, str(path), "--k", "4"]
    code, reports, _ = run_cli(capsys, argv + (["--out", str(tmp_path / "o")] if command == "reduce" else []))
    assert code == 0
    assert reports[0]["command"] == command


def test_roundtrip_budget_bounds_the_brute_force_oracle(tmp_path, capsys):
    # 2^29 assignments to scan: the budget stops it long before
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 30 1\n1 1 1 0\n")
    t0 = time.monotonic()
    code = cli.main(["roundtrip", "--formula", str(path), "--k", "4", "--budget", "1000"])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 30
    assert_bad_input(code, captured.err)
    assert "1000 assignments" in captured.err and captured.out == ""


def test_certify_small_range(capsys):
    code, reports, err = run_cli(capsys, ["certify", "--k", "4..4"])
    assert code == 0
    kinds = [r["kind"] for r in reports]
    assert kinds == ["H", "ClauseK", "UncrossU", "Gk"]
    assert all(r["pass"] for r in reports)


def test_certify_includes_hprime_from_k6(capsys):
    code, reports, _ = run_cli(capsys, ["certify", "--k", "6..6"])
    assert code == 0
    assert [r["kind"] for r in reports] == ["H", "ClauseK", "UncrossU", "Hprime", "Gk"]


def test_certify_capacity_exit(capsys):
    code, _, err = run_cli(capsys, ["certify", "--k", "9..9"])
    assert code == 2
    assert "certification supports" in err


@pytest.mark.parametrize(
    "k_range, message",
    [
        ("4..9", "edge gadget certification supports 4 <= k <= 8"),
        ("6..10", "H' certification supports 6 <= k <= 9"),
    ],
)
def test_certify_checks_capacity_before_any_lemma(capsys, monkeypatch, k_range, message):
    from planar_l21 import gadgets

    calls = []
    lemmas = ["H", "clause_gadget", "uncrossing", "Hprime", "edge_gadget"]
    for name in [f"certify_{lemma}" for lemma in lemmas]:
        monkeypatch.setattr(gadgets, name, lambda *args, name=name: calls.append(name))
    code, reports, err = run_cli(capsys, ["certify", "--k", k_range])
    assert_bad_input(code, err)
    assert (calls, reports) == ([], [])
    assert message in err


def test_certify_reports_mutation(capsys, monkeypatch):
    import planar_l21.gadgets as gadgets_mod
    from planar_l21.graphs import Graph

    good = gadgets_mod.build_H()
    ids = {v.name: v.id for v in good.graph.vertices}
    pruned = [e for e in good.graph.sorted_edges() if e != tuple(sorted((ids["o"], ids["q"])))]
    broken = gadgets_mod.GadgetInstance(Graph(good.graph.vertices, pruned), good.rot, good.ports, "H")
    monkeypatch.setattr(gadgets_mod, "build_H", lambda: broken)
    code, reports, err = run_cli(capsys, ["certify", "--k", "4..4"])
    assert code == 1
    assert "FAILED at H" in err
    h_report = next(r for r in reports if r["kind"] == "H")
    assert h_report["observed"]["count"] != 6


def test_certify_sets_up_one_label_search_per_lemma(capsys, monkeypatch):
    from planar_l21.labelling import _LabelSearch

    spans = []
    original = _LabelSearch.__init__

    def counted(search, graph, k):
        spans.append(k)
        original(search, graph, k)

    monkeypatch.setattr(_LabelSearch, "__init__", counted)
    code, _, _ = run_cli(capsys, ["certify", "--k", "4..8"])
    assert code == 0
    # H' for k = 6..8; G_4 and G_5; the H' pair table of each of G_6..G_8
    assert spans == [6, 7, 8, 4, 5, 6, 7, 8]


def assert_internal_error(code, err, out, command):
    assert code == 3
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"{command}: internal invariant violated: ")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("command", ["reduce", "roundtrip"])
def test_reduction_invariant_violation_exits_3(tmp_path, formula_file, capsys, monkeypatch, command):
    import planar_l21.pipeline as pipeline_mod

    def broken(*args, **kwargs):
        raise AssertionError("instance graph failed the Euler check")

    monkeypatch.setattr(pipeline_mod, "build_instance", broken)
    option = {"reduce": "--input", "roundtrip": "--formula"}[command]
    argv = [command, option, str(formula_file)] + (["--out", str(tmp_path / "o")] if command == "reduce" else [])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert_internal_error(code, captured.err, captured.out, command)
    assert "Euler check" in captured.err
    assert not (tmp_path / "o").exists()


def test_solve_witness_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    import planar_l21.labelling as labelling_mod
    from conftest import cycle_graph
    from planar_l21.graphs import to_json

    instance = tmp_path / "c5.json"
    instance.write_text(to_json(cycle_graph(5), k=4))
    monkeypatch.setattr(labelling_mod, "verify_labelling", lambda graph, labelling: False)
    code = cli.main(["solve", "--instance", str(instance)])
    captured = capsys.readouterr()
    assert_internal_error(code, captured.err, captured.out, "solve")
    assert "invalid witness" in captured.err


def test_certify_euler_check_failure_exits_3(capsys, monkeypatch):
    import planar_l21.gadgets as gadgets_mod

    # an uncached builder whose Euler check fails
    monkeypatch.setattr(gadgets_mod, "build_H", gadgets_mod.build_H.__wrapped__)
    monkeypatch.setattr(gadgets_mod, "verify_planar", lambda graph, rot: False)
    code = cli.main(["certify", "--k", "4..4"])
    captured = capsys.readouterr()
    assert_internal_error(code, captured.err, captured.out, "certify")
    assert "non-planar embedding" in captured.err


def test_solve_and_verify_round_trip(tmp_path, formula_file, capsys):
    out = tmp_path / "out"
    run_cli(capsys, ["reduce", "--k", "4", "--input", str(formula_file), "--out", str(out), "--stop-at", "cubic"])
    # a tiny standalone instance: the cubic graph itself is too big to solve,
    # so exercise solve/verify on a small hand instance instead
    from conftest import cycle_graph
    from planar_l21.graphs import to_json

    small = tmp_path / "c5.json"
    g = cycle_graph(5)
    small.write_text(to_json(g, k=4))
    code, reports, _ = run_cli(capsys, ["solve", "--instance", str(small)])
    assert code == 0
    doc = json.loads(reports[0] if isinstance(reports[0], str) else json.dumps(reports[0]))
    assert doc["outcome"] == "sat"
    lab = tmp_path / "lab.json"
    lab.write_text(labelling_to_json(Labelling(4, {int(v): x for v, x in doc["witness"]["labels"].items()})))
    code, reports, _ = run_cli(capsys, ["verify", "--instance", str(small), "--labelling", str(lab)])
    assert code == 0 and reports[0]["valid"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(labelling_to_json(Labelling(4, {v: 0 for v in range(5)})))
    code, reports, _ = run_cli(capsys, ["verify", "--instance", str(small), "--labelling", str(bad)])
    assert code == 1 and reports[0]["valid"] is False


def test_roundtrip_satisfiable(formula_file, capsys):
    code, reports, err = run_cli(capsys, ["roundtrip", "--formula", str(formula_file), "--k", "4"])
    assert code == 0
    assert reports[0]["ok"] is True
    assert "verified" in err


def test_roundtrip_unsatisfiable(tmp_path, capsys):
    path = tmp_path / "unsat.cnf"
    path.write_text("p cnf 1 1\n1 1 1 0\n")
    code, reports, _ = run_cli(
        capsys, ["roundtrip", "--formula", str(path), "--k", "4", "--budget", "20000"]
    )
    assert code == 0
    assert reports[0]["solver_outcome"] in ("unsat", "exhausted")


def test_roundtrip_detects_sabotage(formula_file, capsys, monkeypatch):
    import planar_l21.pipeline as pipeline_mod
    from oracles import swap_colours

    original = pipeline_mod.orientation_to_matching

    def sabotaged(trace, co):
        matching = original(trace, co)
        return swap_colours(matching) | {0: matching[0]}  # break one vertex

    monkeypatch.setattr(pipeline_mod, "orientation_to_matching", sabotaged)
    code, reports, err = run_cli(capsys, ["roundtrip", "--formula", str(formula_file), "--k", "4"])
    assert code == 1
    assert reports[0]["ok"] is False


def test_export_dot(tmp_path, formula_file, capsys):
    out = tmp_path / "out"
    run_cli(capsys, ["reduce", "--k", "4", "--input", str(formula_file), "--out", str(out), "--stop-at", "cubic"])
    code = cli.main(["export", "--input", str(out / "cubic.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("graph g {")
    code = cli.main(["export", "--format", "svg", "--input", str(out / "cubic.json")])
    assert code == 2


def assert_bad_input(code, err):
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "verify", "export"])
def test_malformed_json_exits_2(tmp_path, capsys, command):
    broken = tmp_path / "broken.json"
    broken.write_text('{"vertices": [')
    argv = {
        "solve": ["solve", "--instance", str(broken)],
        "verify": ["verify", "--instance", str(broken), "--labelling", str(broken)],
        "export": ["export", "--input", str(broken)],
    }[command]
    code, _, err = run_cli(capsys, argv)
    assert_bad_input(code, err)
    assert "malformed JSON" in err


def test_verify_out_of_range_label_exits_2(tmp_path, capsys):
    from conftest import cycle_graph
    from planar_l21.graphs import to_json

    instance = tmp_path / "c5.json"
    instance.write_text(to_json(cycle_graph(5), k=4))
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"k": 4, "labels": {"0": 9}}))
    code, _, err = run_cli(capsys, ["verify", "--instance", str(instance), "--labelling", str(lab)])
    assert_bad_input(code, err)
    assert "outside [0,4]" in err


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"k": 10, "labels": {"0": 0, "1": 10, "2": 5}}, "outside [0,4]"),  # the instance's k=4 binds
        ({"k": 4, "labels": {"0": 0, "1": 2, "2": 4, "7": 0}}, "vertex 7"),  # not in the instance
        ({"k": 4, "labels": {"0": 0, "1": 2, "2": 4, "01": 0}}, "'01'"),  # vertex 1 spelled again
    ],
)
def test_verify_checks_labelling_against_instance(tmp_path, capsys, doc, message):
    from conftest import path_graph
    from planar_l21.graphs import to_json

    instance = tmp_path / "p3.json"
    instance.write_text(to_json(path_graph(3), k=4))
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["verify", "--instance", str(instance), "--labelling", str(lab)])
    assert_bad_input(code, err)
    assert message in err


@pytest.mark.parametrize(
    "command,text",
    [
        ("solve", "[]"),
        ("solve", '{"vertices": [], "edges": [], "k": "4"}'),
        ("export", '{"k": 4}'),
        ("verify", '{"k": 4, "labels": []}'),
    ],
)
def test_wrong_shape_json_exits_2(tmp_path, capsys, command, text):
    from conftest import cycle_graph
    from planar_l21.graphs import to_json

    instance = tmp_path / "c5.json"
    instance.write_text(to_json(cycle_graph(5), k=4))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(text)
    argv = {
        "solve": ["solve", "--instance", str(wrong)],
        "export": ["export", "--input", str(wrong)],
        "verify": ["verify", "--instance", str(instance), "--labelling", str(wrong)],
    }[command]
    code, reports, err = run_cli(capsys, argv)
    assert_bad_input(code, err)
    assert reports == []
    assert "JSON" in err


def test_reduce_out_is_a_file_exits_2(tmp_path, formula_file, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, reports, err = run_cli(
        capsys, ["reduce", "--input", str(formula_file), "--out", str(taken), "--stop-at", "cubic"]
    )
    assert_bad_input(code, err)
    assert reports == []
    assert "cannot write" in err


def test_roundtrip_over_capacity_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 31 1\n1 2 31 0\n")
    code, reports, err = run_cli(capsys, ["roundtrip", "--formula", str(path)])
    assert_bad_input(code, err)
    assert reports == []
    assert "brute-force limit" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--k", "-1"], "span"),
        (["solve", "--k", "4", "--budget", "-3"], "budget"),
        (["roundtrip", "--budget", "-2"], "budget"),
    ],
)
def test_negative_span_or_budget_exits_2(tmp_path, capsys, argv, message):
    from conftest import path_graph
    from planar_l21.graphs import to_json

    instance = tmp_path / "p3.json"
    instance.write_text(to_json(path_graph(3), k=4))
    formula = tmp_path / "unsat.cnf"
    formula.write_text("p cnf 1 1\n1 1 1 0\n")
    source = ["--instance", str(instance)] if argv[0] == "solve" else ["--formula", str(formula)]
    code, reports, err = run_cli(capsys, argv[:1] + source + argv[1:])
    assert_bad_input(code, err)
    assert reports == []
    assert message in err


@pytest.mark.parametrize(
    "k_range", ["\u0664..\u0664", "4..\u0665", "+4..4", " 4..4", "0_4..4", "4..4\n"]
)
def test_certify_k_range_takes_ascii_digits_only(capsys, k_range):
    # each bound must be ASCII -?[0-9]+, as a DIMACS number must; int() takes all of these
    code, reports, err = run_cli(capsys, ["certify", "--k", k_range])
    assert_bad_input(code, err)
    assert reports == []
    assert "bad k range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--k", "\u0664"],
        ["solve", "--k", "+4"],
        ["solve", "--budget", "1_000"],
        ["roundtrip", "--k", "\u0664"],
        ["roundtrip", "--budget", "1_000"],
        ["roundtrip", "--budget", " 1000"],
    ],
    ids=" ".join,
)
def test_integer_option_takes_ascii_digits_only(tmp_path, formula_file, capsys, argv):
    from conftest import path_graph
    from planar_l21.graphs import to_json

    instance = tmp_path / "p3.json"
    instance.write_text(to_json(path_graph(3), k=4))
    source = {
        "reduce": ["--input", str(formula_file), "--out", str(tmp_path / "o")],
        "solve": ["--instance", str(instance)],
        "roundtrip": ["--formula", str(formula_file)],
    }[argv[0]]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + source + argv[1:])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "invalid integer" in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_roundtrip_rejects_negative_budget_before_reducing(formula_file, capsys, monkeypatch):
    import planar_l21.pipeline as pipeline_mod

    def refuse(*args, **kwargs):
        raise AssertionError("the reduction ran")

    monkeypatch.setattr(cli, "solve_nae_bruteforce", refuse)
    monkeypatch.setattr(pipeline_mod, "run_reduction", refuse)
    code, reports, err = run_cli(
        capsys, ["roundtrip", "--formula", str(formula_file), "--k", "4", "--budget", "-2"]
    )
    assert_bad_input(code, err)
    assert reports == []
    assert "budget" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        # lambda(K1,3) = 4, so no span-3 labelling of the star is valid
        ({"k": 3, "labels": {"0": 0, "1": 2, "2": 2.5, "3": 3}}, "label"),
        ({"k": 3, "labels": {"0": 0, "1": 2, "2": True, "3": 3}}, "label"),
        ({"k": 3.5, "labels": {"0": 0, "1": 2, "2": 3, "3": 4}}, "k"),
    ],
)
def test_verify_rejects_non_integer_labelling_exits_2(tmp_path, capsys, doc, message):
    from conftest import star_graph
    from planar_l21.graphs import to_json

    instance = tmp_path / "star.json"
    instance.write_text(to_json(star_graph(3)))
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps(doc))
    code, reports, err = run_cli(capsys, ["verify", "--instance", str(instance), "--labelling", str(lab)])
    assert_bad_input(code, err)
    assert reports == []
    assert f"labelling JSON {message}" in err


@pytest.mark.parametrize("command", ["export", "solve"])
def test_float_vertex_id_exits_2(tmp_path, capsys, command):
    from conftest import path_graph
    from planar_l21.graphs import to_json

    doc = json.loads(to_json(path_graph(2), k=4))
    doc["vertices"][0]["id"] = 0.0  # export would declare node v0.0 and draw edge v0 -- v1
    instance = tmp_path / "float-id.json"
    instance.write_text(json.dumps(doc))
    flag = "--input" if command == "export" else "--instance"
    code, _, err = run_cli(capsys, [command, flag, str(instance)])
    assert_bad_input(code, err)
    assert "vertex id" in err


@pytest.mark.parametrize("command", ["export", "solve"])
def test_non_canonical_rotation_key_exits_2(tmp_path, capsys, command):
    from conftest import any_rotation, path_graph
    from planar_l21.graphs import to_json

    g = path_graph(3)
    doc = json.loads(to_json(g, any_rotation(g), k=4))
    doc["rotation"]["+1"] = doc["rotation"].pop("1")  # int("+1") is vertex 1 too
    instance = tmp_path / "plus-key.json"
    instance.write_text(json.dumps(doc))
    flag = "--input" if command == "export" else "--instance"
    code, _, err = run_cli(capsys, [command, flag, str(instance)])
    assert_bad_input(code, err)
    assert "'+1'" in err


def test_export_dot_escapes_labels(tmp_path, capsys):
    from planar_l21.graphs import ORIGINAL, Graph, Vertex, to_json

    names = ['x" ] ; evil [', "back\\", "c"]
    g = Graph([Vertex(i, ORIGINAL, name) for i, name in enumerate(names)], [(0, 1), (1, 2)])
    path = tmp_path / "quoted.json"
    path.write_text(to_json(g, ports={'p"\\': 2}))
    code = cli.main(["export", "--input", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1:4] == [
        '  v0 [label="x\\" ] ; evil [", shape=circle];',
        '  v1 [label="back\\\\", shape=circle];',
        '  v2 [label="p\\"\\\\", shape=circle];',
    ]


@pytest.mark.parametrize(
    "target, old, new",
    [
        ("labelling", '"1":2', '"1":0,"1":2'),  # vertex 1 labelled twice; the last label is valid
        ("instance", '"rotation":{', '"rotation":{"1":[[0,1],[1,2]],'),  # rotation of 1 twice
        ("instance", '{"id":0,', '{"id":0,"name":"shadow",'),  # a vertex named twice
    ],
    ids=["label key", "rotation key", "vertex object key"],
)
def test_repeated_json_key_exits_2(tmp_path, capsys, target, old, new):
    from conftest import any_rotation, path_graph
    from planar_l21.graphs import to_json

    g = path_graph(3)
    texts = {
        "instance": to_json(g, any_rotation(g), k=4),
        "labelling": '{"k":4,"labels":{"0":0,"1":2,"2":4}}',
    }
    assert old in texts[target]
    texts[target] = texts[target].replace(old, new, 1)
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    files = [str(tmp_path / f"{name}.json") for name in texts]
    code, reports, err = run_cli(capsys, ["verify", "--instance", files[0], "--labelling", files[1]])
    assert_bad_input(code, err)
    assert reports == []
    assert "repeats the key" in err


@pytest.mark.parametrize(
    "ports",
    ['{"x": true}', '[["x", 0]]', '{"x": 99}', '{"x": "a"}', '{"x": 1.0}'],
    ids=["bool", "array", "foreign vertex", "string", "float"],
)
def test_graph_ports_must_name_vertices(tmp_path, capsys, ports):
    from conftest import path_graph
    from planar_l21.graphs import to_json

    text = to_json(path_graph(3))
    assert '"ports":{}' in text
    path = tmp_path / "p3.json"
    path.write_text(text.replace('"ports":{}', f'"ports":{ports}'))
    code = cli.main(["export", "--input", str(path)])
    captured = capsys.readouterr()
    assert_bad_input(code, captured.err)
    assert "graph JSON port" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content", [None, b"\xff"], ids=["missing", "undecodable"])
@pytest.mark.parametrize(
    "command, option",
    [
        ("reduce", "--input"),
        ("roundtrip", "--formula"),
        ("solve", "--instance"),
        ("verify", "--instance"),
        ("verify", "--labelling"),
        ("export", "--input"),
    ],
)
def test_unreadable_input_exits_2(tmp_path, formula_file, capsys, command, option, content):
    from conftest import path_graph
    from planar_l21.graphs import to_json

    instance = tmp_path / "p3.json"
    instance.write_text(to_json(path_graph(3), k=4))
    lab = tmp_path / "lab.json"
    lab.write_text(labelling_to_json(Labelling(4, {0: 0, 1: 2, 2: 4})))
    bad = tmp_path / "bad.txt"
    if content is not None:
        bad.write_bytes(content + b"p cnf 3 1\n1 2 3 0\n")
    inputs = {
        "reduce": {"--input": formula_file, "--out": tmp_path / "out"},
        "roundtrip": {"--formula": formula_file},
        "solve": {"--instance": instance},
        "verify": {"--instance": instance, "--labelling": lab},
        "export": {"--input": instance},
    }[command]
    inputs[option] = bad
    argv = [command] + [str(x) for flag, path in inputs.items() for x in (flag, path)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert_bad_input(code, captured.err)
    assert captured.err.startswith(f"{command}: cannot read {bad}: ")
    assert captured.out == ""


def test_solve_at_a_huge_span_builds_no_dense_table(tmp_path):
    # As the CI step does: the star K1,3 at k = 10^6 is labelled after one node per
    # vertex.  A gap table with an entry for every domain would need 2^(k+1)
    # of them; the child's address space is capped at 1 GiB so that such a
    # table fails fast instead of taking the host's memory.
    from conftest import star_graph
    from planar_l21.graphs import to_json

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    instance = tmp_path / "star.json"
    instance.write_text(to_json(star_graph(3)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["solve", "--instance", str(instance), "--k", "1000000", "--budget", "100"]
    done = subprocess.run(
        [sys.executable, "-m", "planar_l21.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        preexec_fn=cap_memory,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert (result["outcome"], result["nodes"]) == ("sat", 4)
    assert done.stderr == "solve: sat after 4 nodes\n"
