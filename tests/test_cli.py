import json

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


def test_certify_worker_pool_matches_sequential(capsys, monkeypatch):
    code_seq, seq, _ = run_cli(capsys, ["certify", "--k", "4..4"])
    monkeypatch.setenv("L21_WORKERS", "2")
    code_par, par, _ = run_cli(capsys, ["certify", "--k", "4..4"])
    assert code_seq == code_par == 0
    assert seq == par


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
    from planar_l21.colouring import swap_colours

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


@pytest.mark.parametrize("value", ["abc", "0"])
def test_certify_rejects_bad_worker_count(capsys, monkeypatch, value):
    monkeypatch.setenv("L21_WORKERS", value)
    code, reports, err = run_cli(capsys, ["certify", "--k", "4..4"])
    assert_bad_input(code, err)
    assert reports == []
    assert "L21_WORKERS" in err


def test_roundtrip_over_capacity_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 31 1\n1 2 31 0\n")
    code, reports, err = run_cli(capsys, ["roundtrip", "--formula", str(path)])
    assert_bad_input(code, err)
    assert reports == []
    assert "brute-force limit" in err
