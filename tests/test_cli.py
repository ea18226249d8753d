"""The `l21` command line.  Its contract cases are the rows of
`cli_cases.CASES`, which `run_case` runs; the functions below patch the
library to reach a path no input reaches, or chain one command's output into
the next."""

import hashlib
import importlib.metadata
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import CASES, FILES
from planar_l21 import cli
from planar_l21.labelling import labelling_to_json, Labelling

SCRIPT = Path(sys.executable).with_name("l21")  # the console script, once `pip install -e .` has run
MODULE = [sys.executable, "-m", "planar_l21.cli"]


def run_child(command, argv, timeout):
    """Run ``command + argv`` in a child, with `planar_l21` importable from
    this checkout.  With a ``timeout`` the child's address space is capped at
    1 GiB and it is killed after ``timeout`` seconds, so that a table or list
    that grows with an argument fails fast instead of taking the host's
    memory."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [*command, *argv],
        capture_output=True,
        encoding="utf-8",
        timeout=timeout,
        env=env,
        preexec_fn=cap_memory if timeout else None,
    )


def remove_tree(top):
    """Remove the directory ``top`` bottom-up, working from inside each level
    so that no path grows with the depth: Python 3.11's `shutil.rmtree`
    recurses, and holds a descriptor, once per level, and a case's output may
    nest 2,000 deep."""
    path = [top]
    os.chdir(top)
    while path:
        with os.scandir() as entries:
            entries = list(entries)
        below = next((entry.name for entry in entries if entry.is_dir(follow_symlinks=False)), None)
        if below is not None:
            os.chdir(below)
            path.append(below)
            continue
        for entry in entries:
            os.unlink(entry.name)
        os.chdir("..")
        os.rmdir(path.pop())


def run_case(case, tmp_path, monkeypatch, capsys):
    """Run a case in-process through `cli.main` (in a capped child when it has
    a timeout), then through the console script when one sits next to this
    interpreter, each in a fresh directory holding its files, and check it."""
    argv = case.argv.split(" ") if isinstance(case.argv, str) else list(case.argv)
    monkeypatch.chdir(tmp_path)
    runs = [MODULE if case.timeout else None] + ([[str(SCRIPT)]] if SCRIPT.exists() else [])
    for run, command in enumerate(runs):
        os.mkdir(str(run))
        os.chdir(str(run))
        try:
            for name, content in {**FILES, **case.files}.items():
                content = content() if callable(content) else content
                Path(name).write_bytes(content if isinstance(content, bytes) else content.encode())
            if command is None:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refuses the argv
                    code = exc.code
                out, err = capsys.readouterr()
            else:
                done = run_child(command, argv, case.timeout)
                code, out, err = done.returncode, done.stdout, done.stderr
            check_case(case, argv[0], code, out, err)
        finally:
            os.chdir(tmp_path)
            remove_tree(str(run))


def check_case(case, command, code, out, err):
    def texts(value):
        return (value,) if isinstance(value, str) else value

    assert code == case.code, err
    assert "Traceback" not in err
    if case.code >= 2:
        lines = err.splitlines()
        assert out == "" and lines, err
        if case.usage:
            assert err.startswith(f"usage: l21 {command} ") and lines[-1].startswith(f"l21 {command}: error: ")
        else:
            assert len(lines) == 1 and err.startswith(f"{command}: "), err
    rest = out
    for text in texts(case.out):  # in this order
        assert text in rest, text
        rest = rest[rest.index(text) + len(text) :]
    assert not any(text in out for text in texts(case.out_lacks))
    assert all(text in err for text in texts(case.err)), err
    assert not any(text in err for text in texts(case.err_lacks)), err
    assert case.err_is is None or err == case.err_is, err
    assert case.err_max is None or len(err.encode()) < case.err_max, err
    for name, digest in case.sha256.items():
        data = out.encode() if name == "-" else Path(name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    assert not any(os.path.exists(path) for path in texts(case.absent))


def test_an_installed_package_puts_its_console_script_next_to_python():
    """`run_case` runs every case through `l21` only when the script sits next
    to this interpreter, so once the package is installed it must sit there
    and run `cli.main`: a missing, moved or renamed script fails here rather
    than skipping the console-script runs."""
    try:
        dist = importlib.metadata.distribution("planar-l21")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("planar-l21 is not installed")
    scripts = {ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"}
    assert scripts == {"l21": "planar_l21.cli:main"}
    assert SCRIPT.exists(), SCRIPT


def case_test(cases):
    """The test function of one family of cases, parametrized by their ids
    unless the family is one case named with none."""
    if len(cases) == 1 and "[" not in cases[0].name:

        def test(tmp_path, monkeypatch, capsys):
            run_case(cases[0], tmp_path, monkeypatch, capsys)

        return test

    @pytest.mark.parametrize("case", cases, ids=[case.name.partition("[")[2][:-1] for case in cases])
    def test(case, tmp_path, monkeypatch, capsys):
        run_case(case, tmp_path, monkeypatch, capsys)

    return test


# Each family is bound under its own name, so that every case keeps the test
# id it had when it was a hand-written test; the names are the first field of
# the rows in `cli_cases.py`.
FAMILIES = {}
for _case in CASES:
    FAMILIES.setdefault(_case.name.partition("[")[0], []).append(_case)
globals().update({name: case_test(cases) for name, cases in FAMILIES.items()})


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


@pytest.mark.parametrize(
    "k_range, message",
    [
        ("4..33", "H' certification supports 6 <= k <= 32"),
        ("33..33", "H' certification supports 6 <= k <= 32"),
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
    # H' for k = 6..8, then G_4 and G_5; G_6..G_8 compose from the H' lemma's pairs
    assert spans == [6, 7, 8, 4, 5]


def test_certify_checks_the_hprime_pairs_that_g_k_composes_from(capsys, monkeypatch):
    from planar_l21 import gadgets

    def short_lemma(k):  # (1, k) left out
        return {(0, k), (k - 1, 0), (k, 0)}

    monkeypatch.setattr(gadgets, "hprime_lemma_pairs", short_lemma)
    assert not gadgets.certify_Hprime(7).passed
    code, reports, err = run_cli(capsys, ["certify", "--k", "7..7"])
    assert code == 1
    assert "FAILED at Hprime (k=7)" in err
    assert [r["kind"] for r in reports if not r["pass"]][:1] == ["Hprime"]


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
    argv = [command, option, str(formula_file)] + (["--out", str(tmp_path / "o" / "p")] if command == "reduce" else [])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert_internal_error(code, captured.err, captured.out, command)
    assert "Euler check" in captured.err
    assert not (tmp_path / "o").exists()


def test_reduce_refuses_an_out_it_cannot_make_before_reducing(tmp_path, formula_file, capsys, monkeypatch):
    import planar_l21.pipeline as pipeline_mod

    monkeypatch.setattr(pipeline_mod, "run_reduction", lambda *args, **kwargs: pytest.fail("the reduction ran"))
    (tmp_path / "taken").write_text("")
    out = str(tmp_path / "taken" / "o")
    code, reports, err = run_cli(capsys, ["reduce", "--input", str(formula_file), "--k", "12", "--out", out])
    assert_bad_input(code, err)
    assert reports == []
    assert err.startswith("reduce: cannot write to ")


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


def test_solve_and_verify_round_trip(tmp_path, capsys):
    # the witness `solve` prints is a labelling file that `verify` accepts
    from conftest import cycle_graph
    from planar_l21.graphs import to_json

    small = tmp_path / "c5.json"
    g = cycle_graph(5)
    small.write_text(to_json(g, k=4))
    code, reports, _ = run_cli(capsys, ["solve", "--instance", str(small)])
    assert code == 0
    doc = reports[0]
    assert doc["outcome"] == "sat"
    lab = tmp_path / "lab.json"
    lab.write_text(labelling_to_json(Labelling(4, {int(v): x for v, x in doc["witness"]["labels"].items()})))
    code, reports, _ = run_cli(capsys, ["verify", "--instance", str(small), "--labelling", str(lab)])
    assert code == 0 and reports[0]["valid"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(labelling_to_json(Labelling(4, {v: 0 for v in range(5)})))
    code, reports, _ = run_cli(capsys, ["verify", "--instance", str(small), "--labelling", str(bad)])
    assert code == 1 and reports[0]["valid"] is False


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


def assert_bad_input(code, err):
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


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
