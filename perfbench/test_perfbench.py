"""Smoke tests of the benchmark itself: one formula, k = 4, a tiny budget.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed=7, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): run_bench(w, trace=t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_its_unit(runs, workload, trace, kind):
    _, result = runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


NAMED = {
    "chain": {"reduce_vps", "roundtrip_vps", "verify_vps"},
    "certify": {"certify_s"},
    "search": {"search_s_p50", "search_s_p90", "search_nodes_per_s", "search_decided", "search_unsound"},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_figures_are_printed_before_the_result(runs, workload):
    named, _ = runs[(workload, 0)]
    assert NAMED[workload] | {"fail_share", "passes"} <= set(named["named"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(runs, workload):
    _, result = runs[(workload, 0)]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_produced_by_some_workload(runs):
    produced = {
        name
        for w in WORKLOADS
        for name, m in runs[(w, 1)][1]["metrics"].items()
        if m["value"] != 0
    }
    # the smoke inputs decide nothing, and are all sound and without crossings
    never_in_smoke = {
        "chords.crossings",
        "search.decided",
        "search.unsound",
    } | {m["name"] for m in SPEC["per_layer"] if ".k5." in m["name"] or ".k6." in m["name"]
         or ".k7." in m["name"] or ".k8." in m["name"]}
    assert {m["name"] for m in SPEC["per_layer"]} - never_in_smoke <= produced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat_across_runs(runs, workload):
    first, _ = runs[(workload, 0)]
    again, _ = run_bench(workload)
    assert first["counts"] == again["counts"]
    assert first["counts"]


def test_without_library_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
