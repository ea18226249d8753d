"""Benchmark of the planar-l21 reduction chain.

Run from the repository root, standard library only:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``chain``   -- l21 reduce, roundtrip and verify over the acceptance corpus;
* ``certify`` -- every gadget lemma for k = 4..8, as l21 certify runs them;
* ``search``  -- matching-layer check and budgeted labelling search on small
  NAE-unsatisfiable formulas and one satisfiable one.

A run makes its inputs from ``--seed``, warms the library's caches, and then
repeats passes over the workload's fixed items until ``--seconds`` have gone
by; an unfinished last pass is checked but left out of the figures.  The
search workload makes a fixed number of passes instead.  Every output is
checked, and every end-to-end time is read at a nominal host pace, measured
around each operation with a fixed pure-Python reference.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run first measures untraced passes for half of the
time and traced ones for the other half, so that the tracing overhead is the
difference of the two.  Spans and a full report are written to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 12  # fresh-interpreter starts per run, spread over its time

# The pace reference: a fixed breadth-first search and sort in pure Python,
# the kind of work the library does, on a graph that is the same in every
# run.  PACE_NOMINAL_S is its time, with warm caches, on the 2-core machine
# the benchmark was sized on.
PACE_NOMINAL_S = 0.0033
_pace_rng = random.Random(20090914)
PACE_GRAPH = [[_pace_rng.randrange(3000) for _ in range(4)] for _ in range(3000)]

# What every CLI invocation pays before it does any work.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import planar_l21.cli
imported = time.perf_counter()
from planar_l21.gadgets import build_edge_gadget
for k in (4, 5, 6):
    build_edge_gadget(k)
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "gadgets_s": built - imported,
                  "file": planar_l21.__file__}))
"""


def pace_sample() -> float:
    """Time of the pace reference over its nominal time: how slowly this
    shared host runs Python right now.  The reference runs once untimed to
    warm the caches, and the collector is off, so that the time does not
    depend on what the library left in the caches or on the heap."""
    gc.disable()
    try:
        _pace_reference()
        return _pace_reference() / PACE_NOMINAL_S
    finally:
        gc.enable()


def _pace_reference() -> float:
    start = perf_counter()
    depth = {0: 0}
    queue = [0]
    found = []
    for v in queue:
        for w in PACE_GRAPH[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
                found.append((depth[w], w))
    found.sort()
    return perf_counter() - start


def at_nominal_pace(op):
    """The operation's times as they would read at the nominal pace."""
    return dataclasses.replace(
        op,
        seconds=op.seconds / op.pace,
        latency_ms=op.latency_ms / op.pace,
        parts={key: value / op.pace for key, value in op.parts.items()},
    )


def import_library() -> None:
    """Make ``planar_l21`` importable from this checkout's sources only."""
    init = SRC / "planar_l21" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import planar_l21

    if Path(planar_l21.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: planar_l21 imported from {planar_l21.__file__}, not {SRC}")


class SetupProbe:
    """Wall time of a fresh interpreter that imports the CLI and builds the
    edge gadgets for k = 4..6.  The starts are spread over the whole run,
    between items, so that their median does not hang on one moment of a
    machine whose speed drifts."""

    def __init__(self, seconds: float, runs: int):
        self.interval = seconds / runs
        self.env = {key: value for key, value in os.environ.items() if key != "L21_WORKERS"}
        self.walls: List[float] = []
        self.imports: List[float] = []
        self.builds: List[float] = []
        self.last = 0.0
        self._start(record=False)  # writes the bytecode caches

    def _start(self, record: bool = True) -> None:
        pace = pace_sample()
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.last = perf_counter()
        pace = (pace + pace_sample()) / 2
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout)
        if Path(doc["file"]).resolve() != (SRC / "planar_l21" / "__init__.py").resolve():
            raise RuntimeError(f"set-up interpreter imported {doc['file']}")
        if not record:
            return
        self.walls.append((self.last - start) / pace)
        self.imports.append(doc["import_s"])
        self.builds.append(doc["gadgets_s"])

    def maybe_start(self) -> None:
        if perf_counter() - self.last >= self.interval:
            self._start()

    def result(self) -> Dict[str, float]:
        while len(self.walls) < 3:
            self._start()
        return {
            "setup_s": statistics.median(self.walls),
            "cli.import.s": statistics.median(self.imports),
            "gadgets.build_edge_gadget.s": statistics.median(self.builds),
        }


def run_phase(workload, seconds: float, first_pass: int, setup: SetupProbe, recorder=None):
    """Passes over the workload's items until ``seconds`` have gone by, at
    least one; or, for a workload with a nominal ``pass_seconds``, as many
    passes as fit into ``seconds`` at that pace.  Returns the complete passes
    and every operation run."""
    deadline = perf_counter() + seconds
    fixed = getattr(workload, "pass_seconds", None)
    count = max(1, round(seconds / fixed)) if fixed else None
    passes: List[list] = []
    ops: list = []
    while True:
        current: list = []
        for label, item in workload.items:
            if passes and count is None and perf_counter() >= deadline:
                return passes, ops
            setup.maybe_start()
            if recorder is not None:
                recorder.pass_index = first_pass + len(passes)
                recorder.item = label
            before = pace_sample()
            op = workload.run(label, item)
            op.pace = (before + pace_sample()) / 2
            current.append(op)
            ops.append(op)
            gc.collect()
        passes.append(current)
        if len(passes) == count or (count is None and perf_counter() >= deadline):
            return passes, ops


def pass_counts(ops) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for op in ops:
        for key, value in op.counts.items():
            out[key] = out.get(key, 0) + value
    return out


def p90(values: List[float]) -> float:
    """90th percentile, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def item_medians(passes, value) -> List[float]:
    """Each item's median ``value`` across the passes, in pass order."""
    return [statistics.median(value(p[i]) for p in passes) for i in range(len(passes[0]))]


def rate(passes, part=None) -> float:
    """Work of one pass over the sum of each operation's median time across
    passes: every operation's own median, in the workload's mix.  ``part``
    takes one command of a chain operation instead of all of it."""
    units = sum(op.units for op in passes[0])
    if part is None:
        return units / sum(item_medians(passes, lambda op: op.seconds))
    return units / sum(item_medians(passes, lambda op: op.parts.get(part, 0.0)))


def median_of(passes, fn) -> float:
    return statistics.median(fn(p) for p in passes)


def end_to_end(workload, passes, setup) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The BENCHMARK.json end-to-end metrics, and this workload's own
    figures.  Latency percentiles are taken over one pass's operations, each
    at its median across the passes, so that a slow moment of the host moves
    one sample of an operation and not the figure."""
    ops = [op for p in passes for op in p]
    latencies = item_medians(passes, lambda op: op.latency_ms)
    metrics = {
        "setup_s": setup["setup_s"],
        "work_per_s": rate(passes),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": p90(latencies),
        "ok_share": sum(op.ok for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named: Dict[str, float] = {"op_samples": len(ops)}
    if workload.name == "chain":
        for kind in ("reduce", "roundtrip", "verify"):
            named[f"{kind}_vps"] = rate(passes, kind)
    elif workload.name == "certify":
        named["certify_s"] = sum(item_medians(passes, lambda op: op.seconds))
    else:
        seconds = item_medians(passes, lambda op: op.seconds)
        named["search_s_p50"] = statistics.median(seconds)
        named["search_s_p90"] = p90(seconds)
        named["search_nodes_per_s"] = median_of(
            passes, lambda p: sum(op.counts.get("search.nodes", 0) for op in p) / sum(op.seconds for op in p)
        )
        for key in ("search.decided", "search.unsound"):
            named[key.replace(".", "_")] = pass_counts(passes[0]).get(key, 0)
    return metrics, named


def per_layer(recorder, traced, untraced, setup, first_traced: int) -> Dict[str, float]:
    summaries = [recorder.pass_summary(first_traced + i) for i in range(len(traced))]
    values: Dict[str, float] = {}
    for key in sorted({key for s in summaries for key in s}):
        values[key] = statistics.median_low(s.get(key, 0) for s in summaries)
    values.update(pass_counts(traced[0]))
    nodes_s = values.get("labelling.solve_labelling.s", 0.0)
    values["labelling.nodes_per_s"] = (
        values.get("labelling.solve_labelling.nodes", 0) / nodes_s if nodes_s else 0.0
    )
    plain = median_of(untraced, lambda p: sum(op.seconds for op in p))
    values["trace.overhead_s"] = median_of(traced, lambda p: sum(op.seconds for op in p)) - plain
    values["trace.overhead_share"] = values["trace.overhead_s"] / plain
    values["cli.import.s"] = setup["cli.import.s"]
    values["gadgets.build_edge_gadget.s"] = setup["gadgets.build_edge_gadget.s"]
    return values


def select(spec_metrics, values: Dict[str, float]) -> Dict[str, dict]:
    """Every metric the spec names, with its unit; layers the workload never
    calls read 0."""
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec_metrics
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("chain", "certify", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one formula, k = 4, a tiny budget: for the tests"
    )
    args = parser.parse_args(argv)

    import_library()
    spec = json.loads(SPEC.read_text())
    from spans import Recorder
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        probe = SetupProbe(args.seconds, SETUP_RUNS)
        workload = WORKLOADS[args.workload](random.Random(args.seed), workdir, args.smoke)
        workload.warm_up()
        gc.collect()
        if args.trace:
            untraced, ops = run_phase(workload, args.seconds / 2, 0, probe)
            recorder = Recorder()
            with recorder.installed():
                traced, traced_ops = run_phase(
                    workload, args.seconds / 2, len(untraced), probe, recorder
                )
            ops += traced_ops
            passes = untraced + traced
        else:
            passes, ops = run_phase(workload, args.seconds, 0, probe)
        setup = probe.result()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = [pass_counts(p) for p in passes]
    counts_repeat = all(c == counts[0] for c in counts)
    failed = [op for op in ops if not op.ok]
    correct = counts_repeat and all(op.known_defect for op in failed)
    if not counts_repeat:
        print("perfbench: deterministic counts differ between passes", file=sys.stderr)

    if args.trace:
        values = per_layer(
            recorder,
            [[at_nominal_pace(op) for op in p] for p in traced],
            [[at_nominal_pace(op) for op in p] for p in untraced],
            setup,
            len(untraced),
        )
        metrics = select(spec["per_layer"], values)
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        named = {}
    else:
        values, named = end_to_end(workload, [[at_nominal_pace(op) for op in p] for p in passes], setup)
        metrics = select(spec["end_to_end"], values)
    named["host_pace"] = statistics.median(op.pace for op in ops)
    named["fail_share"] = len(failed) / len(ops)
    named["passes"] = len(passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "named": named,
        "counts": counts[0],
        "counts_repeat": counts_repeat,
        "known_defect_failures": sum(op.known_defect for op in failed),
        "metrics": metrics,
        "items": [label for label, _ in workload.items],
        "item_seconds_at_nominal_pace": [[at_nominal_pace(op).seconds for op in p] for p in passes],
        "item_pace": [[op.pace for op in p] for p in passes],
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"named": named, "counts": counts[0]}, sort_keys=True))
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
