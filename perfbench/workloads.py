"""The three workloads: inputs made from a seed, and one item at a time
through the library with every output checked.

Measured calls go through their module (``pipeline.x``), so that the traced
run sees them; the checks use names imported here, which tracing leaves
alone, so that checking adds no spans.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from planar_l21 import colouring, gadgets, graphs, labelling, nae3sat, pipeline
from planar_l21.colouring import verify_2cpm as check_2cpm
from planar_l21.graphs import from_json as check_from_json
from planar_l21.labelling import verify_labelling as check_labelling
from planar_l21.nae3sat import Nae3SatFormula

# The eleven satisfiable formulas of the acceptance corpus: repeated
# literals, negations, up to 20 crossings and disconnected gadget clusters.
CORPUS = [
    Nae3SatFormula(3, ((1, 2, 3),)),
    Nae3SatFormula(2, ((1, 1, 2),)),
    Nae3SatFormula(2, ((1, -1, 2),)),
    Nae3SatFormula(3, ((1, 2, 3), (-1, -2, -3))),
    Nae3SatFormula(3, ((1, 2, 2), (2, 3, 3))),
    Nae3SatFormula(4, ((1, 2, 3), (1, 2, 4), (3, 4, 1))),
    Nae3SatFormula(4, ((1, 1, 2), (3, 3, 4))),
    Nae3SatFormula(2, ((1, 2, 1), (2, 1, 2))),
    Nae3SatFormula(3, ((-1, 2, 3), (1, -2, 3))),
    Nae3SatFormula(4, ((1, 2, 3), (2, 3, 4), (3, 4, 1))),
    Nae3SatFormula(4, ((2, 1, 4), (4, 3, 2), (1, 3, 4))),
]

# (corpus index, k) items of one chain pass.  The whole corpus at k = 4 plus
# a positive and a negated formula at k = 5 and 6: one pass of every formula
# at every k takes about two minutes on a 2-core machine, more than a run.
CHAIN_ITEMS = [(i, 4) for i in range(len(CORPUS))] + [(0, 5), (2, 5), (0, 6), (2, 6)]

STAGES = ("cubic", "planar", "aux", "instance")

SEARCH_K = 4
SEARCH_BUDGET = 10_000
SEARCH_PASS_S = 5.0  # nominal time of one pass on a 2-core machine
SMOKE_BUDGET = 200
SEARCH_FIXED = [
    Nae3SatFormula(1, ((1, 1, 1),)),  # NAE-unsatisfiable, one clause
    Nae3SatFormula(3, ((1, 2, 2), (2, 3, 3), (3, 1, 1))),  # positive, odd cycle of x != y
    Nae3SatFormula(2, ((-1, -2, -2), (1, -2, -2))),  # negated-literal witness
    Nae3SatFormula(3, ((1, 2, 3),)),  # satisfiable
]
# Seeded random NAE-unsatisfiable formulas, as (clauses, relaxation
# satisfiable) strata.  The relaxation stratum fixes the share of items that
# show the negated-literal defect; the clause count, with a crossing-free
# planar stage, fixes each instance's size.  So memory and per-node cost do
# not depend on the seed; the literal structure does.
SEARCH_RANDOM = [(2, False)] * 3 + [(3, False)] * 3 + [(3, True)]

CERTIFY_K = (4, 8)


@dataclass
class OpResult:
    """One user-level operation: a command on one input."""

    seconds: float
    units: float  # work done, for throughput
    latency_ms: float  # per operation, per 1,000 instance vertices on chain
    ok: bool
    known_defect: bool = False  # a failure caused by the negated-literal defect
    counts: Dict[str, int] = field(default_factory=dict)
    parts: Dict[str, float] = field(default_factory=dict)  # seconds per command
    pace: float = 1.0  # the host's pace around the operation, 1 at nominal speed


def relaxation(formula: Nae3SatFormula) -> Nae3SatFormula:
    """Every signed literal as a variable of its own."""
    names: Dict[int, int] = {}
    clauses = tuple(
        tuple(names.setdefault(lit, len(names) + 1) for lit in clause) for clause in formula.clauses
    )
    return Nae3SatFormula(len(names), clauses)


def satisfying_assignments(formula: Nae3SatFormula) -> List[Dict[int, bool]]:
    n = formula.num_vars
    out = []
    for bits in range(1 << n):
        a = {i: bool((bits >> (i - 1)) & 1) for i in range(1, n + 1)}
        if nae3sat.check_nae(formula, a):
            out.append(a)
    return out


def _stage_sizes(trace) -> Dict[str, int]:
    counts = {"chords.crossings": trace.planar.crossing_count}
    for stage in STAGES:
        graph = getattr(trace, stage).graph
        counts[f"pipeline.{stage}.n"] = graph.n
        counts[f"pipeline.{stage}.m"] = graph.m
    return counts


def _canonical(cycle) -> tuple:
    i = cycle.index(min(cycle))
    return tuple(cycle[i:]) + tuple(cycle[:i])


def same_rotation(a, b) -> bool:
    """Equal as cyclic orders; stage files start each cycle at its smallest
    neighbour."""
    if a is None or b is None:
        return a is b
    return a.rotation.keys() == b.rotation.keys() and all(
        _canonical(a.rotation[v]) == _canonical(b.rotation[v]) for v in a.rotation
    )


def _failed(note: str) -> OpResult:
    print(note, file=sys.stderr)
    return OpResult(0.0, 0.0, 0.0, ok=False)


class Chain:
    """l21 reduce, l21 roundtrip (satisfiable) and l21 verify on one item
    make one operation."""

    name = "chain"

    def __init__(self, rng: random.Random, workdir: Path, smoke: bool):
        items = [(0, 4)] if smoke else CHAIN_ITEMS
        self.items = [
            (f"f{i}k{k}", (CORPUS[i], k, rng.choice(satisfying_assignments(CORPUS[i]))))
            for i, k in items
        ]
        self.workdir = workdir

    def warm_up(self) -> None:
        """Build the edge gadgets and their cached interior fills once per k,
        as the first command of a process does."""
        for k in sorted({item[1] for _, item in self.items}):
            formula = CORPUS[0]
            self.run(f"warm{k}", (formula, k, satisfying_assignments(formula)[0]))

    def run(self, label: str, item) -> OpResult:
        formula, k, assignment = item
        work = self.workdir / label
        try:
            return self._run(formula, k, assignment, work)
        except Exception:  # one failed item must not end the run
            return _failed(f"chain {label}:\n{traceback.format_exc()}")
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _run(self, formula, k, assignment, work: Path) -> OpResult:
        t: Dict[str, float] = {}

        def timed(key, fn, *args):
            start = perf_counter()
            out = fn(*args)
            t[key] = t.get(key, 0.0) + perf_counter() - start
            return out

        oracle = timed("oracle", nae3sat.solve_nae_bruteforce, formula)
        trace = timed("reduce", pipeline.run_reduction, formula, k)
        written = timed("write", pipeline.write_trace, trace, work)
        matching = timed("translate", pipeline.assignment_to_matching, trace, assignment)
        orientation = timed("translate", pipeline.matching_to_good_orientation, trace, matching)
        lab = timed("translate", pipeline.orientation_to_labelling, trace, orientation, k)
        back = timed("translate", pipeline.labelling_to_orientation, trace, lab)
        back = timed("translate", pipeline.canonicalize_orientation, trace, back)
        back_matching = timed("translate", pipeline.orientation_to_matching, trace, back)
        recovered = timed("translate", pipeline.matching_to_assignment, trace, back_matching)
        nae_ok = timed("check", nae3sat.check_nae, formula, recovered)

        (work / "labelling.json").write_text(labelling.labelling_to_json(lab))
        start = perf_counter()
        instance_graph, instance_rot, _, _ = graphs.from_json((work / "instance.json").read_text())
        lab_read = labelling.labelling_from_json((work / "labelling.json").read_text())
        valid = labelling.verify_labelling(instance_graph, lab_read)
        t["verify"] = perf_counter() - start

        round_trip_ok = instance_graph == trace.instance.graph and same_rotation(
            instance_rot, trace.instance.rot
        )
        for stage in STAGES[:3]:
            graph, rot, _, _ = check_from_json((work / f"{stage}.json").read_text())
            obj = getattr(trace, stage)
            round_trip_ok &= graph == obj.graph and same_rotation(rot, getattr(obj, "rot", None))
        counts = _stage_sizes(trace)
        counts["pipeline.write_trace.bytes"] = sum((work / name).stat().st_size for name in written)

        n = trace.instance.graph.n
        parts = {
            "reduce": t["reduce"] + t["write"],
            "roundtrip": t["oracle"] + t["reduce"] + t["translate"] + t["check"],
            "verify": t["verify"],
        }
        seconds = sum(parts.values())
        ok = round_trip_ok and oracle is not None and nae_ok and valid and lab_read == lab
        return OpResult(seconds, n, seconds * 1e3 / (n / 1e3), ok, counts=counts, parts=parts)


class Certify:
    """Every gadget lemma for k = 4..8, in the order l21 certify runs them.
    One operation is one lemma report; a pass is the whole command."""

    name = "certify"

    def __init__(self, rng: random.Random, workdir: Path, smoke: bool):
        lo, hi = (4, 4) if smoke else CERTIFY_K
        tasks = (
            [("certify_H", None), ("certify_clause_gadget", None), ("certify_uncrossing", None)]
            + [("certify_Hprime", k) for k in range(max(lo, 6), hi + 1)]
            + [("certify_edge_gadget", k) for k in range(lo, hi + 1)]
        )
        self.items = [(func if k is None else f"{func}.k{k}", (func, k)) for func, k in tasks]

    def warm_up(self) -> None:
        pass

    def run(self, label: str, task) -> OpResult:
        func, k = task
        try:
            start = perf_counter()
            report = getattr(gadgets, func)(*(() if k is None else (k,)))
            json.dumps(report.to_doc(), sort_keys=True, separators=(",", ":"))
            seconds = perf_counter() - start
        except Exception:
            return _failed(f"certify {label}:\n{traceback.format_exc()}")
        counts = {f"gadgets.{label}.enumerations": report.enumeration_count}
        return OpResult(seconds, 1, seconds * 1e3, report.passed, counts=counts)


@dataclass
class SearchInstance:
    formula: Nae3SatFormula
    satisfiable: bool
    relaxation_satisfiable: bool
    planar: object
    instance: object


def random_unsat_formula(rng: random.Random, clauses: int, relaxable: bool) -> Nae3SatFormula:
    """Rejection-sample an NAE-unsatisfiable formula of ``clauses`` clauses
    on at most 3 variables, with a crossing-free planar stage, whose
    relaxation is satisfiable iff ``relaxable``."""
    while True:
        nv = rng.randint(1, 3)
        formula = Nae3SatFormula(
            nv,
            tuple(
                tuple(rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(3))
                for _ in range(clauses)
            ),
        )
        if (
            nae3sat.solve_nae_bruteforce(formula) is None
            and (nae3sat.solve_nae_bruteforce(relaxation(formula)) is not None) == relaxable
            and pipeline.run_reduction(formula, SEARCH_K, "planar").planar.crossing_count == 0
        ):
            return formula


class Search:
    """Matching-layer check, then one budgeted labelling search, per formula.

    A run makes a fixed number of passes, not as many as fit into its time,
    so that a seed always gives the same operations and the same count of
    known-defect failures."""

    name = "search"
    pass_seconds = SEARCH_PASS_S

    def __init__(self, rng: random.Random, workdir: Path, smoke: bool):
        if smoke:
            formulas = SEARCH_FIXED[:1]
            self.budget = SMOKE_BUDGET
        else:
            formulas = SEARCH_FIXED + [random_unsat_formula(rng, *s) for s in SEARCH_RANDOM]
            self.budget = SEARCH_BUDGET
        self.items = []
        for i, formula in enumerate(formulas):
            trace = pipeline.run_reduction(formula, SEARCH_K)
            instance = SearchInstance(
                formula,
                nae3sat.solve_nae_bruteforce(formula) is not None,
                nae3sat.solve_nae_bruteforce(relaxation(formula)) is not None,
                trace.planar,
                trace.instance,
            )
            self.items.append((f"s{i}", instance))

    def warm_up(self) -> None:
        pass

    def run(self, label: str, item: SearchInstance) -> OpResult:
        try:
            start = perf_counter()
            matching = colouring.solve_2cpm(item.planar.graph)
            result = labelling.solve_labelling(item.instance.graph, SEARCH_K, budget=self.budget)
            seconds = perf_counter() - start
        except Exception:
            return _failed(f"search {label}:\n{traceback.format_exc()}")
        found = matching is not None or result.outcome == labelling.SAT
        ok = found == item.satisfiable
        if matching is not None:
            ok &= check_2cpm(item.planar.graph, matching)
        if result.outcome == labelling.SAT:
            ok &= check_labelling(item.instance.graph, result.labelling)
        if result.outcome == labelling.UNSAT:
            ok &= not item.satisfiable
        # The negated-literal defect: the reduction treats x and -x as
        # unrelated variables, so it decides the relaxation, and an
        # unsatisfiable formula whose relaxation is satisfiable looks
        # satisfiable.
        unsound = found and not item.satisfiable and item.relaxation_satisfiable
        decided = result.outcome in (labelling.SAT, labelling.UNSAT)
        counts = {
            "search.nodes": result.nodes,
            "search.decided": int(decided),
            "search.unsound": int(unsound),
            "pipeline.planar.n": item.planar.graph.n,
            "pipeline.instance.n": item.instance.graph.n,
        }
        return OpResult(seconds, 1, seconds * 1e3, ok, known_defect=unsound, counts=counts)


WORKLOADS = {w.name: w for w in (Chain, Certify, Search)}
