"""Command-line front end.

Machine-readable JSON lines go to stdout, human summaries to stderr.  Exit
codes: 0 success, 1 a check failed (lemma, verification, soundness), 2 bad
input/configuration/capacity, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import gadgets, pipeline
from .errors import L21Error
from .graphs import from_json, to_dot
from .labelling import (
    SAT,
    UNSAT,
    Labelling,
    labelling_from_json,
    solve_labelling,
    solve_result_to_json,
    verify_labelling,
)
from .nae3sat import check_nae, parse_formula, solve_nae_bruteforce

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _report(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _parse_k_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    return int(text), int(text)


def cmd_reduce(args) -> int:
    if args.k < 4:
        _note(f"reduce: k must be at least 4, got {args.k}")
        return EXIT_INPUT
    try:
        formula = parse_formula(open(args.input).read())
    except OSError as exc:
        _note(f"reduce: cannot read {args.input}: {exc}")
        return EXIT_INPUT
    try:
        trace = pipeline.run_reduction(formula, args.k, stop_at=args.stop_at)
    except AssertionError as exc:
        _note(f"reduce: internal invariant violated: {exc}")
        return EXIT_INTERNAL
    try:
        written = pipeline.write_trace(trace, args.out)
    except OSError as exc:
        _note(f"reduce: cannot write to {args.out}: {exc}")
        return EXIT_INPUT
    _report({"command": "reduce", "k": args.k, "stop_at": args.stop_at, "files": written})
    _note(f"reduce: wrote {len(written)} files to {args.out}")
    return EXIT_OK


def _certify_tasks(lo: int, hi: int) -> List[tuple]:
    tasks = [("H", None), ("ClauseK", None), ("UncrossU", None)]
    for k in range(max(lo, 6), hi + 1):
        tasks.append(("Hprime", k))
    for k in range(lo, hi + 1):
        tasks.append(("Gk", k))
    return tasks


def _run_certifier(task: tuple) -> dict:
    kind, k = task
    if kind == "H":
        report = gadgets.certify_H()
    elif kind == "ClauseK":
        report = gadgets.certify_clause_gadget()
    elif kind == "UncrossU":
        report = gadgets.certify_uncrossing()
    elif kind == "Hprime":
        report = gadgets.certify_Hprime(k)
    else:
        report = gadgets.certify_edge_gadget(k)
    return report.to_doc()


def cmd_certify(args) -> int:
    try:
        lo, hi = _parse_k_range(args.k)
    except ValueError:
        _note(f"certify: bad k range {args.k!r}")
        return EXIT_INPUT
    if lo < 4 or hi < lo:
        _note(f"certify: k range must satisfy 4 <= lo <= hi, got {args.k}")
        return EXIT_INPUT
    raw_workers = os.environ.get("L21_WORKERS", "1")
    if not raw_workers.isdecimal() or int(raw_workers) < 1:
        _note(f"certify: L21_WORKERS must be a positive integer, got {raw_workers!r}")
        return EXIT_INPUT
    workers = int(raw_workers)
    tasks = _certify_tasks(lo, hi)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            docs = pool.map(_run_certifier, tasks)
    else:
        docs = [_run_certifier(t) for t in tasks]
    failed = None
    for doc in docs:
        _report(doc)
        if not doc["pass"] and failed is None:
            failed = doc
    if failed is not None:
        _note(f"certify: FAILED at {failed['kind']} (k={failed['k']})")
        return EXIT_FAIL
    _note(f"certify: all {len(docs)} reports pass")
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        graph, _, _, file_k = from_json(open(args.instance).read())
    except OSError as exc:
        _note(f"solve: cannot read {args.instance}: {exc}")
        return EXIT_INPUT
    k = args.k if args.k is not None else file_k
    if k is None:
        _note("solve: no k given and none recorded in the instance")
        return EXIT_INPUT
    result = solve_labelling(graph, k, budget=args.budget)
    sys.stdout.write(solve_result_to_json(result))
    _note(f"solve: {result.outcome} after {result.nodes} nodes")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        graph, _, _, file_k = from_json(open(args.instance).read())
        labelling = labelling_from_json(open(args.labelling).read())
    except OSError as exc:
        _note(f"verify: cannot read input: {exc}")
        return EXIT_INPUT
    if file_k is not None:  # the instance's span bounds the labels
        labelling = Labelling(file_k, labelling.labels)
    ok = verify_labelling(graph, labelling)
    _report({"command": "verify", "valid": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_roundtrip(args) -> int:
    if args.k < 4:
        _note(f"roundtrip: k must be at least 4, got {args.k}")
        return EXIT_INPUT
    try:
        formula = parse_formula(open(args.formula).read())
    except OSError as exc:
        _note(f"roundtrip: cannot read {args.formula}: {exc}")
        return EXIT_INPUT
    assignment = solve_nae_bruteforce(formula)
    trace = pipeline.run_reduction(formula, args.k)
    if assignment is not None:
        try:
            matching = pipeline.assignment_to_matching(trace, assignment)
            orientation = pipeline.matching_to_good_orientation(trace, matching)
            labelling = pipeline.orientation_to_labelling(trace, orientation, args.k)
            back_orientation = pipeline.canonicalize_orientation(
                trace, pipeline.labelling_to_orientation(trace, labelling)
            )
            back_matching = pipeline.orientation_to_matching(trace, back_orientation)
            recovered = pipeline.matching_to_assignment(trace, back_matching)
        except (AssertionError, L21Error) as exc:
            _report({"command": "roundtrip", "satisfiable": True, "ok": False, "error": str(exc)})
            _note(f"roundtrip: witness chain broke: {exc}")
            return EXIT_FAIL
        ok = check_nae(formula, recovered)
        _report(
            {
                "command": "roundtrip",
                "satisfiable": True,
                "ok": ok,
                "instance_vertices": trace.instance.graph.n,
                "recovered_assignment": {str(v): val for v, val in sorted(recovered.items())},
            }
        )
        _note("roundtrip: witness chain verified" if ok else "roundtrip: FAILED")
        return EXIT_OK if ok else EXIT_FAIL
    result = solve_labelling(trace.instance.graph, args.k, budget=args.budget)
    doc = {
        "command": "roundtrip",
        "satisfiable": False,
        "solver_outcome": result.outcome,
        "nodes": result.nodes,
    }
    _report(doc)
    if result.outcome == SAT:
        _note("roundtrip: SOUNDNESS BREACH: unsatisfiable formula but labelling found")
        return EXIT_FAIL
    note = "refuted" if result.outcome == UNSAT else "no verdict within budget"
    _note(f"roundtrip: formula unsatisfiable; solver: {note}")
    return EXIT_OK


def cmd_export(args) -> int:
    if args.format != "dot":
        _note(f"export: unsupported format {args.format!r}")
        return EXIT_INPUT
    try:
        graph, _, ports, _ = from_json(open(args.input).read())
    except OSError as exc:
        _note(f"export: cannot read {args.input}: {exc}")
        return EXIT_INPUT
    sys.stdout.write(to_dot(graph, ports))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l21",
        description="Reductions from not-all-equal 3SAT to planar span-k labelling, "
        "with exhaustively certified gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="run the reduction pipeline on a formula")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stop-at", choices=["cubic", "planar", "aux", "instance"], default="instance")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("certify", help="machine-check every gadget lemma")
    p.add_argument("--k", default="4..7", help="k range, e.g. 4..7")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="decide span-k labellability of an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a labelling file against an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--labelling", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roundtrip", help="full witness chain or refutation attempt")
    p.add_argument("--formula", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("export", help="export a graph file")
    p.add_argument("--format", default="dot")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        _note(f"{args.command}: malformed JSON: {exc}")
    except L21Error as exc:
        _note(f"{args.command}: {exc}")
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
