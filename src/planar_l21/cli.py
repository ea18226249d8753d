"""Command-line front end.

Machine-readable JSON lines go to stdout, human summaries to stderr.  Exit
codes: 0 success, 1 a check failed (lemma, verification, soundness), 2 bad
input/configuration/capacity, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import gadgets, pipeline
from .errors import L21Error, prefix, quote
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
from .nae3sat import DIMACS_INT, check_nae, parse_formula, solve_nae_bruteforce

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _report(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _read(path: str) -> str:
    """The UTF-8 text of an input file, line endings untranslated so that the
    parsers see a lone ``\r``; `main` reports a file it cannot read as bad
    input."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise L21Error(f"cannot read {path}: {exc}") from exc


def _integer(text: str) -> int:
    """An integer option in ASCII ``-?[0-9]+`` form, as a DIMACS number is;
    ``int`` also takes ``1_000``, ``+4``, blanks and non-ASCII digits."""
    if not DIMACS_INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer {quote(text)}")
    try:
        return int(text)
    except ValueError as exc:  # more digits than int() converts
        raise argparse.ArgumentTypeError("integer too long to read") from exc


def _parse_k_range(text: str):
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    return _integer(lo), _integer(hi)


def cmd_reduce(args) -> int:
    if args.k < 4:
        _note(f"reduce: k must be at least 4, got {quote(args.k)}")
        return EXIT_INPUT
    formula = parse_formula(_read(args.input))
    trace = pipeline.run_reduction(formula, args.k, stop_at=args.stop_at)
    try:
        written = pipeline.write_trace(trace, args.out)
    except OSError as exc:
        _note(f"reduce: cannot write to {args.out}: {exc}")
        return EXIT_INPUT
    _report({"command": "reduce", "k": args.k, "stop_at": args.stop_at, "files": written})
    _note(f"reduce: wrote {len(written)} files to {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        lo, hi = _parse_k_range(args.k)
    except argparse.ArgumentTypeError:
        _note(f"certify: bad k range {quote(args.k)}")
        return EXIT_INPUT
    if lo < 4 or hi < lo:
        _note(f"certify: k range must satisfy 4 <= lo <= hi, got {prefix(args.k)}")
        return EXIT_INPUT
    plan = gadgets.certify_plan(lo, hi)
    for name, ks in plan:  # every capacity, before any lemma runs
        for k in [*ks[:1], *ks[-1:]]:  # a capacity is an interval, so the ends decide
            gadgets.check_capacity(name, k)
    failed = None
    for name, ks in plan:
        for k in ks:  # looked up at call time, so a substituted certifier runs
            doc = getattr(gadgets, name)(*(() if k is None else (k,))).to_doc()
            _report(doc)
            if not doc["pass"] and failed is None:
                failed = doc
    if failed is not None:
        _note(f"certify: FAILED at {failed['kind']} (k={failed['k']})")
        return EXIT_FAIL
    _note(f"certify: all {sum(len(ks) for _, ks in plan)} reports pass")
    return EXIT_OK


def cmd_solve(args) -> int:
    graph, _, _, file_k = from_json(_read(args.instance))
    k = args.k if args.k is not None else file_k
    if k is None:
        _note("solve: no k given and none recorded in the instance")
        return EXIT_INPUT
    result = solve_labelling(graph, k, budget=args.budget)
    sys.stdout.write(solve_result_to_json(result))
    _note(f"solve: {result.outcome} after {result.nodes} nodes")
    return EXIT_OK


def cmd_verify(args) -> int:
    graph, _, _, file_k = from_json(_read(args.instance))
    labelling = labelling_from_json(_read(args.labelling))
    if file_k is not None:  # the instance's span bounds the labels
        labelling = Labelling(file_k, labelling.labels)
    ok = verify_labelling(graph, labelling)
    _report({"command": "verify", "valid": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_roundtrip(args) -> int:
    if args.k < 4:
        _note(f"roundtrip: k must be at least 4, got {quote(args.k)}")
        return EXIT_INPUT
    if args.budget < 0:
        _note(f"roundtrip: node budget must be non-negative, got {quote(args.budget)}")
        return EXIT_INPUT
    formula = parse_formula(_read(args.formula))
    assignment = solve_nae_bruteforce(formula, args.budget)
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
        _note(f"export: unsupported format {quote(args.format)}")
        return EXIT_INPUT
    graph, _, ports, _ = from_json(_read(args.input))
    sys.stdout.write(to_dot(graph, ports))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l21",
        description="Reductions from not-all-equal 3SAT to planar span-k labelling, "
        "with machine-certified gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="run the reduction pipeline on a formula")
    p.add_argument("--k", type=_integer, default=4)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stop-at", choices=["cubic", "planar", "aux", "instance"], default="instance")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("certify", help="machine-check every gadget lemma")
    p.add_argument("--k", default="4..7", help="k range, e.g. 4..7")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="decide span-k labellability of an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=_integer, default=None)
    p.add_argument("--budget", type=_integer, default=10**6)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a labelling file against an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--labelling", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roundtrip", help="full witness chain or refutation attempt")
    p.add_argument("--formula", required=True)
    p.add_argument("--k", type=_integer, default=4)
    p.add_argument("--budget", type=_integer, default=10**6)
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
    except AssertionError as exc:
        _note(f"{args.command}: internal invariant violated: {exc}")
        return EXIT_INTERNAL
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
