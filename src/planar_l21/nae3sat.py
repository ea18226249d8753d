"""Not-all-equal 3SAT: DIMACS parsing, checking and a brute-force oracle.

Literals are signed DIMACS integers; a clause is a triple of them.  Repeated
literals inside a clause are legal.  A clause is NAE-satisfied when it has at
least one true and at least one false literal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import CapacityError, FormulaParseError, ValidationError

Clause = Tuple[int, int, int]
Assignment = Dict[int, bool]

BRUTE_FORCE_VAR_LIMIT = 30

# a DIMACS number: ASCII digits only, so no "+1", "3_0" or non-ASCII digit
DIMACS_INT = re.compile(r"-?[0-9]+")
# what separates tokens: ASCII space and tab only, so no U+00A0 or U+2003
_BLANKS = re.compile(r"[ \t]+")


@dataclass(frozen=True)
class Nae3SatFormula:
    num_vars: int
    clauses: Tuple[Clause, ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValidationError("negative variable count")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValidationError(f"clause {clause} does not have exactly three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValidationError(f"literal {lit} out of range in {clause}")


def parse_formula(text: str) -> Nae3SatFormula:
    """Parse DIMACS CNF text, requiring exactly three literals per clause line
    and every number in ASCII ``-?[0-9]+`` form.

    Lines end at ``\n`` (a trailing ``\r`` is dropped) and tokens are
    separated by ASCII spaces and tabs, so any other Unicode whitespace is
    part of a token and line numbers count ``\n`` only.
    """
    num_vars = None
    num_clauses = None
    clauses = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").strip(" \t")
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise FormulaParseError("duplicate header", lineno)
            parts = _BLANKS.split(line)
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise FormulaParseError(f"malformed header {line!r}", lineno)
            if not all(map(DIMACS_INT.fullmatch, parts[2:])):
                raise FormulaParseError(f"malformed header {line!r}", lineno)
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise FormulaParseError("clause before header", lineno)
        tokens = _BLANKS.split(line)
        if not all(map(DIMACS_INT.fullmatch, tokens)):
            raise FormulaParseError(f"non-integer token in {line!r}", lineno)
        lits = [int(tok) for tok in tokens]
        if not lits or lits[-1] != 0:
            raise FormulaParseError("clause line must end with 0", lineno)
        lits = lits[:-1]
        if 0 in lits:
            raise FormulaParseError(f"literal 0 before the end of the line in {line!r}", lineno)
        if len(lits) != 3:
            raise FormulaParseError(f"clause has {len(lits)} literals, expected 3", lineno)
        for lit in lits:
            if abs(lit) > num_vars:
                raise FormulaParseError(f"variable {abs(lit)} exceeds declared {num_vars}", lineno)
        clauses.append(tuple(lits))
    if num_vars is None:
        raise FormulaParseError("missing header", 1)
    if num_clauses is not None and num_clauses != len(clauses):
        raise FormulaParseError(
            f"header declares {num_clauses} clauses, found {len(clauses)}", 1
        )
    return Nae3SatFormula(num_vars, tuple(clauses))


def format_formula(formula: Nae3SatFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def literal_value(lit: int, assignment: Assignment) -> bool:
    return assignment[abs(lit)] if lit > 0 else not assignment[abs(lit)]


def check_nae(formula: Nae3SatFormula, assignment: Assignment) -> bool:
    """True iff every clause has at least one true and one false literal."""
    for var in range(1, formula.num_vars + 1):
        if var not in assignment:
            raise ValidationError(f"assignment misses variable {var}")
    for clause in formula.clauses:
        values = [literal_value(l, assignment) for l in clause]
        if all(values) or not any(values):
            return False
    return True


def solve_nae_bruteforce(formula: Nae3SatFormula, budget: Optional[int] = None) -> Optional[Assignment]:
    """Lexicographically first NAE-satisfying assignment, or None.

    Variable 1 is most significant and False < True, so assignments are
    scanned in the order 00..0, 00..1, ...  NAE is closed under complement,
    so only those with variable 1 False are scanned: the first witness is
    among them.  Raises `CapacityError` rather than scan more than
    ``budget`` assignments.
    """
    n = formula.num_vars
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise CapacityError(f"{n} variables exceed brute-force limit {BRUTE_FORCE_VAR_LIMIT}")
    for bits in range(1 << max(n - 1, 0)):
        if budget is not None and bits >= budget:
            raise CapacityError(f"brute-force NAE check: no verdict within {budget} assignments")
        assignment = {i: bool((bits >> (n - i)) & 1) for i in range(1, n + 1)}
        if check_nae(formula, assignment):
            return assignment
    return None

