import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_l21.errors import CapacityError, FormulaParseError, ValidationError
from planar_l21.nae3sat import (
    Nae3SatFormula,
    check_nae,
    format_formula,
    literal_value,
    parse_formula,
    solve_nae_bruteforce,
)


def nae_reference(formula, assignment):
    # independently written checker used to cross-examine check_nae
    for clause in formula.clauses:
        seen = set()
        for lit in clause:
            value = assignment[abs(lit)]
            seen.add(value if lit > 0 else not value)
        if seen != {True, False}:
            return False
    return True


def all_assignments(n):
    for values in itertools.product([False, True], repeat=n):
        yield dict(zip(range(1, n + 1), values))


def test_parse_basic():
    f = parse_formula("p cnf 3 1\n1 2 3 0\n")
    assert f.num_vars == 3 and f.clauses == ((1, 2, 3),)


def test_parse_repeated_literal_clause():
    f = parse_formula("p cnf 1 1\n1 1 1 0\n")
    assert f.clauses == ((1, 1, 1),)


def test_parse_rejects_two_literal_clause():
    with pytest.raises(FormulaParseError, match="line 2"):
        parse_formula("p cnf 2 1\n1 2 0\n")


@pytest.mark.parametrize("clause", ["1 0 3 0", "1 -0 3 0", "0 2 3 0"])
def test_parse_names_a_zero_inside_a_clause(clause):
    # the clause has 3 numbers before its final 0, but one of them is 0
    with pytest.raises(FormulaParseError, match="line 2: literal 0 before the end of the line") as exc:
        parse_formula(f"p cnf 3 1\n{clause}\n")
    assert "literals, expected 3" not in str(exc.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormulaParseError, match="line 1"):
        parse_formula("p dimacs 2 1\n")
    with pytest.raises(FormulaParseError, match="line 3"):
        parse_formula("p cnf 2 2\n1 2 -1 0\n1 2 3 0\n")
    with pytest.raises(FormulaParseError, match="clause before header"):
        parse_formula("1 2 3 0\n")
    with pytest.raises(FormulaParseError, match="declares"):
        parse_formula("p cnf 3 2\n1 2 3 0\n")


NON_DIMACS_NUMBERS = [
    ("p cnf 3_0 1\n1 2 1_0 0\n", "line 1"),  # int() reads 30
    ("p cnf 30 1\n1 2 1_0 0\n", "line 2"),  # int() reads literal 10
    ("p cnf \u0663 1\n1 2 3 0\n", "line 1"),  # Arabic-Indic three
    ("p cnf 3 1\n+1 2 3 0\n", "line 2"),
]


@pytest.mark.parametrize(
    "text, where", NON_DIMACS_NUMBERS, ids=["underscore header", "underscore literal", "non-ascii digit", "plus sign"]
)
def test_parse_accepts_only_ascii_dimacs_numbers(text, where):
    with pytest.raises(FormulaParseError, match=where):
        parse_formula(text)


UNICODE_WHITESPACE = [
    ("p cnf 3 1\n1\u00a02 3 0\n", "line 2"),  # no-break space inside a clause
    ("p\u2003cnf 3 1\n1 2 3 0\n", "line 1"),  # em space in the header
    ("p cnf 5 2\n1 2 3 0\x1c5 1 1 0\n", "line 2"),  # U+001C is no line end
    ("p cnf 5 2\n1 2 3 0\x855 1 1 0\n", "line 2"),  # nor is U+0085
    ("p cnf 5 2\n1 2 3 0\u20285 1 1 0\n", "line 2"),  # nor U+2028
]


@pytest.mark.parametrize(
    "text, where", UNICODE_WHITESPACE, ids=["no-break space", "em space", "U+001C", "U+0085", "U+2028"]
)
def test_parse_separates_only_on_ascii_blanks(text, where):
    with pytest.raises(FormulaParseError, match=where):
        parse_formula(text)


def test_parse_accepts_crlf_tabs_and_padding():
    f = parse_formula("c comment\r\np cnf\t3 2\r\n  1 2\t3 0 \r\n\r\n-1 -2 -3 0")
    assert f == Nae3SatFormula(3, ((1, 2, 3), (-1, -2, -3)))
    with pytest.raises(FormulaParseError, match="line 3"):
        parse_formula("p cnf 3 1\r\n\r\n1 2 0\r\n")


def test_format_parse_round_trip():
    f = Nae3SatFormula(4, ((1, -2, 3), (2, 4, -4)))
    assert parse_formula(format_formula(f)) == f


def test_check_nae_examples():
    f = Nae3SatFormula(3, ((1, 2, 3),))
    assert not check_nae(f, {1: True, 2: True, 3: True})
    mixed = Nae3SatFormula(2, ((1, -1, 2),))
    for a in all_assignments(2):
        assert check_nae(mixed, a)  # a literal and its negation always differ
    monotone = Nae3SatFormula(1, ((1, 1, 1),))
    for a in all_assignments(1):
        assert not check_nae(monotone, a)


def test_check_nae_requires_total_assignment():
    f = Nae3SatFormula(2, ((1, 1, 2),))
    with pytest.raises(ValidationError):
        check_nae(f, {1: True})


def test_bruteforce_returns_lexicographically_first_witness():
    f = Nae3SatFormula(3, ((1, 2, 3),))
    assert solve_nae_bruteforce(f) == {1: False, 2: False, 3: True}
    f2 = Nae3SatFormula(2, ((1, 1, 2),))
    assert solve_nae_bruteforce(f2) == {1: False, 2: True}
    assert solve_nae_bruteforce(Nae3SatFormula(1, ((1, 1, 1),))) is None


def test_bruteforce_capacity_bound():
    f = Nae3SatFormula(31, ((1, 2, 3),))
    with pytest.raises(CapacityError):
        solve_nae_bruteforce(f)


def test_bruteforce_budget_counts_scanned_assignments():
    # only the 2^(n-1) assignments with variable 1 False are scanned
    unsat = Nae3SatFormula(4, ((1, 1, 1),))
    assert solve_nae_bruteforce(unsat, budget=8) is None
    with pytest.raises(CapacityError, match="7 assignments"):
        solve_nae_bruteforce(unsat, budget=7)
    late = Nae3SatFormula(3, ((2, 2, 3), (2, 3, 3), (1, 2, 3)))  # first witness 0 0 1 is scanned second
    assert solve_nae_bruteforce(late, budget=2) == solve_nae_bruteforce(late) == {1: False, 2: False, 3: True}
    with pytest.raises(CapacityError):
        solve_nae_bruteforce(late, budget=1)
    assert solve_nae_bruteforce(Nae3SatFormula(0, ()), budget=1) == {}


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(*[st.integers(min_value=-4, max_value=4).filter(bool)] * 3),
        min_size=1,
        max_size=4,
    )
)
def test_bruteforce_agrees_with_reference_enumeration(clauses):
    f = Nae3SatFormula(4, tuple(clauses))
    witness = solve_nae_bruteforce(f)
    reference = [a for a in all_assignments(4) if nae_reference(f, a)]
    if witness is None:
        assert reference == []
    else:
        assert witness == reference[0]
        assert check_nae(f, witness)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(*[st.integers(min_value=-3, max_value=3).filter(bool)] * 3),
        min_size=1,
        max_size=3,
    ),
    st.randoms(use_true_random=False),
)
def test_check_nae_invariant_under_reordering(clauses, rnd):
    f = Nae3SatFormula(3, tuple(clauses))
    shuffled_clauses = list(f.clauses)
    rnd.shuffle(shuffled_clauses)
    reordered = tuple(tuple(rnd.sample(c, 3)) for c in shuffled_clauses)
    g = Nae3SatFormula(3, reordered)
    for a in all_assignments(3):
        assert check_nae(f, a) == check_nae(g, a)


def test_literal_value_polarity():
    a = {1: True}
    assert literal_value(1, a) and not literal_value(-1, a)
