import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naewidth.errors import CapExceededError, ParseError, ValidationError
from naewidth.formula import (
    NaeFormula,
    brute_force_nae,
    emit_nae_dimacs,
    eval_nae,
    parse_nae_dimacs,
    random_strict_formula,
    validate_formula,
)

FOUR_COPIES = "p cnf 3 4\n" + "1 2 3 0\n" * 4

# The Fano plane is not 2-colorable, so reading its lines as NAE clauses
# gives an unsatisfiable instance (each variable occurs 3 times: lax only).
FANO = NaeFormula(num_vars=7, clauses=(
    (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
))


def test_parse_four_copies_strict():
    f = parse_nae_dimacs(FOUR_COPIES, strict=True)
    assert f.num_vars == 3
    assert f.clauses == ((1, 2, 3),) * 4


def test_parse_rejects_negative_literal():
    with pytest.raises(ParseError, match="negative literal"):
        parse_nae_dimacs("p cnf 2 1\n1 -2 2 0\n", strict=False)


def test_parse_strict_rejects_wrong_occurrence_count():
    text = "p cnf 3 3\n" + "1 2 3 0\n" * 3
    with pytest.raises(ValidationError, match="variable 1 occurs 3"):
        parse_nae_dimacs(text, strict=True)
    assert parse_nae_dimacs(text, strict=False).num_vars == 3


def test_parse_rejects_repeated_variable():
    with pytest.raises(ValidationError, match="repeats"):
        parse_nae_dimacs("p cnf 3 1\n1 1 2 0\n", strict=False)


def test_parse_rejects_bad_arity():
    with pytest.raises(ParseError, match="expected 3"):
        parse_nae_dimacs("p cnf 4 1\n1 2 3 4 0\n", strict=False)


def test_parse_rejects_out_of_range_literal():
    with pytest.raises(ParseError, match="exceeds"):
        parse_nae_dimacs("p cnf 2 1\n1 2 3 0\n", strict=False)


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_nae_dimacs("c comment\np cnf 2 1\n1 -2 2 0\n", strict=False)


def test_parse_clause_count_mismatch():
    with pytest.raises(ParseError, match="declared 2 clauses"):
        parse_nae_dimacs("p cnf 3 2\n1 2 3 0\n", strict=False)


def test_parse_multiline_clauses_and_comments():
    text = "c header comment\np cnf 3 2\n1 2\n3 0\nc mid comment\n3 2 1 0\n"
    f = parse_nae_dimacs(text, strict=False)
    assert f.clauses == ((1, 2, 3), (3, 2, 1))


def test_emit_round_trip():
    f = parse_nae_dimacs(FOUR_COPIES)
    assert parse_nae_dimacs(emit_nae_dimacs(f)) == f


def test_eval_single_clause():
    f = NaeFormula(num_vars=3, clauses=((1, 2, 3),))
    assert eval_nae(f, (True, False, False)) is True
    assert eval_nae(f, (True, True, True)) is False
    assert eval_nae(f, (False, False, False)) is False


def test_eval_repeated_clause():
    f = parse_nae_dimacs(FOUR_COPIES)
    assert eval_nae(f, (True, False, True)) is True


def test_eval_length_mismatch():
    f = NaeFormula(num_vars=3, clauses=((1, 2, 3),))
    with pytest.raises(ValidationError):
        eval_nae(f, (True, False))


def test_brute_force_first_witness_in_documented_order():
    # Scanning F<T with variable 1 most significant, the first NAE-satisfying
    # assignment of the four-copies instance is (F, F, T).
    f = parse_nae_dimacs(FOUR_COPIES)
    assert brute_force_nae(f) == (False, False, True)


def test_brute_force_unsat_fano():
    validate_formula(FANO, strict=False)
    assert brute_force_nae(FANO) is None
    # absence really does mean no assignment works
    for bits in itertools.product((False, True), repeat=FANO.num_vars):
        assert not eval_nae(FANO, bits)


def test_brute_force_cap():
    f = NaeFormula(num_vars=3, clauses=((1, 2, 3),))
    with pytest.raises(CapExceededError):
        brute_force_nae(f, cap=0)


@st.composite
def lax_formulas(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    m = draw(st.integers(min_value=1, max_value=6))
    clauses = []
    for _ in range(m):
        clause = draw(st.permutations(range(1, n + 1)))[:3]
        clauses.append(tuple(clause))
    return NaeFormula(num_vars=n, clauses=tuple(clauses))


@given(lax_formulas(), st.data())
@settings(max_examples=100)
def test_nae_symmetric_under_global_flip(f, data):
    bits = tuple(data.draw(st.booleans()) for _ in range(f.num_vars))
    assert eval_nae(f, bits) == eval_nae(f, tuple(not b for b in bits))


@given(lax_formulas())
@settings(max_examples=60)
def test_brute_force_agrees_with_full_scan(f):
    witness = brute_force_nae(f)
    if witness is None:
        assert all(not eval_nae(f, bits)
                   for bits in itertools.product((False, True), repeat=f.num_vars))
    else:
        assert eval_nae(f, witness)


def test_brute_force_full_scan_n12():
    rng = random.Random(99)
    clauses = []
    for _ in range(10):
        clause = rng.sample(range(1, 13), 3)
        clauses.append(tuple(clause))
    f = NaeFormula(num_vars=12, clauses=tuple(clauses))
    witness = brute_force_nae(f)
    scan = [bits for bits in itertools.product((False, True), repeat=12)
            if eval_nae(f, bits)]
    if witness is None:
        assert scan == []
    else:
        assert witness == scan[0]


def test_random_strict_formula_is_strict():
    rng = random.Random(0)
    for _ in range(5):
        f = random_strict_formula(6, rng)
        validate_formula(f, strict=True)
        assert len(f.clauses) == 8


def test_random_strict_formula_deterministic():
    assert random_strict_formula(6, random.Random(5)) == random_strict_formula(6, random.Random(5))
