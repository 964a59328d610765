import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naewidth import formula
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

from conftest import brute_nae

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
    assert brute_nae(FANO) is None


def test_brute_force_cap():
    f = NaeFormula(num_vars=3, clauses=((1, 2, 3),))
    with pytest.raises(CapExceededError):
        brute_force_nae(f, cap=0)


@st.composite
def lax_formulas(draw):
    """Unvalidated formulas: a clause may repeat a variable."""
    n = draw(st.integers(min_value=1, max_value=12))
    var = st.integers(min_value=1, max_value=n)
    clauses = draw(st.lists(st.tuples(var, var, var), max_size=14))
    return NaeFormula(num_vars=n, clauses=tuple(clauses))


@given(lax_formulas(), st.data())
@settings(max_examples=100)
def test_nae_symmetric_under_global_flip(f, data):
    bits = tuple(data.draw(st.booleans()) for _ in range(f.num_vars))
    assert eval_nae(f, bits) == eval_nae(f, tuple(not b for b in bits))


@given(lax_formulas())
@example(NaeFormula(num_vars=2, clauses=((1, 1, 2),)))
@settings(max_examples=100)
def test_brute_force_agrees_with_full_scan(f):
    """Same answer as the tuple scan, first assignment included, whatever
    the chunk width: at widths 1 and 3 most formulas span several chunks."""
    expected = brute_nae(f)
    for width in (1, 3, 16):
        with mock.patch.object(formula, "_CHUNK_BITS", width):
            assert brute_force_nae(f) == expected, width


def test_brute_force_full_scan_n12():
    rng = random.Random(99)
    clauses = []
    for _ in range(10):
        clause = rng.sample(range(1, 13), 3)
        clauses.append(tuple(clause))
    f = NaeFormula(num_vars=12, clauses=tuple(clauses))
    assert brute_force_nae(f) == brute_nae(f)


def test_brute_force_first_witness_in_second_chunk():
    """Variables 1-3 are above the 16 low ones: every assignment of the
    first chunk sets them all False, so the first witness is in chunk 1."""
    f = NaeFormula(num_vars=19, clauses=((1, 2, 3),))
    assert brute_force_nae(f) == (False, False, True) + (False,) * 16


@pytest.mark.parametrize("n", [18, 24])
@pytest.mark.parametrize("where", ["top", "bottom"])
def test_brute_force_unsat_fano_across_chunks(n, where):
    """At n = 24 the top 7 variables are all high, so each chunk fixes the
    Fano clauses; at the bottom they are all low and fail inside every
    chunk; at n = 18 the top ones straddle the two kinds."""
    shift = 0 if where == "top" else n - 7
    f = NaeFormula(num_vars=n, clauses=tuple(tuple(v + shift for v in c) for c in FANO.clauses))
    assert brute_force_nae(f) is None


def test_brute_force_padded_fano_variant_matches_scan():
    """The padded Fano instance with one Fano line left out is satisfiable.
    Its first witness has variables 1 and 2 False, so at width 16 it lies in
    chunk 0; at widths 1 and 3 the scan crosses thousands of chunks first."""
    f = NaeFormula(num_vars=18, clauses=FANO.clauses[:-1] + (
        (8, 9, 10), (11, 12, 13), (14, 15, 16), (16, 17, 18)))
    expected = brute_nae(f)
    assert expected is not None
    for width in (1, 3, 16):
        with mock.patch.object(formula, "_CHUNK_BITS", width):
            assert brute_force_nae(f) == expected, width


def test_random_strict_formula_is_strict():
    rng = random.Random(0)
    for _ in range(5):
        f = random_strict_formula(6, rng)
        validate_formula(f, strict=True)
        assert len(f.clauses) == 8


def test_random_strict_formula_deterministic():
    assert random_strict_formula(6, random.Random(5)) == random_strict_formula(6, random.Random(5))
