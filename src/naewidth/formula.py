"""Positive NAE-3-SAT instances: DIMACS parsing, validation, evaluation, and a
brute-force satisfiability oracle for small variable counts.

A clause is *NAE-satisfied* when it contains at least one true and at least
one false variable.  In strict mode every variable must occur in exactly four
clauses (so 3*m == 4*n); lax mode admits hand-built toy formulas.
"""

from __future__ import annotations

import collections
import random
import re
from dataclasses import dataclass

from .errors import CapExceededError, ParseError, ValidationError

BRUTE_FORCE_CAP = 24
SHUFFLE_TRIES = 10000  # random_strict_formula gives up after this many draws
# brute_force_nae tests 2^_CHUNK_BITS assignments per big-integer operation
_CHUNK_BITS = 16

_DIMACS_INT = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class NaeFormula:
    """All-positive 3-clauses over variables numbered 1..num_vars."""

    num_vars: int
    clauses: tuple


def validate_formula(f: NaeFormula, strict: bool = True) -> None:
    """Check the formula invariants; raise ValidationError on the first failure."""
    if f.num_vars < 1:
        raise ValidationError("formula must have at least one variable")
    for idx, clause in enumerate(f.clauses):
        if len(clause) != 3:
            raise ValidationError(f"clause {idx + 1} has {len(clause)} literals, expected 3")
        for v in clause:
            if not isinstance(v, int) or v < 1 or v > f.num_vars:
                raise ValidationError(f"clause {idx + 1}: variable {v} out of range 1..{f.num_vars}")
        if len(set(clause)) != 3:
            raise ValidationError(f"clause {idx + 1} repeats a variable: {clause}")
    if strict:
        # num_vars comes from the header, so nothing is sized by it: the scan
        # stops at the first variable not seen 4 times, at most 3m/4 + 1 steps
        counts = collections.Counter(v for clause in f.clauses for v in clause)
        for var in range(1, f.num_vars + 1):
            if counts[var] != 4:
                raise ValidationError(f"variable {var} occurs {counts[var]} times, expected 4")


def _dimacs_int(token: str) -> int:
    """int() of an optional '-' and ASCII digits; int() alone also takes a
    '+', '_' separators and non-ASCII digits."""
    if not _DIMACS_INT.fullmatch(token):
        raise ValueError(token)
    return int(token)


def parse_nae_dimacs(text: str, strict: bool = True) -> NaeFormula:
    """Parse DIMACS CNF text into an all-positive NAE formula.

    Clauses are zero-terminated and may span lines.  Negative literals are
    rejected outright: the formula type has no negation.
    """
    tokens = []  # (token, line, col)
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate problem line", line=lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad problem line {line!r}", line=lineno)
            try:
                header = (_dimacs_int(parts[2]), _dimacs_int(parts[3]))
            except ValueError:
                raise ParseError(f"non-integer counts in problem line {line!r}", line=lineno)
            if header[0] < 1 or header[1] < 0:
                raise ParseError("problem line declares empty formula", line=lineno)
            continue
        if header is None:
            raise ParseError("clause data before problem line", line=lineno)
        col = 1
        for tok in raw.split():
            col = raw.index(tok, col - 1) + 1
            tokens.append((tok, lineno, col))

    if header is None:
        raise ParseError("missing 'p cnf' problem line")
    num_vars, num_clauses = header

    clauses = []
    current = []
    for tok, lineno, col in tokens:
        try:
            lit = _dimacs_int(tok)
        except ValueError:
            raise ParseError(f"non-integer literal {tok!r}", line=lineno, col=col)
        if lit == 0:
            if len(current) != 3:
                raise ParseError(f"clause has {len(current)} literals, expected 3", line=lineno, col=col)
            clauses.append(tuple(current))
            current = []
            continue
        if lit < 0:
            raise ParseError(f"negative literal {lit}", line=lineno, col=col)
        if lit > num_vars:
            raise ParseError(f"literal {lit} exceeds declared variable count {num_vars}", line=lineno, col=col)
        current.append(lit)
    if current:
        raise ParseError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise ParseError(f"declared {num_clauses} clauses but found {len(clauses)}")

    f = NaeFormula(num_vars=num_vars, clauses=tuple(clauses))
    validate_formula(f, strict=strict)
    return f


def emit_nae_dimacs(f: NaeFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    lines.extend(" ".join(str(v) for v in clause) + " 0" for clause in f.clauses)
    return "\n".join(lines) + "\n"


def eval_nae(f: NaeFormula, assignment) -> bool:
    """True iff every clause has at least one true and at least one false variable."""
    if len(assignment) != f.num_vars:
        raise ValidationError(f"assignment length {len(assignment)} != num_vars {f.num_vars}")
    for clause in f.clauses:
        values = [assignment[v - 1] for v in clause]
        if all(values) or not any(values):
            return False
    return True


def check_brute_force_cap(num_vars: int, cap: int = BRUTE_FORCE_CAP) -> None:
    """Raise CapExceededError when num_vars is over the brute-force cap."""
    if num_vars > cap:
        raise CapExceededError(f"num_vars {num_vars} exceeds brute-force cap {cap}")


def brute_force_nae(f: NaeFormula, cap: int = BRUTE_FORCE_CAP):
    """Return the first NAE-satisfying assignment, or None.

    Enumeration order is documented and deterministic: assignments are scanned
    lexicographically with False < True and variable 1 most significant.

    The scan is bit-sliced: assignment i sets variable v to bit n - v of i.
    Each of the low k = min(n, _CHUNK_BITS) variables is a 2^k-bit integer
    holding its value in all 2^k assignments of a chunk; the high variables
    are fixed per chunk.  The lowest surviving bit of the first non-empty
    chunk is therefore the first assignment in lexicographic order.
    """
    check_brute_force_cap(f.num_vars, cap)
    n = f.num_vars
    k = min(n, _CHUNK_BITS)
    full = (1 << (1 << k)) - 1
    # low[p]: bit j set iff bit p of j is; 2^p zeros then 2^p ones, repeated
    # by doubling: dividing full by the period is quadratic in 2^k
    low = []
    for p in range(k):
        mask, width = ((1 << (1 << p)) - 1) << (1 << p), 2 << p
        while width < 1 << k:
            mask |= mask << width
            width <<= 1
        low.append(mask)
    for chunk in range(1 << (n - k)):
        # value[v] for v = 1..n, with index 0 unused
        value = [0] + [full if chunk >> (n - v - k) & 1 else 0 for v in range(1, n - k + 1)]
        value.extend(reversed(low))
        alive = full
        for a, b, c in f.clauses:
            x, y, z = value[a], value[b], value[c]
            alive &= (x | y | z) & ~(x & y & z)
            if not alive:
                break
        if alive:
            i = chunk << k | (alive & -alive).bit_length() - 1
            return tuple(bool(i >> (n - v) & 1) for v in range(1, n + 1))
    return None


def random_strict_formula(num_vars: int, rng: random.Random) -> NaeFormula:
    """Sample a strict 4-occurrence instance by shuffling variable tokens into
    triples and rejecting draws with a repeated variable inside a clause."""
    if num_vars % 3 != 0:
        raise ValidationError("strict instances need 3 | num_vars (3m = 4n)")
    tokens = [v for v in range(1, num_vars + 1) for _ in range(4)]
    for _ in range(SHUFFLE_TRIES):
        rng.shuffle(tokens)
        clauses = [tuple(tokens[i:i + 3]) for i in range(0, len(tokens), 3)]
        if all(len(set(c)) == 3 for c in clauses):
            f = NaeFormula(num_vars=num_vars, clauses=tuple(clauses))
            validate_formula(f, strict=True)
            return f
    raise RuntimeError(f"no valid shuffle found in {SHUFFLE_TRIES} tries")
