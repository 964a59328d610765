"""Timing, answer checking and in-memory spans shared by the workloads.

A *pass* is one walk over a workload's operations.  Each operation is timed
from outside the library, its answer is recorded, and a separate check
compares the answer with a reference the benchmark computes itself.  A traced
pass calls the same public steps one by one inside spans instead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Operation kinds, each reported as <kind>_s.p50 and <kind>_s.tail.
KINDS = ("reduce", "reload", "witness", "query")

# A tail percentile needs at least this many samples above it.
TAIL_BEYOND = 10


def tail(samples):
    """(percentile, value) of the highest whole nearest-rank percentile that
    has at least TAIL_BEYOND samples above it, or None when no percentile
    above the median has that many."""
    n = len(samples)
    if n == 0:
        return None
    pct = 100 * (n - TAIL_BEYOND) // n
    if pct <= 50:
        return None
    rank = -(-pct * n // 100)
    return pct, sorted(samples)[rank - 1]


class Tracer:
    """Spans and counters of one traced pass, kept in memory.

    A span records its name, start, end, parent span and the operation it
    belongs to; spans are written out only when the run ends.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self._op, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, kind, label):
        """Root span of one operation; its label is the operation id."""
        self._op = label
        try:
            with self.span("op." + kind):
                yield
        finally:
            self._op = None

    def count(self, name, amount=1):
        self.counts[name] += amount

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self):
        """Per root kind, the self time of each span name: its duration minus
        the time its direct children cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            root = s
            while root["parent"] is not None:
                root = self.spans[root["parent"]]
            out[root["name"]][s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return out


class CountingOracle:
    """Adjacency callable that counts how often it is asked."""

    def __init__(self, adjacent):
        self.adjacent = adjacent
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return self.adjacent(a, b)


class Pass:
    """Timed operations of one pass, with their answers and failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)   # kind -> seconds per operation
        self.kinds = {}                    # operation label -> kind
        self.answers = {}                  # operation label -> answer
        self.failed = {}                   # operation label -> reason
        self.artifact_bytes = 0
        self.wall_s = None

    @property
    def attempted(self):
        return len(self.kinds)

    def op(self, kind, label, plain, traced):
        """Run one operation: `plain()` untraced, `traced(tracer)` traced.

        Returns the result, or None when the operation raised; a raise counts
        as a failure of that operation.
        """
        if label in self.kinds:
            raise ValueError(f"duplicate operation label {label!r}")
        self.kinds[label] = kind
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = plain()
            else:
                with self.tracer.op(kind, label):
                    result = traced(self.tracer)
        except Exception as exc:  # a failed operation is data, not a crash
            self.failed[label] = f"raised {exc!r}"
            return None
        self.samples[kind].append(time.perf_counter() - start)
        return result

    def verify(self, label, check):
        """Run `check()`, which returns '' when the answer is right or the
        reason it is wrong.  Skipped when the operation already failed."""
        if label in self.failed:
            return
        try:
            reason = check()
        except Exception as exc:  # a check that cannot run is a failure
            reason = f"check raised {exc!r}"
        if reason:
            self.failed[label] = reason

    def answer(self, label, value):
        self.answers[label] = value


def nae_satisfies(clauses, assignment):
    """Every clause holds a true and a false variable."""
    return all(len({assignment[v - 1] for v in clause}) == 2 for clause in clauses)


def balancing_violation(n, edges, order, t):
    """Why `order` is not a t-balancing order of the graph on vertices
    0..n-1 with (u, v, w) `edges`, or '' when it is one."""
    if sorted(order) != list(range(n)):
        return "order is not a permutation of the vertices"
    pos = {v: i for i, v in enumerate(order)}
    left = defaultdict(int)
    right = defaultdict(int)
    for u, v, w in edges:
        first, second = (u, v) if pos[u] < pos[v] else (v, u)
        right[first] += w
        left[second] += w
    for v in order:
        if left[v] > t or right[v] > t:
            return f"vertex {v} has side weights {left[v]}/{right[v]} > {t}"
    return ""


def dummy_edge_closed_form(edges):
    """2·[(W² − Σw_e²) − Σ_v(d_v² − Σ_{e∋v} w_e²)] over (u, v, w) edges."""
    total = squares = 0
    degree = defaultdict(int)
    incident_squares = defaultdict(int)
    for u, v, w in edges:
        total += w
        squares += w * w
        for x in (u, v):
            degree[x] += w
            incident_squares[x] += w * w
    touching = sum(d * d - incident_squares[x] for x, d in degree.items())
    return 2 * ((total * total - squares) - touching)
