"""Step 1: from a strict NAE formula to an edge-weighted graph whose
balancing orders encode satisfying assignments.

Building blocks: weighted caterpillar *bottlenecks* that pin their terminals
to one side of any near-balancing order, *bottleneck sequences* that force
three terminal sets into a fixed relative order, and a weight-padding stage
that raises all but two vertex weights above the threshold gap.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, repeat

from .errors import ValidationError
from .formula import NaeFormula, eval_nae, validate_formula
from .wgraph import WeightedGraph, check_balancing_order


@dataclass(frozen=True)
class Constants:
    """The (tau, gamma, lam, a, b) weight profile driving every gadget."""

    tau: int
    gamma: int
    lam: int
    a: int
    b: int


# Full-scale profile: tau = 24a, lam = 4a, gamma = 3a with a = 45, and
# b = 6*tau*(tau+gamma) + 1.  The small profile keeps a | tau, gamma, lam with
# room for desk-scale tests; its b defaults to 3 and is test-configurable.
PAPER = Constants(tau=1080, gamma=135, lam=180, a=45, b=6 * 1080 * (1080 + 135) + 1)
SMALL = Constants(tau=36, gamma=3, lam=6, a=3, b=3)

PROFILES = {"paper": PAPER, "small": SMALL}


def validate_constants(c: Constants) -> None:
    """Check the four weight inequalities, divisibility by a, and b >= 1.

    Raises ValidationError naming the first violated condition.
    """
    if min(c.tau, c.gamma, c.lam, c.a, c.b) < 1:
        raise ValidationError("constants must be positive integers")
    if not c.gamma < c.lam:
        raise ValidationError(f"gamma < lambda violated ({c.gamma} >= {c.lam})")
    if not 3 * c.gamma + 4 < c.tau:
        raise ValidationError(f"3*gamma + 4 < tau violated ({3 * c.gamma + 4} >= {c.tau})")
    if not 2 * c.lam + c.gamma < c.tau:
        raise ValidationError(f"2*lambda + gamma < tau violated ({2 * c.lam + c.gamma} >= {c.tau})")
    if not 6 * c.lam <= c.tau:
        raise ValidationError(f"6*lambda <= tau violated ({6 * c.lam} > {c.tau})")
    for name, value in (("tau", c.tau), ("gamma", c.gamma), ("lambda", c.lam)):
        if value % c.a != 0:
            raise ValidationError(f"{name} = {value} is not a multiple of a = {c.a}")


def s_edge_weight(c: Constants) -> int:
    return (c.tau + c.gamma) // 2 + 1


@dataclass
class BottleneckHandle:
    """Spine ids and attachment data of one embedded bottleneck.

    Spine a_1 b_1 ... a_k b_k carries weights tau on a_i b_i and gamma+1 on
    b_i a_{i+1}; terminal v_i hangs off a_i.  Rooted at b_k.
    """

    spine_a: list
    spine_b: list
    terminals: list
    attach_weights: list
    root: int = field(init=False)

    def __post_init__(self):
        self.root = self.spine_b[-1]

    def spine_ascending(self):
        out = []
        for a, b in zip(self.spine_a, self.spine_b):
            out.extend((a, b))
        return out


def build_bottleneck(g: WeightedGraph, terminals, c: Constants, name: str = "B",
                     shared_root=None) -> BottleneckHandle:
    """Attach a bottleneck on the given (vertex, attachment weight) terminals.

    Adds 2k spine vertices (2k-1 when shared_root reuses an existing vertex
    as b_k) and 3k-1 edges.  Attachment weights must lie in
    [gamma+1, tau-gamma-1].
    """
    if not terminals:
        raise ValidationError("bottleneck needs at least one terminal")
    lo, hi = c.gamma + 1, c.tau - c.gamma - 1
    n = g.n
    for v, w in terminals:
        if not 0 <= v < n:
            raise ValidationError(f"terminal {v} not in graph")
        if not lo <= w <= hi:
            raise ValidationError(f"attachment weight {w} outside [{lo}, {hi}]")
    tau, link = c.tau, c.gamma + 1
    if min(tau, link) < 1:
        raise ValidationError(f"spine weights {tau} and {link} must be positive")
    k = len(terminals)
    spine_a, spine_b = [], []
    for i in range(1, k + 1):
        spine_a.append(g.add_vertex(f"{name}.a{i}", "spine_a"))
        if i < k or shared_root is None:
            spine_b.append(g.add_vertex(f"{name}.b{i}", "spine_b" if i < k else "root"))
    if shared_root is not None:
        spine_b.append(shared_root)
    for (v, w), a, b in zip(terminals, spine_a, spine_b):
        g.add_edge(v, a, w)
        g.add_edge(a, b, tau)
    for b, a in zip(spine_b, spine_a[1:]):
        g.add_edge(b, a, link)
    return BottleneckHandle(
        spine_a=spine_a,
        spine_b=spine_b,
        terminals=[v for v, _ in terminals],
        attach_weights=[w for _, w in terminals],
    )


def _padding_bottleneck(ids, first, terminals, attach):
    """Handle of the padding bottleneck whose spine a_1 b_1 .. a_k b_k takes
    the ids from first on, with attachment weight attach on every terminal."""
    k = len(terminals)
    return BottleneckHandle(spine_a=ids[first:first + 2 * k:2],
                            spine_b=ids[first + 1:first + 2 * k:2],
                            terminals=list(terminals), attach_weights=[attach] * k)


def _spine_rows(h: BottleneckHandle, c: Constants):
    """The rows of a bottleneck's spine in vertex order, a_i = (terminal,
    b_(i-1), b_i) and b_i = (a_i, a_(i+1)), as neighbour and weight lists:
    the rows of a bottleneck whose terminals precede its spine."""
    tau, link = c.tau, c.gamma + 1
    rows = list(chain.from_iterable(zip(h.terminals, [None] + h.spine_b[:-1], h.spine_b,
                                        h.spine_a, h.spine_a[1:] + [None])))
    weights = list(chain.from_iterable(zip(h.attach_weights, repeat(link), repeat(tau),
                                           repeat(tau), repeat(link))))
    del rows[-1], rows[1], weights[-1], weights[1]  # no b_0 and no a_(k+1)
    return rows, weights


@dataclass
class SequenceHandles:
    """The four bottlenecks and fresh s-vertices of one bottleneck sequence."""

    s: list  # [s1, s2, s3]
    b1p: BottleneckHandle
    b2p: BottleneckHandle
    b2m: BottleneckHandle
    b3m: BottleneckHandle
    terminal_sets: list  # [S1, S2, S3] as given


def build_bottleneck_sequence(g: WeightedGraph, s1_terms, s2_terms, s3_terms,
                              c: Constants, name: str = "seq") -> SequenceHandles:
    """Bottleneck sequence on three disjoint terminal sets.

    Each terminal list holds (vertex, attachment weight) pairs.  Fresh
    vertices s_i become the first terminals (attachment gamma+1); the roots
    of B_1^+/B_2^- and of B_2^+/B_3^- are identified, and edges s1-s2, s2-s3
    get weight floor((tau+gamma)/2) + 1.
    """
    sets = [set(v for v, _ in terms) for terms in (s1_terms, s2_terms, s3_terms)]
    if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
        raise ValidationError("terminal sets of a bottleneck sequence must be disjoint")
    s = [g.add_vertex(f"{name}.s{i}", "s_terminal") for i in (1, 2, 3)]
    first = c.gamma + 1
    b1p = build_bottleneck(g, [(s[0], first)] + list(s1_terms), c, f"{name}.B1+")
    b2m = build_bottleneck(g, [(s[1], first)] + list(s2_terms), c, f"{name}.B2-",
                           shared_root=b1p.root)
    b2p = build_bottleneck(g, [(s[1], first)] + list(s2_terms), c, f"{name}.B2+")
    b3m = build_bottleneck(g, [(s[2], first)] + list(s3_terms), c, f"{name}.B3-",
                           shared_root=b2p.root)
    sw = s_edge_weight(c)
    g.add_edge(s[0], s[1], sw)
    g.add_edge(s[1], s[2], sw)
    return SequenceHandles(
        s=s, b1p=b1p, b2p=b2p, b2m=b2m, b3m=b3m,
        terminal_sets=[sorted(x) for x in sets],
    )


def direct_order_of_sequence(handles: SequenceHandles):
    """A direct order of the sequence: terminal blocks ascending by id,
    spines of B_1^+/B_2^+ ascending, spines of B_2^-/B_3^- descending."""
    s1, s2, s3 = handles.terminal_sets

    def desc_spine_no_root(h):
        asc = h.spine_ascending()
        return list(reversed(asc[:-1]))

    order = []
    order.extend(sorted(s1 + [handles.s[0]]))
    order.extend(handles.b1p.spine_ascending())  # ends at the shared root
    order.extend(desc_spine_no_root(handles.b2m))
    order.extend(sorted(s2 + [handles.s[1]]))
    order.extend(handles.b2p.spine_ascending())
    order.extend(desc_spine_no_root(handles.b3m))
    order.extend(sorted(s3 + [handles.s[2]]))
    return order


class _PaddedLabels:
    """Read-only labels of H: H′'s list, then the 6p padding labels
    x0..x(p-1), y0..y(p-1), BL.a1 BL.b1 .. BL.ap BL.bp and the same for BR,
    computed from the index.  It holds the list and p, never the graph."""

    __slots__ = ("_head", "_p")

    def __init__(self, head, p):
        self._head, self._p = head, p

    def __len__(self):
        return len(self._head) + 6 * self._p

    def __iter__(self):
        p, spine = self._p, range(1, self._p + 1)
        return chain(self._head, map("x{}".format, range(p)), map("y{}".format, range(p)),
                     *(chain.from_iterable(zip(map(f"{name}.a{{}}".format, spine),
                                               map(f"{name}.b{{}}".format, spine)))
                       for name in ("BL", "BR")))

    def __getitem__(self, i):
        head, p, n, i = self._head, self._p, len(self), operator.index(i)
        if not -n <= i < n:
            raise IndexError("label index out of range")
        k = i % n - len(head)
        if k < 0:
            return head[k]  # from the end of H′'s list
        if k < 2 * p:
            return f"{'xy'[k // p]}{k % p}"
        spine, j = divmod(k - 2 * p, 2 * p)
        return f"{('BL', 'BR')[spine]}.{'ab'[j % 2]}{j // 2 + 1}"

    def __eq__(self, other):
        if not isinstance(other, (list, _PaddedLabels)):
            return NotImplemented
        return list(self) == list(other)


# compared and printed as objects: a field-wise == would compare the graphs
# by identity, and a field-wise repr would print id lists as long as the padding
@dataclass(eq=False, repr=False)
class HBuild:
    """Built H graph plus the named vertex groups the later steps rely on."""

    graph: WeightedGraph
    constants: Constants
    formula: NaeFormula
    num_vars: int
    num_clauses: int
    vx: list        # variable vertex per variable index (0-based)
    vbar: list
    tvert: list     # t_i
    tbar: list
    fvert: list     # f_i
    fbar: list
    cvert: list     # clause vertices
    seq: SequenceHandles
    hprime_n: int   # vertices 0..hprime_n-1 form H'
    pad_assign: dict  # deficient H' vertex -> list of its X neighbors
    x_ids: list
    y_ids: list
    bl: BottleneckHandle
    br: BottleneckHandle

    @property
    def roots(self):
        return [self.bl.root, self.br.root]


def build_H(f: NaeFormula, c: Constants, max_vertices=None) -> HBuild:
    """Build the edge-weighted graph encoding a strict NAE instance.

    Layout: per-variable vertices v_x, v̄_x, t_i, t̄_i, f_i, f̄_i; clause
    vertices; a bottleneck sequence on (T, C, F); then weight padding with
    terminal sets X and Y so that only the two padding roots stay below
    weight tau + gamma + 1.  With `max_vertices`, a build that would have
    more vertices is refused before the padding is added: the padding grows
    with tau, so a document's constants alone could ask for any size.
    """
    validate_constants(c)
    validate_formula(f, strict=True)
    tau, gamma, lam = c.tau, c.gamma, c.lam
    g = WeightedGraph()
    n, m = f.num_vars, len(f.clauses)

    vx = [g.add_vertex(f"v_x{i + 1}", "variable") for i in range(n)]
    vbar = [g.add_vertex(f"vbar_x{i + 1}", "variable_bar") for i in range(n)]
    tvert = [g.add_vertex(f"t{i + 1}", "t") for i in range(n)]
    tbar = [g.add_vertex(f"tbar{i + 1}", "t_bar") for i in range(n)]
    fvert = [g.add_vertex(f"f{i + 1}", "f") for i in range(n)]
    fbar = [g.add_vertex(f"fbar{i + 1}", "f_bar") for i in range(n)]
    cvert = [g.add_vertex(f"c{j + 1}", "clause") for j in range(m)]

    for j, clause in enumerate(f.clauses):
        for v in clause:
            g.add_edge(vx[v - 1], cvert[j], lam)
    for i in range(n):
        g.add_edge(tvert[i], tbar[i], tau - lam)
        g.add_edge(fvert[i], fbar[i], tau - lam)
        g.add_edge(vx[i], tvert[i], lam)
        g.add_edge(vx[i], fvert[i], lam)
        g.add_edge(vbar[i], tvert[i], lam)
        g.add_edge(vbar[i], fvert[i], lam)

    seq = build_bottleneck_sequence(
        g,
        [(v, tau - lam) for v in tvert],
        [(v, tau - 2 * lam) for v in cvert],
        [(v, tau - lam) for v in fvert],
        c,
        name="BTCF",
    )

    hprime_n = g.n
    hprime_weights = [g.vertex_weight(v) for v in range(hprime_n)]
    target = tau + gamma + 1
    missing = [max(0, target - w) for w in hprime_weights]
    p = sum(missing)
    if max_vertices is not None and hprime_n + 6 * p > max_vertices:  # X, Y, two spines
        raise ValidationError(f"H would have {hprime_n + 6 * p} vertices, "
                              f"more than the {max_vertices} allowed")

    # p >= 1: s_1's two edges weigh (gamma + 1) + s_edge_weight(c) < target.
    # H' rows, each followed by its pad edges, then the rows of X, Y, B_L and
    # B_R in vertex order by arithmetic; every id is the one int of ids
    ids = list(range(hprime_n + 6 * p))
    x_ids, y_ids = ids[hprime_n:hprime_n + p], ids[hprime_n + p:hprime_n + 2 * p]
    attach, pair = tau - gamma - 1, 2 * gamma + 2  # pair: positive weights on x-y pairs
    bl = _padding_bottleneck(ids, hprime_n + 2 * p, x_ids, attach)
    br = _padding_bottleneck(ids, hprime_n + 4 * p, y_ids, attach)
    nbr, wt, degrees = [], [], []
    pad_assign, pad_owner = {}, []
    for v in range(hprime_n):
        lo, hi = g.start[v], g.start[v + 1]
        mine = x_ids[len(pad_owner):len(pad_owner) + missing[v]]
        if mine:
            pad_assign[ids[v]] = mine
            pad_owner += [ids[v]] * missing[v]
        nbr += map(ids.__getitem__, g.nbr[lo:hi])
        nbr += mine
        wt += g.wt[lo:hi]
        wt += [1] * missing[v]
        degrees.append(hi - lo + missing[v])
    nbr += chain.from_iterable(zip(pad_owner, y_ids, bl.spine_a))
    wt += [1, pair, attach] * p
    nbr += chain.from_iterable(zip(x_ids, br.spine_a))
    wt += [pair, attach] * p
    degrees += [3] * p + [2] * p
    for handle in (bl, br):
        rows, weights = _spine_rows(handle, c)
        nbr += rows
        wt += weights
        degrees += [2, 2] + [3, 2] * (p - 1)
        degrees[-1] = 1  # b_k has no a_(k+1)
    g.labels = _PaddedLabels(g.labels, p)
    g.roles += ["pad_x"] * p + ["pad_y"] * p
    g.roles += (["spine_a", "spine_b"] * (p - 1) + ["spine_a", "root"]) * 2  # B_L, B_R
    g.start, g.nbr, g.wt = list(accumulate(degrees, initial=0)), nbr, wt

    return HBuild(
        graph=g, constants=c, formula=f, num_vars=n, num_clauses=m,
        vx=vx, vbar=vbar, tvert=tvert, tbar=tbar, fvert=fvert, fbar=fbar,
        cvert=cvert, seq=seq, hprime_n=hprime_n,
        pad_assign=pad_assign, x_ids=x_ids, y_ids=y_ids, bl=bl, br=br,
    )


def _middle_order(build: HBuild, assignment):
    """The order on H minus the padding bottlenecks, from a NAE assignment:
    t̄ block, true-side variable vertices, a direct order of the (T, C, F)
    sequence, false-side variable vertices, f̄ block."""
    true_side = sorted(
        [build.vx[i] for i in range(build.num_vars) if assignment[i]]
        + [build.vbar[i] for i in range(build.num_vars) if not assignment[i]]
    )
    false_side = sorted(
        [build.vx[i] for i in range(build.num_vars) if not assignment[i]]
        + [build.vbar[i] for i in range(build.num_vars) if assignment[i]]
    )
    order = []
    order.extend(build.tbar)
    order.extend(true_side)
    order.extend(direct_order_of_sequence(build.seq))
    order.extend(false_side)
    order.extend(build.fbar)
    return order


def witness_order(f: NaeFormula, build: HBuild, assignment):
    """The explicit tau-balancing order of H from a NAE-satisfying assignment.

    Padding rule per deficient vertex u with middle-order side weights
    (s_L, s_R): if s_R > gamma+1 all of u's X-neighbors go before u, else
    exactly tau - s_L of them go before u and the rest after.
    """
    if not eval_nae(f, assignment):
        raise ValidationError("assignment does not NAE-satisfy the formula")
    c = build.constants
    g = build.graph
    middle = _middle_order(build, assignment)
    pos = {v: i for i, v in enumerate(middle)}

    order = []
    bl_asc = build.bl.spine_ascending()
    order.extend(reversed(bl_asc))  # reverse order on B_L: spine descending

    for u in middle:
        before = after = ()
        xs = build.pad_assign.get(u)
        if xs:
            s_l = s_r = 0
            pu = pos[u]
            lo = g.start[u]  # u's H' neighbours lead its row, before its X neighbours
            hi = bisect.bisect_left(g.nbr, build.hprime_n, lo, g.start[u + 1])
            for v, w in zip(g.nbr[lo:hi], g.wt[lo:hi]):
                if pos[v] < pu:
                    s_l += w
                else:
                    s_r += w
            if s_r > c.gamma + 1:
                before = xs
            else:
                cut = c.tau - s_l
                if not 0 <= cut <= len(xs):
                    raise ValidationError(
                        f"padding split {cut} out of range for vertex {u}; "
                        "middle order is not tau-balancing")
                before, after = xs[:cut], xs[cut:]
        order.extend(before)
        order.append(u)
        order.extend(after)

    order.extend(build.y_ids)
    order.extend(build.br.spine_ascending())
    return order


def decode_assignment(f: NaeFormula, build: HBuild, order):
    """Read an assignment off a (tau+gamma)-balancing order: variable x is
    true iff v_x precedes every clause vertex."""
    c = build.constants
    ok, violator = check_balancing_order(build.graph, order, c.tau + c.gamma)
    if not ok:
        raise ValidationError(
            f"order is not ({c.tau + c.gamma})-balancing: vertex {violator} violates")
    pos = dict(compress(zip(order, count()), map(build.hprime_n.__gt__, order)))  # H' only
    c_positions = [pos[v] for v in build.cvert]
    c_min, c_max = min(c_positions), max(c_positions)
    values = []
    for i in range(build.num_vars):
        pv = pos[build.vx[i]]
        if pv < c_min:
            values.append(True)
        elif pv > c_max:
            values.append(False)
        else:
            raise ValidationError(
                f"variable vertex {build.vx[i]} is surrounded by clause vertices; "
                "balancing checker and order disagree, refusing to guess")
    return tuple(values)
