"""JSON documents for every pipeline artifact.

All documents are canonical JSON (sorted keys, compact separators, one
trailing newline) so that reruns are byte-identical.  The step documents
(weighted graph and step 1, step 2, step 3) are written as text by one
writer per kind, which fills a template per record in sorted-key order, so no
record dict is built and no key is sorted again; the *_doc functions parse
that text.  Step-2 and step-3 graphs are stored structurally (block layout,
gadget registry): their edge sets are bicliques that blow up quadratically,
so explicit edge arrays are only written below a small size limit.  A step-1
document is accepted only if it is exactly the build of the formula its
clause vertices encode, and a step-2 or step-3 document only if it is exactly
the rebuild of its base: records are compared with the rebuild's rows in
streaming C-level passes, and a boolean or float never stands for an integer.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from json.encoder import encode_basestring_ascii as _string
from operator import eq, itemgetter, sub

from .errors import ValidationError
from .formula import NaeFormula
from .red1 import BottleneckHandle, Constants, HBuild, build_H, validate_constants
from .red2 import PartitionedGraph, TreeMapping
from .red3 import Gstar, build_Gstar, ensure_divisible
from .tree import Tree
from .wgraph import ROLES, WeightedGraph
from .widths import TreeLayout

FORMAT_VERSION = 1
GADGET_FORMAT_VERSION = 2  # gadget paths are derived from the block layout, not listed
EXPLICIT_EDGE_VERTEX_LIMIT = 150
EXPLICIT_EDGE_LIMIT = 5000

# the records of the step documents: their keys in sorted order and the
# template that writes one; the keys in _STRINGS hold strings, all others ints
_VERTEX = ("id", "label", "role"), '{"id":%d,"label":%s,"role":%s}'
_EDGE = ("u", "v", "weight"), '{"u":%d,"v":%d,"weight":%d}'
_PART = ("owner", "size", "start"), '{"owner":%d,"size":%d,"start":%d}'
_BLOCK = ("size", "start", "u", "v"), '{"size":%d,"start":%d,"u":%d,"v":%d}'
_GADGET = ("base", "copies", "owner"), '{"base":%d,"copies":%d,"owner":%d}'
_KIND_EDGE = ("kind", "u", "v"), '{"kind":"%s","u":%d,"v":%d}'  # kinds are fixed ASCII words
_STRINGS = {"label", "role", "kind"}


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_json(doc) -> str:
    return _json(doc) + "\n"


def _records(record, rows):
    """The rows written by the record's template, comma-separated: one %
    over all their values, so no string per record is built."""
    values = tuple(itertools.chain.from_iterable(rows))
    return ",".join(itertools.repeat(record[1], len(values) // len(record[0]))) % values


def _same_records(records, record, rows, count):
    """Whether records is count objects with exactly the record's keys whose
    values, in key order, are the rows, with an int (not a boolean or float,
    which equal one) under every key but the string ones.  Each check is one
    C-level pass over the records; no record dict or list of tuples is built."""
    keys = record[0]
    return (len(records) == count
            and set(map(len, records)) <= {len(keys)}
            and all(map(eq, map(itemgetter(*keys), records), rows))
            and all(set(map(type, map(itemgetter(key), records))) <= {int}
                    for key in keys if key not in _STRINGS))


def _typed(value):
    """Whether every number in a parsed JSON object or list is an int, in one
    C-level type pass per object or list inside it, over an explicit stack."""
    stack = [value]
    while stack:
        items = stack.pop()
        items = list(items.values()) if type(items) is dict else items
        types = set(map(type, items))
        if not types <= {int, str, dict, list}:
            return False
        if types & {dict, list}:
            stack += [x for x in items if type(x) in (dict, list)]
    return True


def _expect(doc, kind, version=FORMAT_VERSION):
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValidationError(f"expected a {kind!r} document")
    if type(doc.get("format_version")) is not int or doc["format_version"] != version:
        raise ValidationError(f"unsupported format_version {doc.get('format_version')!r}")


@contextlib.contextmanager
def _malformed(kind):
    """A document missing a key or holding a wrong type or shape fails with
    ValidationError, not with the KeyError, TypeError or ValueError it raises."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {kind} document: {exc!r}") from None


# -- weighted graphs ---------------------------------------------------------

_GRAPH_KEYS = {"format_version", "kind", "vertices", "edges"}
_EDGES_END = '],"format_version":'  # the first "]" of a weighted graph's text ends its edges


def _edge_rows(g: WeightedGraph, scale=1):
    """(u, v, weight·scale) of every edge, u < v, in ascending order."""
    return g.edges() if scale == 1 else ((u, v, w * scale) for u, v, w in g.edges())


def _edges_text(g: WeightedGraph, scale):
    return '{"edges":[' + _records(_EDGE, _edge_rows(g, scale))


def weighted_graph_text(g: WeightedGraph, meta=None, scale=1) -> str:
    """The canonical text of g's document, its weights times scale."""
    roles = {role: _string(role) for role in set(g.roles)}  # a few roles, many vertices
    vertices = _records(_VERTEX, zip(range(g.n), map(_string, g.labels),
                                     map(roles.__getitem__, g.roles)))
    meta = "" if meta is None else ',"meta":' + _json(meta)
    return (f'{_edges_text(g, scale)}{_EDGES_END}{FORMAT_VERSION},"kind":"weighted_graph"'
            f'{meta},"vertices":[{vertices}]}}\n')


def _is_graph(doc, g: WeightedGraph, scale, keys=_GRAPH_KEYS):
    return (doc.keys() == keys
            and _same_records(doc["vertices"], _VERTEX, zip(range(g.n), g.labels, g.roles), g.n)
            and _same_records(doc["edges"], _EDGE, _edge_rows(g, scale), g.num_edges()))


def weighted_graph_from_doc(doc, scale=1) -> WeightedGraph:
    """The listed graph, in any edge order, with its weights divided by scale.
    A document with meta is a step-1 document, read through its rebuild."""
    if isinstance(doc, dict) and "meta" in doc:
        return hbuild_from_doc(doc, scale).graph
    with _malformed("weighted_graph"):
        _expect(doc, "weighted_graph")
        labels, roles = [], []
        for i, rec in enumerate(doc["vertices"]):
            if type(rec["id"]) is not int or rec["id"] != i:
                raise ValidationError("vertex ids must be dense from 0")
            if type(rec["label"]) is not str or rec["role"] not in ROLES:
                raise ValidationError(f"vertex {i} needs a string label and a known role")
            labels.append(rec["label"])
            roles.append(rec["role"])
        edges = []
        for rec in doc["edges"]:
            u, v, w = rec["u"], rec["v"], rec["weight"]
            if not (type(u) is type(v) is type(w) is int and 0 <= u < len(labels)
                    and 0 <= v < len(labels)):
                raise ValidationError(f"edge ({u!r}, {v!r}, {w!r}) is not integers on known ids")
            if w % scale:
                raise ValidationError(f"edge weight {w} is not a multiple of the scale {scale}")
            edges.append((u, v, w // scale))
        g = WeightedGraph.from_edges(labels, roles, edges)
        g.check_simple()
        return g


def graph_from_doc(doc):
    """Adjacency sets of an unweighted graph, or of a weighted graph with its
    weights dropped."""
    if isinstance(doc, dict) and doc.get("kind") == "weighted_graph":
        g = weighted_graph_from_doc(doc)
        return {u: set(g.nbr[lo:hi]) for u, (lo, hi) in enumerate(zip(g.start, g.start[1:]))}
    with _malformed("graph"):
        _expect(doc, "graph")
        ids = [rec["id"] for rec in doc["vertices"]]
        edges = [(rec["u"], rec["v"]) for rec in doc["edges"]]
    n = len(ids)
    if any(type(i) is not int for i in ids) or ids != list(range(n)):
        raise ValidationError("vertex ids must be dense from 0")
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValidationError(f"bad edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- step-1 build ------------------------------------------------------------

def _constants_doc(c: Constants):
    return {"tau": c.tau, "gamma": c.gamma, "lambda": c.lam, "a": c.a, "b": c.b}


def constants_from_doc(doc) -> Constants:
    with _malformed("constants"):
        c = Constants(tau=doc["tau"], gamma=doc["gamma"], lam=doc["lambda"],
                      a=doc["a"], b=doc["b"])
        validate_constants(c)
        return c


def check_base_constants(meta, c: Constants):
    """Refuse the step-1 meta of a base (None: a plain graph) built at other constants than c."""
    if meta is not None and meta["constants"] != _constants_doc(c):
        raise ValidationError(f"step-1 base built at constants {_json(meta['constants'])}, "
                              f"not at the step-3 constants {_json(_constants_doc(c))}")


def _handle_doc(h: BottleneckHandle):
    return {"spine_a": h.spine_a, "spine_b": h.spine_b,
            "terminals": h.terminals, "attach_weights": h.attach_weights}


def _hbuild_meta(build: HBuild):
    seq = build.seq
    return {
        "constants": _constants_doc(build.constants),
        "num_vars": build.num_vars,
        "num_clauses": build.num_clauses,
        "groups": {
            "vx": build.vx, "vbar": build.vbar,
            "T": build.tvert, "T_bar": build.tbar,
            "F": build.fvert, "F_bar": build.fbar,
            "C": build.cvert,
            "s": seq.s,
            "X": build.x_ids, "Y": build.y_ids,
            "roots": build.roots,
        },
        "sequence": {
            "s": seq.s,
            "B1p": _handle_doc(seq.b1p), "B2p": _handle_doc(seq.b2p),
            "B2m": _handle_doc(seq.b2m), "B3m": _handle_doc(seq.b3m),
            "terminal_sets": seq.terminal_sets,
        },
        "hprime_n": build.hprime_n,
        "pad_assign": sorted([v, xs] for v, xs in build.pad_assign.items()),
        "BL": _handle_doc(build.bl),
        "BR": _handle_doc(build.br),
        "provenance": "step1",
    }


def hbuild_text(build: HBuild) -> str:
    return weighted_graph_text(build.graph, _hbuild_meta(build))


def hbuild_doc(build: HBuild):
    return json.loads(hbuild_text(build))


def hbuild_from_doc(doc, scale=1) -> HBuild:
    """The build, at the document's constants, of the formula the document
    encodes, if the document is exactly that build's, weights times scale.
    Variable i+1 is the i-th variable vertex; clause j lists the variables
    of the (variable, clause) edge records at the j-th clause vertex.  They
    are read off the meta's groups vx and C and the edge records on variable
    vertices that lead the edge list; the comparison with the build then
    holds every record and group to that reading."""
    with _malformed("step-1 weighted_graph"):
        _expect(doc, "weighted_graph")
        meta, vertices, edges = doc["meta"], doc["vertices"], doc["edges"]
        var_of = {v: i for i, v in enumerate(meta["groups"]["vx"], start=1)}
        clauses = {v: [] for v in meta["groups"]["C"]}
        for rec in itertools.takewhile(lambda rec: rec["u"] in var_of, edges):
            if rec["v"] in clauses:
                clauses[rec["v"]].append(var_of[rec["u"]])
        f = NaeFormula(len(var_of), tuple(tuple(sorted(vs)) for vs in clauses.values()))
        build = build_H(f, constants_from_doc(meta["constants"]), max_vertices=len(vertices))
        if not (_is_graph(doc, build.graph, scale, _GRAPH_KEYS | {"meta"})
                and meta == _hbuild_meta(build) and _typed(meta)):
            raise ValidationError("step-1 document is not the build of the formula its "
                                  "clause vertices encode")
        return build


# -- step-2 partitioned graphs ----------------------------------------------

def _part_rows(gs: PartitionedGraph):
    owners = sorted(gs.part_range)
    starts, ends = zip(*map(gs.part_range.__getitem__, owners)) if owners else ((), ())
    return zip(owners, map(sub, ends, starts), starts)


def _block_rows(gs: PartitionedGraph):
    pairs = gs.block_pairs
    return zip(gs.block_sizes(), gs.block_start, map(itemgetter(0), pairs),
               map(itemgetter(1), pairs))


def _explicit_edge_rows(graph):
    """(kind, x, y) of every edge of a step-2 or step-3 graph, read off its
    adjacency oracle, if it is small enough to list, else None.  A step-2
    graph's edge count is arithmetic on its table, so it is checked first."""
    if graph.n > EXPLICIT_EDGE_VERTEX_LIMIT or (
            isinstance(graph, PartitionedGraph)
            and graph.num_matching_edges() + graph.num_dummy_edges() > EXPLICIT_EDGE_LIMIT):
        return None
    rows = [(kind, x, y) for x in range(graph.n) for y in range(x + 1, graph.n)
            if (kind := graph.adjacent(x, y))]
    return rows if len(rows) <= EXPLICIT_EDGE_LIMIT else None


def partitioned_text(gs: PartitionedGraph, base_meta=None, base=None) -> str:
    """The canonical text of the step-2 document of gs.  Its base is the text
    of the document of H with its weights times gs.scale: base if given (as
    weighted_graph_text or hbuild_text writes it), else written here."""
    if base is None:
        base = weighted_graph_text(gs.H, base_meta, gs.scale)
    rows = _explicit_edge_rows(gs)
    edges = "" if rows is None else f',"edges":[{_records(_KIND_EDGE, rows)}]'
    return (f'{{"base":{base[:-1]},"blocks":[{_records(_BLOCK, _block_rows(gs))}],'
            f'"edge_rule":"blocks-v1"{edges},"format_version":{FORMAT_VERSION},'
            f'"kind":"partitioned_graph","num_vertices":{gs.n},'
            f'"parts":[{_records(_PART, _part_rows(gs))}]}}\n')


def partitioned_doc(gs: PartitionedGraph, base_meta=None):
    return json.loads(partitioned_text(gs, base_meta))


def partitioned_from_doc(doc, scale=1, c=None) -> PartitionedGraph:
    """The (G, S) of the base graph H, if the document is exactly its.  Given
    constants c, it is scaled as step 3 scales it, scale (the factor on the
    base's weights) must be step 3's factor and a step-1 base must be built at c."""
    with _malformed("partitioned_graph"):
        _expect(doc, "partitioned_graph")
        base = doc["base"]
        gs = PartitionedGraph(weighted_graph_from_doc(base, scale))
        if c is not None:
            check_base_constants(base.get("meta"), c)
            gs, factor = ensure_divisible(gs, c)
            if factor != scale:
                raise ValidationError(f"weight_scale {scale} is not the factor step 3 picks for H")
        rows = _explicit_edge_rows(gs)
        keys = {"format_version", "kind", "base", "num_vertices", "parts", "blocks", "edge_rule"}
        # a step-1 base was compared record by record when read
        if not (("meta" in base or _is_graph(base, gs.H, scale))
                and doc.keys() == (keys if rows is None else keys | {"edges"})
                and doc["edge_rule"] == "blocks-v1"
                and type(doc["num_vertices"]) is int and doc["num_vertices"] == gs.n
                and _same_records(doc["parts"], _PART, _part_rows(gs), len(gs.part_range))
                and _same_records(doc["blocks"], _BLOCK, _block_rows(gs), len(gs.block_pairs))
                and (rows is None or _same_records(doc["edges"], _KIND_EDGE, rows, len(rows)))):
            raise ValidationError("step-2 document is not the rebuild of its base graph")
        return gs


# -- step-3 gadget graphs ----------------------------------------------------

def _gadget_rows(star: Gstar):
    """(2b·start(S(u)), b, u) per owner u: where its gadget starts, its copies."""
    owners = sorted(star.GS.part_range)
    starts = map(itemgetter(0), map(star.GS.part_range.__getitem__, owners))
    return zip(map(star.span.__mul__, starts), itertools.repeat(star.constants.b), owners)


def gstar_text(star: Gstar, base_meta=None, weight_scale: int = 1, base=None) -> str:
    """The canonical text of the step-3 document of star.  base, if given, is
    the text of the unscaled base graph's document: its vertex and meta text
    are kept and only its edges are written again, times the scale of star's
    (G, S)."""
    gs = star.GS
    if base is not None:
        base = _edges_text(gs.H, gs.scale) + base[base.index(_EDGES_END):]
    rows = _explicit_edge_rows(star)
    edges = "" if rows is None else f',"edges":[{_records(_KIND_EDGE, rows)}]'
    return (f'{{"base":{partitioned_text(gs, base_meta, base)[:-1]},'
            f'"constants":{_json(_constants_doc(star.constants))}{edges},'
            f'"format_version":{GADGET_FORMAT_VERSION},'
            f'"gadgets":[{_records(_GADGET, _gadget_rows(star))}],"kind":"gadget_graph",'
            f'"num_vertices":{star.n},"weight_scale":{weight_scale}}}\n')


def gstar_doc(star: Gstar, base_meta=None, weight_scale: int = 1):
    return json.loads(gstar_text(star, base_meta, weight_scale))


def gstar_from_doc(doc) -> Gstar:
    with _malformed("gadget_graph"):
        _expect(doc, "gadget_graph", GADGET_FORMAT_VERSION)
        c, scale = constants_from_doc(doc["constants"]), doc["weight_scale"]
        if type(scale) is not int or scale < 1:
            raise ValidationError(f"weight_scale {scale!r} is not a positive integer")
        star = build_Gstar(partitioned_from_doc(doc["base"], scale, c), c)
        rows = _explicit_edge_rows(star)
        keys = {"format_version", "kind", "base", "constants", "weight_scale", "num_vertices",
                "gadgets"}
        if not (doc.keys() == (keys if rows is None else keys | {"edges"})
                and doc["constants"] == _constants_doc(c) and _typed(doc["constants"])
                and type(doc["num_vertices"]) is int and doc["num_vertices"] == star.n
                and _same_records(doc["gadgets"], _GADGET, _gadget_rows(star), star.GS.H.n)
                and (rows is None or _same_records(doc["edges"], _KIND_EDGE, rows, len(rows)))):
            raise ValidationError("step-3 document is not the rebuild of its base graph")
        return star


# -- witnesses ----------------------------------------------------------------

def order_doc(order):
    return {"format_version": FORMAT_VERSION, "kind": "order",
            "sequence": list(order)}


def order_from_doc(doc):
    _expect(doc, "order")
    sequence = doc.get("sequence")
    if not isinstance(sequence, list) or not all(type(v) is int for v in sequence):
        raise ValidationError('an order document holds an integer list "sequence"')
    return list(sequence)


def _tree_doc(kind, tree, key, pairs, **flags):
    return {"format_version": FORMAT_VERSION, "kind": kind, "nodes": sorted(tree.tree_adj),
            "edges": sorted([x, y] for x, y in tree.edges()),
            key: sorted(map(list, pairs.items())), **flags}


def _tree_from_doc(doc, kind, key, node_at, flag=None):
    """Validated adjacency and placement dict of a tree document.

    `key` holds [a, b] integer pairs with the tree node at index `node_at`;
    `flag` names a required boolean field.
    """
    with _malformed(kind):
        _expect(doc, kind)
        nodes, edges, pairs = doc["nodes"], doc["edges"], doc[key]
        if not (all(type(x) is int for x in nodes)
                and all(len(p) == 2 and type(p[0]) is type(p[1]) is int for p in edges + pairs)
                and (flag is None or type(doc[flag]) is bool)):
            raise ValidationError(f"malformed {kind} document")
    adj = {x: [] for x in nodes}
    if (len(adj) != len(nodes) or len(dict(pairs)) != len(pairs)
            or any(x not in adj or y not in adj for x, y in edges)
            or any(p[node_at] not in adj for p in pairs)):
        raise ValidationError(f"{kind} document repeats a key or names an unlisted node")
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    return adj, dict(pairs)


def tree_mapping_doc(m: TreeMapping):
    return _tree_doc("tree_mapping", m, "parts", m.part_at, is_path=m.is_path)


def tree_mapping_from_doc(doc) -> TreeMapping:
    adj, part_at = _tree_from_doc(doc, "tree_mapping", "parts", 0, "is_path")
    return TreeMapping(tree_adj=adj, part_at=part_at, is_path=doc["is_path"])


def tree_layout_doc(layout: TreeLayout):
    return _tree_doc("tree_layout", layout, "leaves", layout.leaf_vertex, linear=layout.linear)


def tree_layout_from_doc(doc) -> TreeLayout:
    adj, leaf_vertex = _tree_from_doc(doc, "tree_layout", "leaves", 0, "linear")
    return TreeLayout(tree_adj=adj, leaf_vertex=leaf_vertex, linear=doc["linear"])


def hybrid_tree_doc(ht: Tree):
    return _tree_doc("hybrid_tree", ht, "placement", ht.placement)


def hybrid_tree_from_doc(doc) -> Tree:
    return Tree(*_tree_from_doc(doc, "hybrid_tree", "placement", 1))
