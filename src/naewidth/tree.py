"""The one tree core: a free tree plus a placement of items onto its nodes.

Balancing trees (V(H) placed bijectively) and hybrid trees (V(G*)) are plain
Trees; tree mappings and tree layouts add one invariant each.  Edges are
listed as (x, y) with x < y in adjacency insertion order, and sides() yields
every edge together with the items placed on y's side, in one rooted pass.
"""

from __future__ import annotations

from .errors import ValidationError


class Tree:
    """Free tree (node -> [node] adjacency) plus an item -> node placement."""

    def __init__(self, tree_adj: dict, placement: dict):
        self.tree_adj = tree_adj
        self.placement = placement
        if not tree_adj:
            raise ValidationError("empty tree")
        degree_sum = sum(map(len, tree_adj.values()))
        if len(self._parents()) != len(tree_adj) or degree_sum != 2 * (len(tree_adj) - 1):
            raise ValidationError("tree is not connected and acyclic")
        for node in placement.values():
            if node not in tree_adj:
                raise ValidationError(f"item placed on unknown node {node!r}")

    def _parents(self):
        """{node: parent} of the nodes reached from the first one, in BFS order."""
        adj = self.tree_adj
        parent = {next(iter(adj)): None}
        order = list(parent)
        for x in order:
            for y in adj[x]:
                if y not in parent:
                    if y not in adj:
                        raise ValidationError(f"tree edge names unknown node {y!r}")
                    parent[y] = x
                    order.append(y)
        return parent

    def edges(self):
        """Tree edges (x, y) with x < y, in adjacency insertion order."""
        for x, nbrs in self.tree_adj.items():
            for y in nbrs:
                if x < y:
                    yield x, y

    def sides(self):
        """Yield ((x, y), frozenset of items on y's side) in edges() order.

        One pass from the first node collects the items below every node; the
        far side of an edge is the set below y when x is y's parent, and all
        items minus the set below x otherwise.
        """
        parent = self._parents()
        below = {x: set() for x in parent}
        for item, node in self.placement.items():
            below[node].add(item)
        for x in reversed(parent):
            if parent[x] is not None:
                below[parent[x]] |= below[x]
        everything = below[next(iter(parent))]
        for x, y in self.edges():
            yield (x, y), frozenset(below[y] if parent[y] == x else everything - below[x])

    def side(self, x, y):
        """Items on y's side of the tree edge (x, y), in either orientation."""
        for edge, far in self.sides():
            if edge == (x, y):
                return far
            if edge == (y, x):
                return frozenset(self.placement) - far
        raise ValidationError(f"{(x, y)} is not a tree edge")

    def subdivide(self, x, y, new):
        """Copy of the adjacency with node `new` inserted on the edge (x, y)."""
        adj = {k: list(v) for k, v in self.tree_adj.items()}
        adj[x].remove(y)
        adj[y].remove(x)
        adj[new] = [x, y]
        adj[x].append(new)
        adj[y].append(new)
        return adj


def path(items) -> Tree:
    """Path on nodes 0..n-1 with the i-th item placed on node i."""
    items = list(items)
    adj = {i: [] for i in range(len(items))}
    for i in range(len(items) - 1):
        adj[i].append(i + 1)
        adj[i + 1].append(i)
    return Tree(adj, {item: i for i, item in enumerate(items)})
