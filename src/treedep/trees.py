"""Directed rooted trees: navigation, separation and level-order traversal.

Nodes are dense integers ``0..d`` with the root fixed at ``0``.  Arbitrary
external labels are remapped at the I/O boundary by :func:`relabel`, which
returns the dense tree together with the label of each dense node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable


class TreeError(ValueError):
    """Raised for malformed trees or invalid node queries."""


class DirectedTree:
    """A rooted arborescence on nodes ``0..d`` (root = 0).

    Every node except the root has exactly one parent and is reachable from
    the root by a unique directed path.  Instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        if node_count < 1:
            raise TreeError("node_count must be >= 1")
        edge_list = [(int(i), int(j)) for i, j in edges]
        # before any list of node_count entries is built
        if len(edge_list) != node_count - 1:
            raise TreeError(f"a tree on {node_count} nodes has {node_count - 1} edges, "
                            f"got {len(edge_list)}")
        if len(set(edge_list)) != len(edge_list):
            raise TreeError("duplicate edges")
        parent = [-1] * node_count
        children: list[list[int]] = [[] for _ in range(node_count)]
        for i, j in edge_list:
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise TreeError(f"edge ({i},{j}) references unknown node label")
            if i == j:
                raise TreeError(f"self-loop at node {i}")
            if j == 0:
                raise TreeError("root 0 cannot have a parent")
            if parent[j] != -1:
                raise TreeError(f"node {j} has more than one parent")
            parent[j] = i
            children[i].append(j)
        depth = [-1] * node_count
        depth[0] = 0
        stack = [0]
        seen = 1
        while stack:
            i = stack.pop()
            for c in children[i]:
                depth[c] = depth[i] + 1
                seen += 1
                stack.append(c)
        if seen != node_count:
            raise TreeError("tree is not connected from the root")

        self.node_count = node_count
        self.edges = frozenset(edge_list)
        self._parent = tuple(parent)
        self._children = tuple(frozenset(c) for c in children)
        self._depth = tuple(depth)

    # -- basic queries ----------------------------------------------------

    def _check(self, i: int) -> int:
        if not (0 <= i < self.node_count):
            raise TreeError(f"unknown node label {i}")
        return i

    def parent(self, i: int) -> int | None:
        """The unique parent of ``i``; ``None`` iff ``i`` is the root."""
        self._check(i)
        return None if i == 0 else self._parent[i]

    def children(self, i: int) -> frozenset[int]:
        return self._children[self._check(i)]

    def descendants(self, i: int) -> frozenset[int]:
        """All nodes strictly below ``i`` (``i`` itself excluded)."""
        self._check(i)
        out: set[int] = set()
        stack = list(self._children[i])
        while stack:
            c = stack.pop()
            out.add(c)
            stack.extend(self._children[c])
        return frozenset(out)

    def degree(self, i: int) -> int:
        self._check(i)
        return len(self._children[i]) + (0 if i == 0 else 1)

    def leaves(self) -> frozenset[int]:
        """Non-root nodes of degree one."""
        return frozenset(
            i for i in range(1, self.node_count) if self.degree(i) == 1
        )

    def depth(self, i: int) -> int:
        """Edge distance from the root (root has depth 0)."""
        return self._depth[self._check(i)]

    # -- paths and separation ---------------------------------------------

    def _root_chain(self, i: int) -> list[int]:
        chain = [i]
        while i != 0:
            i = self._parent[i]
            chain.append(i)
        return chain

    def path_between(self, i: int, j: int) -> list[int]:
        """Interior of the unique undirected path from ``i`` to ``j``.

        The endpoints themselves are excluded; use :meth:`path_inclusive`
        for the closed path.
        """
        self._check(i)
        self._check(j)
        if i == j:
            raise TreeError("path endpoints must differ")
        up_i = self._root_chain(i)
        up_j = self._root_chain(j)
        on_j = set(up_j)
        lca = next(n for n in up_i if n in on_j)
        left = up_i[: up_i.index(lca)]
        right = up_j[: up_j.index(lca)]
        full = left + [lca] + list(reversed(right))
        return full[1:-1]

    def path_inclusive(self, i: int, j: int) -> list[int]:
        """The closed path ``[i, ..., j]`` including both endpoints."""
        return [i] + self.path_between(i, j) + [j]

    def separates(self, i: int, a_set: Iterable[int], b_set: Iterable[int]) -> bool:
        """True iff every inclusive path between ``a_set`` and ``b_set`` contains ``i``."""
        a = {self._check(x) for x in a_set}
        b = {self._check(x) for x in b_set}
        self._check(i)
        if a & b:
            raise TreeError("separation sets overlap")
        if i in a or i in b:
            raise TreeError("separator must lie outside both sets")
        for x in a:
            for y in b:
                if x == y or i not in self.path_inclusive(x, y):
                    return False
        return True

    def level_order(self) -> tuple[int, ...]:
        """Nodes sorted by depth, ascending label within each level."""
        return tuple(sorted(range(self.node_count), key=lambda i: (self._depth[i], i)))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectedTree)
            and self.node_count == other.node_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.node_count, self.edges))

    def __repr__(self) -> str:
        return f"DirectedTree({self.node_count}, {sorted(self.edges)})"


def make_chain(d: int) -> DirectedTree:
    """Chain 0 -> 1 -> ... -> d."""
    if d < 1:
        raise TreeError("chain length must be >= 1")
    return DirectedTree(d + 1, [(i, i + 1) for i in range(d)])


def make_star(d: int) -> DirectedTree:
    """Star with center 0 and leaves 1..d."""
    if d < 1:
        raise TreeError("star size must be >= 1")
    return DirectedTree(d + 1, [(0, i) for i in range(1, d + 1)])


def make_hmm_tree(n: int) -> DirectedTree:
    """Hidden-chain-with-observations tree on 2n+2 nodes.

    Even nodes ``2k`` form the hidden chain, odd nodes ``2k+1`` hang off
    their hidden node: edges are ``(2k, 2k+1)`` and ``(2k, 2k+2)``.
    """
    if n < 0:
        raise TreeError("n must be >= 0")
    edges = []
    for k in range(n + 1):
        edges.append((2 * k, 2 * k + 1))
        if k < n:
            edges.append((2 * k, 2 * k + 2))
    return DirectedTree(2 * n + 2, edges)


@dataclass(frozen=True)
class TheoremQuery:
    """A root-to-leaf path plus a distinguished root child.

    ``path`` starts at a child of the root and follows tree edges; it may be
    truncated before reaching a leaf.  ``k_star`` is a child of the root and
    must lie off the path whenever the root has two or more children.
    """

    path: tuple[int, ...]
    k_star: int

    def members(self) -> frozenset[int]:
        return frozenset(self.path)


def validate_query(tree: DirectedTree, query: TheoremQuery) -> None:
    """Raise :class:`TreeError` unless ``query`` is valid for ``tree``."""
    if not query.path:
        raise TreeError("query path must be nonempty")
    if tree.parent(query.path[0]) != 0:
        raise TreeError("query path must start at a child of the root")
    for a, b in zip(query.path, query.path[1:]):
        if (a, b) not in tree.edges:
            raise TreeError(f"query path step ({a},{b}) is not a tree edge")
    if tree.parent(query.k_star) != 0:
        raise TreeError("k_star must be a child of the root")
    if len(tree.children(0)) >= 2 and query.k_star in query.path:
        raise TreeError("k_star must avoid the path when the root has degree >= 2")


def default_query(tree: DirectedTree) -> TheoremQuery:
    """A canonical query: smallest-label path to a leaf, smallest off-path k*."""
    if tree.node_count < 2:
        raise TreeError("tree needs at least one edge")
    path = [min(tree.children(0))]
    while tree.children(path[-1]):
        path.append(min(tree.children(path[-1])))
    root_children = sorted(tree.children(0))
    off_path = [c for c in root_children if c != path[0]]
    k_star = off_path[0] if off_path else root_children[0]
    return TheoremQuery(tuple(path), k_star)


def relabel(edges: Iterable[tuple[object, object]],
            root=None) -> tuple[DirectedTree, tuple]:
    """Build a dense-labeled tree from edges over arbitrary hashable labels.

    The root defaults to the unique label that never appears as a child.
    Non-root labels are assigned dense ids 1..d in ascending label order.
    Returns ``(tree, labels)``, where ``labels[k]`` is the external label of
    dense node ``k``.
    """
    edge_list = list(edges)
    heads = {i for i, _ in edge_list}
    tails = {j for _, j in edge_list}
    if root is None:
        candidates = heads - tails
        if len(candidates) != 1:
            raise TreeError("cannot infer a unique root; pass root= explicitly")
        root = candidates.pop()
    rest = sorted((heads | tails) - {root})
    labels = [root] + list(rest)
    index = {lab: k for k, lab in enumerate(labels)}
    dense_edges = [(index[i], index[j]) for i, j in edge_list]
    return DirectedTree(len(labels), dense_edges), tuple(labels)


# -- text / JSON interchange ----------------------------------------------


def parse_tree_text(text: str, root=None) -> tuple[DirectedTree, tuple]:
    """Parse the one-edge-per-line format ``"i j"``; '#' starts a comment.

    Returns ``(tree, labels)`` as :func:`relabel` does.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TreeError(f"line {lineno}: expected two labels, got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise TreeError("no edges found")
    return relabel(edges, root=root)


def node_number(x) -> int:
    """``x`` if it is a node number, an ``int`` but not a ``bool``; else ``TreeError``.

    A float is refused, not truncated: ``3.9`` is not node 3, and JSON's
    ``Infinity`` and ``NaN`` are floats too.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TreeError(f"a node number is an integer, got {x!r:.40}")


def parse_tree_json(obj) -> DirectedTree:
    """Parse ``{"nodes": d+1, "edges": [[i, j], ...]}`` (dense labels)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        edges = [(node_number(i), node_number(j)) for i, j in obj["edges"]]
        nodes = node_number(obj["nodes"])
    except (TypeError, ValueError, KeyError):
        raise TreeError('a tree is {"nodes": <node count>, "edges": [[i, j], ...]} '
                        'with integer node labels') from None
    return DirectedTree(nodes, edges)


def tree_to_json(tree: DirectedTree) -> dict:
    return {"nodes": tree.node_count, "edges": sorted(tree.edges)}
