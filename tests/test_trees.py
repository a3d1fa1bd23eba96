import json
import random

import pytest

from treedep.trees import (
    DirectedTree,
    TheoremQuery,
    TreeError,
    default_query,
    make_chain,
    make_hmm_tree,
    make_star,
    node_number,
    parse_tree_json,
    parse_tree_text,
    relabel,
    tree_to_json,
    validate_query,
)

BRANCHY_EDGES = [(1, 6), (1, 3), (6, 5), (6, 7), (3, 2), (3, 4), (3, 8)]


@pytest.fixture
def branchy():
    # two-level tree rooted at 1 with external labels 1..8: the dense tree,
    # the label of each dense node and the dense node of each label
    tree, labels = relabel(BRANCHY_EDGES)
    return tree, labels, {lab: k for k, lab in enumerate(labels)}


def random_tree(rng: random.Random, n: int) -> DirectedTree:
    edges = [(rng.randrange(0, i), i) for i in range(1, n)]
    return DirectedTree(n, edges)


def test_parent(branchy):
    tree, labels, node = branchy
    assert labels[tree.parent(node[5])] == 6
    assert tree.parent(node[1]) is None
    chain = make_chain(2)
    assert chain.parent(2) == 1
    assert chain.parent(0) is None


def test_children_descendants_leaves(branchy):
    tree, labels, node = branchy
    assert {labels[c] for c in tree.children(node[3])} == {2, 4, 8}
    assert {labels[c] for c in tree.leaves()} == {5, 7, 2, 4, 8}
    star = make_star(4)
    assert star.descendants(0) == {1, 2, 3, 4}
    assert star.leaves() == {1, 2, 3, 4}


def test_unknown_node_rejected():
    chain = make_chain(2)
    with pytest.raises(TreeError):
        chain.parent(5)
    with pytest.raises(TreeError):
        chain.children(-1)


def test_path_between(branchy):
    tree, labels, node = branchy
    assert [labels[k] for k in tree.path_between(node[5], node[2])] == [6, 1, 3]
    chain = make_chain(3)
    assert chain.path_between(0, 3) == [1, 2]
    assert chain.path_between(1, 2) == []
    with pytest.raises(TreeError):
        chain.path_between(2, 2)


def test_path_endpoint_variants():
    chain = make_chain(3)
    assert chain.path_inclusive(0, 3) == [0, 1, 2, 3]


def test_separates(branchy):
    chain = make_chain(2)
    assert chain.separates(1, [0], [2])
    star = make_star(3)
    assert star.separates(0, [1], [2, 3])
    tree, _, node = branchy
    assert tree.separates(node[6], [node[1]], [node[3]]) is False
    with pytest.raises(TreeError):
        chain.separates(1, [0, 2], [2])
    with pytest.raises(TreeError):
        chain.separates(1, [1], [2])


def test_level_order(branchy):
    tree, labels, _ = branchy
    assert tuple(labels[k] for k in tree.level_order()) == (1, 3, 6, 2, 4, 5, 7, 8)
    assert make_chain(4).level_order() == (0, 1, 2, 3, 4)
    assert make_star(4).level_order() == (0, 1, 2, 3, 4)


def test_level_order_predicate_random():
    rng = random.Random(7)
    for _ in range(50):
        t = random_tree(rng, rng.randint(2, 25))
        order = t.level_order()
        depths = [t.depth(i) for i in order]
        assert depths == sorted(depths)
        assert sorted(order) == list(range(t.node_count))


def test_constructors():
    assert make_hmm_tree(1).edges == {(0, 1), (0, 2), (2, 3)}
    assert make_chain(2).edges == {(0, 1), (1, 2)}
    assert make_star(3).edges == {(0, 1), (0, 2), (0, 3)}
    with pytest.raises(TreeError):
        make_chain(0)
    with pytest.raises(TreeError):
        make_star(-1)


def test_invalid_trees_rejected():
    with pytest.raises(TreeError):
        DirectedTree(3, [(0, 1), (0, 1), (1, 2)])  # duplicate
    with pytest.raises(TreeError):
        DirectedTree(3, [(0, 1), (1, 1)])  # self loop
    with pytest.raises(TreeError):
        DirectedTree(3, [(0, 1), (2, 1)])  # two parents
    with pytest.raises(TreeError):
        DirectedTree(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(TreeError):
        DirectedTree(2, [(1, 0)])  # root with a parent


def test_duality_and_partition_random():
    rng = random.Random(13)
    for _ in range(30):
        t = random_tree(rng, rng.randint(2, 20))
        for i in range(t.node_count):
            for c in t.children(i):
                assert t.parent(c) == i
            desc = t.descendants(i)
            union = set()
            for c in t.children(i):
                block = {c} | t.descendants(c)
                assert not (union & block)
                union |= block
            assert union == desc
        for i in range(1, t.node_count):
            path = t.path_inclusive(0, i)
            assert len(path) - 1 == t.depth(i)


def test_separation_matches_path_membership():
    rng = random.Random(99)
    for _ in range(20):
        t = random_tree(rng, rng.randint(3, 12))
        nodes = list(range(t.node_count))
        for _ in range(20):
            i, a, b = rng.sample(nodes, 3)
            assert t.separates(i, [a], [b]) == (i in t.path_inclusive(a, b))


def test_text_and_json_io(branchy, tmp_path):
    text = "# branchy example\n" + "\n".join(f"{i} {j}" for i, j in BRANCHY_EDGES)
    assert parse_tree_text(text) == branchy[:2]

    blob = tree_to_json(make_chain(2))
    assert parse_tree_json(blob) == make_chain(2)
    assert parse_tree_json(json.dumps(blob)) == make_chain(2)

    with pytest.raises(TreeError):
        parse_tree_text("0 1 2")
    with pytest.raises(TreeError):
        parse_tree_text("# nothing here")


def test_node_numbers_are_ints_and_the_count_is_checked_first():
    assert node_number(7) == 7
    for bad in (3.9, 2.0, True, float("inf"), float("nan"), "1", None):
        with pytest.raises(TreeError, match="integer"):
            node_number(bad)
    for nodes in (3.0, float("inf"), False):
        with pytest.raises(TreeError, match="integer node labels"):
            parse_tree_json({"nodes": nodes, "edges": [[0, 1], [1, 2]]})
    # refused before a list of node_count entries is built
    with pytest.raises(TreeError, match="edges, got 2"):
        DirectedTree(10**30, [(0, 1), (1, 2)])


def test_queries():
    t = make_star(3)
    validate_query(t, TheoremQuery((2,), 1))
    with pytest.raises(TreeError):
        validate_query(t, TheoremQuery((2,), 2))  # k* on the path, deg(0) >= 2
    chain = make_chain(3)
    q = default_query(chain)
    assert q.path == (1, 2, 3)
    assert q.k_star == 1
    validate_query(chain, q)
    branchy, _ = relabel(BRANCHY_EDGES)
    q2 = default_query(branchy)
    validate_query(branchy, q2)
    with pytest.raises(TreeError):
        validate_query(chain, TheoremQuery((2, 3), 1))  # must start at root child
