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
    parse_tree_json,
    parse_tree_text,
    relabel,
    tree_to_json,
    validate_query,
)

BRANCHY_EDGES = [(1, 6), (1, 3), (6, 5), (6, 7), (3, 2), (3, 4), (3, 8)]


@pytest.fixture
def branchy():
    # two-level tree rooted at 1 with external labels 1..8
    return relabel(BRANCHY_EDGES)


def random_tree(rng: random.Random, n: int) -> DirectedTree:
    edges = [(rng.randrange(0, i), i) for i in range(1, n)]
    return DirectedTree(n, edges)


def test_parent(branchy):
    assert branchy.parent(5) == 6
    assert branchy.parent(1) is None
    chain = make_chain(2)
    assert chain.parent(2) == 1
    assert chain.parent(0) is None


def test_children_descendants_leaves(branchy):
    assert branchy.children(3) == {2, 4, 8}
    assert branchy.leaves() == {5, 7, 2, 4, 8}
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
    assert branchy.path_between(5, 2) == [6, 1, 3]
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
    assert branchy.separates(6, [1], [3]) is False
    with pytest.raises(TreeError):
        chain.separates(1, [0, 2], [2])
    with pytest.raises(TreeError):
        chain.separates(1, [1], [2])


def test_level_order(branchy):
    assert branchy.level_order() == (1, 3, 6, 2, 4, 5, 7, 8)
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
    parsed = parse_tree_text(text)
    assert parsed.tree == branchy.tree
    assert parsed.labels == branchy.labels

    blob = tree_to_json(make_chain(2))
    again = parse_tree_json(blob)
    assert again.tree == make_chain(2)

    with pytest.raises(TreeError):
        parse_tree_text("0 1 2")
    with pytest.raises(TreeError):
        parse_tree_text("# nothing here")


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
    branchy = relabel(BRANCHY_EDGES).tree
    q2 = default_query(branchy)
    validate_query(branchy, q2)
    with pytest.raises(TreeError):
        validate_query(chain, TheoremQuery((2, 3), 1))  # must start at root child
