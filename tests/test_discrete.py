import itertools
import pickle
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from treedep.discrete import (
    MAX_CELLS,
    DiscreteBivariate,
    DiscreteError,
    DiscreteJoint,
    DiscreteTreeSpec,
    markov_joint,
    parse_matrix_text,
)
from treedep.counterexamples import _chain_extension_laws
from treedep.trees import DirectedTree, make_chain, make_star

from conftest import random_bivariate, random_coupling


LOPSIDED = DiscreteBivariate.from_rows(  # rows sum to (1/2, 1/4, 1/4)
    [[F(1, 2), 0, 0], [0, F(1, 4), 0], [0, 0, F(1, 4)]]
)


def uniform_product_joint():
    third = F(1, 3)
    biv = DiscreteBivariate.from_rows([[third * third] * 3] * 3)
    return markov_joint(make_chain(1), {(0, 1): biv})


def test_bivariate_validation():
    with pytest.raises(DiscreteError):
        DiscreteBivariate.from_rows([[F(1, 2)], [F(1, 4)]])  # mass 3/4
    with pytest.raises(DiscreteError):
        DiscreteBivariate.from_rows([[F(3, 2), F(-1, 2)]])  # negative
    with pytest.raises(DiscreteError):
        DiscreteBivariate.from_rows([[F(1)]], row_values=(1,), col_values=(2, 3))


def test_chain_marginals_uniform(chain3_matrices):
    a01, a12, _, _ = chain3_matrices
    joint = markov_joint(make_chain(2), {(0, 1): a01, (1, 2): a12})
    for n in range(3):
        assert joint.marginal(n) == (F(1, 3),) * 3


def test_star_marginals_uniform(star4_matrices):
    a01, a02, _, _ = star4_matrices
    joint = markov_joint(make_star(2), {(0, 1): a01, (0, 2): a02})
    for n in range(3):
        assert joint.marginal(n) == (F(1, 4),) * 4


def test_product_edges_give_product_joint():
    joint = uniform_product_joint()
    for idx, w in joint.mass.items():
        assert w == F(1, 9)
    assert len(joint.mass) == 9


def test_orthant_probabilities(chain3_matrices, star4_matrices):
    a01, a12, b01, b12 = chain3_matrices
    ch = make_chain(2)
    jx = markov_joint(ch, {(0, 1): a01, (1, 2): a12})
    jy = markov_joint(ch, {(0, 1): b01, (1, 2): b12})
    assert jx.orthant_prob((1, 1, 1)) == F(112, 300)
    assert jy.orthant_prob((1, 1, 1)) == F(111, 300)

    a01s, a02s, b01s, b02s = star4_matrices
    st = make_star(2)
    jxs = markov_joint(st, {(0, 1): a01s, (0, 2): a02s})
    jys = markov_joint(st, {(0, 1): b01s, (0, 2): b02s})
    assert jxs.orthant_prob((2, 2, 2)) == F(225, 400)
    assert jys.orthant_prob((2, 2, 2)) == F(224, 400)

    assert jx.orthant_prob((99, 99, 99)) == 1
    assert jx.orthant_prob((0, 0, 0), strict=True) == 0


def test_orthant_strict_flags_must_match_dims(chain3_matrices):
    a01, a12, _, _ = chain3_matrices
    joint = markov_joint(make_chain(2), {(0, 1): a01, (1, 2): a12})
    with pytest.raises(DiscreteError, match="strict flag"):
        joint.orthant_prob((1, 1, 1), strict=[True, False])
    with pytest.raises(DiscreteError, match="strict flag"):
        joint.orthant_prob((1, 1, 1), strict=[False, False, False, True])
    assert joint.orthant_prob((1, 1, 1), strict=[False] * 3) == F(112, 300)
    assert joint.orthant_prob((2, 2, 2), strict=(True, True, True)) == F(112, 300)


def test_orthant_monotone_in_thresholds(chain3_matrices):
    a01, a12, _, _ = chain3_matrices
    joint = markov_joint(make_chain(2), {(0, 1): a01, (1, 2): a12})
    grid = [-1, 0, 1, 2]
    for t in itertools.product(grid, repeat=3):
        for axis in range(3):
            bumped = list(t)
            bumped[axis] += 1
            assert joint.orthant_prob(t) <= joint.orthant_prob(tuple(bumped))


def test_edge_consistency_random_trees():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(2, 6)
        tree_edges = [(rng.randrange(0, i), i) for i in range(1, n)]
        from treedep.trees import DirectedTree

        tree = DirectedTree(n, tree_edges)
        # one shared marginal everywhere keeps the edge laws consistent
        size = rng.randint(2, 3)
        marg = [F(1, size)] * size
        dists = {}
        for e in tree_edges:
            from conftest import random_coupling

            dists[e] = random_coupling(rng, marg, marg)
        joint = markov_joint(tree, dists)
        for e in tree_edges:
            got = joint.bivariate(*e)
            assert got.weights == dists[e].weights


def test_markov_conditional_independence_exact(chain3_matrices, star4_matrices):
    a01, a12, _, _ = chain3_matrices
    joint = markov_joint(make_chain(2), {(0, 1): a01, (1, 2): a12})
    _assert_ci_given(joint, sep=1, a=0, b=2)
    a01s, a02s, _, _ = star4_matrices
    joint_s = markov_joint(make_star(2), {(0, 1): a01s, (0, 2): a02s})
    _assert_ci_given(joint_s, sep=0, a=1, b=2)


def test_markov_conditional_independence_random_trees():
    from treedep.trees import DirectedTree
    from conftest import random_coupling

    rng = random.Random(37)
    for _ in range(8):
        n = rng.randint(4, 6)
        edges = [(rng.randrange(0, i), i) for i in range(1, n)]
        tree = DirectedTree(n, edges)
        size = 3
        marg = [F(1, size)] * size
        joint = markov_joint(
            tree, {e: random_coupling(rng, marg, marg) for e in edges}
        )
        for sep in range(n):
            rest = [k for k in range(n) if k != sep]
            for a in rest:
                for b in rest:
                    if a < b and tree.separates(sep, [a], [b]):
                        _assert_ci_given(joint, sep=sep, a=a, b=b)


def _assert_ci_given(joint: DiscreteJoint, sep: int, a: int, b: int):
    k = len(joint.supports[sep])
    marg = joint.marginal(sep)
    for xi in range(k):
        if marg[xi] == 0:
            continue
        joint_ab = {}
        pa = {}
        pb = {}
        for idx, w in joint.mass.items():
            if idx[sep] != xi:
                continue
            joint_ab[(idx[a], idx[b])] = joint_ab.get((idx[a], idx[b]), F(0)) + w
            pa[idx[a]] = pa.get(idx[a], F(0)) + w
            pb[idx[b]] = pb.get(idx[b], F(0)) + w
        for (ia, ib), w in joint_ab.items():
            assert w * marg[xi] == pa[ia] * pb[ib]


def test_inconsistent_marginals_rejected(chain3_matrices):
    a01, _, _, _ = chain3_matrices
    with pytest.raises(DiscreteError):
        markov_joint(make_chain(2), {(0, 1): a01, (1, 2): LOPSIDED})
    with pytest.raises(DiscreteError):
        markov_joint(make_chain(2), {(0, 1): a01})  # missing edge


def test_comonotone_extension(star4_matrices):
    a01s, a02s, _, _ = star4_matrices
    joint = markov_joint(make_star(2), {(0, 1): a01s, (0, 2): a02s})
    ext = markov_joint(make_chain(5), _chain_extension_laws(a01s, a02s, 6))
    assert ext.dims == 6
    assert ext.orthant_prob((2,) * 6) == joint.orthant_prob((2, 2, 2))
    # interior repeats are perfectly coupled
    for idx in ext.mass:
        assert len({idx[i] for i in range(1, 5)}) == 1


def _shifted_support(biv: DiscreteBivariate) -> DiscreteBivariate:
    """Same weights, row support moved off 0..k-1."""
    return DiscreteBivariate(
        biv.weights, tuple(v + 1 for v in biv.row_values), biv.col_values
    )


def test_spec_rejects_marginal_mismatch_on_chain(chain3_matrices):
    a01, _, _, _ = chain3_matrices
    with pytest.raises(DiscreteError, match=r"edge \(1, 2\).*node 1"):
        DiscreteTreeSpec(make_chain(2), {(0, 1): a01, (1, 2): LOPSIDED})


def test_spec_rejects_support_mismatch_on_chain(chain3_matrices):
    a01, a12, _, _ = chain3_matrices
    with pytest.raises(DiscreteError, match=r"edge \(1, 2\).*node 1"):
        DiscreteTreeSpec(make_chain(2), {(0, 1): a01, (1, 2): _shifted_support(a12)})


def test_spec_rejects_star_root_edges_that_disagree(star4_matrices, chain3_matrices):
    a01, a02, _, _ = star4_matrices
    skewed = DiscreteBivariate.from_rows(  # root marginal (1/2, 1/6, 1/6, 1/6)
        [[F(1, 8)] * 4] + [[F(1, 24)] * 4] * 3
    )
    for bad in (skewed, _shifted_support(a02)):
        with pytest.raises(DiscreteError, match=r"edge \(0, 2\).*node 0"):
            DiscreteTreeSpec(make_star(2), {(0, 1): a01, (0, 2): bad})
    # a mismatch at the root is caught whichever edge is read first
    with pytest.raises(DiscreteError, match="node 0"):
        DiscreteTreeSpec(make_star(2), {(0, 2): skewed, (0, 1): a01})


def test_spec_rejects_wrong_edge_set(chain3_matrices):
    a01, a12, _, _ = chain3_matrices
    with pytest.raises(DiscreteError, match="exactly the tree edges"):
        DiscreteTreeSpec(make_chain(2), {(0, 1): a01})
    with pytest.raises(DiscreteError, match="exactly the tree edges"):
        DiscreteTreeSpec(make_chain(2), {(0, 1): a01, (0, 2): a12})


def _random_recursive_spec(rng: random.Random) -> DiscreteTreeSpec:
    """Random recursive tree with one random marginal per node (some zeros)."""
    n = rng.randint(2, 7)
    tree = DirectedTree(n, [(rng.randrange(0, i), i) for i in range(1, n)])
    margs = []
    for _ in range(n):
        raw = [rng.choice((0, 1, 2, 3, 4)) for _ in range(rng.randint(2, 3))]
        raw[rng.randrange(len(raw))] += 1
        margs.append([F(x, sum(raw)) for x in raw])
    return DiscreteTreeSpec(
        tree, {(i, j): random_coupling(rng, margs[i], margs[j]) for i, j in tree.edges}
    )


def test_markov_joint_factorizes_on_random_trees():
    rng = random.Random(53)
    reordered = 0
    for _ in range(60):
        spec = _random_recursive_spec(rng)
        tree = spec.tree
        reordered += tree.level_order() != tuple(range(tree.node_count))
        joint = markov_joint(tree, spec.edge_dists)
        for n, (values, marg) in enumerate(spec.node_laws):
            assert joint.supports[n] == values
            assert joint.marginal(n) == marg
        positive = 0
        for idx in itertools.product(*(range(len(v)) for v, _ in spec.node_laws)):
            w = spec.node_laws[0][1][idx[0]]
            for j in tree.level_order()[1:]:
                if w == 0:
                    break
                i = tree.parent(j)
                biv = spec.edge_dists[(i, j)]
                w *= biv.weights[idx[i]][idx[j]] / biv.row_marginal()[idx[i]]
            assert joint.mass.get(idx, F(0)) == w
            positive += w > 0
        assert len(joint.mass) == positive
    assert reordered >= 10


def _relabelled_spec(rng: random.Random) -> DiscreteTreeSpec:
    """Random recursive tree with non-root labels shuffled, so that parents may
    carry larger labels than their children and level order differs from
    node order; each node gets a random marginal (some zeros) on random
    sorted support values."""
    n = rng.randint(2, 7)
    label = [0] + rng.sample(range(1, n), n - 1)
    tree = DirectedTree(n, [(label[rng.randrange(0, i)], label[i]) for i in range(1, n)])
    laws = []
    for _ in range(n):
        raw = [rng.choice((0, 1, 2, 3, 4)) for _ in range(rng.randint(2, 3))]
        raw[rng.randrange(len(raw))] += 1
        values = tuple(sorted(rng.sample(range(-6, 7), len(raw))))
        laws.append((values, [F(x, sum(raw)) for x in raw]))
    dists = {}
    for i, j in tree.edges:
        w = random_coupling(rng, laws[i][1], laws[j][1]).weights
        dists[(i, j)] = DiscreteBivariate(w, laws[i][0], laws[j][0])
    return DiscreteTreeSpec(tree, dists)


def _enumerate(spec: DiscreteTreeSpec) -> dict:
    """Root marginal times one conditional per edge, over every grid cell."""
    tree, laws = spec.tree, spec.node_laws
    out = {}
    for idx in itertools.product(*(range(len(v)) for v, _ in laws)):
        w = laws[0][1][idx[0]]
        for i, j in tree.edges:
            parent_mass = laws[i][1][idx[i]]
            w = w * spec.edge_dists[(i, j)].weights[idx[i]][idx[j]] / parent_mass \
                if parent_mass else F(0)
        out[idx] = w
    return out


def _total(ref: dict, keep) -> F:
    return sum((w for idx, w in ref.items() if keep(idx)), F(0))


def test_table_queries_match_enumeration_on_relabelled_trees():
    rng = random.Random(71)
    parent_above = reordered = zero_states = 0
    for _ in range(60):
        spec = _relabelled_spec(rng)
        tree, laws = spec.tree, spec.node_laws
        d = tree.node_count
        parent_above += any(i > j for i, j in tree.edges)
        reordered += tree.level_order() != tuple(range(d))
        zero_states += any(w == 0 for _, m in laws for w in m)
        joint = markov_joint(tree, spec.edge_dists)
        ref = _enumerate(spec)
        assert dict(joint.mass) == {idx: w for idx, w in ref.items() if w > 0}
        assert joint.cell_count() == len(ref)

        for _ in range(4):
            t = [rng.choice(v) + rng.choice((-1, 0, F(1, 2))) for v, _ in laws]
            strict = [rng.random() < 0.5 for _ in range(d)]
            below = [
                lambda i, n=n: (laws[n][0][i] < t[n]) if strict[n] else (laws[n][0][i] <= t[n])
                for n in range(d)
            ]
            want = _total(ref, lambda idx: all(below[n](i) for n, i in enumerate(idx)))
            assert joint.orthant_prob(t, strict) == want
            want = _total(ref, lambda idx: all(laws[n][0][i] <= t[n] for n, i in enumerate(idx)))
            assert joint.orthant_prob(t) == want

        for i, j in itertools.product(range(d), repeat=2):
            want = [[F(0)] * len(laws[j][0]) for _ in laws[i][0]]
            for idx, w in ref.items():
                want[idx[i]][idx[j]] += w
            biv = joint.bivariate(i, j)
            assert biv.weights == tuple(map(tuple, want))
            assert (biv.row_values, biv.col_values) == (laws[i][0], laws[j][0])
            if i == j:
                assert joint.marginal(i) == tuple(want[k][k] for k in range(len(want)))
        prod = joint.product_of_marginals()
        for idx in ref:
            want = F(1)
            for n, i in enumerate(idx):
                want *= laws[n][1][i]
            assert prod.mass.get(idx, F(0)) == want
    assert parent_above >= 20 and reordered >= 20 and zero_states >= 20


def test_table_and_mapping_constructors_agree():
    supports = ((0, 1), (5, 6, 7))
    mass = {(0, 0): F(1, 6), (1, 2): F(1, 2), (0, 1): F(1, 3), (1, 1): F(0)}
    joint = DiscreteJoint(supports, mass)
    assert joint.den == 6
    assert joint.table.tolist() == [[1, 2, 0], [0, 0, 3]]
    assert dict(joint.mass) == {k: w for k, w in mass.items() if w}
    assert (1, 0) not in joint.mass and (2, 0) not in joint.mass
    assert (-1, -1) not in joint.mass and (0,) not in joint.mass


def test_joint_constructors_reject_malformed_masses():
    supports = ((0, 1), (0, 1))
    negative = {(0, 0): F(3, 4), (0, 1): F(-1, 4), (1, 0): F(1, 4), (1, 1): F(1, 4)}
    with pytest.raises(DiscreteError, match="masses must be nonnegative"):
        DiscreteJoint(supports, negative)
    with pytest.raises(DiscreteError, match="weights must be nonnegative"):
        DiscreteBivariate(((F(3, 4), F(-1, 4)), (F(1, 4), F(1, 4))), (0, 1), (0, 1))
    with pytest.raises(DiscreteError, match="total mass is 5/4, expected 1"):
        DiscreteJoint(supports, {(0, 0): F(1, 2), (1, 1): F(3, 4)})
    with pytest.raises(DiscreteError, match="index tuple arity mismatch"):
        DiscreteJoint(supports, {(0,): F(1)})
    with pytest.raises(DiscreteError, match="index tuple arity mismatch"):
        DiscreteJoint(supports, {(0, 0, 0): F(1)})
    with pytest.raises(DiscreteError, match="index out of support range"):
        DiscreteJoint(supports, {(0, 2): F(1)})
    with pytest.raises(DiscreteError, match="index out of support range"):
        DiscreteJoint(supports, {(-1, 0): F(1)})


@pytest.mark.parametrize("support", [(2, 1), (1, 1), (0, F(1, 2), F(1, 2), 1), ("a", 1)])
def test_supports_must_be_sorted_and_distinct(support):
    k = len(support)
    with pytest.raises(DiscreteError, match="sorted and distinct"):
        DiscreteJoint((support,), {(i,): F(1, k) for i in range(k)})
    with pytest.raises(DiscreteError, match="sorted and distinct"):
        DiscreteBivariate(((F(1, k),) * k,), (0,), support)
    with pytest.raises(DiscreteError, match="sorted and distinct"):
        DiscreteBivariate.from_rows([[F(1, k)]] * k, row_values=support)


def test_orthant_on_a_sorted_support():
    joint = DiscreteJoint(((1, 2),), {(0,): F(3, 4), (1,): F(1, 4)})
    assert joint.orthant_prob((1,)) == F(3, 4)


def test_bivariate_is_a_two_axis_joint(chain3_matrices):
    biv = DiscreteBivariate.from_rows([[F(1, 4), F(1, 4)], [0, F(1, 2)]], (1, 5), (-1, 0))
    assert isinstance(biv, DiscreteJoint)
    assert (biv.supports, biv.den, biv.table.tolist()) == (((1, 5), (-1, 0)), 4, [[1, 1], [0, 2]])
    assert biv.row_marginal() == biv.marginal(0) == (F(1, 2), F(1, 2))
    assert biv.col_marginal() == biv.marginal(1) == (F(1, 4), F(3, 4))
    flipped = biv.transpose()
    assert flipped.weights == tuple(zip(*biv.weights))
    assert (flipped.row_values, flipped.col_values) == ((-1, 0), (1, 5))
    assert flipped.transpose() == biv and not flipped.table.flags.writeable
    a01, a12, _, _ = chain3_matrices
    edge = markov_joint(make_chain(2), {(0, 1): a01, (1, 2): a12}).bivariate(1, 2)
    assert edge == a12
    for law in (flipped, biv.product_of_marginals(), pickle.loads(pickle.dumps(biv)), edge):
        assert type(law) is DiscreteBivariate
    assert pickle.loads(pickle.dumps(biv)) == biv
    with pytest.raises(TypeError):
        hash(biv)
    with pytest.raises(AttributeError):
        biv.den = 2


def test_joint_is_read_only():
    joint = uniform_product_joint()
    with pytest.raises(TypeError):
        joint.mass[(0, 0)] = F(1)
    with pytest.raises(ValueError):
        joint.table[0, 0] = 0
    with pytest.raises(AttributeError):
        joint.den = 1
    clone = pickle.loads(pickle.dumps(joint))
    assert clone == joint and not clone.table.flags.writeable


def test_cell_limit_refuses_large_grids_at_once():
    diagonal = DiscreteBivariate.from_rows(
        [[F(1, 4) if r == c else 0 for c in range(4)] for r in range(4)]
    )
    start = time.perf_counter()
    with pytest.raises(DiscreteError, match=f"{4**30} cells.*limit of {MAX_CELLS}"):
        markov_joint(make_chain(29), {(k, k + 1): diagonal for k in range(29)})
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DiscreteError, match=f"{2**21} cells"):
        DiscreteJoint(((0, 1),) * 21, {(0,) * 21: F(1)})
    assert MAX_CELLS >= 3**12


def test_3_to_the_12_chain_is_admitted():
    third = F(1, 3)
    uniform = DiscreteBivariate.from_rows([[third * third] * 3] * 3)
    joint = markov_joint(make_chain(11), {(k, k + 1): uniform for k in range(11)})
    assert joint.cell_count() == 3**12
    assert joint.orthant_prob((0,) * 12) == third**12
    assert joint.orthant_prob((1,) * 12, strict=[True] * 11 + [False]) == third**11 * 2 / 3


def test_node_index_errors_name_node_and_dimension(chain3_matrices):
    a01, a12, _, _ = chain3_matrices
    joint = markov_joint(make_chain(2), {(0, 1): a01, (1, 2): a12})
    with pytest.raises(DiscreteError, match="node 5.*dimension 3"):
        joint.bivariate(0, 5)
    with pytest.raises(DiscreteError, match="node -1.*dimension 3"):
        joint.bivariate(-1, 2)
    with pytest.raises(DiscreteError, match="node 3.*dimension 3"):
        joint.marginal(3)


def test_bivariate_of_a_node_with_itself_is_diagonal(chain3_matrices):
    a01, a12, _, _ = chain3_matrices
    joint = markov_joint(make_chain(2), {(0, 1): a01, (1, 2): a12})
    biv = joint.bivariate(1, 1)
    marg = joint.marginal(1)
    assert biv.weights == tuple(
        tuple(marg[r] if r == c else F(0) for c in range(3)) for r in range(3)
    )
    assert biv.row_values == biv.col_values == joint.supports[1]


def test_parse_matrix_text():
    biv = parse_matrix_text("""
    # rows: 0 1
    # cols: 0 1
    4/30 11/30
    0.25 5/20  # trailing comment
    """)
    assert biv.weights[1][0] == F(1, 4)
    assert sum(sum(r) for r in biv.weights) == 1
    with pytest.raises(DiscreteError):
        parse_matrix_text("# empty")


def test_random_joint_total_mass():
    rng = random.Random(4)
    for _ in range(20):
        biv = random_bivariate(rng, rng.randint(2, 4))
        assert sum(biv.row_marginal()) == 1
        assert sum(biv.col_marginal()) == 1


def _random_weights(rng: random.Random, k: int, m: int, big: bool) -> list[list]:
    """Random k x m law with some zero cells, as Fractions (ints where whole).

    With ``big`` the cells have distinct prime-power denominators whose lcm
    is far past 2**64.
    """
    dens = [rng.choice((3, 7, 2**61 - 1, 10**19 + 51, 5**30)) if big else rng.randint(1, 9)
            for _ in range(k * m)]
    cells = [F(rng.choice((0, 1, 2, 5)), d) for d in dens]
    if not any(cells):
        cells[rng.randrange(len(cells))] = F(1)
    total = sum(cells, F(0))
    cells = [c / total for c in cells]
    cells = [int(c) if c.denominator == 1 else c for c in cells]
    return [cells[r * m:(r + 1) * m] for r in range(k)]


def test_bivariate_marginals_match_fraction_sums():
    rng = random.Random(83)
    kinds = {"zero_cell": 0, "int_weight": 0, "past_2_64": 0}
    for trial in range(120):
        k, m = rng.randint(1, 4), rng.randint(1, 4)
        w = _random_weights(rng, k, m, big=trial % 3 == 0)
        biv = DiscreteBivariate(tuple(map(tuple, w)), tuple(range(k)), tuple(range(m)))
        flat = [x for row in w for x in row]
        kinds["zero_cell"] += 0 in flat
        kinds["int_weight"] += any(type(x) is int for x in flat)
        kinds["past_2_64"] += max(F(x).denominator for x in flat) > 2**64
        assert biv.row_marginal() == tuple(sum(row, F(0)) for row in w)
        assert biv.col_marginal() == tuple(sum(col, F(0)) for col in zip(*w))
        assert all(type(x) is F for x in biv.row_marginal() + biv.col_marginal())
        assert biv.weights == tuple(map(tuple, w))
        # scaling one cell breaks the total, and the check sees it exactly
        r, c = rng.randrange(k), rng.randrange(m)
        bumped = [list(row) for row in w]
        bumped[r][c] = F(bumped[r][c]) + F(1, 2**70)
        with pytest.raises(DiscreteError, match="total mass"):
            DiscreteBivariate(tuple(map(tuple, bumped)), biv.row_values, biv.col_values)
    assert all(kinds.values()), kinds


def test_bivariate_int_weights_and_zero_rows():
    biv = DiscreteBivariate(((0, 0), (1, 0)), (0, 1), (0, 1))
    assert biv.row_marginal() == (0, 1) and biv.col_marginal() == (1, 0)
    assert biv.product_of_marginals().weights == ((0, 0), (1, 0))


@pytest.mark.parametrize("bad", [0.25, np.float64(0.25), "1/4", None])
def test_bivariate_rejects_weights_that_are_not_int_or_fraction(bad):
    with pytest.raises(DiscreteError, match="not an int or a Fraction"):
        DiscreteBivariate(((bad, F(1, 4)), (F(1, 4), F(1, 4))), (0, 1), (0, 1))
    # the builders keep converting strings and floats
    assert DiscreteBivariate.from_rows([["1/4", 0.25], [F(1, 4), "0.25"]]).weights == \
        ((F(1, 4),) * 2,) * 2


def test_markov_joint_matches_fraction_chain_reference():
    rng = random.Random(89)
    zero_rows = 0
    for trial in range(40):
        nodes = rng.randint(2, 5)
        laws = []
        for _ in range(nodes):
            raw = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(2, 3))]
            raw[rng.randrange(len(raw))] += 1
            laws.append([F(x, sum(raw)) for x in raw])
        zero_rows += any(x == 0 for law in laws[:-1] for x in law)
        edges = {(n, n + 1): random_coupling(rng, laws[n], laws[n + 1])
                 for n in range(nodes - 1)}
        joint = markov_joint(make_chain(nodes - 1), edges)
        for idx in itertools.product(*(range(len(law)) for law in laws)):
            want = laws[0][idx[0]]
            for n in range(nodes - 1):
                m = laws[n][idx[n]]
                want *= edges[(n, n + 1)].weights[idx[n]][idx[n + 1]] / m if m else 0
            assert F(int(joint.table[idx]), joint.den) == want
    assert zero_rows
