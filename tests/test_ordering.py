import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from treedep.copulas import Clayton, Gaussian
from treedep.discrete import (
    DiscreteBivariate,
    DiscreteJoint,
    DiscreteTreeSpec,
    markov_joint,
)
from treedep.marginals import Normal, Uniform
from treedep.ordering import (
    SM_CELL_GUARD,
    OrderingError,
    audit_theorem_conditions,
    lo_check,
    mtp2_check,
    psmd_check,
    schur_leq,
    si_check,
    sm_check_lp,
    uo_check,
)
from treedep.sampler import TreeSpec
from treedep.trees import TheoremQuery, make_chain, make_star

from conftest import mat, random_bivariate, random_coupling, random_marginal


def biv_joint(biv: DiscreteBivariate) -> DiscreteJoint:
    return markov_joint(make_chain(1), {(0, 1): biv})


# -- si / mtp2 ----------------------------------------------------------------


def test_si_examples(chain3_matrices):
    a01, a12, b01, b12 = chain3_matrices
    assert si_check(a01, "col_given_row") is True
    assert si_check(b01, "row_given_col") is False
    prod = mat([[1, 1], [1, 1]], 4)
    assert si_check(prod) and si_check(prod, "row_given_col")
    with pytest.raises(OrderingError):
        si_check(a01, "sideways")


def test_si_skips_zero_mass_rows():
    # conditionals on a null set are free, so a zero row never breaks SI
    assert si_check(DiscreteBivariate.from_rows([[0, 0], [F(1, 2), F(1, 2)]])) is True
    diagonal = mat([[1, 0, 0], [0, 0, 0], [0, 0, 1]], 2)
    assert si_check(diagonal) is True
    assert si_check(diagonal, "row_given_col") is True
    # the rows of positive mass around the zero row must still be ordered
    antidiagonal = mat([[0, 0, 1], [0, 0, 0], [1, 0, 0]], 2)
    assert si_check(antidiagonal) is False
    assert si_check(antidiagonal, "row_given_col") is False


def test_si_matches_conditional_cdfs_on_laws_with_zero_rows():
    rng = random.Random(61)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        k, m = rng.randint(2, 4), rng.randint(2, 4)
        raw = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(m)] for _ in range(k)]
        raw[rng.randrange(k)][rng.randrange(m)] += 1
        total = sum(map(sum, raw))
        biv = DiscreteBivariate.from_rows([[F(x, total) for x in row] for row in raw])
        for direction, rows in (("col_given_row", raw), ("row_given_col", list(zip(*raw)))):
            cdfs = [list(itertools.accumulate(F(x, sum(r)) for x in r)) for r in rows if sum(r)]
            want = all(c <= p for prev, cur in zip(cdfs, cdfs[1:]) for p, c in zip(prev, cur))
            assert si_check(biv, direction) is want
            verdicts[want] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_mtp2_examples(block_matrices):
    a, b = block_matrices
    assert mtp2_check(b) is True
    assert mtp2_check(a) is False  # 2x2 minor (rows 1,2; cols 1,2): 7*7 but 2*0 < 3*7
    prod = mat([[2, 2], [2, 2]], 8)
    assert mtp2_check(prod) is True


# -- orthant orders -------------------------------------------------------------


def test_lo_uo_counterexamples(chain3_matrices, star4_matrices):
    a01, a12, b01, b12 = chain3_matrices
    ch = make_chain(2)
    jx = markov_joint(ch, {(0, 1): a01, (1, 2): a12})
    jy = markov_joint(ch, {(0, 1): b01, (1, 2): b12})
    rep = lo_check(jx, jy)
    assert rep.holds is False and rep.witness == (1, 1, 1)
    assert lo_check(jx, jx).holds is True
    assert uo_check(jx, jx).holds is True

    a01s, a02s, b01s, b02s = star4_matrices
    st = make_star(2)
    jxs = markov_joint(st, {(0, 1): a01s, (0, 2): a02s})
    jys = markov_joint(st, {(0, 1): b01s, (0, 2): b02s})
    rep = lo_check(jxs, jys)
    assert rep.holds is False and rep.witness == (2, 2, 2)


def test_support_mismatch_rejected():
    j1 = biv_joint(mat([[1, 1], [1, 1]], 4))
    j2 = biv_joint(DiscreteBivariate.from_rows(
        [[F(1, 4)] * 2] * 2, row_values=(0, 2), col_values=(0, 1)))
    with pytest.raises(OrderingError):
        lo_check(j1, j2)


def brute_force_lo(jx: DiscreteJoint, jy: DiscreteJoint) -> bool:
    grids = [list(s) for s in jx.supports]
    return all(
        jx.orthant_prob(t) <= jy.orthant_prob(t)
        for t in itertools.product(*grids)
    )


def survival(j: DiscreteJoint, t) -> F:
    """P(X_n > t_n for all n), summed cell by cell."""
    total = F(0)
    for idx, w in j.mass.items():
        if all(j.supports[n][i] > tn for n, (i, tn) in enumerate(zip(idx, t))):
            total += w
    return total


def brute_force_uo(jx: DiscreteJoint, jy: DiscreteJoint) -> bool:
    grids = [[float("-inf")] + list(s) for s in jx.supports]
    return all(
        survival(jx, t) <= survival(jy, t)
        for t in itertools.product(*grids)
    )


def test_lo_uo_match_brute_force_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        size = rng.randint(2, 3)
        jx = biv_joint(random_bivariate(rng, size))
        jy = biv_joint(random_bivariate(rng, size))
        assert lo_check(jx, jy).holds == brute_force_lo(jx, jy)
        assert uo_check(jx, jy).holds == brute_force_uo(jx, jy)
        bad = lo_check(jx, jy)
        if bad.holds is False:
            t = bad.witness
            assert jx.orthant_prob(t) > jy.orthant_prob(t)


def _masses_over(rng: random.Random, cells: int, den: int) -> list[F]:
    """Random positive masses p/den summing to 1, odd p except possibly the last."""
    nums = [2 * rng.randrange(den // (4 * cells)) + 1 for _ in range(cells - 1)]
    return [F(p, den) for p in nums] + [F(den - sum(nums), den)]


def test_lo_uo_gaps_exact_with_large_coprime_denominators():
    # 2**40 * 3**25 is past int64, so the integer tables must stay exact
    rng = random.Random(97)
    supports = ((0, 1, 2), (0, 1, 2), (0, 1))
    cells = list(itertools.product(*(range(len(s)) for s in supports)))
    seen = set()
    for _ in range(6):
        jx = DiscreteJoint(supports, dict(zip(cells, _masses_over(rng, 18, 2**40))))
        jy = DiscreteJoint(supports, dict(zip(cells, _masses_over(rng, 18, 3**25))))
        assert max(w.denominator for w in jx.mass.values()) == 2**40
        assert max(w.denominator for w in jy.mass.values()) == 3**25
        for a, b in ((jx, jy), (jy, jx)):
            lo, uo = lo_check(a, b), uo_check(a, b)
            assert lo.holds == brute_force_lo(a, b)
            assert uo.holds == brute_force_uo(a, b)
            if lo.holds is False:
                t = lo.witness
                assert lo.details["gap"] == a.orthant_prob(t) - b.orthant_prob(t)
                seen.add("lo")
            if uo.holds is False:
                t = uo.witness
                assert uo.details["gap"] == survival(a, t) - survival(b, t)
                seen.add("uo")
    assert seen == {"lo", "uo"}


def _random_chain(rng: random.Random, sizes, marginals=None) -> DiscreteJoint:
    m = marginals or [random_marginal(rng, s) for s in sizes]
    edges = {(i, i + 1): random_coupling(rng, m[i], m[i + 1], moves=rng.randint(0, 8))
             for i in range(len(sizes) - 1)}
    return markov_joint(make_chain(len(sizes) - 1), edges)


def test_uo_matches_brute_force_survival_on_chains():
    rng = random.Random(53)
    below_support = set()
    for trial in range(40):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 4))]
        shared = [random_marginal(rng, s) for s in sizes] if trial % 2 else None
        jx, jy = _random_chain(rng, sizes, shared), _random_chain(rng, sizes, shared)
        grids = [[float("-inf")] + list(s) for s in jx.supports]
        gaps = {t: survival(jx, t) - survival(jy, t) for t in itertools.product(*grids)}
        worst = max(gaps.values())
        report = uo_check(jx, jy)
        assert report.holds == (worst <= 0)
        if report.holds is False:
            assert report.details["gap"] == worst == gaps[report.witness]
            below_support.add(float("-inf") in report.witness)
    assert below_support == {True, False}


def test_uo_witness_below_the_support():
    # node 0 is the same fair coin in both; node 1 is more likely high under X,
    # so the widest survival gap drops node 0's constraint
    coin = (F(1, 2), F(1, 2))
    x = markov_joint(make_chain(1), {(0, 1): random_coupling(random.Random(0), coin, coin, 0)})
    low = (F(3, 4), F(1, 4))
    y = markov_joint(make_chain(1), {(0, 1): random_coupling(random.Random(0), coin, low, 0)})
    report = uo_check(x, y)
    assert report.holds is False
    assert report.witness == (float("-inf"), 0)
    assert report.details["gap"] == F(1, 4)


# -- supermodular LP oracle ------------------------------------------------------


def test_sm_self_is_zero(chain3_matrices):
    a01, a12, _, _ = chain3_matrices
    jx = markov_joint(make_chain(2), {(0, 1): a01, (1, 2): a12})
    rep = sm_check_lp(jx, jx)
    assert rep.holds is True and rep.details["lp_minimum"] == 0


def test_sm_counterexample(chain3_matrices):
    a01, a12, b01, b12 = chain3_matrices
    ch = make_chain(2)
    jx = markov_joint(ch, {(0, 1): a01, (1, 2): a12})
    jy = markov_joint(ch, {(0, 1): b01, (1, 2): b12})
    rep = sm_check_lp(jx, jy)
    assert rep.holds is False
    assert rep.details["lp_minimum"] < 0
    # the certificate is a genuinely supermodular function with E_Y f < E_X f
    f = {tuple(cell): val for cell, val in rep.witness}
    gap = _expectation(jy, f) - _expectation(jx, f)
    assert gap == rep.details["lp_minimum"]
    _assert_supermodular(f, jx)


def _expectation(joint: DiscreteJoint, f: dict) -> F:
    total = F(0)
    for idx, w in joint.mass.items():
        key = tuple(joint.supports[n][i] for n, i in enumerate(idx))
        total += w * f.get(key, F(0))
    return total


def _assert_supermodular(f: dict, joint: DiscreteJoint):
    grids = [list(s) for s in joint.supports]
    cells = list(itertools.product(*grids))

    def val(c):
        return f.get(c, F(0))

    for x in cells:
        for y in cells:
            lo_pt = tuple(min(a, b) for a, b in zip(x, y))
            hi_pt = tuple(max(a, b) for a, b in zip(x, y))
            assert val(x) + val(y) <= val(lo_pt) + val(hi_pt)


def test_sm_matches_lo_for_equal_marginal_bivariates():
    rng = random.Random(47)
    for _ in range(40):
        size = rng.choice((3, 4))
        rm, cm = random_marginal(rng, size), random_marginal(rng, size)
        bx = random_coupling(rng, rm, cm)
        by = random_coupling(rng, rm, cm)
        jx, jy = biv_joint(bx), biv_joint(by)
        assert sm_check_lp(jx, jy).holds == lo_check(jx, jy).holds


def test_sm_implies_lo_and_uo_random():
    rng = random.Random(53)
    seen_true = 0
    for _ in range(60):
        size = rng.randint(2, 3)
        rm, cm = random_marginal(rng, size), random_marginal(rng, size)
        jx = biv_joint(random_coupling(rng, rm, cm))
        jy = biv_joint(random_coupling(rng, rm, cm))
        rep = sm_check_lp(jx, jy)
        if rep.holds:
            seen_true += 1
            assert lo_check(jx, jy).holds is True
            assert uo_check(jx, jy).holds is True
    assert seen_true > 0


def test_sm_false_when_marginals_differ():
    rng = random.Random(59)
    jx = biv_joint(random_bivariate(rng, 3))
    jy = biv_joint(random_bivariate(rng, 3))
    if jx.marginal(0) != jy.marginal(0) or jx.marginal(1) != jy.marginal(1):
        assert sm_check_lp(jx, jy).holds is False


def test_sm_program_agrees_with_floating_solver():
    # same cone, independent solver: compare the exact LP optimum against
    # scipy's HiGHS on random trivariate pairs with shared marginals
    import numpy as np
    from scipy.optimize import linprog

    from treedep.ordering import _supermodular_program

    rng = random.Random(79)
    for _ in range(12):
        marg = random_marginal(rng, 2)
        dists = {
            (0, 1): random_coupling(rng, marg, marg),
            (1, 2): random_coupling(rng, marg, marg),
        }
        alts = {
            (0, 1): random_coupling(rng, marg, marg),
            (1, 2): random_coupling(rng, marg, marg),
        }
        jx = markov_joint(make_chain(2), dists)
        jy = markov_joint(make_chain(2), alts)
        cells, c_vec, a_rows, b = _supermodular_program(jx, jy)
        from treedep.simplex import solve_lp_min

        value, _ = solve_lp_min(c_vec, a_rows, b)
        res = linprog(
            np.array([float(v) for v in c_vec]),
            A_ub=np.array([[float(v) for v in row] for row in a_rows]),
            b_ub=np.array([float(v) for v in b]),
            bounds=[(0, None)] * len(c_vec),
            method="highs",
        )
        assert res.success
        assert float(value) == pytest.approx(res.fun, abs=1e-9)


def test_bivariate_lo_helper_matches_general_checker():
    from treedep.ordering import _bivariate_lo_exact

    rng = random.Random(89)
    for _ in range(40):
        size = rng.randint(2, 4)
        marg_r = random_marginal(rng, size)
        marg_c = random_marginal(rng, size)
        bx = random_coupling(rng, marg_r, marg_c)
        by = random_coupling(rng, marg_r, marg_c)
        want = lo_check(biv_joint(bx), biv_joint(by)).holds
        assert _bivariate_lo_exact(bx, by) == want


def test_subcopula_lo_helper_matches_fraction_cdfs():
    from treedep.ordering import _subcopula_lo_exact

    def keyed(biv):
        """Joint cdf at each (row cdf, col cdf) pair, summed in Fractions."""
        w = biv.weights
        rows = list(itertools.accumulate(biv.row_marginal()))
        cols = list(itertools.accumulate(biv.col_marginal()))
        return {(u, v): sum((w[i][j] for i in range(r + 1) for j in range(c + 1)), F(0))
                for r, u in enumerate(rows) for c, v in enumerate(cols)}

    rng = random.Random(97)
    verdicts = {True: 0, False: 0}
    for trial in range(80):
        size = rng.randint(2, 4)
        marg_r, marg_c = random_marginal(rng, size), random_marginal(rng, size)
        bx = random_coupling(rng, marg_r, marg_c)
        if trial % 4 == 3:  # other marginals: only the shared cdf keys compare
            marg_r = random_marginal(rng, rng.randint(2, 4))
        by = random_coupling(rng, marg_r, marg_c)
        # the copula order ignores where the supports sit
        by = DiscreteBivariate(by.weights, tuple(v * 3 + 1 for v in by.row_values),
                               by.col_values)
        kx, ky = keyed(bx), keyed(by)
        want = all(kx[key] <= ky[key] for key in kx.keys() & ky.keys())
        assert _subcopula_lo_exact(bx, by) is want
        verdicts[want] += 1
    assert min(verdicts.values()) >= 15, verdicts


def test_sm_scale_guard():
    sup = tuple(range(11))
    w = F(1, len(sup))
    mass = {(i, i, i, i): w for i in range(len(sup))}
    big = DiscreteJoint((sup, sup, sup, sup), mass)
    rep = sm_check_lp(big, big)
    assert rep.holds is None


def test_psmd_guard_rejects_3_to_the_5_chain_at_once():
    third = F(1, 3)
    uniform = DiscreteBivariate.from_rows([[third * third] * 3] * 3)
    chain = markov_joint(make_chain(4), {(i, i + 1): uniform for i in range(4)})
    assert chain.cell_count() == 243
    start = time.perf_counter()
    rep = psmd_check(chain)
    assert time.perf_counter() - start < 1.0
    assert rep.holds is None
    assert rep.details == {"reason": f"more than {SM_CELL_GUARD} cells"}
    assert SM_CELL_GUARD < 243


# -- psmd ------------------------------------------------------------------------


def test_psmd(block_matrices):
    prod = biv_joint(mat([[1, 1], [1, 1]], 4))
    assert psmd_check(prod).holds is True
    nqd = DiscreteJoint(((0, 1), (0, 1)), {(0, 1): F(1, 2), (1, 0): F(1, 2)})
    assert psmd_check(nqd).holds is False
    _, b = block_matrices
    chain = markov_joint(make_chain(3), {(i, i + 1): b for i in range(3)})
    assert psmd_check(chain).holds is True


# -- Schur order -----------------------------------------------------------------


def test_schur_counterexample_edges(block_matrices):
    a, b = block_matrices
    assert schur_leq(a, b).holds is True
    assert schur_leq(a, b, "row_given_col").holds is True
    # reversing the roles breaks it (Y is strictly more variable)
    assert schur_leq(b, a).holds is False


def test_schur_witness_is_pinned(block_matrices):
    a, b = block_matrices
    want = {"conditioned_value": 0, "at": F(1, 3), "cum_x": F(1, 5), "cum_y": F(1, 6)}
    for direction in ("col_given_row", "row_given_col"):
        report = schur_leq(b, a, direction)
        assert report.holds is False
        assert report.witness == want
        assert all(type(report.witness[k]) is F for k in ("at", "cum_x", "cum_y"))


def test_schur_reflexive_random():
    rng = random.Random(61)
    for _ in range(25):
        biv = random_bivariate(rng, rng.randint(2, 4))
        assert schur_leq(biv, biv).holds is True


def test_schur_independence_is_minimal():
    rng = random.Random(67)
    for _ in range(25):
        by = random_bivariate(rng, 3)
        bx = by.product_of_marginals()
        assert schur_leq(bx, by).holds is True


def test_schur_rearrangement_invariance(block_matrices):
    a, b = block_matrices
    perms = list(itertools.permutations(range(3)))
    want = schur_leq(a, b).holds
    for pa in perms:
        shuffled = DiscreteBivariate(
            tuple(a.weights[i] for i in pa), a.row_values, a.col_values
        )
        assert schur_leq(shuffled, b).holds == want


def _schur_by_integer_expansion(bx: DiscreteBivariate, by: DiscreteBivariate) -> bool:
    """Independent oracle: expand weights to a common integer grid and use
    the classic partial-sum majorization of the sorted step values."""
    import math

    def slices(biv, jv):
        widths = biv.row_marginal()
        out = []
        for r, w in enumerate(widths):
            if w > 0:
                cdf = sum(biv.weights[r][: jv + 1]) / w
                out.append((cdf, w))
        return out

    ncols = len(bx.col_values)
    for jv in range(ncols):
        sx, sy = slices(bx, jv), slices(by, jv)
        denom = math.lcm(*[w.denominator for _, w in sx + sy])
        ex = sorted(
            (v for v, w in sx for _ in range(int(w * denom))), reverse=True
        )
        ey = sorted(
            (v for v, w in sy for _ in range(int(w * denom))), reverse=True
        )
        px = py = F(0)
        for vx, vy in zip(ex, ey):
            px += vx
            py += vy
            if px > py:
                return False
        if px != py:
            return False
    return True


def test_schur_matches_integer_expansion_oracle(block_matrices):
    a, b = block_matrices
    rng = random.Random(83)
    cases = [(a, b), (b, a), (a, a)]
    for _ in range(20):
        rm = random_marginal(rng, 3)
        cm = random_marginal(rng, 3)
        cases.append((random_coupling(rng, rm, cm), random_coupling(rng, rm, cm)))
    for bx, by in cases:
        assert schur_leq(bx, by).holds == _schur_by_integer_expansion(bx, by)


def test_schur_requires_matching_conditioned_marginal():
    bx = mat([[1, 1], [1, 1]], 4)
    by = mat([[2, 1], [1, 0]], 4)
    with pytest.raises(OrderingError):
        schur_leq(bx, by)


def _northwest_coupling(rm, cm) -> DiscreteBivariate:
    """Comonotone (quantile) coupling of two exact marginals."""
    k, m = len(rm), len(cm)
    w = [[F(0)] * m for _ in range(k)]
    left_r, left_c = list(rm), list(cm)
    i = j = 0
    while i < k and j < m:
        move = min(left_r[i], left_c[j])
        w[i][j] += move
        left_r[i] -= move
        left_c[j] -= move
        if left_r[i] == 0:
            i += 1
        if j < m and left_c[j] == 0:
            j += 1
    return DiscreteBivariate.from_rows(w)


def _mix(ba: DiscreteBivariate, bb: DiscreteBivariate, lam: F) -> DiscreteBivariate:
    w = [
        [lam * a + (1 - lam) * b for a, b in zip(ra, rb)]
        for ra, rb in zip(ba.weights, bb.weights)
    ]
    return DiscreteBivariate.from_rows(w)


def test_schur_with_si_dominator_implies_sm():
    # contractions toward independence are Schur-dominated; with an SI
    # dominator that forces the bivariate supermodular comparison
    rng = random.Random(71)
    checked = 0
    for _ in range(30):
        rm, cm = random_marginal(rng, 3), random_marginal(rng, 3)
        comono = _northwest_coupling(rm, cm)
        prod = comono.product_of_marginals()
        mu = F(rng.randint(1, 3), 4)
        by = _mix(comono, prod, mu)
        assert si_check(by, "col_given_row") is True
        lam = F(rng.randint(1, 3), 4)
        bx = _mix(prod, by, lam)
        assert schur_leq(bx, by).holds is True
        checked += 1
        assert sm_check_lp(biv_joint(bx), biv_joint(by)).holds is True
    assert checked == 30


# -- hypothesis auditor ----------------------------------------------------------


def test_audit_discrete_counterexample(chain3_matrices):
    a01, a12, b01, b12 = chain3_matrices
    ch = make_chain(2)
    spec_x = DiscreteTreeSpec(ch, {(0, 1): a01, (1, 2): a12})
    spec_y = DiscreteTreeSpec(ch, {(0, 1): b01, (1, 2): b12})
    rep = audit_theorem_conditions(spec_x, spec_y, TheoremQuery((1, 2), 1))
    assert rep.verdict is False
    assert rep.failures["i"] == []
    assert rep.failures["ii"] == [[(0, 1), "si_parent_given_child"]]
    assert rep.failures["iii"] == []


def test_audit_copula_pass_and_self():
    ch = make_chain(2)
    margs = (Uniform(0, 1), Uniform(0, 1), Uniform(0, 1))
    spec_x = TreeSpec(ch, margs, {(0, 1): Gaussian(0.3), (1, 2): Gaussian(0.3)})
    spec_y = TreeSpec(ch, margs, {(0, 1): Gaussian(0.7), (1, 2): Gaussian(0.7)})
    rep = audit_theorem_conditions(spec_x, spec_y)
    assert rep.verdict is True
    rep = audit_theorem_conditions(spec_y, spec_y)
    assert rep.verdict is True
    blob = rep.to_json()
    assert blob["verdict"] is True and "0-1" in blob["per_edge"]


def test_audit_computes_each_copula_table_once_per_call(monkeypatch):
    import collections

    from treedep import copulas, hmm

    calls = collections.Counter()
    for cls in (copulas.Gaussian, copulas.Independence, copulas.Clayton):
        def counted(self, u, v, _cdf=cls.cdf):
            calls[self] += 1
            return _cdf(self, u, v)

        monkeypatch.setattr(cls, "cdf", counted)
    # the hidden chain and the first observation copula are shared by X and Y
    spec_x = hmm.build_spec(4, "gaussian", [1.0, 2.0, 0.5, 3.0])
    spec_y = hmm.build_spec(4, "gaussian", [1.0, 1.5, 0.25, 2.0])
    distinct = set(spec_x.copulas.values()) | set(spec_y.copulas.values())
    assert len(distinct) < 2 * len(spec_x.copulas)

    first = audit_theorem_conditions(spec_x, spec_y, grid_size=17)
    assert set(calls) == distinct
    assert set(calls.values()) == {1}
    # no table outlives the call: a second audit evaluates every one again
    second = audit_theorem_conditions(spec_x, spec_y, grid_size=17)
    assert set(calls.values()) == {2}
    assert first.to_json() == second.to_json()


def test_single_edge_imposes_no_si_hypothesis():
    # with one edge, the child is k*, on the path and a leaf at once, so
    # only the pointwise comparison (iii) is required
    ch = make_chain(1)
    margs = (Uniform(0, 1), Uniform(0, 1))
    spec_x = TreeSpec(ch, margs, {(0, 1): Gaussian(-0.2)})
    spec_y = TreeSpec(ch, margs, {(0, 1): Gaussian(0.5)})
    rep = audit_theorem_conditions(spec_x, spec_y)
    assert rep.verdict is True


def test_audit_fails_on_negative_dependence():
    ch = make_chain(2)
    margs = (Uniform(0, 1), Uniform(0, 1), Uniform(0, 1))
    spec_x = TreeSpec(ch, margs, {(0, 1): Gaussian(0.3), (1, 2): Gaussian(-0.2)})
    spec_y = TreeSpec(ch, margs, {(0, 1): Gaussian(0.5), (1, 2): Gaussian(0.5)})
    rep = audit_theorem_conditions(spec_x, spec_y, TheoremQuery((1, 2), 1))
    assert rep.verdict is False
    assert rep.failures["i"] == [[(1, 2), "si_child_given_parent"]]
    assert rep.failures["ii"] == []


def test_audit_marginal_flex_st():
    ch = make_chain(1)
    spec_x = TreeSpec(ch, (Normal(0, 1), Normal(0, 1)), {(0, 1): Gaussian(0.3)})
    spec_y = TreeSpec(ch, (Normal(0.5, 1), Normal(0.5, 1)), {(0, 1): Gaussian(0.7)})
    # differing marginals sink the plain audit but not the flexible one
    assert audit_theorem_conditions(spec_x, spec_y).verdict is False
    rep = audit_theorem_conditions(spec_x, spec_y, marginal_flex="st-increase")
    assert rep.marginal_checks["st_leq[0]"] is True
    assert rep.marginal_checks["range_closure_equal[1]"] is True
    assert rep.failures["iii"] == []
    assert rep.verdict is True
    # and the reversed stochastic order fails the decreasing variant
    rep_dec = audit_theorem_conditions(spec_x, spec_y, marginal_flex="st-decrease")
    assert rep_dec.verdict is False
    assert "st_leq[0]" in rep_dec.failures["marginals"]


def test_audit_marginal_flex_st_discrete(chain3_matrices):
    # same copula-level order, shifted supports: flexible audit compares
    # subcopulas on the shared cdf grid
    a01, a12, _, b12 = chain3_matrices
    shift = lambda biv, d: DiscreteBivariate(
        biv.weights,
        tuple(v + d for v in biv.row_values),
        tuple(v + d for v in biv.col_values),
    )
    ch = make_chain(2)
    spec_x = DiscreteTreeSpec(ch, {(0, 1): a01, (1, 2): a12})
    spec_y = DiscreteTreeSpec(ch, {(0, 1): shift(a01, 1), (1, 2): shift(a12, 1)})
    rep = audit_theorem_conditions(
        spec_x, spec_y, TheoremQuery((1, 2), 1), marginal_flex="st-increase"
    )
    assert rep.failures["iii"] == []
    assert all(rep.marginal_checks[f"range_closure_equal[{n}]"] for n in range(3))
    assert all(rep.marginal_checks[f"st_leq[{n}]"] for n in range(3))


def test_audit_marginal_flex_cx():
    ch = make_chain(1)
    spec_x = TreeSpec(ch, (Normal(0, 1), Normal(0, 1)), {(0, 1): Gaussian(0.3)})
    spec_y = TreeSpec(ch, (Normal(0, 2), Normal(0, 2)), {(0, 1): Clayton(2.0)})
    rep = audit_theorem_conditions(spec_x, spec_y, marginal_flex="cx")
    assert rep.marginal_checks["continuous[0]"] is True
    assert rep.marginal_checks["cx_leq[0]"] is True
    assert rep.failures["ii"] == []  # Clayton is TP2


def test_audit_relation_tags():
    ch = make_chain(1)
    spec = TreeSpec(ch, (Normal(0, 1), Normal(0, 1)), {(0, 1): Gaussian(0.3)})
    assert audit_theorem_conditions(spec, spec).relation == "sm-hypotheses"
    for flex, tag in [("st-increase", "ism-precondition"),
                      ("st-decrease", "dsm-precondition"),
                      ("cx", "dcx-precondition")]:
        rep = audit_theorem_conditions(spec, spec, marginal_flex=flex)
        assert rep.relation == tag
        assert rep.to_json()["relation"] == tag
    with pytest.raises(OrderingError):
        audit_theorem_conditions(spec, spec, marginal_flex="bogus")


def test_audit_tree_mismatch():
    margs = (Uniform(0, 1), Uniform(0, 1), Uniform(0, 1))
    spec_x = TreeSpec(make_chain(2), margs,
                      {(0, 1): Gaussian(0.3), (1, 2): Gaussian(0.3)})
    spec_y = TreeSpec(make_star(2), margs,
                      {(0, 1): Gaussian(0.3), (0, 2): Gaussian(0.3)})
    with pytest.raises(OrderingError):
        audit_theorem_conditions(spec_x, spec_y)


# -- implication chain fuzz -------------------------------------------------------


weight_matrix = st.integers(2, 4).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 9), min_size=k, max_size=k),
        min_size=k, max_size=k,
    ).filter(lambda rows: any(any(r) for r in rows))
)


@settings(max_examples=60, deadline=None)
@given(weight_matrix)
def test_order_checks_reflexive(rows):
    total = sum(sum(r) for r in rows)
    biv = DiscreteBivariate.from_rows(
        [[F(x, total) for x in row] for row in rows]
    )
    joint = biv_joint(biv)
    assert lo_check(joint, joint).holds is True
    assert uo_check(joint, joint).holds is True
    rep = sm_check_lp(joint, joint)
    assert rep.holds is True and rep.details["lp_minimum"] == 0


@settings(max_examples=60, deadline=None)
@given(weight_matrix)
def test_orthant_reports_carry_reproducing_witnesses(rows):
    total = sum(sum(r) for r in rows)
    biv = DiscreteBivariate.from_rows(
        [[F(x, total) for x in row] for row in rows]
    )
    other = biv.product_of_marginals()
    ja, jb = biv_joint(biv), biv_joint(other)
    rep = lo_check(jb, ja)
    if rep.holds is False:
        t = rep.witness
        assert jb.orthant_prob(t) > ja.orthant_prob(t)


def test_mtp2_implies_si_fuzz():
    rng = random.Random(73)
    hits = 0
    for _ in range(300):
        biv = random_bivariate(rng, rng.randint(2, 4))
        if any(w == 0 for w in biv.row_marginal() + biv.col_marginal()):
            continue
        if mtp2_check(biv):
            hits += 1
            assert si_check(biv, "col_given_row") is True
            assert si_check(biv, "row_given_col") is True
    assert hits > 10
