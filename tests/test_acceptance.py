"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single "criterion N: PASS" line on success; failures
surface as ordinary assertion errors with context.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from treedep import hmm
from treedep.copulas import Clayton, Gaussian, theta_from_rho
from treedep.discrete import markov_joint
from treedep.marginals import Normal, Uniform
from treedep.ordering import (
    lo_check,
    mtp2_check,
    schur_leq,
    si_check,
    sm_check_lp,
    uo_check,
)
from treedep.sampler import (
    TreeSpec,
    conditional_independence_probe,
    empirical_edge_copula_check,
    ks_statistic,
    sample,
)
from treedep.trees import DirectedTree, make_chain, make_star

from conftest import random_bivariate, random_coupling, random_marginal

SEED = 20250810
BAND_D = 200
BAND_N = 100_000


def _timed(budget_s):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"{label} took {elapsed:.2f}s (> {budget_s}s)"
        return elapsed

    return check


def test_criterion_01_chain3_exact(chain3_matrices):
    done = _timed(1.0)
    a01, a12, b01, b12 = chain3_matrices
    tree = make_chain(2)
    jx = markov_joint(tree, {(0, 1): a01, (1, 2): a12})
    jy = markov_joint(tree, {(0, 1): b01, (1, 2): b12})
    assert jx.orthant_prob((1, 1, 1)) == F(112, 300)
    assert jy.orthant_prob((1, 1, 1)) == F(111, 300)
    rep = lo_check(jx, jy)
    assert rep.holds is False and rep.witness == (1, 1, 1)
    elapsed = done("chain3 reproduction")
    print(f"criterion 1: PASS - 112/300 vs 111/300, witness (1,1,1), "
          f"{elapsed:.3f}s")


def test_criterion_02_star4_exact(star4_matrices):
    done = _timed(1.0)
    a01, a02, b01, b02 = star4_matrices
    tree = make_star(2)
    jx = markov_joint(tree, {(0, 1): a01, (0, 2): a02})
    jy = markov_joint(tree, {(0, 1): b01, (0, 2): b02})
    assert jx.orthant_prob((2, 2, 2)) == F(225, 400)
    assert jy.orthant_prob((2, 2, 2)) == F(224, 400)
    # stated stochastic-monotonicity flags
    for m in (b01, b02):
        assert si_check(m, "row_given_col") is True  # center SI in each leaf
    for m in (a01, a02):
        assert si_check(m, "col_given_row") is True  # leaf SI in center
        assert si_check(m, "row_given_col") is True  # center SI in leaf
    elapsed = done("star4 reproduction")
    print(f"criterion 2: PASS - 225/400 vs 224/400, SI flags as stated, "
          f"{elapsed:.3f}s")


def test_criterion_03_block_chain_exact(block_matrices):
    done = _timed(1.0)
    a, b = block_matrices
    # unit blocks starting at 0, 1, 2: at block boundaries the continuous
    # law's strict orthant is the block-index chain's strict orthant
    chain = make_chain(3)
    jx = markov_joint(chain, {(k, k + 1): a for k in range(3)})
    jy = markov_joint(chain, {(k, k + 1): b for k in range(3)})
    assert jx.orthant_prob((2, 2, 2, 2), strict=True) == F(1259, 3000)
    assert jy.orthant_prob((2, 2, 2, 2), strict=True) == F(1256, 3000)
    assert mtp2_check(b) is True
    assert mtp2_check(a) is False
    assert schur_leq(a, b, "col_given_row").holds is True
    assert schur_leq(a, b, "row_given_col").holds is True
    elapsed = done("block chain reproduction")
    print(f"criterion 3: PASS - 1259/3000 vs 1256/3000, TP2 and Schur flags, "
          f"{elapsed:.3f}s")


def test_criterion_04_kendall_anchor():
    rho = math.sqrt(9 / 10)
    tau = Gaussian(rho).kendall_tau()
    theta = theta_from_rho(rho)
    assert tau == pytest.approx(0.795, abs=5e-4)
    assert theta == pytest.approx(7.764, abs=1e-3)
    print(f"criterion 4: PASS - tau={tau:.6f}, theta={theta:.6f}")


def test_criterion_05_lp_oracle_matches_lo():
    done = _timed(30.0)
    rng = random.Random(SEED)
    agree = 0
    trials = 200
    for k in range(trials):
        size = 3 if k % 2 == 0 else 4
        rm = random_marginal(rng, size)
        cm = random_marginal(rng, size)
        bx = random_coupling(rng, rm, cm)
        by = random_coupling(rng, rm, cm)
        jx = markov_joint(make_chain(1), {(0, 1): bx})
        jy = markov_joint(make_chain(1), {(0, 1): by})
        if sm_check_lp(jx, jy).holds == lo_check(jx, jy).holds:
            agree += 1
    assert agree == trials
    elapsed = done("200 LP-vs-lo decisions")
    print(f"criterion 5: PASS - {agree}/{trials} agreements, {elapsed:.1f}s")


def test_criterion_06_implication_chain_fuzz():
    rng = random.Random(SEED + 1)
    mtp2_hits = 0
    sm_hits = 0
    laws = 0
    pairs = []
    while laws < 500:
        size = rng.randint(2, 4)
        if laws % 4 == 0:
            ma = random_marginal(rng, size)
            mb = random_marginal(rng, size)
            pa = random_coupling(rng, ma, mb)
            pb = random_coupling(rng, ma, mb)
        else:
            pa = random_bivariate(rng, size)
            pb = random_bivariate(rng, size)
        pairs.append((pa, pb))
        laws += 2
    for pa, pb in pairs:
        for law in (pa, pb):
            if mtp2_check(law):
                mtp2_hits += 1
                positive = all(w > 0 for w in law.row_marginal() + law.col_marginal())
                if positive:
                    assert si_check(law, "col_given_row") is True
                    assert si_check(law, "row_given_col") is True
        ja = markov_joint(make_chain(1), {(0, 1): pa})
        jb = markov_joint(make_chain(1), {(0, 1): pb})
        rep = sm_check_lp(ja, jb)
        if rep.holds is True:
            sm_hits += 1
            assert lo_check(ja, jb).holds is True
            assert uo_check(ja, jb).holds is True
    assert mtp2_hits > 0 and sm_hits > 0
    print(f"criterion 6: PASS - 500 laws, {mtp2_hits} TP2 instances, "
          f"{sm_hits} supermodular-ordered pairs, zero violations")


def _fidelity_spec() -> TreeSpec:
    tree = DirectedTree(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    marginals = (
        Normal(0.0, 1.0),
        Uniform(0.0, 3.0),
        Uniform(-2.0, 2.0),
        Normal(1.0, 4.0),
        Uniform(-1.0, 1.0),
        Normal(0.0, 2.0),
    )
    copulas = {
        (0, 1): Gaussian(0.3),
        (1, 2): Clayton(0.5),
        (2, 3): Gaussian(0.25),
        (2, 4): Clayton(0.4),
        (4, 5): Gaussian(0.25),
    }
    return TreeSpec(tree, marginals, copulas)


def test_criterion_07_markov_realization_fidelity():
    n = 100_000
    spec = _fidelity_spec()
    batch = sample(spec, n, seed=SEED)
    worst_edge = 0.0
    for edge in sorted(spec.tree.edges):
        dev = empirical_edge_copula_check(batch, spec, edge)
        worst_edge = max(worst_edge, dev)
        assert dev <= 0.01, f"edge {edge} copula deviation {dev}"
    worst_ks = 0.0
    for node in range(6):
        stat = ks_statistic(batch.data[:, node], spec.marginals[node])
        worst_ks = max(worst_ks, stat)
        assert stat <= 1.95 / math.sqrt(n), f"node {node} KS {stat}"
    triples = [
        (1, [0], [2]),
        (2, [1], [3]),
        (4, [2], [5]),
    ]
    worst_probe = 0.0
    for sep, a_set, b_set in triples:
        score = conditional_independence_probe(batch, spec.tree, sep, a_set, b_set)
        worst_probe = max(worst_probe, score)
        assert score <= 0.05, f"separator {sep} probe {score}"
    print(f"criterion 7: PASS - edge dev {worst_edge:.4f} <= 0.01, "
          f"KS {worst_ks:.4f} <= {1.95 / math.sqrt(n):.4f}, "
          f"probe {worst_probe:.4f} <= 0.05")


@pytest.fixture(scope="module")
def bands():
    grid = hmm.default_t_grid(BAND_D)
    out = {}
    for family in ("gaussian", "clayton", "sclayton"):
        for label, schedule in (
            ("const3", hmm.const_schedule(3.0, BAND_D)),
            ("linear03", hmm.linear_schedule(0.3, BAND_D)),
        ):
            start = time.perf_counter()
            band = hmm.uncertainty_band(
                BAND_D, family, schedule, BAND_N, SEED, t_grid=grid
            )
            out[(family, label)] = (band, time.perf_counter() - start)
    return out


def test_criterion_08_dominance_bands(bands):
    for (family, label), (band, elapsed) in bands.items():
        assert elapsed < 120.0, f"{family}/{label} band took {elapsed:.1f}s"
        ok = np.all(band.upper_ecdf >= band.lower_ecdf - band.mc_halfwidth)
        assert ok, f"dominance violated for {family}/{label}"
    worst = max(elapsed for _, elapsed in bands.values())
    print(f"criterion 8: PASS - 6 bands dominance-consistent, "
          f"slowest band {worst:.1f}s < 120s")


def test_criterion_09_tail_width_contrast(bands):
    t_star = 3.0 * math.sqrt(BAND_D)
    cl, _ = bands[("clayton", "const3")]
    scl, _ = bands[("sclayton", "const3")]
    k = int(np.argmin(np.abs(cl.t_grid - t_star)))
    gap = cl.width()[k] - scl.width()[k]
    noise = cl.mc_halfwidth[k] + scl.mc_halfwidth[k]
    assert gap > noise, f"width gap {gap:.5f} not above MC noise {noise:.5f}"
    print(f"criterion 9: PASS - width gap {gap:.5f} > MC noise {noise:.5f} "
          f"at t={cl.t_grid[k]:.2f}")


def test_criterion_10_byte_identical_outputs(tmp_path):
    spec = _fidelity_spec()
    csvs = []
    bins = []
    for workers in (1, 8):
        batch = sample(spec, 50_000, seed=SEED, workers=workers)
        cpath = tmp_path / f"samples_w{workers}.csv"
        bpath = tmp_path / f"samples_w{workers}.bin"
        batch.to_csv(cpath)
        batch.to_binary(bpath)
        csvs.append(cpath.read_bytes())
        bins.append(bpath.read_bytes())
    assert csvs[0] == csvs[1]
    assert bins[0] == bins[1]

    band_files = []
    for workers in (1, 8):
        band = hmm.uncertainty_band(
            30, "sclayton", hmm.const_schedule(3.0, 30), 20_000, SEED,
            workers=workers,
        )
        path = tmp_path / f"band_w{workers}.csv"
        band.to_csv(path)
        band_files.append(path.read_bytes())
    assert band_files[0] == band_files[1]
    print("criterion 10: PASS - sample and band outputs byte-identical "
          "across 1 and 8 workers")
