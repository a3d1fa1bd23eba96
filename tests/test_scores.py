"""The normal-score path: Gaussian and comonotone edges and Normal quantiles
work on scores z = ndtri(u), and the propagation kernel agrees with a plain
copula-scale propagation."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from treedep.copulas import (
    Clayton,
    Comonotone,
    CopulaError,
    Gaussian,
    Independence,
    SurvivalClayton,
)
from treedep.hmm import (
    FAMILIES,
    build_spec,
    const_schedule,
    default_t_grid,
    ecdf_on_grid,
    linear_schedule,
    uncertainty_band,
)
from treedep.marginals import (
    DiscreteUniform,
    Empirical,
    MarginalError,
    Normal,
    RectifiedNormal,
    Uniform,
)
from treedep.sampler import TreeSpec, counter_uniforms, sample
from treedep.trees import DirectedTree, make_chain

EPS = np.finfo(float).eps
# scores up to |z| = 8: ndtr(z) is still below 1 there, so the copula-scale
# reference is defined
Z = np.concatenate([np.linspace(-8.0, 8.0, 4001),
                    np.clip(np.random.default_rng(0).normal(size=20_000) * 3.0, -8.0, 8.0)])
P = np.clip(np.random.default_rng(1).uniform(size=Z.size), 2.0**-53, 1.0 - 2.0**-53)


def round_trip(w):
    """How far one ndtr/ndtri round trip moves a score w, in units of eps.

    A double holds ndtr(w) to a relative eps: about eps * Phi(w) absolute,
    which near 1 is the spacing of doubles.  ndtri's slope there is
    1/phi(w), so the score moves by up to eps * max(Phi(w), Phi(-w)) / phi(w):
    3e-16 at w = 0, 4e-2 at |w| = 8.
    """
    return np.maximum(ndtr(w), ndtr(-w)) * math.sqrt(2.0 * math.pi) * np.exp(0.5 * w * w)


@pytest.mark.parametrize("rho", [-1.0, -0.7, 0.0, 0.5, 0.999, 1.0])
def test_gaussian_h_inv_in_scores_matches_the_copula_scale(rho):
    cop = Gaussian(rho)
    got = cop.h_inv(Z, P, scores=True)
    want = ndtri(cop.h_inv(ndtr(Z), P))
    # The reference makes two round trips: ndtr(Z), which reaches the output
    # times |rho|, and ndtri of its result w.  The final sum rounds to
    # eps * (|w| + 1).  Twice that sum leaves room for ndtr's and ndtri's own
    # last-place errors; on these points the gaps reach 0.77 of the sum.
    tol = 2.0 * EPS * (abs(rho) * round_trip(Z) + round_trip(got) + np.abs(got) + 1.0)
    assert np.all(np.abs(got - want) <= tol)
    if abs(rho) < 1.0:
        # on the copula scale the same arithmetic runs between ndtri and ndtr
        u = ndtr(Z)
        assert np.array_equal(cop.h_inv(u, P), ndtr(cop.h_inv(ndtri(u), P, scores=True)))


def test_comonotone_h_inv_in_scores_returns_the_scores():
    got = Comonotone().h_inv(Z, P, scores=True)
    assert np.array_equal(got, Z) and got is not Z
    assert np.array_equal(Gaussian(1.0).h_inv(Z, P, scores=True), Z)
    assert np.array_equal(Gaussian(-1.0).h_inv(Z, P, scores=True), -Z)


@pytest.mark.parametrize("marginal", [Normal(1.5, 4.0), Normal(-3.0, 0.01), Normal(0.0, 1.0)])
def test_normal_quantile_in_scores_matches_the_probability_scale(marginal):
    got = marginal.quantile(Z, scores=True)
    want = marginal.quantile(ndtr(Z))
    # one round trip of Z, scaled by sigma, plus the rounding of mu + sigma*z
    tol = 2.0 * EPS * (marginal.sigma * (round_trip(Z) + np.abs(Z)) + abs(marginal.mu))
    assert np.all(np.abs(got - want) <= tol)
    assert np.array_equal(got, marginal.mu + marginal.sigma * Z)
    assert np.array_equal(Normal(2.0, 0.0).quantile(Z, scores=True), np.full_like(Z, 2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_are_refused_naming_the_unit_interval(bad):
    z = np.array([0.0, bad, 1.0])
    p = np.full(3, 0.5)
    for cop in (Gaussian(0.5), Gaussian(1.0), Comonotone()):
        with pytest.raises(CopulaError, match=r"\(0,1\)"):
            cop.h_inv(z, p, scores=True)
    with pytest.raises(MarginalError, match=r"\(0,1\)"):
        Normal(0.0, 1.0).quantile(z, scores=True)
    # p stays a probability on the score path
    with pytest.raises(CopulaError, match=r"\(0,1\)"):
        Gaussian(0.5).h_inv(np.zeros(2), np.array([0.5, 1.0]), scores=True)


# -- the kernel against a copula-scale propagation ------------------------------------


def test_gaussian_and_comonotone_edges_carry_scores_to_normal_marginals():
    spec = TreeSpec(make_chain(2), (Normal(1, 4), Normal(-2, 9), Normal(0, 1)),
                    {(0, 1): Gaussian(0.6), (1, 2): Comonotone()})
    n, seed = 1000, 5
    z0 = ndtri(counter_uniforms(seed, 0, 0, n))
    z1 = 0.6 * z0 + math.sqrt(1.0 - 0.6 * 0.6) * ndtri(counter_uniforms(seed, 1, 0, n))
    want = np.column_stack([1.0 + 2.0 * z0, -2.0 + 3.0 * z1, 0.0 + 1.0 * z1])
    assert np.array_equal(sample(spec, n, seed=seed).data, want)


def reference_values(spec: TreeSpec, seed: int, n: int) -> np.ndarray:
    """Every column in copula values u, as the kernel propagated it before it
    learned normal scores; the marginal quantile is the only conversion."""
    tree = spec.tree
    u = {}
    for node in tree.level_order():
        p = counter_uniforms(seed, node, 0, n)
        parent = tree.parent(node)
        u[node] = p if parent is None else spec.copulas[(parent, node)].h_inv(u[parent], p)
    return np.column_stack([spec.marginals[k].quantile(u[k]) for k in range(tree.node_count)])


def reference_band(d, family, schedule, n, seed, grid):
    curves = []
    for sigmas in (schedule, np.zeros_like(schedule)):
        x = reference_values(build_spec(d, family, sigmas), seed, n)
        curves.append(ecdf_on_grid(np.maximum(x[:, 1::2].max(axis=1), 0.0), grid))
    return curves


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("schedule", [const_schedule, linear_schedule])
def test_band_ecdfs_equal_the_copula_scale_reference(family, schedule):
    d, n, seed = 12, 4000, 7
    sigmas = schedule(3.0 if schedule is const_schedule else 0.3, d)
    grid = default_t_grid(d)
    band = uncertainty_band(d, family, sigmas, n, seed, t_grid=grid, workers=3)
    lower, upper = reference_band(d, family, sigmas, n, seed, grid)
    assert np.array_equal(band.lower_ecdf, lower)
    assert np.array_equal(band.upper_ecdf, upper)


def mixed_spec() -> TreeSpec:
    """Every copula family (Gaussian at rho = +-1 too) and every marginal family."""
    edges = [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5), (5, 6), (6, 7), (2, 8), (8, 9),
             (4, 10), (10, 11), (7, 12), (12, 13), (0, 14)]
    copulas = [Gaussian(0.8), Clayton(2.0), Comonotone(), Gaussian(-0.6), SurvivalClayton(1.5),
               Gaussian(0.999), Independence(), Gaussian(0.3), Comonotone(), Gaussian(0.95),
               Clayton(0.7), Gaussian(1.0), Gaussian(-1.0), SurvivalClayton(4.0)]
    marginals = (Normal(0, 1), Normal(2, 9), Uniform(-1, 1), Normal(0, 0.5), RectifiedNormal(2.0),
                 Normal(-1, 4), DiscreteUniform((0, 1, 2, 5)), Normal(3, 1), Normal(0, 2),
                 Uniform(0, 10), Empirical((0.0, 1.0, 3.0, 7.0)), Normal(1, 1), Normal(0, 1),
                 Normal(5, 0.01), Uniform(0, 1))
    return TreeSpec(DirectedTree(15, edges), marginals, dict(zip(edges, copulas)))


def test_sample_agrees_with_the_copula_scale_reference():
    spec = mixed_spec()
    n, seed = 50_000, 11
    got = sample(spec, n, seed=seed, workers=4).data
    want = reference_values(spec, seed, n)
    # Compared as copula values F(x): each ndtr/ndtri round trip of the
    # reference moves a copula value by a few ulps (about 1e-16 absolute),
    # and the edges below carry that along, scaled by their h_inv slopes.
    # The worst gap measured on 200k rows of this spec is 4.6e-13; 1e-12
    # allows twice that.  A column whose copula value comes from its
    # parent's score by the arithmetic the reference runs between ndtri and
    # ndtr, with no round trip before it, must agree exactly.
    for node, marginal in enumerate(spec.marginals):
        gap = np.max(np.abs(marginal.cdf(got[:, node]) - marginal.cdf(want[:, node])))
        assert gap <= 1e-12, (node, gap)
    exact = [0, 2, 5, 6, 7, 9, 14]
    assert np.array_equal(got[:, exact], want[:, exact])
