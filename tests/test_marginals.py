import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treedep.marginals import (
    Dirac,
    DiscreteUniform,
    Empirical,
    MarginalError,
    Normal,
    RectifiedNormal,
    Uniform,
    cx_leq,
    default_grid,
    parse_marginal,
    range_closure_equal,
    st_leq,
)

FAMILIES = [
    Normal(0.0, 4.0),
    Uniform(0.0, 3.0),
    DiscreteUniform((0.0, 1.0, 2.0)),
    Dirac(0.5),
    RectifiedNormal(1.5),
    Empirical((-1.0, 0.0, 0.25, 2.0)),
]


def test_cdf_examples():
    d = Dirac(0.0)
    assert d.cdf(-0.1) == 0.0
    assert d.cdf(0.0) == 1.0
    assert RectifiedNormal(1.0).cdf(0.0) == pytest.approx(0.5)
    assert DiscreteUniform((0, 1, 2)).cdf(1) == pytest.approx(2 / 3)


def test_quantile_examples():
    assert Uniform(0, 1).quantile(0.3) == pytest.approx(0.3)
    assert DiscreteUniform((0, 1, 2)).quantile(0.5) == 1.0
    assert Normal(0, 4).quantile(0.5) == pytest.approx(0.0)


def test_cdf_rejects_nan_and_quantile_rejects_bounds():
    with pytest.raises(MarginalError):
        Normal(0, 1).cdf(float("nan"))
    for bad in (0.0, 1.0, -0.2, 1.3, float("nan"), [0.5, float("nan")]):
        for m in (Uniform(0, 1), Normal(0, 1)):
            with pytest.raises(MarginalError, match=r"\(0,1\)"):
                m.quantile(bad)
    assert Normal(0, 1).quantile(np.array([])).shape == (0,)


@pytest.mark.parametrize("m", FAMILIES)
def test_galois_inequalities(m):
    ts = np.linspace(0.01, 0.99, 41)
    xs = m.quantile(ts)
    assert np.all(m.cdf(xs) >= ts - 1e-12)
    grid = np.unique(xs)
    back = m.quantile(np.clip(m.cdf(grid), 1e-12, 1 - 1e-12))
    assert np.all(back <= grid + 1e-9)


@pytest.mark.parametrize("m", [Normal(1.0, 2.0), Uniform(-1.0, 2.0)])
def test_continuous_round_trip(m):
    ts = np.linspace(1e-4, 1 - 1e-4, 101)
    assert np.max(np.abs(m.cdf(m.quantile(ts)) - ts)) < 1e-12


def test_range_closures():
    assert range_closure_equal(RectifiedNormal(1), RectifiedNormal(2))
    assert not range_closure_equal(Uniform(0, 1), Dirac(0))
    assert range_closure_equal(Normal(0, 1), Normal(5, 9))
    assert range_closure_equal(Dirac(0), Dirac(3))
    assert not range_closure_equal(DiscreteUniform((0, 1)), DiscreteUniform((0, 1, 2)))
    assert not range_closure_equal(RectifiedNormal(1), Uniform(0, 1))
    with pytest.raises(MarginalError):
        range_closure_equal(Empirical((0.0, 1.0)), Uniform(0, 1))


def test_stochastic_order():
    # same mean, larger variance: not st-comparable, but convex-ordered
    n1, n2 = Normal(0, 3), Normal(0, 5)
    assert not st_leq(n1, n2)
    assert not st_leq(n2, n1)
    assert cx_leq(n1, n2)
    assert not cx_leq(n2, n1)
    assert st_leq(RectifiedNormal(1), RectifiedNormal(2))
    for m in FAMILIES:
        assert st_leq(m, m)
        assert cx_leq(m, m)


def test_st_transitive_on_fixed_grid():
    a, b, c = Normal(0, 1), Normal(0.5, 1), Normal(1.2, 1)
    grid = default_grid(a, c)
    assert st_leq(a, b, grid) and st_leq(b, c, grid) and st_leq(a, c, grid)


def test_cx_rejects_unequal_means():
    assert not cx_leq(Normal(0, 1), Normal(0.1, 1))


def test_empty_grid_rejected():
    with pytest.raises(MarginalError):
        st_leq(Normal(0, 1), Normal(0, 2), grid=np.array([]))


@given(st.floats(-3, 3), st.floats(0.1, 4))
def test_normal_stop_loss_matches_quadrature(mu, sigma2):
    m = Normal(mu, sigma2)
    k = 0.3
    xs = np.linspace(k, mu + 8 * math.sqrt(sigma2) + 8, 20001)
    trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    numeric = trapz(1.0 - m.cdf(xs), xs)
    assert m.stop_loss(k) == pytest.approx(numeric, abs=5e-4)


@pytest.mark.parametrize("m", FAMILIES + [Normal(1.0, 0.0)], ids=str)
def test_stop_loss_array_matches_scalar_calls(m):
    # covers k <= a, a < k < b and k >= b for Uniform(0, 3), and both signs
    # of k for RectifiedNormal
    grid = np.concatenate([np.linspace(-4.0, 5.0, 37), [0.0, 3.0, 0.5, -0.0]])
    got = m.stop_loss(grid)
    assert got.shape == grid.shape
    want = np.array([float(m.stop_loss(float(k))) for k in grid])
    assert got.tobytes() == want.tobytes()


def test_parse_round_trip():
    for text in ["normal(0,4)", "uniform(0,3)", "discrete(0,1,2)",
                 "dirac(0)", "rectnormal(1.5)"]:
        m = parse_marginal(text)
        assert str(m) == text
    with pytest.raises(MarginalError):
        parse_marginal("cauchy(0,1)")
    with pytest.raises(MarginalError):
        parse_marginal("normal(0)")
    with pytest.raises(MarginalError):
        parse_marginal("uniform(3,0)")
