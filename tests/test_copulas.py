import math

import numpy as np
import pytest

from treedep.copulas import (
    MAX_GRID,
    Clayton,
    Comonotone,
    CopulaError,
    Gaussian,
    Independence,
    SurvivalClayton,
    cdf_table,
    lo_leq,
    open_grid,
    parse_copula,
    table_pqd,
    theta_from_rho,
    theta_from_tau,
)

ALL = [
    Independence(),
    Comonotone(),
    Gaussian(0.7),
    Gaussian(-0.4),
    Clayton(2.5),
    Clayton(7.764),
    SurvivalClayton(3.0),
]


def test_cdf_examples():
    assert Independence().cdf(0.3, 0.5) == pytest.approx(0.15)
    assert Comonotone().cdf(0.3, 0.5) == pytest.approx(0.3)
    g = open_grid(17)
    assert np.allclose(Gaussian(0.0).cdf(g[:, None], g[None, :]),
                       g[:, None] * g[None, :])


def test_gaussian_cdf_closed_form_anchor():
    # at the median pair the bivariate normal mass is 1/4 + asin(rho)/(2 pi)
    for rho in (-0.9, -0.3, 0.2, 0.5, 0.95, 0.999):
        want = 0.25 + math.asin(rho) / (2 * math.pi)
        assert Gaussian(rho).cdf(0.5, 0.5) == pytest.approx(want, abs=1e-13)


def test_gaussian_cdf_against_scipy_integrator():
    from scipy.stats import multivariate_normal
    from scipy.special import ndtri

    rng = np.random.default_rng(17)
    for rho in (-0.85, -0.2, 0.4, 0.97):
        cov = [[1.0, rho], [rho, 1.0]]
        mvn = multivariate_normal(mean=[0.0, 0.0], cov=cov)
        cop = Gaussian(rho)
        for _ in range(10):
            u, v = rng.uniform(0.02, 0.98, 2)
            want = mvn.cdf([ndtri(u), ndtri(v)])
            assert cop.cdf(u, v) == pytest.approx(want, abs=5e-7)


def _binorm_reference(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) from the conditional form, by adaptive quadrature.

    Integrates ndtr((k - rho x) / sqrt(1 - rho^2)) phi(x) over x <= h, an
    independent route from the arcsine form the kernel builds on; the
    integrand's step at x = k / rho is passed to the integrator.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    s = math.sqrt(1.0 - rho * rho)

    def integrand(x):
        return ndtr((k - rho * x) / s) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    lo = -40.0  # phi is below 1e-340 there
    step = [k / rho] if lo < k / rho < h else None
    value, _ = quad(integrand, lo, h, points=step, epsabs=1e-16, epsrel=1e-13, limit=400)
    return value


# one rho per branch of the kernel (6, 12, 20 nodes; high correlation), both signs
BVN_RHOS = (0.1, -0.1, 0.5, -0.5, 0.8, -0.8, 0.93, -0.93, 0.99, -0.99, 0.999)
# grid-129 corners and interior points on both sides of both diagonals
BVN_POINTS = [(1 / 130, 1 / 130), (1 / 130, 129 / 130), (129 / 130, 1 / 130),
              (129 / 130, 129 / 130), (0.5, 0.5), (0.3, 0.7), (0.3, 0.8), (0.45, 0.6),
              (0.9, 0.2), (0.8, 0.95), (0.05, 0.06)]


@pytest.mark.parametrize("rho", BVN_RHOS)
def test_gaussian_cdf_against_conditional_quadrature(rho):
    from scipy.special import ndtri

    u = np.array([p[0] for p in BVN_POINTS])
    v = np.array([p[1] for p in BVN_POINTS])
    got = Gaussian(rho).cdf(u, v)
    want = [_binorm_reference(ndtri(a), ndtri(b), rho) for a, b in BVN_POINTS]
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("cop", ALL)
def test_frechet_bounds_and_margins(cop):
    g = open_grid(33)
    c = cop.cdf(g[:, None], g[None, :])
    lower = np.maximum(g[:, None] + g[None, :] - 1.0, 0.0)
    upper = np.minimum(g[:, None], g[None, :])
    assert np.all(c >= lower - 1e-12)
    assert np.all(c <= upper + 1e-12)
    assert np.allclose(cop.cdf(g, 1.0), g, atol=1e-12)
    assert np.allclose(cop.cdf(1.0, g), g, atol=1e-12)
    assert np.allclose(cop.cdf(g, 0.0), 0.0, atol=1e-12)


@pytest.mark.parametrize("cop", ALL)
def test_two_increasing_on_random_rectangles(cop):
    rng = np.random.default_rng(5)
    for _ in range(200):
        u1, u2 = np.sort(rng.uniform(0.001, 0.999, 2))
        v1, v2 = np.sort(rng.uniform(0.001, 0.999, 2))
        vol = (cop.cdf(u2, v2) - cop.cdf(u1, v2)
               - cop.cdf(u2, v1) + cop.cdf(u1, v1))
        assert vol >= -1e-12


def test_h_examples():
    u = np.array([0.2, 0.5, 0.9])
    assert np.allclose(Independence().h(u, 0.37), 0.37)
    cl = Clayton(4.0)
    assert np.allclose(cl.h(u, 1.0), 1.0)
    assert np.allclose(cl.h(u, 0.0), 0.0)
    assert Gaussian(0.5).h(0.5, 0.5) == pytest.approx(0.5)
    with pytest.raises(CopulaError):
        cl.h(0.0, 0.5)
    with pytest.raises(CopulaError):
        cl.h(1.0, 0.5)


@pytest.mark.parametrize("cop", ALL)
def test_h_is_a_cdf_in_v(cop):
    u = open_grid(15)
    v = np.linspace(0.0, 1.0, 41)
    hv = cop.h(u[:, None], v[None, :])
    assert np.all(np.diff(hv, axis=1) >= -1e-12)
    assert np.allclose(hv[:, 0], 0.0, atol=1e-12) or isinstance(cop, Comonotone)
    assert np.allclose(hv[:, -1], 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "cop", [Independence(), Gaussian(0.7), Gaussian(-0.4), Clayton(2.5),
            SurvivalClayton(3.0)]
)
def test_h_matches_cdf_derivative(cop):
    rng = np.random.default_rng(11)
    u = rng.uniform(0.05, 0.95, 50)
    v = rng.uniform(0.05, 0.95, 50)
    eps = 1e-6
    numeric = (cop.cdf(u + eps, v) - cop.cdf(u - eps, v)) / (2 * eps)
    assert np.max(np.abs(numeric - cop.h(u, v))) < 1e-6


@pytest.mark.parametrize(
    "cop", [Independence(), Gaussian(0.9), Gaussian(-0.7), Clayton(0.5),
            Clayton(7.764), Clayton(24.0), SurvivalClayton(7.764)]
)
def test_h_inv_round_trip(cop):
    rng = np.random.default_rng(3)
    u = rng.uniform(1e-4, 1 - 1e-4, 1000)
    p = rng.uniform(1e-4, 1 - 1e-4, 1000)
    v = cop.h_inv(u, p)
    assert np.max(np.abs(cop.h(u, v) - p)) <= 1e-10


def test_h_inv_examples():
    assert np.allclose(Independence().h_inv(0.4, 0.7), 0.7)
    # degenerate diagonal kick
    assert np.allclose(Comonotone().h_inv(0.4, 0.99), 0.4)
    assert np.allclose(Gaussian(1.0).h_inv(0.4, 0.2), 0.4)


def test_dependence_flags():
    assert Independence().flags() == Clayton(0.0).flags()
    f = Gaussian(-0.5).flags()
    assert not f.is_si and not f.is_ci
    assert Clayton(7.764).flags().is_si and Clayton(7.764).flags().is_ci
    assert Comonotone().flags().is_si and not Comonotone().flags().is_mtp2
    assert SurvivalClayton(3.0).flags().is_mtp2


def test_lo_leq():
    assert lo_leq(Gaussian(0.3), Gaussian(0.7))
    assert not lo_leq(Gaussian(0.7), Gaussian(0.3))
    assert lo_leq(Clayton(1.0), Clayton(3.0))
    for cop in ALL:
        assert lo_leq(cop, cop)


def test_clayton_lo_monotone_in_theta():
    thetas = [0.0, 0.3, 1.0, 2.0, 7.764, 20.0]
    for t1, t2 in zip(thetas, thetas[1:]):
        assert lo_leq(Clayton(t1), Clayton(t2), grid_size=65)
        assert lo_leq(SurvivalClayton(t1), SurvivalClayton(t2), grid_size=65)


def test_pqd():
    # the audit's psmd_y flag on copula edges
    assert table_pqd(cdf_table(Clayton(2.0), 129))
    assert table_pqd(cdf_table(Comonotone(), 129))
    assert not table_pqd(cdf_table(Gaussian(-0.3), 129))


def test_survival_clayton_identities():
    cl, scl = Clayton(3.0), SurvivalClayton(3.0)
    g = open_grid(21)
    u, v = np.meshgrid(g, g)
    # the rotated cdf satisfies scl(1-u, 1-v) = 1 - u - v + cl(u, v)
    assert np.allclose(scl.cdf(1 - u, 1 - v), 1 - u - v + cl.cdf(u, v), atol=1e-12)
    # survival symmetry: the survival function of scl is cl at reflected args
    assert np.allclose(1 - u - v + scl.cdf(u, v), cl.cdf(1 - u, 1 - v), atol=1e-12)


def test_clayton_independence_limit():
    tiny = Clayton(1e-9)
    g = open_grid(17)
    assert np.allclose(tiny.cdf(g[:, None], g[None, :]), g[:, None] * g[None, :])


def test_kendall_tau_values():
    assert Independence().kendall_tau() == 0.0
    assert Comonotone().kendall_tau() == 1.0
    assert Gaussian(math.sqrt(0.9)).kendall_tau() == pytest.approx(0.795, abs=5e-4)
    assert Clayton(2.0).kendall_tau() == pytest.approx(0.5)


def test_theta_matching():
    rho = math.sqrt(0.9)
    assert theta_from_rho(rho) == pytest.approx(7.764, abs=1e-3)
    assert theta_from_rho(0.0) == 0.0
    tau = Gaussian(rho).kendall_tau()
    assert Clayton(theta_from_tau(tau)).kendall_tau() == pytest.approx(tau)
    with pytest.raises(CopulaError):
        theta_from_rho(1.0)


def test_parameter_validation():
    with pytest.raises(CopulaError):
        Gaussian(1.5)
    with pytest.raises(CopulaError):
        Clayton(-0.1)
    with pytest.raises(CopulaError):
        Independence().cdf(1.2, 0.5)


def test_parse_copula():
    for text in ["indep", "comonotone", "gaussian(0.7)", "clayton(7.764)",
                 "sclayton(7.764)"]:
        c = parse_copula(text)
        assert str(c) == text
    with pytest.raises(CopulaError):
        parse_copula("frank(3)")


NAN = float("nan")


@pytest.mark.parametrize("cop", [Gaussian(0.5), Clayton(2.0), SurvivalClayton(2.0),
                                 Independence(), Comonotone()])
def test_unit_arguments_reject_nan(cop):
    u = np.array([0.2, NAN, 0.7])
    with pytest.raises(CopulaError, match=r"\(0,1\)"):
        cop.h_inv(u, 0.5)
    with pytest.raises(CopulaError, match=r"\(0,1\)"):
        cop.h_inv(0.2, NAN)
    with pytest.raises(CopulaError, match=r"\[0,1\]"):
        cop.cdf(NAN, 0.3)
    with pytest.raises(CopulaError, match=r"\[0,1\]"):
        cop.h(0.4, np.array([0.3, NAN]))
    # empty arrays pass the checks; closed-interval ends are admitted
    assert cop.h_inv(np.array([]), 0.5).shape == (0,)
    # 0-d arguments give a 0-d result (the in-place kernels write into
    # buffers of the broadcast shape, not into numpy scalars)
    assert np.shape(cop.h_inv(np.float64(0.2), np.array(0.5))) == ()
    assert 0.0 < float(cop.h_inv(0.2, 0.5)) < 1.0
    assert np.allclose(cop.cdf(np.array([0.0, 1.0]), 1.0), [0.0, 1.0])


def test_gaussian_and_clayton_named_nan_cases():
    with pytest.raises(CopulaError):
        Gaussian(0.5).h_inv(NAN, 0.5)
    with pytest.raises(CopulaError):
        Clayton(2).h_inv(0.2, NAN)
    with pytest.raises(CopulaError):
        Gaussian(0.5).cdf(NAN, 0.3)


def test_open_grid_sizes_between_3_and_max_grid():
    assert open_grid(MAX_GRID).size == MAX_GRID
    with pytest.raises(CopulaError, match=f"grid size {MAX_GRID + 1} .* limit of {MAX_GRID}"):
        open_grid(MAX_GRID + 1)
    with pytest.raises(CopulaError, match=">= 3"):
        open_grid(2)
