import math
import weakref

import numpy as np
import pytest
from scipy.special import ndtr

from treedep.copulas import Clayton, Comonotone, Gaussian, Independence, SurvivalClayton
from treedep.hmm import (
    BandResult,
    WalkError,
    ambiguity_membership,
    build_spec,
    const_schedule,
    default_t_grid,
    ecdf_on_grid,
    linear_schedule,
    parse_schedule,
    simulate_max,
    uncertainty_band,
    walk_rho,
)
from treedep.marginals import Dirac, Normal
from treedep.sampler import propagate, sample

N = 20_000
D = 40


def test_schedules():
    assert np.allclose(parse_schedule("const:3", 4), [3, 3, 3, 3])
    assert np.allclose(parse_schedule("linear:0.3", 3), [0.3, 0.6, 0.9])
    with pytest.raises(WalkError):
        parse_schedule("geometric:2", 3)


def test_build_spec_structure():
    spec = build_spec(3, "gaussian", const_schedule(3.0, 3))
    assert spec.tree.node_count == 8
    assert isinstance(spec.marginals[0], Dirac)
    assert isinstance(spec.marginals[1], Dirac)
    assert spec.marginals[4] == Normal(0.0, 2.0)
    assert spec.marginals[5] == Normal(0.0, 5.0)
    assert isinstance(spec.copulas[(0, 1)], Independence)
    assert isinstance(spec.copulas[(0, 2)], Independence)
    chain_cop = spec.copulas[(2, 4)]
    assert isinstance(chain_cop, Gaussian)
    assert chain_cop.rho == pytest.approx(math.sqrt(1 / 2))
    obs = spec.copulas[(2, 3)]
    assert isinstance(obs, Gaussian)
    assert obs.rho == pytest.approx(math.sqrt(1 / 4))


def test_build_spec_zero_sigma_uses_comonotone():
    spec = build_spec(2, "gaussian", const_schedule(0.0, 2))
    assert isinstance(spec.copulas[(2, 3)], Comonotone)
    spec_none = build_spec(2, "none", const_schedule(5.0, 2))
    assert isinstance(spec_none.copulas[(2, 3)], Comonotone)
    assert spec_none.marginals[3] == Normal(0.0, 1.0)


def test_build_spec_families_and_theta_anchor():
    # step 9 with sigma 1 puts the coupling exactly at rho = sqrt(9/10)
    spec = build_spec(9, "clayton", const_schedule(1.0, 9))
    cop = spec.copulas[(18, 19)]
    assert isinstance(cop, Clayton)
    assert cop.theta == pytest.approx(7.764, abs=1e-3)
    spec_s = build_spec(9, "sclayton", const_schedule(1.0, 9))
    assert isinstance(spec_s.copulas[(18, 19)], SurvivalClayton)


def test_build_spec_validation():
    with pytest.raises(WalkError):
        build_spec(0, "gaussian", np.array([]))
    with pytest.raises(WalkError):
        build_spec(3, "gaussian", const_schedule(3.0, 2))
    with pytest.raises(WalkError):
        build_spec(2, "gaussian", np.array([1.0, -0.5]))
    with pytest.raises(WalkError):
        build_spec(2, "pareto", const_schedule(1.0, 2))
    with pytest.raises(WalkError):
        walk_rho(3, -1.0)


def test_single_step_closed_form():
    # with one exact step, max{0, X1} has CDF Phi(t) for t >= 0, 0 below
    t_grid = np.linspace(-1.0, 3.0, 41)
    spec = build_spec(1, "none", np.zeros(1))
    ecdf = ecdf_on_grid(simulate_max(spec, 50_000, seed=13), t_grid)
    want = np.where(t_grid < 0, 0.0, ndtr(t_grid))
    assert np.max(np.abs(ecdf - want)) < 3.0 / np.sqrt(50_000) * 1.3
    assert np.all(ecdf[t_grid < 0] == 0.0)


def test_streaming_equals_generic_sampler():
    sig = const_schedule(2.0, 5)
    spec = build_spec(5, "clayton", sig)
    batch = sample(spec, 3000, seed=21)
    direct = np.maximum(batch.data[:, 1::2].max(axis=1), 0.0)
    stream = simulate_max(spec, 3000, seed=21)
    assert np.array_equal(direct, stream)


def test_streaming_workers_deterministic():
    spec = build_spec(D, "gaussian", linear_schedule(0.3, D))
    a = simulate_max(spec, 5000, seed=5, workers=1)
    b = simulate_max(spec, 5000, seed=5, workers=8)
    assert np.array_equal(a, b)
    # chunks of unequal size, and more workers than rows
    assert np.array_equal(a[:7], simulate_max(spec, 7, seed=5, workers=3))
    assert np.array_equal(a[:3], simulate_max(spec, 3, seed=5, workers=8))


def test_kernel_keeps_few_walk_columns_alive():
    spec = build_spec(20, "gaussian", const_schedule(1.0, 20))
    refs = []
    for node, u in propagate(spec, 2, 0, 100):
        refs.append(weakref.ref(u))
        del u
        assert sum(r() is not None for r in refs) <= 2, node


def test_simulate_max_rejects_non_walk_specs():
    from treedep.sampler import TreeSpec
    from treedep.trees import make_chain

    bad = TreeSpec(make_chain(3), (Normal(0, 1),) * 4,
                   {(i, i + 1): Gaussian(0.5) for i in range(3)})
    with pytest.raises(WalkError):
        simulate_max(bad, 100, seed=1)
    with pytest.raises(WalkError):
        simulate_max(build_spec(2, "gaussian", const_schedule(1.0, 2)), 0, seed=1)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        simulate_max(build_spec(2, "gaussian", const_schedule(1.0, 2)), 5, seed=1, workers=0)


def test_walk_moments():
    spec = build_spec(D, "none", np.zeros(D))
    batch = sample(spec, N, seed=17)
    for k in (10, D):
        col = batch.data[:, 2 * k]
        assert abs(np.var(col) - k) <= 3.0 * math.sqrt(2.0) * k / math.sqrt(N)
    c = np.corrcoef(batch.data[:, 2 * 10], batch.data[:, 2 * 11])[0, 1]
    assert abs(c - math.sqrt(10 / 11)) <= 3.0 / math.sqrt(N)


def test_band_properties():
    band = uncertainty_band(D, "gaussian", const_schedule(3.0, D), N, seed=19)
    assert np.all(np.diff(band.lower_ecdf) >= 0)
    assert np.all(np.diff(band.upper_ecdf) >= 0)
    assert np.all(band.upper_ecdf >= band.lower_ecdf - band.mc_halfwidth)
    assert band.lower_ecdf[0] == 0.0  # the anchored max never drops below 0
    assert band.upper_ecdf[-1] >= 0.999
    huge = ecdf_on_grid(
        np.sort(np.maximum(band.t_grid, 0.0)), np.array([1e9])
    )
    assert huge[0] == 1.0


def test_band_zero_sigma_collapses():
    band = uncertainty_band(10, "gaussian", const_schedule(0.0, 10), 5000, seed=23)
    assert np.array_equal(band.lower_ecdf, band.upper_ecdf)


def test_band_family_monotone_in_sigma():
    t_grid = default_t_grid(D)
    small = uncertainty_band(D, "gaussian", const_schedule(1.0, D), N, 29, t_grid)
    large = uncertainty_band(D, "gaussian", const_schedule(4.0, D), N, 29, t_grid)
    hw = small.mc_halfwidth + large.mc_halfwidth
    assert np.all(large.lower_ecdf <= small.lower_ecdf + hw)


def test_ecdf_on_grid():
    samples = np.array([1.0, 2.0, 2.0, 5.0])
    grid = np.array([0.0, 1.0, 2.0, 4.0, 6.0])
    assert np.allclose(ecdf_on_grid(samples, grid), [0, 0.25, 0.75, 0.75, 1.0])


def test_ambiguity_membership():
    n, sbar = 4, 3.0
    rho_low = walk_rho(n, sbar)
    assert ambiguity_membership(Normal(0, n + 1.0), Gaussian(0.95), n, sbar)
    assert ambiguity_membership(Normal(0, n + 1.0), Gaussian(rho_low), n, sbar)
    assert not ambiguity_membership(Normal(0, n + 1.0), Gaussian(-0.2), n, sbar)
    assert not ambiguity_membership(Normal(0, n + 2 * sbar), Gaussian(0.99), n, sbar)
    assert not ambiguity_membership(
        Normal(0, n + 1.0), Gaussian(rho_low * 0.8), n, sbar
    )
    from treedep.copulas import theta_from_rho
    from treedep.marginals import DiscreteUniform

    assert not ambiguity_membership(DiscreteUniform((0, 1)), Gaussian(0.9), n, sbar)

    # tau-matched Clayton copulas cross the Gaussian anchor, so they live in
    # the Clayton-anchored set, not the Gaussian-anchored one
    theta_low = theta_from_rho(rho_low)
    cl = Clayton(theta_low + 1.0)
    assert not ambiguity_membership(Normal(0, n + 1.0), cl, n, sbar)
    assert ambiguity_membership(
        Normal(0, n + 1.0), cl, n, sbar, anchor_family="clayton"
    )
    assert not ambiguity_membership(
        Normal(0, n + 1.0), Clayton(theta_low * 0.8), n, sbar,
        anchor_family="clayton",
    )
    assert ambiguity_membership(
        Normal(0, n + 1.0), SurvivalClayton(theta_low + 1.0), n, sbar,
        anchor_family="sclayton",
    )


def test_band_result_fills_in_mc_halfwidth(tmp_path):
    t = np.array([0.0, 1.0, 2.0])
    lower, upper = np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.6, 1.0])
    band = BandResult(t, lower, upper, 100, 0)
    want = 3 * np.sqrt(lower * (1 - lower) / 100) + 3 * np.sqrt(upper * (1 - upper) / 100)
    assert np.allclose(band.mc_halfwidth, want)
    band.to_csv(tmp_path / "b.csv")
    rows = np.loadtxt(tmp_path / "b.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows, np.column_stack([t, lower, upper, band.mc_halfwidth]))
    # a given half-width is kept, and the library band's matches the default
    assert BandResult(t, lower, upper, 100, 0, np.zeros(3)).mc_halfwidth.tolist() == [0] * 3
    lib = uncertainty_band(5, "gaussian", const_schedule(0.5, 5), 500, 3)
    again = BandResult(lib.t_grid, lib.lower_ecdf, lib.upper_ecdf, lib.n_samples, lib.seed)
    assert np.array_equal(again.mc_halfwidth, lib.mc_halfwidth)
