"""Perturbed-random-walk robustness bands.

The hidden process is a standard Gaussian random walk; observations couple
to it through Gaussian, Clayton or survival-Clayton copulas whose strength
is set by the per-step noise level.  The target functional is the running
maximum of the observations; its ECDF under the extreme noise scenarios
forms a distributional-robustness band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._csv import write_csv
from .copulas import (
    BivariateCopula,
    Clayton,
    Comonotone,
    Gaussian,
    Independence,
    SurvivalClayton,
    lo_leq,
    theta_from_rho,
)
from .marginals import Dirac, Marginal, Normal
from .sampler import TreeSpec, propagate, run_chunks
from .sampler import counter_uniforms  # unused; kept because perfbench/test_perfbench.py wraps hmm.counter_uniforms
from .trees import make_hmm_tree

FAMILIES = ("gaussian", "clayton", "sclayton", "none")


class WalkError(ValueError):
    """Raised for invalid walk specifications."""


def const_schedule(value: float, d: int) -> np.ndarray:
    return np.full(d, float(value))


def linear_schedule(slope: float, d: int) -> np.ndarray:
    return slope * np.arange(1, d + 1, dtype=float)


def parse_schedule(text: str, d: int) -> np.ndarray:
    """Parse 'const:<v>' or 'linear:<slope>' into a length-d schedule."""
    kind, _, arg = text.partition(":")
    if kind == "const":
        return const_schedule(float(arg), d)
    if kind == "linear":
        return linear_schedule(float(arg), d)
    raise WalkError(f"unknown schedule {text!r} (use const:<v> or linear:<s>)")


def walk_rho(n: int, sigma_n: float) -> float:
    """Correlation sqrt(n/(n+sigma)) between step n of the walk and its observation."""
    if sigma_n < 0:
        raise WalkError("sigma must be >= 0")
    return math.sqrt(n / (n + sigma_n))


def observation_copula(family: str, n: int, sigma_n: float) -> BivariateCopula:
    """Edge copula coupling hidden step n to its observation."""
    if family not in FAMILIES:
        raise WalkError(f"unknown family {family!r}")
    if family == "none" or sigma_n == 0:
        # exact observation: degenerate coupling instead of Gaussian(1)
        return Comonotone()
    rho = walk_rho(n, sigma_n)
    if family == "gaussian":
        return Gaussian(rho)
    theta = theta_from_rho(rho)
    return Clayton(theta) if family == "clayton" else SurvivalClayton(theta)


def build_spec(d: int, family: str, sigma_schedule: Sequence[float]) -> TreeSpec:
    """Tree specification of the walk-plus-observations model.

    Hidden nodes 2k carry Normal(0, k) and chain copulas Gaussian with
    correlation sqrt(k/(k+1)); observation nodes 2k+1 carry
    Normal(0, k + sigma_k) and the family coupling.  Step 0 is the Dirac
    anchor at zero with independence couplings.
    """
    if d < 1:
        raise WalkError("need at least one step")
    sigma = np.asarray(sigma_schedule, dtype=float)
    if sigma.shape != (d,):
        raise WalkError(f"schedule must have length {d}")
    if not np.all(np.isfinite(sigma)):
        raise WalkError("sigma must be finite")
    if np.any(sigma < 0):
        raise WalkError("sigma must be >= 0")
    if family == "none":
        sigma = np.zeros(d)

    tree = make_hmm_tree(d)
    marginals: list[Marginal] = [Dirac(0.0), Dirac(0.0)]
    copulas: dict[tuple[int, int], BivariateCopula] = {(0, 1): Independence()}
    for k in range(1, d + 1):
        marginals.append(Normal(0.0, float(k)))
        marginals.append(Normal(0.0, float(k) + float(sigma[k - 1])))
        chain_cop: BivariateCopula = (
            Independence() if k == 1 else Gaussian(math.sqrt((k - 1) / k))
        )
        copulas[(2 * k - 2, 2 * k)] = chain_cop
        copulas[(2 * k, 2 * k + 1)] = observation_copula(family, k, float(sigma[k - 1]))
    return TreeSpec(tree, tuple(marginals), copulas)


def default_t_grid(d: int, points: int = 401) -> np.ndarray:
    if points < 1:
        raise WalkError(f"grid must have at least 1 point, got {points}")
    return np.linspace(-5.0, 4.0 * math.sqrt(d), points)


def _walk_steps(spec: TreeSpec) -> int:
    """Number of walk steps in a hidden-chain spec; validates the shape."""
    nodes = spec.tree.node_count
    if nodes < 4 or nodes % 2 != 0:
        raise WalkError("spec is not a walk-with-observations tree")
    d = nodes // 2 - 1
    if spec.tree != make_hmm_tree(d):
        raise WalkError("spec is not a walk-with-observations tree")
    return d


def simulate_max(spec: TreeSpec, n_samples: int, seed: int,
                 workers: int = 1) -> np.ndarray:
    """Samples of max{0, observations} under a walk-with-observations spec.

    Streams the tree kernel that ``sample`` uses, so memory stays O(n) and
    the result equals the maximum over the odd columns of a full sample.
    """
    if n_samples < 1:
        raise WalkError("need at least one sample")
    _walk_steps(spec)

    # observations; node 1 is the Dirac(0) anchor
    observations = range(1, spec.tree.node_count, 2)

    def block(start: int, count: int) -> np.ndarray:
        running = np.zeros(count)
        for _, x in propagate(spec, seed, start, count, observations):
            np.maximum(running, x, out=running)
        return running

    return np.concatenate(run_chunks(n_samples, workers, block))


def ecdf_on_grid(samples: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    s = np.sort(samples)
    return np.searchsorted(s, t_grid, side="right") / len(s)


@dataclass
class BandResult:
    """Robustness band for the max-of-observations distribution function.

    ``lower_ecdf`` is the most-perturbed scenario (noise at its bound), the
    lower-lying curve; ``upper_ecdf`` is the noise-free walk, which
    stochastically dominates from below and so has the upper-lying CDF.
    ``mc_halfwidth`` is the sum of both curves' 3-sigma binomial half-widths.
    """

    t_grid: np.ndarray
    lower_ecdf: np.ndarray
    upper_ecdf: np.ndarray
    n_samples: int
    seed: int

    @property
    def mc_halfwidth(self) -> np.ndarray:
        return (_halfwidth(self.lower_ecdf, self.n_samples)
                + _halfwidth(self.upper_ecdf, self.n_samples))

    def width(self) -> np.ndarray:
        return self.upper_ecdf - self.lower_ecdf

    def to_csv(self, path) -> None:
        rows = np.column_stack(
            [self.t_grid, self.lower_ecdf, self.upper_ecdf, self.mc_halfwidth]
        )
        write_csv(path, "t,lower,upper,mc_halfwidth", rows)


def _halfwidth(p: np.ndarray, n: int) -> np.ndarray:
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


def uncertainty_band(
    d: int,
    family: str,
    sigma_bar_schedule: Sequence[float],
    n_samples: int,
    seed: int,
    t_grid: np.ndarray | None = None,
    workers: int = 1,
) -> BandResult:
    """Band between the noise-free and fully-perturbed max ECDFs."""
    t_grid = default_t_grid(d) if t_grid is None else np.asarray(t_grid, dtype=float)
    sigma_bar = np.asarray(sigma_bar_schedule, dtype=float)
    lower, upper = (
        ecdf_on_grid(simulate_max(build_spec(d, family, sigmas), n_samples, seed, workers),
                     t_grid)
        for sigmas in (sigma_bar, np.zeros_like(sigma_bar))
    )
    return BandResult(t_grid, lower, upper, n_samples, seed)


def ambiguity_membership(
    candidate_marginal: Marginal,
    candidate_copula: BivariateCopula,
    n: int,
    sigma_bar: float,
    anchor_family: str = "gaussian",
) -> bool:
    """Membership in the step-n ambiguity sets.

    The marginal must be continuous and squeezed between the noise-free and
    fully-perturbed observation CDFs at 201 points of t >= 0; the copula
    must be SI and dominate the anchor copula at the worst-case coupling
    strength on the 65-point grid.  The anchor family matches the error
    model under study; note that a tau-matched Clayton does not pointwise
    dominate the Gaussian anchor (their CDFs cross), so cross-family
    membership genuinely fails.
    """
    if n < 1:
        raise WalkError("n must be >= 1")
    if not candidate_marginal.continuous:
        return False
    hi = Normal(0.0, float(n))
    lo = Normal(0.0, float(n) + float(sigma_bar))
    t = np.linspace(0.0, float(lo.quantile(np.array([1 - 1e-6]))[0]), 201)
    f = candidate_marginal.cdf(t)
    if not (np.all(hi.cdf(t) >= f - 1e-12) and np.all(f >= lo.cdf(t) - 1e-12)):
        return False
    if not candidate_copula.flags().is_si:
        return False
    anchor = observation_copula(anchor_family, n, float(sigma_bar))
    return lo_leq(anchor, candidate_copula, 65)
