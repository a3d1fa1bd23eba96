"""Univariate marginal distributions: CDF, quantile, range closure, orders.

Families match what the tree specifications need: normal, uniform, discrete
uniform, Dirac, rectified normal (``max{xi, 0}`` for centered normal ``xi``)
and empirical samples.  All evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtr, ndtri

_SQRT2PI = math.sqrt(2.0 * math.pi)


class MarginalError(ValueError):
    """Raised for invalid marginal parameters or unsupported queries."""


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


@dataclass(frozen=True)
class RangeClosure:
    """Canonical form of the closure of a CDF's range.

    ``kind`` is one of ``"interval01"`` (all of [0,1]), ``"finite"`` (a finite
    set of rationals, stored in ``points``) or ``"half_with_atom"``
    ({0} united with [1/2, 1]).
    """

    kind: str
    points: frozenset[Fraction] = frozenset()


class Marginal:
    """Base class; subclasses implement the family-specific evaluators.

    ``takes_scores`` marks the families whose ``quantile`` also takes normal
    scores (``scores=True``): the normal law.
    """

    continuous: bool = False
    takes_scores: bool = False

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, t):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def stop_loss(self, k):
        """E (X - k)_+, the stop-loss transform at retention(s) ``k``."""
        raise NotImplementedError

    def range_closure(self) -> RangeClosure:
        raise NotImplementedError

    def _validate_prob(self, t):
        # min and max are NaN if any entry is, and NaN fails both comparisons
        t = np.asarray(t, dtype=float)
        if t.size and not (0.0 < t.min() and t.max() < 1.0):
            raise MarginalError("quantile argument must lie in (0,1)")
        return t

    def _validate_scores(self, z):
        # a score z stands for the probability ndtr(z), in (0,1) iff z is finite
        z = np.asarray(z, dtype=float)
        if z.size and not (-np.inf < z.min() and z.max() < np.inf):
            raise MarginalError("quantile argument must lie in (0,1): "
                                "its normal score is not finite")
        return z

    def _validate_real(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(np.isnan(x)):
            raise MarginalError("cdf argument must not be NaN")
        return x


@dataclass(frozen=True)
class Normal(Marginal):
    """Normal law parameterized by mean and variance."""

    mu: float
    var: float
    continuous = True
    takes_scores = True

    def __post_init__(self):
        if self.var < 0:
            raise MarginalError("variance must be >= 0")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.var)

    def cdf(self, x):
        x = self._validate_real(x)
        if self.var == 0:
            return (x >= self.mu).astype(float)
        return ndtr((x - self.mu) / self.sigma)

    def quantile(self, t, scores=False):
        """``mu + sigma * ndtri(t)`` at probabilities ``t`` in (0,1).

        With ``scores=True``, ``t`` holds finite normal scores ``z`` (the
        probabilities are ``ndtr(z)``) and the quantile is ``mu + sigma * z``,
        with no ``ndtri`` call.
        """
        t = self._validate_scores(t) if scores else self._validate_prob(t)
        if self.var == 0:
            return np.full_like(t, self.mu)
        return self.mu + self.sigma * (t if scores else ndtri(t))

    def mean(self) -> float:
        return self.mu

    def stop_loss(self, k):
        k = np.asarray(k, dtype=float)
        if self.var == 0:
            return np.maximum(self.mu - k, 0.0)
        z = (self.mu - k) / self.sigma
        return (self.mu - k) * ndtr(z) + self.sigma * _phi(z)

    def range_closure(self) -> RangeClosure:
        if self.var == 0:
            return RangeClosure("finite", frozenset({Fraction(0), Fraction(1)}))
        return RangeClosure("interval01")

    def __str__(self):
        return f"normal({_fmt(self.mu)},{_fmt(self.var)})"


@dataclass(frozen=True)
class Uniform(Marginal):
    a: float
    b: float
    continuous = True

    def __post_init__(self):
        if not self.a < self.b:
            raise MarginalError("uniform needs a < b")

    def cdf(self, x):
        x = self._validate_real(x)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile(self, t):
        t = self._validate_prob(t)
        return self.a + (self.b - self.a) * t

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def stop_loss(self, k):
        k = np.asarray(k, dtype=float)
        inside = 0.5 * (self.b - k) ** 2 / (self.b - self.a)
        return np.where(k <= self.a, self.mean() - k, np.where(k >= self.b, 0.0, inside))

    def range_closure(self) -> RangeClosure:
        return RangeClosure("interval01")

    def __str__(self):
        return f"uniform({_fmt(self.a)},{_fmt(self.b)})"


@dataclass(frozen=True)
class DiscreteUniform(Marginal):
    """Equal mass on a finite sorted list of values."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise MarginalError("value list must be nonempty")
        if list(self.values) != sorted(set(self.values)):
            raise MarginalError("values must be sorted and distinct")

    def cdf(self, x):
        x = self._validate_real(x)
        vals = np.asarray(self.values, dtype=float)
        return np.searchsorted(vals, x, side="right") / len(self.values)

    def quantile(self, t):
        t = self._validate_prob(t)
        k = len(self.values)
        idx = np.ceil(t * k).astype(int) - 1
        return np.asarray(self.values, dtype=float)[np.clip(idx, 0, k - 1)]

    def mean(self) -> float:
        return float(np.mean(self.values))

    def stop_loss(self, k):
        return _mean_excess(self.values, k)

    def range_closure(self) -> RangeClosure:
        k = len(self.values)
        return RangeClosure("finite", frozenset(Fraction(i, k) for i in range(k + 1)))

    def __str__(self):
        return "discrete(" + ",".join(_fmt(v) for v in self.values) + ")"


@dataclass(frozen=True)
class Dirac(Marginal):
    point: float

    def cdf(self, x):
        x = self._validate_real(x)
        return (x >= self.point).astype(float)

    def quantile(self, t):
        t = self._validate_prob(t)
        return np.full_like(t, self.point)

    def mean(self) -> float:
        return self.point

    def stop_loss(self, k):
        return np.maximum(self.point - np.asarray(k, dtype=float), 0.0)

    def range_closure(self) -> RangeClosure:
        return RangeClosure("finite", frozenset({Fraction(0), Fraction(1)}))

    def __str__(self):
        return f"dirac({_fmt(self.point)})"


@dataclass(frozen=True)
class RectifiedNormal(Marginal):
    """max{xi, 0} for xi ~ Normal(0, sigma^2); atom of mass 1/2 at zero."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise MarginalError("sigma must be > 0")

    def cdf(self, x):
        x = self._validate_real(x)
        return np.where(x < 0.0, 0.0, ndtr(x / self.sigma))

    def quantile(self, t):
        t = self._validate_prob(t)
        return np.where(t <= 0.5, 0.0, self.sigma * ndtri(np.maximum(t, 0.5)))

    def mean(self) -> float:
        return self.sigma / _SQRT2PI

    def stop_loss(self, k):
        k = np.asarray(k, dtype=float)
        z = k / self.sigma
        tail = self.sigma * _phi(z) - k * (1.0 - ndtr(z))
        return np.where(k < 0, self.mean() - k, tail)

    def range_closure(self) -> RangeClosure:
        return RangeClosure("half_with_atom")

    def __str__(self):
        return f"rectnormal({_fmt(self.sigma)})"


@dataclass(frozen=True)
class Empirical(Marginal):
    """Empirical law of a sorted sample (equal weights)."""

    sample: tuple[float, ...]

    def __post_init__(self):
        if not self.sample:
            raise MarginalError("sample must be nonempty")
        if list(self.sample) != sorted(self.sample):
            raise MarginalError("sample must be sorted")

    def cdf(self, x):
        x = self._validate_real(x)
        vals = np.asarray(self.sample, dtype=float)
        return np.searchsorted(vals, x, side="right") / len(self.sample)

    def quantile(self, t):
        t = self._validate_prob(t)
        n = len(self.sample)
        idx = np.ceil(t * n).astype(int) - 1
        return np.asarray(self.sample, dtype=float)[np.clip(idx, 0, n - 1)]

    def mean(self) -> float:
        return float(np.mean(self.sample))

    def stop_loss(self, k):
        return _mean_excess(self.sample, k)

    def range_closure(self) -> RangeClosure:
        raise MarginalError("range closure of an empirical law is not known symbolically")

    def __str__(self):
        return "empirical(" + ",".join(_fmt(v) for v in self.sample) + ")"


def _mean_excess(values, k):
    """Mean of (v - k)_+ over equally weighted ``values``, for each ``k``."""
    k = np.asarray(k, dtype=float)
    excess = np.maximum(np.asarray(values, dtype=float) - k[..., None], 0.0)
    return np.mean(excess, axis=-1)


# -- order checks -----------------------------------------------------------


def range_closure_equal(m1: Marginal, m2: Marginal) -> bool:
    """True iff the closures of the two CDF ranges coincide (symbolically)."""
    return m1.range_closure() == m2.range_closure()


def default_grid(m1: Marginal, m2: Marginal, size: int = 513) -> np.ndarray:
    """Grid spanning the 1e-4 .. 1-1e-4 quantile range of both families."""
    qs = np.array([1e-4, 1 - 1e-4])
    lo = min(float(np.min(m1.quantile(qs))), float(np.min(m2.quantile(qs))))
    hi = max(float(np.max(m1.quantile(qs))), float(np.max(m2.quantile(qs))))
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, size)


def st_leq(m1: Marginal, m2: Marginal, grid=None, tol: float = 1e-12) -> bool:
    """First-order dominance m1 <= m2: F1(t) >= F2(t) on every grid point."""
    grid = default_grid(m1, m2) if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise MarginalError("grid must be nonempty")
    return bool(np.all(m1.cdf(grid) >= m2.cdf(grid) - tol))


def cx_leq(
    m1: Marginal,
    m2: Marginal,
    grid=None,
    tol: float = 1e-12,
    mean_tol: float = 1e-9,
) -> bool:
    """Convex-order check via stop-loss comparison on a grid.

    Necessary-condition checker: equal means (within ``mean_tol``) plus
    ``E (X-k)_+ <= E (Y-k)_+`` at every grid retention ``k``.  It is exact
    for discrete families once the grid contains their support.
    """
    grid = default_grid(m1, m2) if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise MarginalError("grid must be nonempty")
    if abs(m1.mean() - m2.mean()) > mean_tol:
        return False
    return bool(np.all(m1.stop_loss(grid) <= m2.stop_loss(grid) + tol))


# -- literal syntax ----------------------------------------------------------

_LITERAL = re.compile(r"^\s*([a-z]+)\s*\(\s*([^()]*)\s*\)\s*$")


def _fmt(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


def parse_marginal(text: str) -> Marginal:
    """Parse literals like ``normal(0,4)``, ``discrete(0,1,2)``, ``dirac(0)``."""
    m = _LITERAL.match(text.lower())
    if not m:
        raise MarginalError(f"cannot parse marginal literal {text!r}")
    name, argstr = m.group(1), m.group(2)
    args = [float(a) for a in argstr.split(",")] if argstr.strip() else []
    try:
        if name == "normal":
            return Normal(args[0], args[1])
        if name == "uniform":
            return Uniform(args[0], args[1])
        if name == "discrete":
            return DiscreteUniform(tuple(args))
        if name == "dirac":
            return Dirac(args[0])
        if name == "rectnormal":
            return RectifiedNormal(args[0])
        if name == "empirical":
            return Empirical(tuple(sorted(args)))
    except IndexError:
        raise MarginalError(f"wrong arity in marginal literal {text!r}") from None
    raise MarginalError(f"unknown marginal family {name!r}")
