"""Bivariate copula families with h-functions, inverses and order checks.

Every family is exchangeable, so the conditional CDF ``h(u, v)`` (the partial
derivative of the copula in its first argument) serves both edge directions.
Evaluators are numpy-vectorized and numerically stable in log space where
the closed forms would overflow.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri


class CopulaError(ValueError):
    """Raised for invalid copula parameters or arguments."""


class HInversionError(RuntimeError):
    """Raised when the conditional inverse fails to converge."""


@dataclass(frozen=True)
class DependenceFlags:
    is_si: bool
    is_ci: bool
    is_mtp2: bool


def _unit(x, name: str, open_interval: bool = False):
    """``x`` as a float array, checked to lie in (0,1) or [0,1]; NaN fails.

    Two reductions and no temporaries: a NaN makes the min and max NaN, and
    every comparison with NaN is false.
    """
    x = np.asarray(x, dtype=float)
    if x.size:
        lo, hi = x.min(), x.max()
        if open_interval:
            if not (0.0 < lo and hi < 1.0):
                raise CopulaError(f"{name} must lie in the open interval (0,1)")
        elif not (0.0 <= lo and hi <= 1.0):
            raise CopulaError(f"{name} must lie in [0,1]")
    return x


def _scores(z, name: str):
    """Normal scores ``z`` as a float array, checked to be finite.

    A score stands for the copula value ``ndtr(z)``, which lies in (0,1)
    exactly when ``z`` is finite; NaN fails both comparisons.
    """
    z = np.asarray(z, dtype=float)
    if z.size and not (-np.inf < z.min() and z.max() < np.inf):
        raise CopulaError(f"{name} must lie in the open interval (0,1): "
                          f"its normal score is not finite")
    return z


class BivariateCopula:
    """Base class: cdf, conditional CDF ``h`` and its inverse.

    ``takes_scores`` marks the families whose ``h_inv`` also works in normal
    scores (``scores=True``): Gaussian and comonotone.
    """

    takes_scores = False

    def cdf(self, u, v):
        raise NotImplementedError

    def h(self, u, v):
        """Conditional CDF of V given U=u, i.e. the u-partial of ``cdf``."""
        raise NotImplementedError

    def h_inv(self, u, p):
        """Solve ``h(u, v) = p`` for v; generic bisection fallback."""
        return h_inv_bisection(self, u, p)

    def flags(self) -> DependenceFlags:
        raise NotImplementedError

    def kendall_tau(self) -> float:
        raise NotImplementedError

    def transpose(self) -> "BivariateCopula":
        # every implemented family is exchangeable
        return self


def h_inv_bisection(cop: BivariateCopula, u, p, iters: int = 80, tol: float = 1e-10):
    """Bisection solve of ``h(u, v) = p`` in v; raises on non-convergence."""
    u = _unit(u, "u", open_interval=True)
    p = _unit(p, "p", open_interval=True)
    u, p = np.broadcast_arrays(u, p)
    lo = np.zeros_like(p)
    hi = np.ones_like(p)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = cop.h(u, mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    v = 0.5 * (lo + hi)
    err = np.max(np.abs(cop.h(u, v) - p))
    if err > tol:
        raise HInversionError(f"h_inv bisection residual {err:.3e} exceeds {tol:.1e}")
    return v


@dataclass(frozen=True)
class Independence(BivariateCopula):
    def cdf(self, u, v):
        return _unit(u, "u") * _unit(v, "v")

    def h(self, u, v):
        u = _unit(u, "u", open_interval=True)
        u, v = np.broadcast_arrays(u, _unit(v, "v"))
        return np.array(v, dtype=float)

    def h_inv(self, u, p):
        u = _unit(u, "u", open_interval=True)
        u, p = np.broadcast_arrays(u, _unit(p, "p", open_interval=True))
        return np.array(p, dtype=float)

    def flags(self):
        return DependenceFlags(True, True, True)

    def kendall_tau(self):
        return 0.0

    def __str__(self):
        return "indep"


@dataclass(frozen=True)
class Comonotone(BivariateCopula):
    """Upper Frechet bound min(u, v); mass on the diagonal.

    The conditional law given U=u is the point mass at u, so ``h`` is a step
    function and the sampling rule degenerates to v = u for every p.
    """

    takes_scores = True

    def cdf(self, u, v):
        return np.minimum(_unit(u, "u"), _unit(v, "v"))

    def h(self, u, v):
        u = _unit(u, "u", open_interval=True)
        return (_unit(v, "v") >= u).astype(float)

    def h_inv(self, u, p, scores=False):
        """``u`` itself for every ``p``; with ``scores=True`` ``u`` and the
        result are normal scores, ``ndtri`` of the copula values."""
        u = _scores(u, "u") if scores else _unit(u, "u", open_interval=True)
        p = _unit(p, "p", open_interval=True)
        return np.broadcast_to(u, np.broadcast_shapes(u.shape, p.shape)).copy()

    def flags(self):
        # no Lebesgue density, so total positivity of order 2 cannot hold
        return DependenceFlags(True, True, False)

    def kendall_tau(self):
        return 1.0

    def __str__(self):
        return "comonotone"


@dataclass(frozen=True)
class Gaussian(BivariateCopula):
    rho: float
    takes_scores = True

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise CopulaError("rho must lie in [-1,1]")

    def cdf(self, u, v):
        u = _unit(u, "u")
        v = _unit(v, "v")
        if self.rho == 0.0:
            return u * v
        if self.rho == 1.0:
            return np.minimum(u, v)
        if self.rho == -1.0:
            return np.maximum(u + v - 1.0, 0.0)
        # normal scores before broadcasting: n + m ndtri calls on an n x m grid
        zu, zv = np.broadcast_arrays(ndtri(u), ndtri(v))
        u, v = np.broadcast_arrays(u, v)
        # min(u, v) already carries every boundary case (u or v in {0, 1})
        out = np.array(np.minimum(u, v), dtype=float)
        interior = (u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0)
        if np.any(interior):
            out[interior] = _binorm_cdf(zu[interior], zv[interior], self.rho)
        return np.clip(out, 0.0, 1.0)

    def h(self, u, v):
        u = _unit(u, "u", open_interval=True)
        v = _unit(v, "v")
        if self.rho == 1.0:
            return (v >= u).astype(float)
        if self.rho == -1.0:
            return (v >= 1.0 - u).astype(float)
        denom = math.sqrt(1.0 - self.rho * self.rho)
        u, v = np.broadcast_arrays(u, v)
        out = np.zeros(u.shape, dtype=float)
        out[v >= 1.0] = 1.0
        mid = (v > 0.0) & (v < 1.0)
        if np.any(mid):
            out[mid] = ndtr((ndtri(v[mid]) - self.rho * ndtri(u[mid])) / denom)
        return out

    def h_inv(self, u, p, scores=False):
        """Solve ``h(u, v) = p`` for v: ``ndtr(rho*ndtri(u) + sqrt(1-rho^2)*ndtri(p))``.

        With ``scores=True``, ``u`` holds the normal scores ``z = ndtri(u)``
        and the result is v's score, ``rho*z + sqrt(1-rho^2)*ndtri(p)``.  That
        skips the ndtr/ndtri round trip, which costs time and loses precision
        near 1, where a double holds ``1 - v`` only to about 1e-16.  ``p`` is a
        probability in (0,1) either way; a score must be finite.
        """
        u = _scores(u, "u") if scores else _unit(u, "u", open_interval=True)
        p = _unit(p, "p", open_interval=True)
        if self.rho == 1.0:
            return np.broadcast_to(u, np.broadcast_shapes(u.shape, p.shape)).copy()
        if self.rho == -1.0:
            v = -u if scores else 1.0 - u
            return np.broadcast_to(v, np.broadcast_shapes(u.shape, p.shape)).copy()
        denom = math.sqrt(1.0 - self.rho * self.rho)
        z = self.rho * (u if scores else ndtri(u)) + denom * ndtri(p)
        return z if scores else ndtr(z)

    def flags(self):
        pos = self.rho >= 0.0
        return DependenceFlags(pos, pos, pos)

    def kendall_tau(self):
        return 2.0 / math.pi * math.asin(self.rho)

    def __str__(self):
        return f"gaussian({self.rho!r})"


# Gauss-Legendre rules of Genz's BVNU: 6, 12 and 20 nodes on [-1, 1]
_BVN_RULES = tuple(np.polynomial.legendre.leggauss(n) for n in (6, 12, 20))
_TWO_PI = 2.0 * math.pi
# Exponents are clamped here: exp(-600) < 1e-260 is negligible in a
# probability, and the clamp keeps exp and the weighted node sums off the
# slow underflow and subnormal paths.
_EXP_FLOOR = -600.0


def _binorm_cdf(h, k, rho: float):
    """Standard bivariate normal CDF at (h, k) with correlation rho, |rho| < 1.

    Genz's BVNU (Genz 2004, Stat. Comput. 14:251-260), vectorized over
    (h, k) for one rho.  For |rho| < 0.925 it integrates the
    Drezner-Wesolowsky arcsine form over [0, asin(rho)] by Gauss-Legendre
    with 6, 12 or 20 nodes (|rho| below 0.3, 0.75, 0.925); above that it
    integrates the asymptotic expansion in sqrt(1 - rho^2) with 20 nodes.
    The error is at the level of double rounding: on the test points it is
    within 3e-16 of an adaptive quadrature of the conditional form.
    """
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(k, dtype=float))
    shape = h.shape
    h, k = h.ravel(), k.ravel()
    r = abs(rho)
    x, w = _BVN_RULES[0 if r < 0.3 else 1 if r < 0.75 else 2]
    # (node, point) tables, updated in place: long inner loops, few buffers
    if r < 0.925:
        half = 0.5 * math.asin(rho)
        sn = np.sin(half * (x[:, None] + 1.0))
        e = sn * (h * k)
        e -= 0.5 * (h * h + k * k)
        e /= 1.0 - sn * sn
        np.exp(np.maximum(e, _EXP_FLOOR, out=e), out=e)
        return (ndtr(h) * ndtr(k) + w @ e * (half / _TWO_PI)).reshape(shape)

    # the expansion is written for the upper probability P(X > hh, Y > kk),
    # with the second variable negated for rho < 0
    hh, kk = -h, (k if rho < 0 else -k)
    hk = hh * kk
    a2 = (1.0 - rho) * (1.0 + rho)
    a = math.sqrt(a2)
    bs = (hh - kk) ** 2
    b = np.sqrt(bs)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    bvn = a * np.exp(np.maximum(-0.5 * (bs / a2 + hk), _EXP_FLOOR)) * (
        1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0
    )
    # exp(-hk/2) overflows where hk < -160, and the term is negligible there
    tail = np.exp(-0.5 * np.maximum(hk, -160.0)) * math.sqrt(_TWO_PI) * ndtr(-b / a)
    bvn -= np.where(hk > -160.0, tail * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0), 0.0)
    xs = (0.5 * a * (x + 1.0)) ** 2
    rs = np.sqrt(1.0 - xs)
    # node sum of w (e1 - e2) with e1 = exp(-bs/(2 xs) - hk/(1 + rs)) / rs and
    # e2 = exp(asr) (1 + c xs + c d xs^2), asr = -(bs/xs + hk)/2; both
    # exponents are <= 0, and c, d factor out of the sum over nodes
    asr, e1 = np.empty((2, xs.size, bs.size))
    np.multiply((-0.5 / xs)[:, None], bs, out=asr)
    asr -= 0.5 * hk
    np.multiply((0.5 - 1.0 / (1.0 + rs))[:, None], hk, out=e1)
    e1 += asr
    np.exp(np.maximum(e1, _EXP_FLOOR, out=e1), out=e1)
    np.exp(np.maximum(asr, _EXP_FLOOR, out=asr), out=asr)
    wx = w * xs
    total = (w / rs) @ e1 - w @ asr - c * (wx @ asr + d * ((wx * xs) @ asr))
    bvn = -(bvn + total * (0.5 * a)) / _TWO_PI
    if rho > 0:
        out = bvn + ndtr(-np.maximum(hh, kk))
    else:
        gap = np.where(hh < 0.0, ndtr(kk) - ndtr(hh), ndtr(-hh) - ndtr(-kk))
        out = np.where(kk > hh, gap, 0.0) - bvn
    return out.reshape(shape)


_THETA_INDEP_CUTOFF = 1e-6


@dataclass(frozen=True)
class Clayton(BivariateCopula):
    """Clayton family for theta >= 0; evaluated in log space.

    Near theta = 0 the closed form cancels catastrophically, so parameters
    below 1e-6 evaluate through the independence limit.
    """

    theta: float

    def __post_init__(self):
        if self.theta < 0.0:
            raise CopulaError("theta must be >= 0")

    def _indep(self) -> bool:
        return self.theta < _THETA_INDEP_CUTOFF

    def cdf(self, u, v):
        u = _unit(u, "u")
        v = _unit(v, "v")
        if self._indep():
            return u * v
        u, v = np.broadcast_arrays(u, v)
        out = np.zeros(np.broadcast_shapes(u.shape, v.shape), dtype=float)
        pos = (u > 0.0) & (v > 0.0)
        out[pos] = np.exp(-_clayton_log_b(u[pos], v[pos], self.theta) / self.theta)
        return np.clip(out, 0.0, 1.0)

    def h(self, u, v):
        u = _unit(u, "u", open_interval=True)
        v = _unit(v, "v")
        if self._indep():
            return np.broadcast_to(v, np.broadcast_shapes(u.shape, v.shape)).copy()
        u, v = np.broadcast_arrays(u, v)
        out = np.zeros(u.shape, dtype=float)
        pos = v > 0.0
        if np.any(pos):
            th = self.theta
            log_b = _clayton_log_b(u[pos], v[pos], th)
            out[pos] = np.exp(-(th + 1.0) * np.log(u[pos]) - (th + 1.0) / th * log_b)
        return np.clip(out, 0.0, 1.0)

    def h_inv(self, u, p):
        u = _unit(u, "u", open_interval=True)
        p = _unit(p, "p", open_interval=True)
        if self._indep():
            return np.broadcast_to(p, np.broadcast_shapes(u.shape, p.shape)).copy()
        th = self.theta
        a = -th * np.log(u)
        s = -(th / (th + 1.0)) * np.log(p)
        # v^-theta = e^(a+s) - e^a + 1, evaluated without overflow
        bracket = -np.expm1(-s) + np.exp(-(a + s))
        log_inner = (a + s) + np.log(bracket)
        return np.clip(np.exp(-log_inner / th), 0.0, 1.0)

    def flags(self):
        return DependenceFlags(True, True, True)

    def kendall_tau(self):
        return self.theta / (self.theta + 2.0)

    def __str__(self):
        return f"clayton({self.theta!r})"


def _clayton_log_b(u, v, theta: float):
    """log(u^-theta + v^-theta - 1) without overflow; u, v in (0, 1]."""
    au = -theta * np.log(u)
    av = -theta * np.log(v)
    m = np.maximum(au, av)
    return m + np.log(np.exp(au - m) + np.exp(av - m) - np.exp(-m))


@dataclass(frozen=True)
class SurvivalClayton(BivariateCopula):
    """Survival (180-degree rotated) Clayton copula; upper tail dependent."""

    theta: float

    def __post_init__(self):
        if self.theta < 0.0:
            raise CopulaError("theta must be >= 0")

    def _base(self) -> Clayton:
        return Clayton(self.theta)

    def cdf(self, u, v):
        u = _unit(u, "u")
        v = _unit(v, "v")
        return np.clip(u + v - 1.0 + self._base().cdf(1.0 - u, 1.0 - v), 0.0, 1.0)

    def h(self, u, v):
        u = _unit(u, "u", open_interval=True)
        v = _unit(v, "v")
        out = np.where(
            v >= 1.0,
            1.0,
            1.0 - self._base().h(1.0 - u, np.clip(1.0 - v, 0.0, 1.0)),
        )
        return np.clip(out, 0.0, 1.0)

    def h_inv(self, u, p):
        u = _unit(u, "u", open_interval=True)
        p = _unit(p, "p", open_interval=True)
        return np.clip(1.0 - self._base().h_inv(1.0 - u, 1.0 - p), 0.0, 1.0)

    def flags(self):
        return DependenceFlags(True, True, True)

    def kendall_tau(self):
        return self.theta / (self.theta + 2.0)

    def __str__(self):
        return f"sclayton({self.theta!r})"


# -- order and dependence checks on grids ------------------------------------


def open_grid(size: int) -> np.ndarray:
    """Uniform grid of ``size`` points in the open interval (0,1)."""
    if size < 3:
        raise CopulaError("grid size must be >= 3")
    return np.arange(1, size + 1, dtype=float) / (size + 1)


GRID_TOL = 1e-12


def numeric_si_check(cop: BivariateCopula, grid_size: int = 129, tol: float = GRID_TOL) -> bool:
    """Grid test of stochastic increasingness of V in U.

    True iff ``h(., v)`` is nonincreasing in u at every grid v.
    """
    g = open_grid(grid_size)
    hv = cop.h(g[:, None], g[None, :])
    return bool(np.all(np.diff(hv, axis=0) <= tol))


def cdf_table(cop: BivariateCopula, grid_size: int) -> np.ndarray:
    """``cop.cdf`` on the ``open_grid(grid_size)`` product grid, u by rows."""
    g = open_grid(grid_size)
    return cop.cdf(g[:, None], g[None, :])


def table_lo_leq(t1: np.ndarray, t2: np.ndarray, tol: float = GRID_TOL) -> bool:
    """Pointwise order of two ``cdf_table`` results on one grid."""
    return bool(np.all(t1 <= t2 + tol))


def table_pqd(table: np.ndarray, tol: float = GRID_TOL) -> bool:
    """A ``cdf_table`` result dominates the product copula on its grid."""
    g = open_grid(table.shape[0])
    return bool(np.all(table >= g[:, None] * g[None, :] - tol))


def lo_leq(c1: BivariateCopula, c2: BivariateCopula, grid_size: int = 129,
           tol: float = GRID_TOL) -> bool:
    """Pointwise (lower orthant) order of two copulas on a grid."""
    return table_lo_leq(cdf_table(c1, grid_size), cdf_table(c2, grid_size), tol)


def pqd_check(cop: BivariateCopula, grid_size: int = 129, tol: float = GRID_TOL) -> bool:
    """Positive quadrant dependence: cdf dominates the product copula."""
    return table_pqd(cdf_table(cop, grid_size), tol)


# -- Kendall tau matching -----------------------------------------------------


def gaussian_tau(rho: float) -> float:
    """Kendall tau of the Gaussian copula with correlation ``rho``."""
    return 2.0 / math.pi * math.asin(rho)


def theta_from_tau(tau: float) -> float:
    """Clayton parameter with Kendall tau equal to ``tau``."""
    if tau >= 1.0:
        raise CopulaError("tau = 1 corresponds to an unbounded theta")
    if tau < 0.0:
        raise CopulaError("negative tau has no Clayton match for theta >= 0")
    return 2.0 * tau / (1.0 - tau)


def theta_from_rho(rho: float) -> float:
    """Clayton parameter whose Kendall tau matches Gaussian(rho)."""
    return theta_from_tau(gaussian_tau(rho))


# -- literal syntax -----------------------------------------------------------

_LITERAL = re.compile(r"^\s*([a-z]+)\s*(?:\(\s*([^()]*)\s*\))?\s*$")


def parse_copula(text: str) -> BivariateCopula:
    """Parse literals: indep, comonotone, gaussian(r), clayton(t), sclayton(t)."""
    m = _LITERAL.match(text.lower())
    if not m:
        raise CopulaError(f"cannot parse copula literal {text!r}")
    name, argstr = m.group(1), m.group(2)
    args = [float(a) for a in argstr.split(",")] if argstr and argstr.strip() else []
    if name == "indep" and not args:
        return Independence()
    if name == "comonotone" and not args:
        return Comonotone()
    try:
        if name == "gaussian":
            return Gaussian(args[0])
        if name == "clayton":
            return Clayton(args[0])
        if name == "sclayton":
            return SurvivalClayton(args[0])
    except IndexError:
        raise CopulaError(f"wrong arity in copula literal {text!r}") from None
    raise CopulaError(f"unknown copula family {name!r}")
