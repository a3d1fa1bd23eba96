"""Independent reference computations used by the correctness checks.

None of these call the treedep function whose output they check: exact
orthant values come from a forward recursion along the chain, band curves
from a plain numpy walk, walk-spec audits from the families' known orders.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import numpy as np

# -- exact chains -----------------------------------------------------------------


def chain_prob(edge_laws: dict, allowed) -> F:
    """P(X_n in allowed[n] for all n) on a chain 0 -> 1 -> ..., by forward recursion.

    ``allowed[n]`` is a predicate on state indices.  Costs O(d * k**2)
    rational operations instead of enumerating the k**d cells.
    """
    first = edge_laws[(0, 1)]
    alpha = [w if allowed[0](a) else F(0) for a, w in enumerate(first.row_marginal())]
    for n in range(len(edge_laws)):
        biv = edge_laws[(n, n + 1)]
        rows = biv.row_marginal()
        nxt = []
        for b in range(len(biv.col_values)):
            if not allowed[n + 1](b):
                nxt.append(F(0))
                continue
            nxt.append(sum((alpha[a] * biv.weights[a][b] / rows[a]
                            for a in range(len(alpha)) if alpha[a]), F(0)))
        alpha = nxt
    return sum(alpha, F(0))


def chain_lower_orthant(edge_laws: dict, thresholds) -> F:
    """P(X_n <= t_n for all n); supports are the indices 0..k-1."""
    return chain_prob(edge_laws, [lambda i, t=t: i <= t for t in thresholds])


def chain_upper_orthant(edge_laws: dict, thresholds) -> F:
    """P(X_n > t_n for all n); a threshold of -inf drops that coordinate."""
    return chain_prob(edge_laws, [lambda i, t=t: i > t for t in thresholds])


def node_marginals(edge_laws: dict) -> list[tuple[F, ...]]:
    out = [edge_laws[(0, 1)].row_marginal()]
    for n in range(len(edge_laws)):
        out.append(edge_laws[(n, n + 1)].col_marginal())
    return out


def psmd_certificate_errors(edge_laws: dict, joint, report) -> list[str]:
    """Exact check of a negative psmd verdict's supermodular certificate.

    f must lie in [0,1], be supermodular on the support lattice, and give
    E f(Y) - E f(X) equal to the reported minimum, where Y is the chain law
    and X the independent coupling of its marginals.
    """
    margs = node_marginals(edge_laws)
    shape = tuple(len(m) for m in margs)
    index = [{v: i for i, v in enumerate(s)} for s in joint.supports]
    f = {}
    for point, value in report.witness:
        f[tuple(index[n][v] for n, v in enumerate(point))] = F(value)
    errors = []
    if any(not 0 <= v <= 1 for v in f.values()):
        errors.append("certificate leaves [0,1]")
    for a, b in itertools.combinations(range(len(shape)), 2):
        for cell in itertools.product(*(range(k) for k in shape)):
            if cell[a] + 1 >= shape[a] or cell[b] + 1 >= shape[b]:
                continue
            up_a = list(cell)
            up_a[a] += 1
            up_b = list(cell)
            up_b[b] += 1
            up_ab = list(up_a)
            up_ab[b] += 1
            lhs = f.get(cell, F(0)) + f.get(tuple(up_ab), F(0))
            rhs = f.get(tuple(up_a), F(0)) + f.get(tuple(up_b), F(0))
            if lhs < rhs:
                errors.append(f"certificate not supermodular at {cell} axes {a},{b}")
                return errors
    e_y = sum((v * joint.mass.get(c, F(0)) for c, v in f.items()), F(0))
    e_x = F(0)
    for c, v in f.items():
        p = F(1)
        for n, i in enumerate(c):
            p *= margs[n][i]
        e_x += v * p
    gap = e_y - e_x
    if gap != report.details.get("lp_minimum") or gap >= 0:
        errors.append(f"E f(Y) - E f(X) = {gap}, reported {report.details.get('lp_minimum')}")
    return errors


# -- exact bivariate flags (the discrete audit) -------------------------------------


def _cum(rows):
    return [list(itertools.accumulate(r)) for r in rows]


def si_col_given_row(weights) -> bool:
    conds = [[w / sum(r) for w in r] for r in weights]
    cdfs = _cum(conds)
    return all(c <= p for prev, cur in zip(cdfs, cdfs[1:]) for p, c in zip(prev, cur))


def joint_cdf(weights):
    cum = _cum(weights)
    for r in range(1, len(cum)):
        cum[r] = [a + b for a, b in zip(cum[r - 1], cum[r])]
    return cum


def bivariate_lo(wx, wy) -> bool:
    rx, ry = [sum(r) for r in wx], [sum(r) for r in wy]
    cx, cy = [sum(c) for c in zip(*wx)], [sum(c) for c in zip(*wy)]
    if rx != ry or cx != cy:
        return False
    return all(a <= b for ra, rb in zip(joint_cdf(wx), joint_cdf(wy)) for a, b in zip(ra, rb))


def tp2(weights) -> bool:
    k, m = len(weights), len(weights[0])
    return all(weights[r1][c1] * weights[r2][c2] >= weights[r1][c2] * weights[r2][c1]
               for r1, r2 in itertools.combinations(range(k), 2)
               for c1, c2 in itertools.combinations(range(m), 2))


def discrete_edge_flags(bx, by) -> dict:
    """Per-edge flags of the plain audit for exact edge laws."""
    wx, wy = bx.weights, by.weights
    wy_t = [list(c) for c in zip(*wy)]
    rows, cols = [sum(r) for r in wy], [sum(c) for c in zip(*wy)]
    product = [[r * c for c in cols] for r in rows]
    return {
        "si_child_given_parent_x": si_col_given_row(wx),
        "si_child_given_parent_y": si_col_given_row(wy),
        "si_parent_given_child_y": si_col_given_row(wy_t),
        "smaller_lo": bivariate_lo(wx, wy),
        "psmd_y": bivariate_lo(product, wy),
        "mtp2_y": tp2(wy),
    }


# -- walk-spec audits --------------------------------------------------------------

_RELATION = {None: "sm-hypotheses", "st-increase": "ism-precondition",
             "cx": "dcx-precondition"}


def walk_audit(d: int, sigma_x, sigma_y, flex) -> dict:
    """Expected audit report of two walk specs that differ only in noise levels.

    Every copula in these specs is SI and TP2 with a positive-quadrant law,
    and each family is ordered pointwise by its strength, which falls as the
    noise level rises: the X observation copula lies below Y's exactly when
    sigma_x >= sigma_y.  Observation marginals are Normal(0, k + sigma);
    equal-mean normals of different variance cross (no usual order) and are
    convex-ordered by variance.  The default query is path [1], k* = 2.
    """
    per_edge, iii = {}, []
    edges = sorted([(2 * k, 2 * k + 1) for k in range(d + 1)]
                   + [(2 * k, 2 * k + 2) for k in range(d)])
    for i, j in edges:
        if j % 2 and j > 1:
            k = (j - 1) // 2
            lo = sigma_x[k - 1] >= sigma_y[k - 1]
            smaller = lo if flex else sigma_x[k - 1] == sigma_y[k - 1]
        else:
            smaller = True
        per_edge[f"{i}-{j}"] = {
            "si_child_given_parent_x": True, "si_child_given_parent_y": True,
            "si_parent_given_child_y": True, "smaller_lo": smaller,
            "psmd_y": True, "mtp2_y": True,
        }
        if not smaller:
            iii.append([[i, j], "smaller_lo"])
    failures = {"i": [], "ii": [], "iii": iii}
    checks = {}
    if flex is not None:
        for n in range(2 * d + 2):
            k = (n - 1) // 2
            obs = n % 2 == 1 and n > 1
            same = not obs or sigma_x[k - 1] == sigma_y[k - 1]
            if flex == "st-increase":
                checks[f"range_closure_equal[{n}]"] = True
                checks[f"st_leq[{n}]"] = same
            else:
                checks[f"continuous[{n}]"] = n > 1
                checks[f"cx_leq[{n}]"] = not obs or sigma_x[k - 1] <= sigma_y[k - 1]
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failures["marginals"] = bad
    verdict = not any(failures.values())
    return {"relation": _RELATION[flex], "query": {"path": [1], "k_star": 2},
            "per_edge": per_edge, "failures": failures, "marginal_checks": checks,
            "verdict": verdict}


# -- Monte Carlo references ---------------------------------------------------------


def walk_max_ecdf(d: int, noise_var: float, n: int, t_grid, seed: int,
                  chunk: int = 5000) -> np.ndarray:
    """ECDF of max{0, S_k + noise} for a standard Gaussian walk S, plain numpy.

    The observation is the walk plus independent N(0, noise_var) noise,
    which is exactly the Gaussian-copula walk model.
    """
    rng = np.random.default_rng(seed)
    maxima = np.empty(n)
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        walk = np.cumsum(rng.standard_normal((m, d)), axis=1)
        if noise_var:
            walk += math.sqrt(noise_var) * rng.standard_normal((m, d))
        maxima[start:start + m] = np.maximum(walk.max(axis=1), 0.0)
    maxima.sort()
    return np.searchsorted(maxima, t_grid, side="right") / n


def ks_distance(column: np.ndarray, marginal) -> float:
    """Kolmogorov-Smirnov distance that also handles atoms (rectified normal).

    Uses F(x-) on the lower side, so a marginal with an atom at x is not
    charged for the jump there.
    """
    x = np.sort(np.asarray(column, dtype=float))
    n = len(x)
    i = np.arange(1, n + 1)
    upper = np.max(i / n - marginal.cdf(x))
    lower = np.max(marginal.cdf(np.nextafter(x, -np.inf)) - (i - 1) / n)
    return float(max(upper, lower))
