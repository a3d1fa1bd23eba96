"""Dependence-order decisions and hypothesis audits on finite laws.

Exact checkers for stochastic increasingness, total positivity, orthant
orders, the supermodular order (via an LP over the supermodular cone on the
support lattice), positive supermodular dependence and the Schur order for
conditional distributions, plus the per-edge hypothesis auditor used by the
tree comparison theorems.

The supermodular oracle relies on the lattice characterization: a function
on a product of finite chains is supermodular iff every adjacent
two-coordinate rectangle inequality holds, so those inequalities cut out the
full cone.  Boxing the test functions into [0,1] loses no generality because
the defining inequalities are invariant under positive affine rescaling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import copulas as cop_mod
from . import marginals as marg_mod
from .discrete import DiscreteBivariate, DiscreteJoint, DiscreteTreeSpec
from .simplex import solve_lp_min
from .trees import TheoremQuery, validate_query

# Largest cell count at which every measured supermodular LP decided within
# 10 s on a 2-core machine (3^4 chains and 9x9 laws well under 1 s); a 96-cell
# 2^5 x 3 chain took 47 s and a 144-cell 3x3x4x4 chain over 100 s, so
# larger laws are left undecided.
SM_CELL_GUARD = 81


class OrderingError(ValueError):
    """Raised for invalid order-check inputs."""


@dataclass
class OrderReport:
    """Outcome of one order decision.

    ``holds`` is True/False when decided and None when undecided (e.g. the
    LP scale guard tripped).  A False verdict always carries a reproducing
    witness.
    """

    relation: str
    holds: bool | None
    witness: object = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        holds = "undecided" if self.holds is None else self.holds
        return {
            "relation": self.relation,
            "holds": holds,
            "witness": _jsonable(self.witness),
            "details": _jsonable(self.details),
        }


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and x == float("-inf"):
        return "-inf"
    return x


# -- bivariate positive-dependence checks ------------------------------------


def si_check(biv: DiscreteBivariate, direction: str = "col_given_row") -> bool:
    """Exact stochastic increasingness of one variable in the other.

    ``col_given_row`` tests whether the column variable is stochastically
    increasing in the row variable: the conditional CDFs must be pointwise
    nonincreasing as the conditioning value grows.  Conditioning values of
    zero mass are skipped, since conditionals on null sets are free.
    """
    if direction == "row_given_col":
        table = biv.table.T
    elif direction == "col_given_row":
        table = biv.table
    else:
        raise OrderingError(f"unknown direction {direction!r}")
    # row r's conditional CDF is cum[r] / mass[r]; consecutive rows of
    # positive mass compare by cross-multiplying with the row masses
    cum = [row for row in np.cumsum(table, axis=1).tolist() if row[-1]]
    for prev, cur in zip(cum, cum[1:]):
        if any(c * prev[-1] > p * cur[-1] for p, c in zip(prev, cur)):
            return False
    return True


def mtp2_check(biv: DiscreteBivariate) -> bool:
    """Total positivity of order 2: every 2x2 minor is nonnegative."""
    w = biv.table.tolist()
    nr, nc = len(w), len(w[0])
    for r1, r2 in itertools.combinations(range(nr), 2):
        for c1, c2 in itertools.combinations(range(nc), 2):
            if w[r1][c1] * w[r2][c2] < w[r1][c2] * w[r2][c1]:
                return False
    return True


# -- orthant orders -----------------------------------------------------------


def _integer_table(joint: DiscreteJoint, den: int) -> np.ndarray:
    """Mass numerators over ``den``, a multiple of ``joint.den``, on the support grid."""
    return joint.table * (den // joint.den)


def _check_same_supports(jx: DiscreteJoint, jy: DiscreteJoint) -> None:
    if jx.supports != jy.supports:
        raise OrderingError("joints must share identical supports")


def _canonical_violation(indices_and_gaps: list[tuple[tuple[int, ...], int]]):
    """Deterministic witness pick: widest gap, most balanced corner.

    Gaps are integer numerators over one common denominator.

    Among maximal-gap violations, prefer the smallest maximum coordinate and
    then the lexicographically largest index tuple; this favors the central
    diagonal corner over equivalent off-diagonal ones.
    """
    best_gap = max(g for _, g in indices_and_gaps)
    pool = [idx for idx, g in indices_and_gaps if g == best_gap]
    low = min(max(idx) for idx in pool)
    pool = [idx for idx in pool if max(idx) == low]
    return max(pool), best_gap


def lo_check(jx: DiscreteJoint, jy: DiscreteJoint) -> OrderReport:
    """Lower orthant order: F_X <= F_Y at every support threshold, exactly."""
    return _orthant_check("lo", jx, jy)


def uo_check(jx: DiscreteJoint, jy: DiscreteJoint) -> OrderReport:
    """Upper orthant order: survival functions pointwise ordered, exactly.

    Thresholds strictly below a coordinate's support matter here (they drop
    that coordinate's constraint); a witness coordinate -inf stands for one.
    """
    return _orthant_check("uo", jx, jy)


def _orthant_check(relation: str, jx: DiscreteJoint, jy: DiscreteJoint) -> OrderReport:
    """Compare cdf tables (``lo``) or survival tables (``uo``).

    On a survival table, entry c on an axis encodes the strict threshold
    support[c-1] (c = 0 means a threshold below the whole support, i.e. no
    constraint), so the entry is P(X_n > support[c_n - 1] for all n).  The
    threshold at the top of the support needs no entry: P(X_n > max) is 0 in
    both tables, so it can never show a violation.  Both tables hold integer
    numerators over one common denominator, the lcm of the two joints'
    denominators.
    """
    _check_same_supports(jx, jy)
    upper = relation == "uo"
    den = math.lcm(jx.den, jy.den)
    tables = []
    for joint in (jx, jy):
        arr = _integer_table(joint, den)
        for axis in range(arr.ndim):
            if upper:
                arr = np.flip(np.cumsum(np.flip(arr, axis), axis), axis)
            else:
                arr = np.cumsum(arr, axis=axis)
        tables.append(arr)
    diff = tables[0] - tables[1]
    bad = [tuple(idx) for idx in np.argwhere(diff > 0).tolist()]
    if not bad:
        return OrderReport(relation, True)
    idx, gap = _canonical_violation([(idx, diff[idx]) for idx in bad])
    if upper:
        witness = tuple(
            float("-inf") if i == 0 else jx.supports[n][i - 1]
            for n, i in enumerate(idx)
        )
    else:
        witness = tuple(jx.supports[n][i] for n, i in enumerate(idx))
    return OrderReport(relation, False, witness=witness, details={"gap": Fraction(gap, den)})


# -- supermodular order via the LP oracle -------------------------------------


def _supermodular_program(jx: DiscreteJoint, jy: DiscreteJoint):
    shape = tuple(len(s) for s in jx.supports)
    cells = list(itertools.product(*(range(k) for k in shape)))
    var = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    den = math.lcm(jx.den, jy.den)
    diff = _integer_table(jy, den) - _integer_table(jx, den)
    c_vec = [Fraction(v, den) for v in diff.flat]

    # constraint rows are plain ints (-1/0/+1, right-hand sides 0/1), which
    # the simplex takes over denominator 1
    a_rows: list[list[int]] = []
    for alpha, beta in itertools.combinations(range(len(shape)), 2):
        for cell in cells:
            if cell[alpha] + 1 >= shape[alpha] or cell[beta] + 1 >= shape[beta]:
                continue
            up_a = list(cell)
            up_a[alpha] += 1
            up_b = list(cell)
            up_b[beta] += 1
            up_ab = list(up_a)
            up_ab[beta] += 1
            row = [0] * n
            # f(x) + f(x+ea+eb) >= f(x+ea) + f(x+eb), written as <= 0
            row[var[cell]] -= 1
            row[var[tuple(up_ab)]] -= 1
            row[var[tuple(up_a)]] += 1
            row[var[tuple(up_b)]] += 1
            a_rows.append(row)
    n_sm = len(a_rows)
    for i in range(n):
        row = [0] * n
        row[i] = 1
        a_rows.append(row)
    b = [0] * n_sm + [1] * n
    return cells, c_vec, a_rows, b


def sm_check_lp(jx: DiscreteJoint, jy: DiscreteJoint) -> OrderReport:
    """Supermodular order decided exactly by minimizing E f(Y) - E f(X).

    The minimum over all supermodular f boxed into [0,1] is nonnegative iff
    X <=_sm Y.  A negative optimum returns the minimizing f as certificate.
    """
    _check_same_supports(jx, jy)
    if jx.cell_count() > SM_CELL_GUARD:
        return OrderReport("sm", None,
                           details={"reason": f"more than {SM_CELL_GUARD} cells"})
    cells, c_vec, a_rows, b = _supermodular_program(jx, jy)
    value, f = solve_lp_min(c_vec, a_rows, b)
    if value >= 0:
        return OrderReport("sm", True, details={"lp_minimum": value})
    certificate = [
        [tuple(jx.supports[n][i] for n, i in enumerate(cell)), f[k]]
        for k, cell in enumerate(cells)
        if f[k] != 0
    ]
    return OrderReport("sm", False, witness=certificate,
                       details={"lp_minimum": value})


def psmd_check(joint: DiscreteJoint) -> OrderReport:
    """Positive supermodular dependence: the independent coupling is below."""
    report = sm_check_lp(joint.product_of_marginals(), joint)
    report.relation = "psmd"
    return report


# -- Schur order for conditional distributions --------------------------------


def _rearranged_segments(rows, jv: int):
    """Decreasing rearrangement of u -> F(v_jv | conditioning quantile u).

    ``rows`` holds ``(mass, cumulative row, scale)`` per positive-mass row, in
    integer numerators over one denominator, with ``scale`` the lcm of the
    masses over this row's mass.  Row r is a step of height cum[jv] / mass
    and width mass; ``cum[jv] * scale`` orders the heights exactly, and the
    stable sort keeps tied rows in row order.  Returns one ``(right end, left
    end, cumulative at the left end, cum[jv], mass)`` per step.
    """
    out, x, g = [], 0, 0
    for mass, cum, _ in sorted(rows, key=lambda r: r[1][jv] * r[2], reverse=True):
        out.append((x + mass, x, g, cum[jv], mass))
        x += mass
        g += cum[jv]
    return out


def schur_leq(bx: DiscreteBivariate, by: DiscreteBivariate,
              direction: str = "col_given_row") -> OrderReport:
    """Schur order of conditional distributions, exactly.

    With ``col_given_row``, compares the conditioned column variable given
    the conditioning row variable.  For every conditioned value v, the step
    function u -> F(v | conditioning quantile u) of the first law must have
    cumulative rearrangement integrals below the second's, with equal totals.
    The comparison only uses the multiset of (conditional CDF, weight) pairs,
    so it is invariant under rearranging the conditioning variable.

    The totals are the conditioned CDF at v, equal because the conditioned
    marginals agree.  The integrals are compared at every breakpoint of
    either rearrangement in one sweep over the integer tables: at x on a
    step (left end x0, cumulative g0, cum c, mass m) the integral is
    (g0 * m + c * (x - x0)) / (m * den), so two integrals compare by
    cross-multiplying their masses.
    """
    if direction == "row_given_col":
        bx, by = bx.transpose(), by.transpose()
    elif direction != "col_given_row":
        raise OrderingError(f"unknown direction {direction!r}")
    if bx.col_values != by.col_values or bx.col_marginal() != by.col_marginal():
        raise OrderingError("conditioned-variable marginals must agree exactly")
    den = math.lcm(bx.den, by.den)

    def rows(biv):
        k = den // biv.den
        cums = [list(itertools.accumulate(x * k for x in row)) for row in biv.table.tolist()]
        cums = [cum for cum in cums if cum[-1]]
        lcm = math.lcm(*(cum[-1] for cum in cums))
        return [(cum[-1], cum, lcm // cum[-1]) for cum in cums]

    rx, ry = rows(bx), rows(by)
    for jv in range(len(bx.col_values)):
        sx, sy = _rearranged_segments(rx, jv), _rearranged_segments(ry, jv)
        ix = iy = 0
        for x in sorted({s[0] for s in sx} | {s[0] for s in sy}):
            while sx[ix][0] < x:
                ix += 1
            while sy[iy][0] < x:
                iy += 1
            _, x0, g0, c, mx = sx[ix]
            gx = g0 * mx + c * (x - x0)
            _, x0, g0, c, my = sy[iy]
            gy = g0 * my + c * (x - x0)
            if gx * my > gy * mx:
                return OrderReport(
                    "schur", False,
                    witness={"conditioned_value": bx.col_values[jv],
                             "at": Fraction(x, den), "cum_x": Fraction(gx, mx * den),
                             "cum_y": Fraction(gy, my * den)},
                )
    return OrderReport("schur", True)


# -- theorem-hypothesis auditor ------------------------------------------------


@dataclass
class EdgeFlags:
    si_child_given_parent_x: bool
    si_child_given_parent_y: bool
    si_parent_given_child_y: bool
    smaller_lo: bool
    psmd_y: bool
    mtp2_y: bool

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ConditionReport:
    """Per-edge hypothesis audit for the tree comparison results.

    The verdict certifies only that the *hypotheses* hold for the supplied
    path/root-child query; it never asserts the ordering conclusion itself.
    """

    query: TheoremQuery
    per_edge: dict[tuple[int, int], EdgeFlags]
    failures: dict[str, list]
    marginal_checks: dict[str, object] = field(default_factory=dict)
    verdict: bool = False
    relation: str = "sm-hypotheses"

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "query": {"path": list(self.query.path), "k_star": self.query.k_star},
            "per_edge": {f"{i}-{j}": fl.to_json() for (i, j), fl in self.per_edge.items()},
            "failures": _jsonable(self.failures),
            "marginal_checks": _jsonable(self.marginal_checks),
            "verdict": self.verdict,
        }


_FLEX_RELATION = {
    None: "sm-hypotheses",
    "st-increase": "ism-precondition",
    "st-decrease": "dsm-precondition",
    "cx": "dcx-precondition",
}


def _bivariate_lo_exact(bx: DiscreteBivariate, by: DiscreteBivariate) -> bool:
    """Law-level pointwise order; demands equal supports and marginals."""
    if bx.supports != by.supports:
        return False
    if bx.row_marginal() != by.row_marginal() or bx.col_marginal() != by.col_marginal():
        return False
    return lo_check(bx, by).holds


def _subcopula_lo_exact(bx: DiscreteBivariate, by: DiscreteBivariate) -> bool:
    """Copula-level pointwise order on the shared marginal-CDF grid.

    Discrete laws pin their copulas only on the marginal CDF ranges; with
    equal range closures (checked separately by the flexible audits) the
    grids coincide and the joint CDFs compare at matching (u, v) keys.
    """

    def keyed(biv):
        cum = np.cumsum(np.cumsum(biv.table, axis=0), axis=1)
        rows = [Fraction(x, biv.den) for x in cum[:, -1]]
        cols = [Fraction(x, biv.den) for x in cum[-1]]
        return {(u, v): cum[r, c] for r, u in enumerate(rows) for c, v in enumerate(cols)}

    kx, ky = keyed(bx), keyed(by)
    return all(kx[key] * by.den <= ky[key] * bx.den for key in kx.keys() & ky.keys())


def _resolve_edges(spec):
    """Normalize both spec kinds to (tree, {edge: law}, kind, marginals)."""
    if isinstance(spec, DiscreteTreeSpec):
        return spec.tree, dict(spec.edge_dists), "discrete", None
    # duck-typed sampler.TreeSpec: tree, marginals, copulas
    return spec.tree, dict(spec.copulas), "copula", list(spec.marginals)


def audit_theorem_conditions(
    spec_x,
    spec_y,
    query: TheoremQuery | None = None,
    marginal_flex: str | None = None,
    grid_size: int = 129,
) -> ConditionReport:
    """Audit the per-edge hypotheses of the tree comparison theorems.

    Checks, for each edge (i, j):

    * (i)  the X law has the child stochastically increasing in the parent,
      except on the edge into ``k_star``;
    * (ii) the Y law has the parent SI in the child off the leaves and the
      child SI in the parent off the path;
    * (iii) the X edge law is below the Y edge law pointwise (with equal
      marginals this is the bivariate supermodular comparison).

    ``marginal_flex`` extends the audit: ``"st-increase"``/``"st-decrease"``
    add the equal-range-closure and stochastic-order marginal hypotheses;
    ``"cx"`` swaps hypothesis (ii) for total positivity of the Y edges and
    adds continuity plus convex-order marginal hypotheses.
    """
    if marginal_flex not in _FLEX_RELATION:
        raise OrderingError(f"unknown marginal_flex {marginal_flex!r}")
    tree_x, edges_x, kind_x, margs_x = _resolve_edges(spec_x)
    tree_y, edges_y, kind_y, margs_y = _resolve_edges(spec_y)
    if tree_x != tree_y:
        raise OrderingError("both specifications must share one tree")
    if kind_x != kind_y:
        raise OrderingError("cannot mix discrete and copula specifications")
    tree = tree_x
    if query is None:
        from .trees import default_query

        query = default_query(tree)
    validate_query(tree, query)
    leaves = tree.leaves()
    on_path = query.members()

    per_edge: dict[tuple[int, int], EdgeFlags] = {}
    failures: dict[str, list] = {"i": [], "ii": [], "iii": []}
    # one grid cdf table per distinct copula, kept for this call only: the
    # Y edge feeds two checks, and X and Y often share edge copulas
    tables: dict = {}

    def table(cop) -> np.ndarray:
        if cop not in tables:
            tables[cop] = cop_mod.cdf_table(cop, grid_size)
        return tables[cop]

    def require(bucket: str, edge, flag_name: str, value: bool) -> None:
        if value is not True:
            failures[bucket].append([edge, flag_name])

    for edge in sorted(tree.edges):
        i, j = edge
        flexible = marginal_flex is not None
        if kind_x == "discrete":
            bx, by = edges_x[edge], edges_y[edge]
            fl = EdgeFlags(
                si_child_given_parent_x=si_check(bx, "col_given_row"),
                si_child_given_parent_y=si_check(by, "col_given_row"),
                si_parent_given_child_y=si_check(by, "row_given_col"),
                # flexible audits compare copulas, so differing marginals are
                # fine; the plain audit needs the full law-level comparison
                smaller_lo=(_subcopula_lo_exact(bx, by) if flexible
                            else _bivariate_lo_exact(bx, by)),
                psmd_y=_bivariate_lo_exact(by.product_of_marginals(), by),
                mtp2_y=mtp2_check(by),
            )
        else:
            cx, cy = edges_x[edge], edges_y[edge]
            marg_equal = margs_x[i] == margs_y[i] and margs_x[j] == margs_y[j]
            lo_ok = cop_mod.table_lo_leq(table(cx), table(cy))
            fl = EdgeFlags(
                si_child_given_parent_x=cx.flags().is_si,
                si_child_given_parent_y=cy.flags().is_si,
                si_parent_given_child_y=cy.transpose().flags().is_si,
                smaller_lo=lo_ok if flexible else (marg_equal and lo_ok),
                psmd_y=cop_mod.table_pqd(table(cy)),
                mtp2_y=cy.flags().is_mtp2,
            )
        per_edge[edge] = fl

        if j != query.k_star:
            require("i", edge, "si_child_given_parent", fl.si_child_given_parent_x)
        if marginal_flex == "cx":
            require("ii", edge, "mtp2", fl.mtp2_y)
        else:
            if j not in leaves:
                require("ii", edge, "si_parent_given_child", fl.si_parent_given_child_y)
            if j not in on_path:
                require("ii", edge, "si_child_given_parent", fl.si_child_given_parent_y)
        require("iii", edge, "smaller_lo", fl.smaller_lo)

    marginal_checks: dict[str, object] = {}
    if marginal_flex is not None:
        marginal_checks = _audit_marginals(
            tree, spec_x, spec_y, kind_x, marginal_flex
        )
        bad = [k for k, v in marginal_checks.items() if v is not True]
        if bad:
            failures["marginals"] = bad

    return ConditionReport(query, per_edge, failures, marginal_checks,
                           not any(failures.values()), relation=_FLEX_RELATION[marginal_flex])


def _audit_marginals(tree, spec_x, spec_y, kind, flex) -> dict[str, object]:
    checks: dict[str, object] = {}
    if kind == "copula":
        mx, my = list(spec_x.marginals), list(spec_y.marginals)
        for n in range(tree.node_count):
            a, b = mx[n], my[n]
            if flex in ("st-increase", "st-decrease"):
                checks[f"range_closure_equal[{n}]"] = marg_mod.range_closure_equal(a, b)
                lo, hi = (a, b) if flex == "st-increase" else (b, a)
                checks[f"st_leq[{n}]"] = marg_mod.st_leq(lo, hi)
            else:  # cx
                checks[f"continuous[{n}]"] = bool(a.continuous and b.continuous)
                checks[f"cx_leq[{n}]"] = marg_mod.cx_leq(a, b)
        return checks

    for n in range(tree.node_count):
        (va, ma), (vb, mb) = spec_x.node_laws[n], spec_y.node_laws[n]
        if flex in ("st-increase", "st-decrease"):
            ra = frozenset(itertools.accumulate(ma)) | {Fraction(0)}
            rb = frozenset(itertools.accumulate(mb)) | {Fraction(0)}
            checks[f"range_closure_equal[{n}]"] = ra == rb
            checks[f"st_leq[{n}]"] = _discrete_st_leq(
                *((va, ma, vb, mb) if flex == "st-increase" else (vb, mb, va, ma))
            )
        else:
            # step CDFs are never continuous, so the cx route rejects them
            checks[f"continuous[{n}]"] = False
    return checks


def _discrete_st_leq(va, ma, vb, mb) -> bool:
    """Exact F_a(t) >= F_b(t) on the union of the two supports."""
    grid = sorted(set(va) | set(vb))

    def cdf(values, marg, t):
        total = Fraction(0)
        for v, w in zip(values, marg):
            if v <= t:
                total += w
        return total

    return all(cdf(va, ma, t) >= cdf(vb, mb, t) for t in grid)
