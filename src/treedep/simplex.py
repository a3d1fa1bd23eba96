"""Dense simplex solver over exact rationals, in integer arithmetic.

Solves  min c.x  subject to  A x <= b,  x >= 0  with b >= 0, which makes the
slack basis feasible from the start (no phase-1 needed).  Intended for the
small lattices that the order oracles produce, not for large programs.

The tableau is fraction-free: each constraint row holds integer numerators
over its own positive denominator, which is the row's entry in its basic
column, and the objective row holds integer numerators over one explicit
positive denominator.  A pivot rewrites a row ``r`` with a nonzero entering
coefficient ``f`` as ``r*piv - f*pivot_row`` and divides it by its gcd, so
every row stays the least integer multiple of its rational row.  Reduced
costs share one denominator and compare as integers; the ratio test compares
by cross-multiplication, since each row's denominator cancels.  The pivot
rule is exact: steepest reduced cost until progress stalls, then Bland's
rule, which keeps the heavily degenerate supermodularity cones from cycling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class SimplexError(RuntimeError):
    """Raised on unbounded or structurally invalid programs."""


def _integer_row(values: list) -> tuple[list[int], int]:
    """Numerators of the rationals ``values`` over their least common denominator.

    ``values`` is a fresh list: an all-``int`` row is returned as it is, over 1.
    """
    if set(map(type, values)) == {int}:
        return values, 1
    fracs = [v if type(v) is Fraction else Fraction(v) for v in values]
    dens = [v.denominator for v in fracs]
    den = lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(fracs, dens)], den


def _eliminate(row: list[int], f: int, piv: int,
               support: list[tuple[int, int]]) -> list[int]:
    """``row*piv - f*pivot_row``, the pivot row given by its nonzero entries."""
    new = [x * piv for x in row] if piv != 1 else row[:]
    for j, p in support:
        new[j] -= f * p
    return new


def _divide_out(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide ``row`` and its positive denominator ``den`` by their gcd.

    The gcd divides ``den``, so a unit denominator needs no gcd at all.
    """
    g = gcd(den, *row) if den > 1 else 1
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def solve_lp_min(
    c: Sequence[Fraction | int],
    a_ub: Sequence[Sequence[Fraction | int]],
    b_ub: Sequence[Fraction | int],
    max_pivots: int | None = None,
) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of  min c.x  s.t.  A x <= b, x >= 0  (b >= 0).

    Entries may be ints, Fractions or anything ``Fraction()`` accepts; rows
    of plain ints go into the tableau as they are.  Returns ``(value, x)``
    as Fractions whatever the input types.  Raises :class:`SimplexError` if
    the program is unbounded or the pivot budget is exhausted.
    """
    n = len(c)
    m = len(a_ub)
    if len(b_ub) != m or any(len(row) != n for row in a_ub):
        raise SimplexError("inconsistent program dimensions")
    if any(b < 0 for b in b_ub):
        raise SimplexError("b must be nonnegative (slack basis must be feasible)")

    # tableau rows: [a | slack identity | rhs] as integers over the row's
    # denominator, which is also its entry in its basic (slack) column
    rows: list[list[int]] = []
    for i in range(m):
        nums, den = _integer_row([*a_ub[i], b_ub[i]])
        row = nums[:n] + [0] * m + nums[n:]
        row[n + i] = den
        rows.append(row)
    # objective row: reduced costs and minus the value, over obj_den
    nums, obj_den = _integer_row([*c])
    obj = nums + [0] * (m + 1)
    basis = list(range(n, n + m))

    if max_pivots is None:
        max_pivots = 200 * (n + m) + 1000

    # steepest reduced cost until progress stalls, then Bland (terminates)
    stall_limit = 2 * (n + m)
    stall = 0
    bland = False
    for _ in range(max_pivots):
        if bland:
            enter = next((j for j in range(n + m) if obj[j] < 0), None)
        else:
            enter = None
            best_cost = 0
            for j in range(n + m):
                if obj[j] < best_cost:
                    best_cost = obj[j]
                    enter = j
        if enter is None:
            x = [Fraction(0)] * n
            for row, bvar in zip(rows, basis):
                if bvar < n:
                    x[bvar] = Fraction(row[-1], row[bvar])
            return Fraction(-obj[-1], obj_den), x
        # ratio test rhs/coeff by cross-multiplication, smallest-basis-index
        # tie-break
        leave = None
        for i, row in enumerate(rows):
            coeff = row[enter]
            if coeff <= 0:
                continue
            if leave is not None:
                lhs = row[-1] * best_coeff
                rhs = best_rhs * coeff
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_rhs, best_coeff = i, row[-1], coeff
        if leave is None:
            raise SimplexError("program is unbounded")
        if not bland:
            stall = stall + 1 if rows[leave][-1] == 0 else 0
            if stall > stall_limit:
                bland = True

        # the pivot row keeps its numerators: its new basic entry piv is its
        # denominator; every other row with a nonzero entering coefficient
        # becomes row*piv - f*pivot_row over the old denominator times piv
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        support = [(j, p) for j, p in enumerate(pivot_row) if p]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                rows[i] = _divide_out(_eliminate(row, f, piv, support),
                                      row[basis[i]] * piv)[0]
        f = obj[enter]
        if f:
            obj, obj_den = _divide_out(_eliminate(obj, f, piv, support), obj_den * piv)
        basis[leave] = enter
    raise SimplexError("pivot budget exhausted")
