import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog

from treedep.simplex import SimplexError, solve_lp_min


def test_known_optimum():
    # min -x - 2y  s.t.  x + y <= 4, x <= 2  ->  y=4, x=0, value -8
    value, x = solve_lp_min(
        [F(-1), F(-2)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(2)]
    )
    assert value == -8
    assert x == [F(0), F(4)]
    # min -2x - y on the same region picks the other corner
    value, x = solve_lp_min(
        [F(-2), F(-1)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(2)]
    )
    assert value == -6
    assert x == [F(2), F(2)]


def test_zero_objective():
    value, x = solve_lp_min([F(0), F(0)], [[F(1), F(1)]], [F(1)])
    assert value == 0


def test_degenerate_constraints_terminate():
    # many tight-at-zero rows; Bland fallback must not cycle
    n = 6
    rows = []
    for i in range(n - 1):
        row = [F(0)] * n
        row[i] = F(1)
        row[i + 1] = F(-1)
        rows.append(row)
    b = [F(0)] * (n - 1)
    c = [F(1)] * (n - 1) + [F(-1)]
    rows.append([F(1)] * n)
    b.append(F(1))
    value, x = solve_lp_min(c, rows, b)
    # chain x0 <= ... <= x5 with unit total: put everything on x5
    assert value == -1
    assert sum(x) <= 1


def test_bland_switch_returns_the_optimal_vertex():
    # Beale's cycling example: the steepest rule pivots degenerately at zero
    # for more than 2(n + m) steps before Bland's rule takes over
    c = [F(-3, 4), F(20), F(-1, 2), F(6)]
    a = [
        [F(1, 4), F(-8), F(-1), F(9)],
        [F(1, 2), F(-12), F(-1, 2), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    value, x = solve_lp_min(c, a, [F(0), F(0), F(1)])
    assert value == F(-5, 4)
    assert x == [F(1), F(0), F(1), F(0)]


def test_mixed_denominator_objective_vertex():
    c = [F(-1, 3), F(-2, 7), F(-1, 1000003)]
    a = [[F(1), F(1), F(1)], [F(2), F(0), F(0)], [F(0), F(3, 5), F(0)]]
    value, x = solve_lp_min(c, a, [F(1), F(1), F(1, 5)])
    assert x == [F(1, 2), F(1, 3), F(1, 6)]
    assert value == F(-1, 6) - F(2, 21) - F(1, 6 * 1000003)


def test_ratio_tie_break_pins_the_supermodular_vertex():
    # a 4x4 supermodular program with two optimal vertices: the ratio test's
    # smallest-basis-index tie-break decides which one is returned
    from treedep.discrete import DiscreteJoint
    from treedep.ordering import _supermodular_program

    grid = tuple(range(4))
    joint = DiscreteJoint((grid, grid), {(i, j): F(1, 16) for i in grid for j in grid})
    _, _, a_rows, b = _supermodular_program(joint, joint)
    c = [F(v) for v in (
        "157/6240", "191/9984", "211/199680", "-1811/39936",
        "-37/1664", "-389/9984", "2701/199680", "3173/66560",
        "-313/24960", "287/24960", "-7/480", "1/64",
        "1/104", "1/120", "0", "-7/390",
    )]
    value, x = solve_lp_min(c, a_rows, b)
    assert value == F(-7, 195)
    assert x == [F(v) for v in (1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1)]


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        solve_lp_min([F(-1)], [[F(-1)]], [F(0)])


def test_dimension_checks():
    with pytest.raises(SimplexError):
        solve_lp_min([F(1)], [[F(1), F(2)]], [F(1)])
    with pytest.raises(SimplexError):
        solve_lp_min([F(1)], [[F(1)]], [F(-1)])


def test_against_scipy_on_random_programs():
    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(2, 5)
        m = rng.randint(1, 6)
        c = [F(rng.randint(-5, 5)) for _ in range(n)]
        a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(0, 6)) for _ in range(m)]
        # box the variables to keep every program bounded
        for i in range(n):
            row = [F(0)] * n
            row[i] = F(1)
            a.append(row)
            b.append(F(3))
        value, x = solve_lp_min(c, a, b)
        res = linprog(
            [float(v) for v in c],
            A_ub=np.array([[float(v) for v in row] for row in a]),
            b_ub=np.array([float(v) for v in b]),
            bounds=[(0, None)] * n,
            method="highs",
        )
        assert res.success
        assert float(value) == pytest.approx(res.fun, abs=1e-9)
        # the reported point is feasible and achieves the value
        for row, rhs in zip(a, b):
            assert sum(r * xi for r, xi in zip(row, x)) <= rhs
        assert sum(ci * xi for ci, xi in zip(c, x)) == value


def _as_fractions(rows):
    return [[F(v) for v in row] for row in rows]


def _assert_same_solution(c, a, b):
    """Int rows and the same rows as Fractions give equal (value, x), all Fractions."""
    got = solve_lp_min(c, a, b)
    want = solve_lp_min([F(v) for v in c], _as_fractions(a), [F(v) for v in b])
    assert got == want
    value, x = got
    assert type(value) is F and all(type(v) is F for v in x)
    return got


def test_int_rows_match_fraction_rows_on_random_programs():
    rng = random.Random(29)
    for trial in range(80):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        c = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        if trial % 4 == 0:
            c = [int(v) for v in c]
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.choice((0, 0, 1, 3)) for _ in range(m)]
        a += [[int(i == j) for j in range(n)] for i in range(n)]
        b += [2] * n
        _assert_same_solution(c, a, b)


def test_int_rows_match_fraction_rows_on_beale():
    # Beale's program with each row scaled to integers (as a Fraction row it
    # would sit over the denominators 4 and 2); the optimum is unchanged
    c = [F(-3, 4), F(20), F(-1, 2), F(6)]
    a = [[1, -32, -4, 36], [1, -24, -1, 6], [0, 0, 1, 0]]
    value, x = _assert_same_solution(c, a, [0, 0, 1])
    assert value == F(-5, 4)
    assert x == [F(1), F(0), F(1), F(0)]


def test_supermodular_program_rows_are_small_ints():
    from treedep.discrete import DiscreteJoint
    from treedep.ordering import _supermodular_program

    grid = tuple(range(3))
    joint = DiscreteJoint((grid,) * 3, {(i, j, k): F(1, 27) for i in grid
                                        for j in grid for k in grid})
    cells, c_vec, a_rows, b = _supermodular_program(joint, joint)
    n = len(cells)
    assert len(a_rows) == 3 * 3 * 2 * 2 + n  # 3 axis pairs x 3 x 2 x 2 squares, then boxes
    assert all(type(v) is int and v in (-1, 0, 1) for row in a_rows for v in row)
    assert all(type(v) is int and v in (0, 1) for v in b)
    assert all(len(row) == n for row in a_rows) and len(c_vec) == n


def test_int_rows_match_fraction_rows_on_the_two_vertex_program():
    from treedep.discrete import DiscreteJoint
    from treedep.ordering import _supermodular_program

    grid = tuple(range(4))
    joint = DiscreteJoint((grid, grid), {(i, j): F(1, 16) for i in grid for j in grid})
    _, _, a_rows, b = _supermodular_program(joint, joint)
    c = [F(v) for v in (
        "157/6240", "191/9984", "211/199680", "-1811/39936",
        "-37/1664", "-389/9984", "2701/199680", "3173/66560",
        "-313/24960", "287/24960", "-7/480", "1/64",
        "1/104", "1/120", "0", "-7/390",
    )]
    value, x = _assert_same_solution(c, a_rows, b)
    assert value == F(-7, 195)
    assert x == [F(v) for v in (1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1)]
