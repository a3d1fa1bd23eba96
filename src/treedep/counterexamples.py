"""Built-in counterexample gallery with self-verifying exact values.

Each block constructs a small tree law whose orthant probabilities separate
two specifications that satisfy most, but not all, of the monotonicity
hypotheses of the comparison theorems.  Every numeric claim is recomputed
from scratch and checked against the frozen expected fraction, so running
the gallery doubles as a regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as F

from . import ordering
from .discrete import DiscreteBivariate, markov_joint
from .marginals import Dirac, Uniform, range_closure_equal
from .trees import make_chain, make_star


def _mat(rows, den) -> DiscreteBivariate:
    return DiscreteBivariate.from_rows([[F(x, den) for x in row] for row in rows])


# chain on 3 nodes: SI pointing the same way on both laws is not enough
CHAIN3_A01 = _mat([[4, 4, 2], [3, 4, 3], [3, 2, 5]], 30)
CHAIN3_A12 = _mat([[4, 4, 2], [4, 3, 3], [2, 3, 5]], 30)
CHAIN3_B01 = CHAIN3_A01
CHAIN3_B12 = _mat([[5, 4, 1], [3, 3, 4], [2, 3, 5]], 30)

# star on 3 nodes: center SI in the leaves is not enough
STAR4_A01 = _mat([[3, 3, 3, 1], [3, 3, 3, 1], [3, 3, 3, 1], [1, 1, 1, 7]], 40)
STAR4_B01 = _mat([[4, 3, 2, 1], [5, 4, 1, 0], [1, 2, 5, 2], [0, 1, 2, 7]], 40)
STAR4_A02 = _mat([[4, 3, 2, 1], [3, 3, 2, 2], [2, 3, 3, 2], [1, 1, 3, 5]], 40)
STAR4_B02 = _mat([[6, 2, 2, 0], [3, 3, 1, 3], [1, 3, 4, 2], [0, 2, 3, 5]], 40)

# block-uniform chain on 4 nodes: Schur-dominated edges, no orthant order.
# Each edge law is uniform inside unit blocks; supports are the block starts
# 0, 1, 2, and the continuous law's strict orthant at block boundaries is the
# block-index law's strict orthant.
BLOCK_A = _mat([[5, 2, 3], [3, 7, 0], [2, 1, 7]], 30)
BLOCK_B = _mat([[6, 4, 0], [3, 4, 3], [1, 2, 7]], 30)


@dataclass
class BlockReport:
    name: str
    ok: bool
    lines: list[str] = field(default_factory=list)


def _expect(lines: list[str], label: str, got, want) -> bool:
    ok = got == want
    lines.append(f"  {label}: {got}" + ("" if ok else f"  [MISMATCH, expected {want}]"))
    return ok


def _over(frac: F, den: int) -> str:
    """Render a fraction over a fixed denominator (for display only)."""
    scale = den // frac.denominator
    return f"{frac.numerator * scale}/{den}"


def chain3_block() -> BlockReport:
    """Both laws SI upward along the chain; the reversed SI fails for Y."""
    tree = make_chain(2)
    jx = markov_joint(tree, {(0, 1): CHAIN3_A01, (1, 2): CHAIN3_A12})
    jy = markov_joint(tree, {(0, 1): CHAIN3_B01, (1, 2): CHAIN3_B12})
    px = jx.orthant_prob((1, 1, 1))
    py = jy.orthant_prob((1, 1, 1))
    lo = ordering.lo_check(jx, jy)
    lines: list[str] = []
    ok = _expect(lines, "P_X", px, F(112, 300))
    ok &= _expect(lines, "P_Y", py, F(111, 300))
    ok &= _expect(lines, "lo holds", lo.holds, False)
    ok &= _expect(lines, "lo witness", lo.witness, (1, 1, 1))
    lines.append(f"  P_X = {_over(px, 300)}, P_Y = {_over(py, 300)}, "
                 f"lo: VIOLATED at {lo.witness}")
    ok &= _expect(lines, "X1 si in X0", ordering.si_check(CHAIN3_A01), True)
    ok &= _expect(
        lines, "Y0 si in Y1", ordering.si_check(CHAIN3_B01, "row_given_col"), False
    )
    return BlockReport("chain3", ok, lines)


def star4_block() -> BlockReport:
    """Center SI in the leaves only; the leaf-in-center SI fails for Y."""
    tree = make_star(2)
    jx = markov_joint(tree, {(0, 1): STAR4_A01, (0, 2): STAR4_A02})
    jy = markov_joint(tree, {(0, 1): STAR4_B01, (0, 2): STAR4_B02})
    px = jx.orthant_prob((2, 2, 2))
    py = jy.orthant_prob((2, 2, 2))
    lo = ordering.lo_check(jx, jy)
    lines: list[str] = []
    ok = _expect(lines, "P_X", px, F(225, 400))
    ok &= _expect(lines, "P_Y", py, F(224, 400))
    ok &= _expect(lines, "lo holds", lo.holds, False)
    ok &= _expect(lines, "lo witness", lo.witness, (2, 2, 2))
    lines.append(f"  P_X = {_over(px, 400)}, P_Y = {_over(py, 400)}, "
                 f"lo: VIOLATED at {lo.witness}")
    for name, m in (("a01", STAR4_A01), ("a02", STAR4_A02)):
        ok &= _expect(lines, f"X leaf si in X0 [{name}]", ordering.si_check(m), True)
        ok &= _expect(lines, f"X0 si in leaf [{name}]",
                      ordering.si_check(m, "row_given_col"), True)
    for name, m in (("b01", STAR4_B01), ("b02", STAR4_B02)):
        ok &= _expect(lines, f"Y0 si in leaf [{name}]",
                      ordering.si_check(m, "row_given_col"), True)
    return BlockReport("star4", ok, lines)


def _chain_extension_laws(a01: DiscreteBivariate, a02: DiscreteBivariate,
                          total_nodes: int) -> dict:
    """Chain edge laws for (X1, X0, ..., X0, X2) from the star edges 0-1, 0-2."""
    center = a01.row_marginal()
    k = len(center)
    diagonal = DiscreteBivariate(
        tuple(tuple(center[r] if r == c else F(0) for c in range(k)) for r in range(k)),
        a01.row_values, a01.row_values,
    )
    laws = [a01.transpose()] + [diagonal] * (total_nodes - 3) + [a02]
    return {(n, n + 1): law for n, law in enumerate(laws)}


def chain_extension_block() -> BlockReport:
    """Star counterexample stretched into the 5-node chain (X1, X0, X0, X0, X2).

    Interior edges carry X0's law on the diagonal, so the center repeats
    comonotonically and every orthant probability with matching
    thresholds is the star's.
    """
    total_nodes = 5
    tree = make_chain(total_nodes - 1)
    ex = markov_joint(tree, _chain_extension_laws(STAR4_A01, STAR4_A02, total_nodes))
    ey = markov_joint(tree, _chain_extension_laws(STAR4_B01, STAR4_B02, total_nodes))
    thresholds = (2,) * total_nodes
    px = ex.orthant_prob(thresholds)
    py = ey.orthant_prob(thresholds)
    lines: list[str] = []
    ok = _expect(lines, "P_X", px, F(225, 400))
    ok &= _expect(lines, "P_Y", py, F(224, 400))
    lo = ordering.lo_check(ex, ey)
    ok &= _expect(lines, "lo holds", lo.holds, False)
    lines.append(f"  chain of {total_nodes}: P_X = {_over(px, 400)} > "
                 f"P_Y = {_over(py, 400)}, lo: VIOLATED at {lo.witness}")
    return BlockReport("chain-extension", ok, lines)


def range_closure_block() -> BlockReport:
    """Comonotone specs with a Dirac node: the range-closure hypothesis bites."""
    lines: list[str] = []
    uni, atom = Uniform(0.0, 1.0), Dirac(0.0)
    equal = range_closure_equal(uni, atom)
    ok = _expect(lines, "range closures equal", equal, False)
    lines.append(f"  range-closure FAIL between {uni} and {atom}")
    lines.append("  comonotone pair cdf min(u,v) exceeds the independent uv "
                 "at (1/2,1/2): 0.5 > 0.25")
    return BlockReport("range-closure", ok, lines)


def block_chain_block() -> BlockReport:
    """Schur-ordered, TP2-versus-not block chain without orthant order."""
    tree = make_chain(3)
    ax = markov_joint(tree, {(k, k + 1): BLOCK_A for k in range(3)})
    by = markov_joint(tree, {(k, k + 1): BLOCK_B for k in range(3)})
    px = ax.orthant_prob((2, 2, 2, 2), strict=True)
    py = by.orthant_prob((2, 2, 2, 2), strict=True)
    lines: list[str] = []
    ok = _expect(lines, "P_X", px, F(1259, 3000))
    ok &= _expect(lines, "P_Y", py, F(1256, 3000))
    lines.append(f"  strict orthant at 2: P_X = {_over(px, 3000)} > "
                 f"P_Y = {_over(py, 3000)}, lo: VIOLATED at (2,2,2,2)-strict")
    ok &= _expect(lines, "mtp2(b)", ordering.mtp2_check(BLOCK_B), True)
    ok &= _expect(lines, "mtp2(a)", ordering.mtp2_check(BLOCK_A), False)
    for direction in ("col_given_row", "row_given_col"):
        rep = ordering.schur_leq(BLOCK_A, BLOCK_B, direction)
        ok &= _expect(lines, f"schur {direction}", rep.holds, True)
    lines.append("  Schur-order PASS for both edge directions")
    return BlockReport("block-chain", ok, lines)


def run_all() -> list[BlockReport]:
    return [
        chain3_block(),
        star4_block(),
        chain_extension_block(),
        range_closure_block(),
        block_chain_block(),
    ]
