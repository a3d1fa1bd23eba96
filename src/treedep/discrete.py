"""Finite-support joint distributions in exact rational arithmetic.

Bivariate building blocks, tree-factorized joints, orthant probabilities and
block-uniform laws.  Everything is :class:`fractions.Fraction`-exact so that
counterexamples separated by 0.01/3 stay separated.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .trees import DirectedTree


class DiscreteError(ValueError):
    """Raised for malformed discrete laws or unsupported queries."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise DiscreteError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class DiscreteBivariate:
    """Joint law of a pair on a finite grid, with exact weights.

    ``weights[r][c]`` is P[U = row_values[r], V = col_values[c]].
    """

    weights: tuple[tuple[Fraction, ...], ...]
    row_values: tuple
    col_values: tuple

    def __post_init__(self):
        if not self.weights:
            raise DiscreteError("weight matrix must be nonempty")
        ncols = len(self.weights[0])
        if any(len(r) != ncols for r in self.weights):
            raise DiscreteError("weight matrix must be rectangular")
        if len(self.row_values) != len(self.weights) or len(self.col_values) != ncols:
            raise DiscreteError("support lengths must match the weight matrix")
        for vals in (self.row_values, self.col_values):
            if list(vals) != sorted(vals) or len(set(vals)) != len(vals):
                raise DiscreteError("support values must be sorted and distinct")
        total = Fraction(0)
        for row in self.weights:
            for w in row:
                if w < 0:
                    raise DiscreteError("weights must be nonnegative")
                total += w
        if total != 1:
            raise DiscreteError(f"total mass is {total}, expected 1")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], row_values=None, col_values=None):
        """Build from any nested iterable of rationals/ints/strings."""
        w = tuple(tuple(_frac(x) for x in row) for row in rows)
        rv = tuple(row_values) if row_values is not None else tuple(range(len(w)))
        cv = tuple(col_values) if col_values is not None else tuple(range(len(w[0])))
        return cls(w, rv, cv)

    def row_marginal(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.weights)

    def col_marginal(self) -> tuple[Fraction, ...]:
        return tuple(sum(col, Fraction(0)) for col in zip(*self.weights))

    def conditional(self, given_row: int) -> tuple[Fraction, ...]:
        """Conditional law of the column variable given row index ``given_row``."""
        mass = self.row_marginal()[given_row]
        if mass == 0:
            raise DiscreteError(f"conditioning row {given_row} has zero mass")
        return tuple(w / mass for w in self.weights[given_row])

    def transpose(self) -> "DiscreteBivariate":
        return DiscreteBivariate(
            tuple(zip(*self.weights)), self.col_values, self.row_values
        )

    def product_of_marginals(self) -> "DiscreteBivariate":
        rm, cm = self.row_marginal(), self.col_marginal()
        return DiscreteBivariate(
            tuple(tuple(r * c for c in cm) for r in rm), self.row_values, self.col_values
        )


def parse_matrix_text(text: str) -> DiscreteBivariate:
    """Parse a plain-text matrix: one row per line, entries '4/30' or '0.1'.

    Optional directives ``# rows: v1 v2 ...`` / ``# cols: ...`` set supports;
    they default to 0..k-1.
    """
    rows = []
    row_values = col_values = None
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            for key in ("rows", "cols"):
                if body.lower().startswith(key + ":"):
                    vals = tuple(_frac(v) for v in body.split(":", 1)[1].split())
                    if key == "rows":
                        row_values = vals
                    else:
                        col_values = vals
            continue
        line = stripped.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([Fraction(tok) for tok in line.split()])
    if not rows:
        raise DiscreteError("no matrix rows found")
    return DiscreteBivariate.from_rows(rows, row_values, col_values)


@dataclass(frozen=True)
class DiscreteJoint:
    """Sparse exact joint law over per-node finite supports.

    ``mass`` maps index tuples (one index per node) to positive rationals;
    omitted tuples carry zero mass.
    """

    supports: tuple[tuple, ...]
    mass: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        total = Fraction(0)
        d = len(self.supports)
        for idx, w in self.mass.items():
            if len(idx) != d:
                raise DiscreteError("index tuple arity mismatch")
            if w < 0:
                raise DiscreteError("masses must be nonnegative")
            for n, i in enumerate(idx):
                if not 0 <= i < len(self.supports[n]):
                    raise DiscreteError("index out of support range")
            total += w
        if total != 1:
            raise DiscreteError(f"total mass is {total}, expected 1")

    @property
    def dims(self) -> int:
        return len(self.supports)

    def cell_count(self) -> int:
        n = 1
        for s in self.supports:
            n *= len(s)
        return n

    def marginal(self, node: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * len(self.supports[node])
        for idx, w in self.mass.items():
            out[idx[node]] += w
        return tuple(out)

    def marginalize(self, nodes: Sequence[int]) -> "DiscreteJoint":
        """Joint law of the given nodes, kept in ascending node order."""
        nodes = sorted(set(nodes))
        if not nodes:
            raise DiscreteError("node subset must be nonempty")
        out: dict[tuple[int, ...], Fraction] = {}
        for idx, w in self.mass.items():
            key = tuple(idx[n] for n in nodes)
            out[key] = out.get(key, Fraction(0)) + w
        supports = tuple(self.supports[n] for n in nodes)
        return DiscreteJoint(supports, out)

    def bivariate(self, i: int, j: int) -> DiscreteBivariate:
        """Edge marginal as a :class:`DiscreteBivariate` (i rows, j columns)."""
        ri, rj = len(self.supports[i]), len(self.supports[j])
        w = [[Fraction(0)] * rj for _ in range(ri)]
        for idx, m in self.mass.items():
            w[idx[i]][idx[j]] += m
        return DiscreteBivariate(
            tuple(tuple(row) for row in w), tuple(self.supports[i]), tuple(self.supports[j])
        )

    def orthant_prob(self, thresholds: Sequence, strict: Sequence[bool] | bool = False) -> Fraction:
        """Exact P(X_n <= t_n for all n), or strict '<' where flagged."""
        d = self.dims
        if len(thresholds) != d:
            raise DiscreteError("one threshold per node required")
        if isinstance(strict, bool):
            strict = [strict] * d
        elif len(strict) != d:
            raise DiscreteError("one strict flag per node required")
        counts = []
        for n in range(d):
            t = thresholds[n]
            vals = self.supports[n]
            if strict[n]:
                counts.append(sum(1 for v in vals if v < t))
            else:
                counts.append(sum(1 for v in vals if v <= t))
        total = Fraction(0)
        for idx, w in self.mass.items():
            if all(idx[n] < counts[n] for n in range(d)):
                total += w
        return total

    def product_of_marginals(self) -> "DiscreteJoint":
        """Independent coupling of this law's univariate marginals."""
        margs = [self.marginal(n) for n in range(self.dims)]
        out: dict[tuple[int, ...], Fraction] = {}
        ranges = [range(len(s)) for s in self.supports]
        for idx in itertools.product(*ranges):
            w = Fraction(1)
            for n, i in enumerate(idx):
                w *= margs[n][i]
            if w > 0:
                out[idx] = w
        return DiscreteJoint(self.supports, out)


def markov_joint(
    tree: DirectedTree, edge_dists: Mapping[tuple[int, int], DiscreteBivariate]
) -> DiscreteJoint:
    """The unique tree-factorized joint realizing the given edge laws.

    Mass factorizes as the root marginal times one conditional per edge.
    The edge laws must form a :class:`DiscreteTreeSpec`: every tree edge
    carries a bivariate law, and edges sharing a node imply the same
    support and marginal there.
    """
    spec = DiscreteTreeSpec(tree, edge_dists)
    laws = spec.node_laws
    if any(w == 0 for _, marg in laws for w in marg):
        warnings.warn(
            "some support values carry zero mass; conditionals there are "
            "fixed only up to null sets",
            stacklevel=2,
        )

    # expand root-to-leaves over node-ordered index tuples (unplaced nodes
    # hold 0), keeping only positive-mass assignments
    rest = (0,) * (tree.node_count - 1)
    partial: dict[tuple[int, ...], Fraction] = {
        (k,) + rest: w for k, w in enumerate(laws[0][1]) if w > 0
    }
    for node in tree.level_order()[1:]:
        parent = tree.parent(node)
        biv = edge_dists[(parent, node)]
        parent_marg = laws[parent][1]
        new_partial: dict[tuple[int, ...], Fraction] = {}
        for idx, w in partial.items():
            pi = idx[parent]
            denom = parent_marg[pi]
            head, tail = idx[:node], idx[node + 1:]
            for ci, m in enumerate(biv.weights[pi]):
                if m > 0:
                    new_partial[head + (ci,) + tail] = w * m / denom
        partial = new_partial
    return DiscreteJoint(tuple(values for values, _ in laws), partial)


@dataclass(frozen=True)
class BlockUniformJoint:
    """Chain law that is uniform inside unit blocks of a rectangular grid.

    Represented by the discrete law of the block indices (supports are the
    block start values).  Orthant probabilities are exact at block
    boundaries, where the strict orthant of the continuous law coincides
    with the strict orthant of the block-index law.
    """

    joint: DiscreteJoint
    block_width: Fraction

    def orthant_prob(self, thresholds: Sequence) -> Fraction:
        """Exact P(X_n < t_n for all n) for thresholds on block boundaries."""
        for t in thresholds:
            if _frac(t) % self.block_width != 0:
                raise DiscreteError(
                    f"threshold {t} is not a multiple of the block width "
                    f"{self.block_width}; only block boundaries are supported"
                )
        return self.joint.orthant_prob(thresholds, strict=True)


def block_uniform_joint(
    matrices: Sequence[DiscreteBivariate] | Sequence[Sequence[Sequence]],
    block_width=1,
) -> BlockUniformJoint:
    """Chain of block-uniform bivariate laws, one matrix per edge.

    ``matrices[k]`` gives the block-pair masses of edge (k, k+1); supports
    are the block start values 0, w, 2w, ...
    """
    width = _frac(block_width)
    if width <= 0:
        raise DiscreteError("block width must be positive")
    bivs = []
    for m in matrices:
        if isinstance(m, DiscreteBivariate):
            w = m.weights
        else:
            w = tuple(tuple(_frac(x) for x in row) for row in m)
        bivs.append(
            DiscreteBivariate(
                w,
                tuple(width * k for k in range(len(w))),
                tuple(width * k for k in range(len(w[0]))),
            )
        )
    if not bivs:
        raise DiscreteError("need at least one edge matrix")
    tree = DirectedTree(len(bivs) + 1, [(k, k + 1) for k in range(len(bivs))])
    joint = markov_joint(tree, {(k, k + 1): bivs[k] for k in range(len(bivs))})
    return BlockUniformJoint(joint, width)


@dataclass(frozen=True)
class DiscreteTreeSpec:
    """A tree together with one exact bivariate law per edge.

    Edges that meet at a node must imply the same support and marginal
    there; ``node_laws[n]`` holds that ``(values, masses)`` pair.
    """

    tree: DirectedTree
    edge_dists: Mapping[tuple[int, int], DiscreteBivariate]
    node_laws: tuple[tuple[tuple, tuple[Fraction, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.tree.node_count < 2:
            raise DiscreteError("need at least one edge")
        if set(self.edge_dists) != set(self.tree.edges):
            raise DiscreteError("edge laws must cover exactly the tree edges")
        laws: list = [None] * self.tree.node_count

        def install(node: int, values, marg, edge):
            if laws[node] is None:
                laws[node] = (tuple(values), tuple(marg))
            elif laws[node] != (tuple(values), tuple(marg)):
                raise DiscreteError(
                    f"edge {edge} implies a marginal at node {node} inconsistent "
                    "with another edge"
                )

        for (i, j), biv in self.edge_dists.items():
            install(i, biv.row_values, biv.row_marginal(), (i, j))
            install(j, biv.col_values, biv.col_marginal(), (i, j))
        object.__setattr__(self, "node_laws", tuple(laws))

    def realize(self) -> DiscreteJoint:
        return markov_joint(self.tree, self.edge_dists)
