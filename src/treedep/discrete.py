"""Finite-support joint distributions in exact rational arithmetic.

Tree-factorized joints, their bivariate edge laws and orthant probabilities.
A joint is an integer table over its support grid with one common
denominator, so its sums run in exact integer arithmetic; a bivariate law is
a joint with two axes.  Every probability a law returns is a
:class:`fractions.Fraction`, so counterexamples separated by 0.01/3 stay
separated.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

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


# Largest support grid a joint may span.  The table holds one Python int per
# cell and markov_joint briefly holds two grids: building a random 3^12 chain
# (531,441 cells) peaked at 81 MB of process memory, a 4^10 chain (2^20
# cells) at 91 MB.
MAX_CELLS = 1 << 20


def _grid_shape(supports: Sequence[Sequence]) -> tuple[int, ...]:
    """Shape of the support grid, refused past :data:`MAX_CELLS` up front.

    Each support must be sorted and distinct: orthant probabilities count
    the support values below a threshold as a prefix of the axis.
    """
    for values in supports:
        try:
            ascending = all(a < b for a, b in zip(values, values[1:]))
        except TypeError:
            ascending = False
        if not ascending:
            raise DiscreteError("support values must be sorted and distinct")
    shape = tuple(len(s) for s in supports)
    cells = math.prod(shape)
    if cells > MAX_CELLS:
        raise DiscreteError(
            f"support grid has {cells} cells, more than the limit of {MAX_CELLS}"
        )
    return shape


def _over_lcm(values: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """Numerators of the rationals ``values`` over their lcm, as object ints."""
    den = math.lcm(*(v.denominator for v in values))
    return np.array([v.numerator * (den // v.denominator) for v in values], dtype=object), den


def _check_total(total: int, den: int) -> None:
    if total != den:
        raise DiscreteError(f"total mass is {Fraction(total, den)}, expected 1")


def _table_of(nums: Sequence[int], den: int, shape: tuple[int, ...],
              what: str = "masses") -> np.ndarray:
    """The flat integer numerators ``nums`` over ``den`` as an object table,
    checked to be nonnegative with total ``den``."""
    if any(x < 0 for x in nums):
        raise DiscreteError(f"{what} must be nonnegative")
    _check_total(sum(nums), den)
    table = np.empty(len(nums), dtype=object)
    table[:] = nums
    return table.reshape(shape)


class _MassView(Mapping):
    """Read-only mapping from the index tuples of positive cells to Fractions."""

    def __init__(self, table: np.ndarray, den: int):
        self._table, self._den = table, den

    def __getitem__(self, idx):
        table = self._table
        try:
            inside = len(idx) == table.ndim and all(
                0 <= i < k for i, k in zip(idx, table.shape)
            )
            num = table[idx] if inside else 0
        except (TypeError, IndexError):
            num = 0
        if not num:
            raise KeyError(idx)
        return Fraction(num, self._den)

    def __iter__(self):
        return map(tuple, np.argwhere(self._table).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._table))

    def __repr__(self) -> str:
        return repr(dict(self))


class DiscreteJoint:
    """Exact joint law over per-node finite supports, as one integer table.

    ``table`` holds nonnegative integer numerators (numpy object ints,
    read-only) on the support grid and ``den`` is their common positive
    denominator: P(X_n = supports[n][idx[n]] for all n) = table[idx] / den.
    ``DiscreteJoint(supports, mass)`` builds one from a mapping of index
    tuples (one index per node) to rationals, omitted tuples carrying zero
    mass; :meth:`from_table` builds one from numerators and a denominator.
    """

    def __init__(self, supports: Sequence[Sequence],
                 mass: Mapping[tuple[int, ...], Fraction]):
        supports = tuple(tuple(s) for s in supports)
        shape = _grid_shape(supports)
        cells = {}
        for idx, w in mass.items():
            if len(idx) != len(shape):
                raise DiscreteError("index tuple arity mismatch")
            if not all(0 <= i < k for i, k in zip(idx, shape)):
                raise DiscreteError("index out of support range")
            cells[np.ravel_multi_index(tuple(idx), shape)] = Fraction(w)
        nums, den = _over_lcm(list(cells.values()))
        flat = [0] * math.prod(shape)
        for cell, num in zip(cells, nums):
            flat[cell] = num
        self._set(supports, _table_of(flat, den, shape), den)

    @classmethod
    def from_table(cls, supports: Sequence[Sequence], table, den: int) -> "DiscreteJoint":
        """The law with integer numerators ``table`` over ``den`` on the support grid."""
        supports = tuple(tuple(s) for s in supports)
        shape = _grid_shape(supports)
        table = np.asarray(table, dtype=object)
        if table.shape != shape:
            raise DiscreteError(
                f"table shape {table.shape} does not match the support grid {shape}"
            )
        try:
            nums = [operator.index(x) for x in table.flat]
            den = operator.index(den)
        except TypeError:
            raise DiscreteError("table entries and den must be integers") from None
        if den <= 0:
            raise DiscreteError("den must be positive")
        return cls._of(supports, _table_of(nums, den, shape), den)

    @classmethod
    def _of(cls, supports: tuple[tuple, ...], table: np.ndarray, den: int) -> "DiscreteJoint":
        """Unchecked constructor for tables this module built exactly."""
        joint = cls.__new__(cls)
        joint._set(supports, table, den)
        return joint

    def _set(self, supports, table, den) -> None:
        table.flags.writeable = False
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self._of, (self.supports, self.table, self.den)

    def __eq__(self, other):
        if not isinstance(other, DiscreteJoint):
            return NotImplemented
        return self.supports == other.supports and np.array_equal(
            self.table * other.den, other.table * self.den
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(supports={self.supports!r}, "
                f"{len(self.mass)} positive cells over {self.den})")

    @property
    def mass(self) -> Mapping[tuple[int, ...], Fraction]:
        """The positive cells as a read-only mapping: index tuple -> Fraction."""
        return _MassView(self.table, self.den)

    @property
    def dims(self) -> int:
        return len(self.supports)

    def cell_count(self) -> int:
        return self.table.size

    def _node(self, node: int) -> int:
        if not 0 <= node < self.dims:
            raise DiscreteError(
                f"node {node} is out of range for a joint of dimension {self.dims}"
            )
        return node

    def _kept(self, nodes: Sequence[int]) -> np.ndarray:
        """Numerators on the axes of the ascending ``nodes``, the rest summed out."""
        dropped = tuple(n for n in range(self.dims) if n not in nodes)
        return self.table.sum(axis=dropped) if dropped else self.table

    def marginal(self, node: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self._kept((self._node(node),)))

    def marginalize(self, nodes: Sequence[int]) -> "DiscreteJoint":
        """Joint law of the given nodes, kept in ascending node order."""
        nodes = sorted({self._node(n) for n in nodes})
        if not nodes:
            raise DiscreteError("node subset must be nonempty")
        supports = tuple(self.supports[n] for n in nodes)
        return DiscreteJoint._of(supports, self._kept(nodes), self.den)

    def bivariate(self, i: int, j: int) -> DiscreteBivariate:
        """Edge marginal as a :class:`DiscreteBivariate` (i rows, j columns).

        With ``i == j`` this is the diagonal law of the node with itself.
        """
        i, j = self._node(i), self._node(j)
        if i == j:
            w = np.diag(self._kept((i,)))
        else:
            w = self._kept(sorted((i, j)))
            if i > j:
                w = w.T
        return DiscreteBivariate._of((self.supports[i], self.supports[j]), w, self.den)

    def orthant_prob(self, thresholds: Sequence, strict: Sequence[bool] | bool = False) -> Fraction:
        """Exact P(X_n <= t_n for all n), or strict '<' where flagged."""
        d = self.dims
        if len(thresholds) != d:
            raise DiscreteError("one threshold per node required")
        if isinstance(strict, bool):
            strict = [strict] * d
        elif len(strict) != d:
            raise DiscreteError("one strict flag per node required")
        corner = []
        for vals, t, lt in zip(self.supports, thresholds, strict):
            count = sum(1 for v in vals if v < t) if lt else sum(1 for v in vals if v <= t)
            corner.append(slice(0, count))
        return Fraction(self.table[tuple(corner)].sum(), self.den)

    def product_of_marginals(self) -> "DiscreteJoint":
        """Independent coupling of this law's univariate marginals."""
        vectors, den = [], 1
        for n in range(self.dims):
            marg = self._kept((n,))
            g = math.gcd(self.den, *marg)
            vectors.append(marg // g)
            den *= self.den // g
        return self._of(self.supports, functools.reduce(np.multiply.outer, vectors), den)


class DiscreteBivariate(DiscreteJoint):
    """Joint law of a pair on a finite grid: a two-axis :class:`DiscreteJoint`.

    ``weights[r][c]`` is P[U = row_values[r], V = col_values[c]], and the
    supports are ``(row_values, col_values)``.  The constructor takes each
    weight as an ``int`` or a :class:`fractions.Fraction`; ``weights`` and
    both marginals are read back from the integer table.
    """

    def __init__(self, weights: Sequence[Sequence[Fraction]], row_values, col_values):
        if not weights:
            raise DiscreteError("weight matrix must be nonempty")
        ncols = len(weights[0])
        if any(len(r) != ncols for r in weights):
            raise DiscreteError("weight matrix must be rectangular")
        supports = (tuple(row_values), tuple(col_values))
        if tuple(map(len, supports)) != (len(weights), ncols):
            raise DiscreteError("support lengths must match the weight matrix")
        shape = _grid_shape(supports)
        flat = [w for row in weights for w in row]
        bad = [w for w in flat if not isinstance(w, (int, Fraction))]
        if bad:
            raise DiscreteError(f"weight {bad[0]!r} is not an int or a Fraction")
        nums, den = _over_lcm(flat)
        self._set(supports, _table_of(nums, den, shape, "weights"), den)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], row_values=None, col_values=None):
        """Build from any nested iterable of rationals/ints/strings."""
        w = tuple(tuple(_frac(x) for x in row) for row in rows)
        rv = tuple(row_values) if row_values is not None else tuple(range(len(w)))
        cv = tuple(col_values) if col_values is not None else tuple(range(len(w[0])))
        return cls(w, rv, cv)

    @property
    def row_values(self) -> tuple:
        return self.supports[0]

    @property
    def col_values(self) -> tuple:
        return self.supports[1]

    @functools.cached_property
    def weights(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.table.tolist())

    @functools.cached_property
    def _marginals(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        return self.marginal(0), self.marginal(1)

    def row_marginal(self) -> tuple[Fraction, ...]:
        return self._marginals[0]

    def col_marginal(self) -> tuple[Fraction, ...]:
        return self._marginals[1]

    def _conditional_table(self) -> tuple[np.ndarray, int]:
        """Numerators of w(r, c) / m(r) over their lcm, as object ints.

        A zero-mass row r gets zeros.  In lowest terms row r is its integer
        weights over their row sum, both divided by the row's gcd.
        """
        reduced = []
        for row in self.table.tolist():
            g = math.gcd(*row)
            reduced.append(([x // g for x in row], sum(row) // g) if g else (row, 1))
        lcm = math.lcm(*(d for _, d in reduced))
        table = np.array([[x * (lcm // d) for x in row] for row, d in reduced], dtype=object)
        return table, lcm

    def conditional(self, given_row: int) -> tuple[Fraction, ...]:
        """Conditional law of the column variable given row index ``given_row``."""
        row = self.table[given_row].tolist()
        mass = sum(row)
        if mass == 0:
            raise DiscreteError(f"conditioning row {given_row} has zero mass")
        return tuple(Fraction(x, mass) for x in row)

    def transpose(self) -> "DiscreteBivariate":
        return self._of(self.supports[::-1], self.table.T, self.den)

    # a name of its own in the class body, so that it can be wrapped per class
    product_of_marginals = DiscreteJoint.product_of_marginals


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
    supports = tuple(values for values, _ in laws)
    shape = _grid_shape(supports)
    if any(w == 0 for _, marg in laws for w in marg):
        warnings.warn(
            "some support values carry zero mass; conditionals there are "
            "fixed only up to null sets",
            stacklevel=2,
        )

    # broadcast product in level order: the root marginal's numerators, then
    # each edge's conditional w(i,j)/m_parent(i) over its lcm on the (parent,
    # child) axes; zero-mass parent rows get 0.  The spec made the edge's row
    # marginal the parent's law.
    table, den = _over_lcm(laws[0][1])
    table = table.reshape(shape[:1] + (1,) * (len(shape) - 1))
    for node in tree.level_order()[1:]:
        parent = tree.parent(node)
        cond, lcm = edge_dists[(parent, node)]._conditional_table()
        axes = [1] * len(shape)
        axes[parent], axes[node] = shape[parent], shape[node]
        table = table * (cond if parent < node else cond.T).reshape(axes)
        den *= lcm
    return DiscreteJoint._of(supports, table, den)


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
