"""Monte Carlo sampling of tree-specified joints via conditional inverses.

The root draws a uniform, each child inverts its edge copula's conditional
CDF at a fresh uniform, and every uniform comes from a stateless
counter-based generator keyed by (seed, node, sample index).  Rows are
therefore reproducible bit-for-bit regardless of worker count or chunking.

Note on discontinuous marginals: the uniform-propagation scheme realizes the
specified edge pairs, but only for continuous marginals is it automatically
the conditionally-independent tree law.  Specifications with atoms (Dirac
root states, say) should carry independence copulas on the affected edges.
"""

from __future__ import annotations

import hashlib
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._csv import write_csv
from .copulas import BivariateCopula, HInversionError
from .marginals import Marginal
from .trees import DirectedTree, TreeError

_MAGIC = b"TDEPSAMP"


@dataclass(frozen=True)
class TreeSpec:
    """Marginal per node plus copula per edge over a directed tree."""

    tree: DirectedTree
    marginals: tuple[Marginal, ...]
    copulas: Mapping[tuple[int, int], BivariateCopula]

    def __post_init__(self):
        if len(self.marginals) != self.tree.node_count:
            raise TreeError("need exactly one marginal per node")
        if set(self.copulas) != set(self.tree.edges):
            raise TreeError("need exactly one copula per edge")

    def fingerprint(self) -> str:
        text = repr(self.tree) + "|".join(
            str(m) for m in self.marginals
        ) + "|".join(f"{e}:{c}" for e, c in sorted(self.copulas.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- counter-based uniforms ----------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    # wrapping mod 2^64 is the point; silence numpy's scalar overflow warning
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _node_key(seed: int, node: int) -> np.uint64:
    with np.errstate(over="ignore"):
        s = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        return _mix(s ^ _mix(np.uint64(node + 1) * _GOLDEN))


def counter_uniforms(seed: int, node: int, start: int, count: int) -> np.ndarray:
    """Uniforms in the open interval (0,1) for rows start..start+count-1.

    Value i depends only on (seed, node, i): the stream is a splitmix64
    sequence keyed per node, evaluated at arbitrary counters.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        bits = _mix(_node_key(seed, node) + (idx + np.uint64(1)) * _GOLDEN)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class SampleBatch:
    """Simulation output: one row per sample, one column per node."""

    data: np.ndarray
    seed: int
    fingerprint: str

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    def to_csv(self, path) -> None:
        header = ",".join(f"node_{i}" for i in range(self.data.shape[1]))
        write_csv(path, header, self.data)

    def to_binary(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<QQ", *self.data.shape))
            # the table's own buffer when it already is C-ordered little-endian
            # float64; a converted copy only otherwise
            fh.write(np.ascontiguousarray(self.data, dtype="<f8").data)


def load_binary(path) -> np.ndarray:
    """Read a ``to_binary`` dump; the payload must hold exactly n x d floats."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError("not a sample dump (bad magic)")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError("truncated sample dump: incomplete header")
        n, d = struct.unpack("<QQ", header)
        payload = fh.read()
    if len(payload) != 8 * n * d:
        raise ValueError(f"sample dump of {n} x {d} floats needs a {8 * n * d}-byte "
                         f"payload, found {len(payload)} bytes")
    return np.frombuffer(payload, dtype="<f8").reshape(n, d)


def propagate(spec: TreeSpec, seed: int, start: int, count: int):
    """Yield ``(node, u)`` in level order: each node's copula-scale column.

    The root takes its counter uniforms as they are; every other node inverts
    its edge copula's conditional CDF at the parent's column.  A parent's
    column is dropped after its last child is drawn, so a chain holds about
    two columns at a time.  Callers must not modify the yielded arrays.
    """
    tree = spec.tree
    order = tree.level_order()
    last_child = {tree.parent(node): node for node in order[1:]}
    live: dict[int, np.ndarray] = {}
    for node in order:
        u = counter_uniforms(seed, node, start, count)
        parent = tree.parent(node)
        if parent is not None:
            try:
                u = spec.copulas[(parent, node)].h_inv(live[parent], u)
            except HInversionError as exc:
                raise HInversionError(
                    f"conditional inverse failed on edge ({parent},{node}): {exc}"
                ) from exc
            if last_child[parent] == node:
                del live[parent]
        if node in last_child:
            live[node] = u
        yield node, u


def run_chunks(n: int, workers: int, block: Callable[[int, int], object]) -> list:
    """``block(start, count)`` over a split of rows ``0..n-1``, in row order.

    The rows are split into ``min(workers, n)`` chunks, run on at most
    ``os.cpu_count()`` threads.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bounds = np.linspace(0, n, min(workers, n) + 1).astype(int)
    chunks = [(int(a), int(b - a)) for a, b in zip(bounds, bounds[1:]) if b > a]
    if len(chunks) == 1:
        return [block(*chunks[0])]
    with ThreadPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
        return list(pool.map(lambda c: block(*c), chunks))


def sample(spec: TreeSpec, n: int, seed: int, workers: int = 1) -> SampleBatch:
    """Draw ``n`` joint samples; identical output for any worker count."""
    if n < 1:
        raise ValueError("need at least one sample")
    data = np.empty((n, spec.tree.node_count), dtype=np.float64)

    def block(start: int, count: int) -> None:
        rows = data[start:start + count]
        for node, u in propagate(spec, seed, start, count):
            rows[:, node] = spec.marginals[node].quantile(u)

    run_chunks(n, workers, block)
    return SampleBatch(data, seed, spec.fingerprint())


# -- empirical validation ------------------------------------------------------


def _ranks_unit(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(1, len(x) + 1)
    return ranks / (len(x) + 1.0)


def empirical_edge_copula_check(
    batch: SampleBatch, spec: TreeSpec, edge: tuple[int, int], grid_size: int = 20
) -> float:
    """Sup-norm gap between the empirical copula of an edge pair and its spec.

    Rank-transforms the two columns and compares on a grid; for n samples
    the gap concentrates at the O(1/sqrt(n)) empirical-process scale.
    """
    i, j = edge
    if edge not in spec.copulas:
        raise TreeError(f"({i},{j}) is not a tree edge")
    if not (spec.marginals[i].continuous and spec.marginals[j].continuous):
        raise ValueError("empirical copula check needs continuous marginals")
    if batch.n_samples < 1:
        raise ValueError("empty batch")
    u = _ranks_unit(batch.data[:, i])
    v = _ranks_unit(batch.data[:, j])
    grid = np.arange(1, grid_size + 1) / (grid_size + 1.0)
    cop = spec.copulas[edge]
    worst = 0.0
    order = np.argsort(u)
    u_sorted = u[order]
    v_sorted = v[order]
    for gu in grid:
        m = np.searchsorted(u_sorted, gu, side="right")
        vs = np.sort(v_sorted[:m])
        emp = np.searchsorted(vs, grid, side="right") / batch.n_samples
        worst = max(worst, float(np.max(np.abs(emp - cop.cdf(gu, grid)))))
    return worst


def conditional_independence_probe(
    batch: SampleBatch,
    tree: DirectedTree,
    i: int,
    a_set: Sequence[int],
    b_set: Sequence[int],
    bins: int = 10,
) -> float:
    """Max absolute within-bin correlation between the two sides of a cut.

    Bins the separator column into equal-count bins and correlates a summary
    statistic of each group (the mean of its rank-uniformized columns)
    inside each bin; ranks keep the estimator noise flat across bins, which
    raw heavy-tailed columns would not.  Small scores are consistent with
    conditional independence given the separator.  The score never vanishes
    exactly: within a bin the separator still varies a little, so expect a
    small positive bias that grows with the edge dependence strength.
    """
    if bins < 2:
        raise ValueError("need at least two bins")
    if not tree.separates(i, a_set, b_set):
        raise TreeError(f"node {i} does not separate the given sets")
    xa = np.column_stack(
        [_ranks_unit(batch.data[:, k]) for k in a_set]
    ).mean(axis=1)
    xb = np.column_stack(
        [_ranks_unit(batch.data[:, k]) for k in b_set]
    ).mean(axis=1)
    xi = batch.data[:, i]
    order = np.argsort(xi, kind="stable")
    edges = np.linspace(0, len(xi), bins + 1).astype(int)
    worst = 0.0
    for lo, hi in zip(edges, edges[1:]):
        sel = order[lo:hi]
        if len(sel) < 3:
            continue
        a = xa[sel] - xa[sel].mean()
        b = xb[sel] - xb[sel].mean()
        denom = np.sqrt((a * a).sum() * (b * b).sum())
        if denom > 0:
            worst = max(worst, abs(float((a * b).sum() / denom)))
    return worst


def ks_statistic(column: np.ndarray, marginal: Marginal) -> float:
    """One-sample Kolmogorov-Smirnov distance to a marginal's CDF."""
    x = np.sort(np.asarray(column, dtype=float))
    n = len(x)
    f = marginal.cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))
