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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from ._csv import write_csv
from .copulas import BivariateCopula, HInversionError
from .marginals import Marginal
from .trees import DirectedTree, TreeError

_MAGIC = b"TDEPSAMP"
# rows per kernel call in run_chunks: a column is at most 256 KiB of float64
ROW_BLOCK = 1 << 15


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

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix_int(z: int) -> int:
    """The splitmix64 finalizer on one 64-bit integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _node_key(seed: int, node: int) -> int:
    s = _mix_int(((seed & _MASK) + _GOLDEN) & _MASK)
    return _mix_int(s ^ _mix_int(((node + 1) * _GOLDEN) & _MASK))


def counter_uniforms(seed: int, node: int, start: int, count: int) -> np.ndarray:
    """Uniforms in the open interval (0,1) for rows start..start+count-1.

    Value i depends only on (seed, node, i): the stream is a splitmix64
    sequence keyed per node, evaluated at arbitrary counters.  The mixing runs
    in place on one uint64 buffer with one scratch buffer.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    t = np.empty_like(z)
    # wrapping mod 2^64 is the point; silence numpy's overflow warning
    with np.errstate(over="ignore"):
        z *= np.uint64(_GOLDEN)
        z += np.uint64(_node_key(seed, node))
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mult)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


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


def propagate(spec: TreeSpec, seed: int, start: int, count: int,
              nodes: Iterable[int] | None = None):
    """Yield ``(node, x)`` in level order: a node's values on its marginal's scale.

    Rows start..start+count-1; ``nodes`` picks the nodes to yield (all by
    default), and the others are propagated without a quantile.  The root
    takes its counter uniforms as they are; every other node inverts its
    edge copula's conditional CDF at the parent's column.  A column is held
    in the scale its edge produces: normal scores z (copula value ndtr(z))
    after Gaussian and comonotone edges, copula values u after the other
    families.  It is converted at most once, and only when a child edge or
    the node's marginal needs the other scale.  Each scale of a column is
    dropped after its last child, so a chain holds about two columns at a
    time.
    """
    tree = spec.tree
    order = tree.level_order()
    wanted = set(order) if nodes is None else set(nodes)
    # (node, in scores?) -> the last child, in level order, that reads that scale
    last_child = {}
    for child in order[1:]:
        parent = tree.parent(child)
        last_child[(parent, spec.copulas[(parent, child)].takes_scores)] = child
    live: dict[tuple[int, bool], np.ndarray] = {}
    for node in order:
        p = counter_uniforms(seed, node, start, count)
        parent = tree.parent(node)
        if parent is None:
            col, scores = p, False
        else:
            cop = spec.copulas[(parent, node)]
            scores = cop.takes_scores
            key = (parent, scores)
            try:
                col = (cop.h_inv(live[key], p, scores=True) if scores
                       else cop.h_inv(live[key], p))
            except HInversionError as exc:
                raise HInversionError(
                    f"conditional inverse failed on edge ({parent},{node}): {exc}"
                ) from exc
            if last_child[key] == node:
                del live[key]
        # the column as scores z and as copula values u, each only if needed
        z, u = (col, None) if scores else (None, col)
        if (node, True) in last_child:
            z = live[(node, True)] = col if scores else ndtri(col)
        if (node, False) in last_child:
            u = live[(node, False)] = ndtr(col) if scores else col
        if node in wanted:
            marginal = spec.marginals[node]
            if z is not None and marginal.takes_scores:
                yield node, marginal.quantile(z, scores=True)
            else:
                yield node, marginal.quantile(ndtr(z) if u is None else u)


def _split(start: int, stop: int, parts: int) -> list[tuple[int, int]]:
    """``(start, count)`` of ``parts`` near-equal slices of rows start..stop-1."""
    bounds = np.linspace(start, stop, parts + 1).astype(int)
    return [(int(a), int(b - a)) for a, b in zip(bounds, bounds[1:]) if b > a]


def run_chunks(n: int, workers: int, block: Callable[[int, int], object]) -> list:
    """``block(start, count)`` over a split of rows ``0..n-1``; results in row order.

    The rows are split into ``min(workers, n)`` chunks, run on at most
    ``os.cpu_count()`` threads.  Each thread runs its chunk as near-equal
    blocks of at most ``ROW_BLOCK`` rows, one after another, and the list
    holds one result per block.  Every column the kernel holds is thus at
    most ``ROW_BLOCK`` values whatever ``n`` is, which keeps its memory
    small and the same from run to run.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def run(start: int, count: int) -> list:
        return [block(*b) for b in _split(start, start + count, -(-count // ROW_BLOCK))]

    chunks = _split(0, n, min(workers, n))
    if len(chunks) == 1:
        return run(*chunks[0])
    with ThreadPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
        return [out for outs in pool.map(lambda c: run(*c), chunks) for out in outs]


def sample(spec: TreeSpec, n: int, seed: int, workers: int = 1) -> SampleBatch:
    """Draw ``n`` joint samples; identical output for any worker count."""
    if n < 1:
        raise ValueError("need at least one sample")
    data = np.empty((n, spec.tree.node_count), dtype=np.float64)

    def block(start: int, count: int) -> None:
        rows = data[start:start + count]
        for node, x in propagate(spec, seed, start, count):
            rows[:, node] = x

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
