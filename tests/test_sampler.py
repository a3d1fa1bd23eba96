import os
import struct

import numpy as np
import pytest
from scipy.stats import kendalltau

from treedep.copulas import Clayton, Comonotone, Gaussian, Independence
from treedep.marginals import DiscreteUniform, Normal, Uniform
from treedep.sampler import (
    SampleBatch,
    TreeSpec,
    conditional_independence_probe,
    counter_uniforms,
    empirical_edge_copula_check,
    ks_statistic,
    load_binary,
    propagate,
    run_chunks,
    sample,
)
from treedep.trees import DirectedTree, TreeError, make_chain, make_star

N = 40_000
BOUND = 3.0 / np.sqrt(N)


def uniform_chain(rho: float, nodes: int = 3) -> TreeSpec:
    return TreeSpec(
        make_chain(nodes - 1),
        (Uniform(0, 1),) * nodes,
        {(i, i + 1): Gaussian(rho) for i in range(nodes - 1)},
    )


def test_spec_validation():
    with pytest.raises(TreeError):
        TreeSpec(make_chain(2), (Uniform(0, 1),) * 2, {})
    with pytest.raises(TreeError):
        TreeSpec(make_chain(1), (Uniform(0, 1),) * 2, {(1, 0): Independence()})


def test_counter_uniforms_properties():
    u = counter_uniforms(123, 5, 0, 10_000)
    assert np.all((u > 0) & (u < 1))
    assert abs(u.mean() - 0.5) < 0.02
    # chunked generation agrees with one shot
    again = np.concatenate([counter_uniforms(123, 5, 0, 1234),
                            counter_uniforms(123, 5, 1234, 10_000 - 1234)])
    assert np.array_equal(u, again)
    # distinct nodes and seeds decorrelate
    v = counter_uniforms(123, 6, 0, 10_000)
    w = counter_uniforms(124, 5, 0, 10_000)
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.03
    assert abs(np.corrcoef(u, w)[0, 1]) < 0.03


def _reference_counter_uniforms(seed, node, start, count):
    """The stream as first written: splitmix64 with a fresh array per step."""
    golden = np.uint64(0x9E3779B97F4A7C15)

    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    with np.errstate(over="ignore"):
        key = mix(mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + golden)
                  ^ mix(np.uint64(node + 1) * golden))
        idx = np.arange(start, start + count, dtype=np.uint64)
        bits = mix(key + (idx + np.uint64(1)) * golden)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, -3])
def test_counter_uniforms_keep_their_bits(seed):
    for node in (0, 1, 47, 401):
        for start in (0, 12345, 2**40):
            got = counter_uniforms(seed, node, start, 3000)
            want = _reference_counter_uniforms(seed, node, start, 3000)
            assert got.tobytes() == want.tobytes(), (seed, node, start)
    assert counter_uniforms(seed, 3, 7, 0).shape == (0,)


def test_determinism_and_workers():
    spec = uniform_chain(0.6)
    a = sample(spec, 5000, seed=9, workers=1)
    b = sample(spec, 5000, seed=9, workers=8)
    assert np.array_equal(a.data, b.data)
    c = sample(spec, 5000, seed=10)
    assert not np.array_equal(a.data, c.data)
    # chunks of unequal size, and more workers than rows
    assert np.array_equal(a.data[:7], sample(spec, 7, seed=9, workers=3).data)
    assert np.array_equal(a.data[:3], sample(spec, 3, seed=9, workers=8).data)


def test_propagate_visits_every_node_once_in_level_order():
    tree = DirectedTree(6, [(0, 3), (3, 1), (0, 4), (4, 2), (4, 5)])
    spec = TreeSpec(tree, (Uniform(0, 1), Normal(1, 4)) * 3,
                    {e: Gaussian(0.5) for e in tree.edges})
    visited = [node for node, _ in propagate(spec, 3, 0, 10)]
    assert visited == list(tree.level_order()) == [0, 3, 4, 1, 2, 5]
    columns = dict(propagate(spec, 3, 2, 5))
    assert np.array_equal(sample(spec, 7, seed=3).data[2:], np.column_stack(
        [columns[node] for node in range(6)]))
    # a subset of nodes comes out in level order with the same values
    picked = list(propagate(spec, 3, 2, 5, nodes={5, 1, 3}))
    assert [node for node, _ in picked] == [3, 1, 5]
    assert all(np.array_equal(x, columns[node]) for node, x in picked)


def test_run_chunks_caps_threads_at_core_count(monkeypatch):
    import treedep.sampler as sampler_mod

    seen = []
    real = sampler_mod.ThreadPoolExecutor

    def spy(max_workers):
        seen.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(sampler_mod, "ThreadPoolExecutor", spy)
    parts = run_chunks(1000, 64, lambda start, count: (start, count))
    assert seen and all(m <= (os.cpu_count() or 1) for m in seen)
    assert len(parts) == 64 and parts[0][0] == 0
    assert all(a + n == b for (a, n), (b, _) in zip(parts, parts[1:]))
    assert sum(n for _, n in parts) == 1000
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_chunks(10, 0, lambda start, count: None)


def test_run_chunks_runs_rows_in_bounded_blocks(monkeypatch):
    import treedep.sampler as sampler_mod

    spec = uniform_chain(0.6)
    whole = sample(spec, 1000, seed=4).data
    monkeypatch.setattr(sampler_mod, "ROW_BLOCK", 64)
    for workers in (1, 3):
        parts = run_chunks(1000, workers, lambda start, count: (start, count))
        assert all(0 < n <= 64 for _, n in parts)
        assert all(a + n == b for (a, n), (b, _) in zip(parts, parts[1:]))
        assert sum(n for _, n in parts) == 1000
        # blocks change neither the rows nor their bits
        assert np.array_equal(sample(spec, 1000, seed=4, workers=workers).data, whole)


def test_independence_product_law():
    spec = TreeSpec(
        make_chain(2), (Uniform(0, 1),) * 3,
        {(0, 1): Independence(), (1, 2): Independence()},
    )
    batch = sample(spec, N, seed=1)
    corr = np.corrcoef(batch.data.T)
    assert abs(corr[0, 1]) < BOUND and abs(corr[0, 2]) < BOUND and abs(corr[1, 2]) < BOUND


def test_comonotone_columns_identical():
    spec = TreeSpec(
        make_chain(2), (Normal(0, 1),) * 3,
        {(0, 1): Comonotone(), (1, 2): Comonotone()},
    )
    batch = sample(spec, 2000, seed=2)
    assert np.allclose(batch.data[:, 0], batch.data[:, 1])
    assert np.allclose(batch.data[:, 0], batch.data[:, 2])


def test_walk_correlation_anchor():
    n = 5
    rho = np.sqrt(n / (n + 1))
    spec = TreeSpec(
        make_chain(1), (Normal(0, n), Normal(0, n + 1)), {(0, 1): Gaussian(rho)}
    )
    batch = sample(spec, N, seed=3)
    emp = np.corrcoef(batch.data.T)[0, 1]
    assert abs(emp - rho) < BOUND


def test_marginal_fidelity_ks():
    spec = TreeSpec(
        make_star(2), (Normal(0, 2), Uniform(0, 3), Normal(1, 1)),
        {(0, 1): Gaussian(0.5), (0, 2): Clayton(1.5)},
    )
    batch = sample(spec, N, seed=4)
    for node, marg in enumerate(spec.marginals):
        assert ks_statistic(batch.data[:, node], marg) <= 1.95 / np.sqrt(N)


def test_empirical_edge_copula():
    spec = uniform_chain(0.7)
    batch = sample(spec, N, seed=5)
    assert empirical_edge_copula_check(batch, spec, (0, 1)) <= 0.015
    spec_i = TreeSpec(make_chain(1), (Uniform(0, 1),) * 2, {(0, 1): Independence()})
    batch_i = sample(spec_i, N, seed=6)
    assert empirical_edge_copula_check(batch_i, spec_i, (0, 1)) <= 0.015
    with pytest.raises(TreeError):
        empirical_edge_copula_check(batch, spec, (0, 2))
    disc = TreeSpec(make_chain(1), (DiscreteUniform((0, 1)), Uniform(0, 1)),
                    {(0, 1): Independence()})
    bd = sample(disc, 100, seed=7)
    with pytest.raises(ValueError):
        empirical_edge_copula_check(bd, disc, (0, 1))


def test_conditional_independence_probe():
    spec = uniform_chain(0.3)
    batch = sample(spec, N, seed=8)
    score = conditional_independence_probe(batch, spec.tree, 1, [0], [2])
    assert score <= 0.05
    star = TreeSpec(
        make_star(2), (Uniform(0, 1),) * 3,
        {(0, 1): Gaussian(0.3), (0, 2): Gaussian(0.3)},
    )
    bs = sample(star, N, seed=9)
    assert conditional_independence_probe(bs, star.tree, 0, [1], [2]) <= 0.05
    with pytest.raises(TreeError):
        conditional_independence_probe(batch, spec.tree, 2, [0], [1])
    with pytest.raises(ValueError):
        conditional_independence_probe(batch, spec.tree, 1, [0], [2], bins=1)


def test_unconditional_correlation_contrast():
    spec = uniform_chain(0.9)
    batch = sample(spec, N, seed=10)
    # two Gaussian(0.9) hops compose to about 0.81 rank correlation
    assert np.corrcoef(batch.data.T)[0, 2] > 0.5


def test_concordance_matches_kendall_tau():
    for cop in (Gaussian(0.6), Clayton(3.0)):
        spec = TreeSpec(make_chain(1), (Uniform(0, 1),) * 2, {(0, 1): cop})
        batch = sample(spec, 20_000, seed=11)
        emp, _ = kendalltau(batch.data[:, 0], batch.data[:, 1])
        assert abs(emp - cop.kendall_tau()) < 3.0 / np.sqrt(20_000)


def test_csv_and_binary_round_trip(tmp_path):
    spec = uniform_chain(0.3)
    batch = sample(spec, 50, seed=12)
    csv_path = tmp_path / "batch.csv"
    batch.to_csv(csv_path)
    text = csv_path.read_text().splitlines()
    assert text[0] == "node_0,node_1,node_2"
    loaded = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert np.allclose(loaded, batch.data)

    bin_path = tmp_path / "batch.bin"
    batch.to_binary(bin_path)
    assert np.array_equal(load_binary(bin_path), batch.data)
    with pytest.raises(ValueError):
        load_binary(csv_path)


def test_load_binary_rejects_wrong_payload_length(tmp_path):
    batch = sample(uniform_chain(0.3), 10, seed=4)
    path = tmp_path / "batch.bin"
    batch.to_binary(path)
    raw = path.read_bytes()
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="needs a 240-byte payload, found 224 bytes"):
        load_binary(truncated)
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(raw + b"\0" * 8)
    with pytest.raises(ValueError, match="needs a 240-byte payload, found 248 bytes"):
        load_binary(trailing)
    header_only = tmp_path / "header_only.bin"
    header_only.write_bytes(raw[:12])
    with pytest.raises(ValueError, match="incomplete header"):
        load_binary(header_only)


def test_sample_argument_validation():
    spec = uniform_chain(0.3)
    with pytest.raises(ValueError):
        sample(spec, 0, seed=1)
    with pytest.raises(ValueError):
        sample(spec, 10, seed=1, workers=0)


def test_h_inversion_failure_carries_edge_context():
    from treedep.copulas import BivariateCopula, HInversionError

    class Stuck(BivariateCopula):
        # h ignores v, so the bisection fallback cannot reach most targets
        def cdf(self, u, v):
            return np.asarray(u) * np.asarray(v)

        def h(self, u, v):
            u, v = np.broadcast_arrays(np.asarray(u), np.asarray(v))
            return np.full(u.shape, 0.5)

    spec = TreeSpec(make_chain(1), (Uniform(0, 1),) * 2, {(0, 1): Stuck()})
    with pytest.raises(HInversionError, match=r"edge \(0,1\)"):
        sample(spec, 100, seed=1)


def test_fingerprint_tracks_spec():
    a = uniform_chain(0.3).fingerprint()
    b = uniform_chain(0.31).fingerprint()
    assert a != b
    assert uniform_chain(0.3).fingerprint() == a


@pytest.mark.parametrize("layout", ["c", "fortran", "big_endian", "float32", "strided", "empty"])
def test_binary_bytes_and_round_trip(tmp_path, layout):
    data = sample(uniform_chain(0.3), 40, seed=9).data
    data = {"c": data, "fortran": np.asfortranarray(data), "big_endian": data.astype(">f8"),
            "float32": data.astype(np.float32), "strided": data[::3, ::2],
            "empty": data[:0]}[layout]
    path = tmp_path / "batch.bin"
    SampleBatch(data, 9, "fp").to_binary(path)
    header = b"TDEPSAMP" + struct.pack("<QQ", *data.shape)
    assert path.read_bytes() == header + data.astype("<f8").tobytes()
    loaded = load_binary(path)
    assert loaded.dtype == np.dtype("<f8") and np.array_equal(loaded, data.astype(float))
