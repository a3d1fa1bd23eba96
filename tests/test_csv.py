"""The vectorized CSV writer against Python's own ``%.17g`` and ``np.savetxt``."""

import json

import numpy as np
import pytest

from treedep import _csv, hmm
from treedep.cli import main
from treedep.sampler import load_binary


def reference(table, header=""):
    """The bytes ``np.savetxt(..., fmt="%.17g", delimiter=",")`` writes, by a loop."""
    lines = [header] if header else []
    lines += [",".join("%.17g" % v for v in row) for row in table.tolist()]
    return "".join(line + "\n" for line in lines).encode()


def written(tmp_path, table, header=""):
    path = tmp_path / "t.csv"
    _csv.write_csv(path, header, table)
    return path.read_bytes()


def savetxt_bytes(tmp_path, table, header):
    path = tmp_path / "ref.csv"
    np.savetxt(path, table, delimiter=",", fmt="%.17g", header=header, comments="")
    return path.read_bytes()


def test_random_bit_patterns_every_exponent(tmp_path):
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=60_000, dtype=np.uint64)
    subnormal = rng.integers(1, 2**52, size=2_000, dtype=np.uint64)
    values = np.concatenate([bits.view(np.float64), subnormal.view(np.float64),
                             -subnormal[:500].view(np.float64)])
    table = values.reshape(-1, 5)
    assert written(tmp_path, table) == reference(table)


def test_typical_magnitudes(tmp_path):
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.normal(size=30_000),
        rng.normal(size=5_000) * 1e-5,
        rng.standard_cauchy(size=5_000) * 1e12,
        np.round(rng.normal(size=5_000) * 100, 2),
        rng.integers(-10**6, 10**6, size=5_000).astype(float),
    ])
    table = values.reshape(-1, 10)
    assert written(tmp_path, table) == reference(table)


def test_special_values_ties_and_boundaries(tmp_path):
    specials = [
        0.0, -0.0, np.inf, -np.inf, np.nan,
        1234567890123456.25, 1234567890123456.75, -1234567890123456.75,
        0.5, 2.5, 1e-5, 1e-4, 1e16, 1e17, 9.9999999999999999e22,
        5e-324, -5e-324, np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max,
        0.1, 1.0, -1.0, 123456789012345680.0, 99999999999999990.0, 0.00010000000000000009,
    ]
    powers = np.array([10.0**k for k in range(-323, 309)])
    values = np.concatenate([
        specials, powers, -powers,
        np.nextafter(powers, 0), np.nextafter(powers, np.inf),
    ])
    table = values.reshape(-1, 1)
    assert written(tmp_path, table) == reference(table)


def test_exact_ties_round_half_even(tmp_path):
    # n + 1/4 and n + 3/4 near 2^50 need 18 digits whose last is an exact 5.
    n = np.arange(2**50, 2**50 + 4000, dtype=np.float64)
    table = np.concatenate([n + 0.25, n + 0.75, (n + 0.25) * 2.0**-60]).reshape(-1, 4)
    assert written(tmp_path, table) == reference(table)


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 5), (3, 20), (37, 3)])
def test_blocks_split_on_row_boundaries(tmp_path, monkeypatch, shape):
    monkeypatch.setattr(_csv, "BLOCK_VALUES", 16)
    table = np.random.default_rng(shape[0]).normal(size=shape)
    assert written(tmp_path, table, "a,b") == savetxt_bytes(tmp_path, table, "a,b")


def test_default_blocks_match_savetxt(tmp_path):
    table = np.random.default_rng(3).normal(size=(3 * _csv.BLOCK_VALUES // 7 + 5, 7))
    assert written(tmp_path, table, "h") == savetxt_bytes(tmp_path, table, "h")


def test_rejects_tables_without_columns(tmp_path):
    for bad in (np.zeros(3), np.zeros((2, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            _csv.write_csv(tmp_path / "x.csv", "", bad)


def test_sample_csv_matches_savetxt_of_binary(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "tree": {"nodes": 3, "edges": [[0, 1], [1, 2]]},
        "marginals": ["normal(0,1)", "uniform(0,1)", "normal(5,0.001)"],
        "copulas": [[0, 1, "gaussian(0.5)"], [1, 2, "clayton(2.0)"]],
    }))
    common = ["sample", str(spec), "--samples", "3000", "--seed", "8"]
    assert main(common + ["--format", "bin", "--out", str(tmp_path / "s.bin")]) == 0
    assert main(common + ["--format", "csv", "--out", str(tmp_path / "s.csv")]) == 0
    want = savetxt_bytes(tmp_path, load_binary(tmp_path / "s.bin"), "node_0,node_1,node_2")
    assert (tmp_path / "s.csv").read_bytes() == want


def test_band_csv_matches_savetxt(tmp_path):
    out = tmp_path / "band.csv"
    assert main(["band", "--steps", "8", "--family", "gaussian", "--sigma", "const:1",
                 "--samples", "500", "--seed", "2", "--grid", "41", "--out", str(out)]) == 0
    band = hmm.uncertainty_band(8, "gaussian", hmm.parse_schedule("const:1", 8), 500, 2,
                                t_grid=hmm.default_t_grid(8, 41))
    rows = np.column_stack([band.t_grid, band.lower_ecdf, band.upper_ecdf,
                            band.mc_halfwidth])
    assert out.read_bytes() == savetxt_bytes(tmp_path, rows, "t,lower,upper,mc_halfwidth")
