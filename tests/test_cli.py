import json
from pathlib import Path

import numpy as np
import pytest

from treedep.cli import main
from treedep.copulas import Gaussian, HInversionError

CHAIN_TREE = {"nodes": 3, "edges": [[0, 1], [1, 2]]}


def write_spec(path: Path, copulas, marginals=None, tree=CHAIN_TREE):
    marginals = marginals or {str(n): "uniform(0,1)" for n in range(tree["nodes"])}
    path.write_text(json.dumps({
        "tree": tree, "marginals": marginals, "copulas": copulas,
    }))
    return str(path)


def test_counterexamples_exit_and_output(capsys):
    assert main(["counterexamples"]) == 0
    out = capsys.readouterr().out
    assert "P_X = 112/300, P_Y = 111/300" in out
    assert "lo: VIOLATED at (1, 1, 1)" in out
    assert "P_X = 225/400, P_Y = 224/400" in out
    assert "range-closure FAIL between uniform(0,1) and dirac(0)" in out
    assert "P_X = 1259/3000 > P_Y = 1256/3000" in out
    assert "Schur-order PASS for both edge directions" in out
    assert "all values reproduced exactly" in out


def test_check_pass(tmp_path, capsys):
    sx = write_spec(tmp_path / "x.json",
                    [[0, 1, "gaussian(0.3)"], [1, 2, "gaussian(0.3)"]])
    sy = write_spec(tmp_path / "y.json",
                    [[0, 1, "gaussian(0.7)"], [1, 2, "gaussian(0.7)"]])
    out = tmp_path / "report.json"
    assert main(["check", sx, sy, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] is True
    assert Path(str(out) + ".manifest.json").exists()


def test_check_identical_specs_pass(tmp_path):
    sy = write_spec(tmp_path / "y.json",
                    [[0, 1, "clayton(2.0)"], [1, 2, "clayton(2.0)"]])
    assert main(["check", sy, sy]) == 0


def test_check_discrete_counterexample_fails(tmp_path, capsys):
    a01 = "4/30 4/30 2/30\n3/30 4/30 3/30\n3/30 2/30 5/30\n"
    a12 = "4/30 4/30 2/30\n4/30 3/30 3/30\n2/30 3/30 5/30\n"
    b12 = "5/30 4/30 1/30\n3/30 3/30 4/30\n2/30 3/30 5/30\n"
    for name, text in [("a01.txt", a01), ("a12.txt", a12), ("b12.txt", b12)]:
        (tmp_path / name).write_text(text)
    spec_x = tmp_path / "x.json"
    spec_x.write_text(json.dumps({
        "tree": CHAIN_TREE,
        "matrices": [[0, 1, "a01.txt"], [1, 2, "a12.txt"]],
    }))
    spec_y = tmp_path / "y.json"
    spec_y.write_text(json.dumps({
        "tree": CHAIN_TREE,
        "matrices": [[0, 1, "a01.txt"], [1, 2, "b12.txt"]],
    }))
    query = tmp_path / "q.json"
    query.write_text(json.dumps({"path": [1, 2], "k_star": 1}))
    code = main(["check", str(spec_x), str(spec_y), "--query", str(query)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is False
    assert report["failures"]["ii"] == [[[0, 1], "si_parent_given_child"]]


@pytest.mark.parametrize("flex", [[], ["--flex", "st-increase"]])
def test_check_inconsistent_matrix_spec_exit_code(tmp_path, capsys, flex):
    # edge (0,1) gives node 1 the uniform marginal, edge (1,2) rows (1/2, 1/4, 1/4)
    (tmp_path / "u.txt").write_text("1/9 1/9 1/9\n" * 3)
    (tmp_path / "d.txt").write_text("1/2 0 0\n0 1/4 0\n0 0 1/4\n")
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({
        "tree": CHAIN_TREE, "matrices": [[0, 1, "u.txt"], [1, 2, "d.txt"]],
    }))
    assert main(["check", str(spec), str(spec), *flex]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "edge (1, 2)" in err and "node 1" in err
    assert captured.out == ""


def test_check_passes_a_spec_with_a_zero_mass_state(tmp_path, capsys):
    # node 1's middle state has zero mass; SI skips it rather than failing
    (tmp_path / "d.txt").write_text("1/2 0 0\n0 0 0\n0 0 1/2\n")
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({
        "tree": CHAIN_TREE, "matrices": [[0, 1, "d.txt"], [1, 2, "d.txt"]],
    }))
    assert main(["check", str(spec), str(spec)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] is True
    assert captured.err == ""


def test_check_marginal_flex_flag(tmp_path, capsys):
    sx = write_spec(tmp_path / "x.json",
                    [[0, 1, "gaussian(0.3)"], [1, 2, "gaussian(0.3)"]],
                    marginals={"0": "normal(0,1)", "1": "normal(0,1)",
                               "2": "normal(0,1)"})
    sy = write_spec(tmp_path / "y.json",
                    [[0, 1, "gaussian(0.7)"], [1, 2, "gaussian(0.7)"]],
                    marginals={"0": "normal(0.5,1)", "1": "normal(0.5,1)",
                               "2": "normal(0.5,1)"})
    assert main(["check", sx, sy, "--flex", "st-increase"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relation"] == "ism-precondition"
    assert report["marginal_checks"]["st_leq[0]"] is True
    # without the flexibility the differing marginals break hypothesis (iii)
    assert main(["check", sx, sy]) == 1


def test_check_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"tree": {"nodes": 3,\n  "edges": [[0, 1], [1, 2]]\n')
    good = write_spec(tmp_path / "y.json",
                      [[0, 1, "gaussian(0.7)"], [1, 2, "gaussian(0.7)"]])
    assert main(["check", str(bad), good]) == 2
    err = capsys.readouterr().err
    assert "line" in err
    assert main(["check", str(tmp_path / "missing.json"), good]) == 2


def test_check_spec_missing_marginal_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json",
                      [[0, 1, "gaussian(0.3)"], [1, 2, "gaussian(0.3)"]],
                      marginals={"0": "uniform(0,1)", "1": "uniform(0,1)"})
    assert main(["check", spec, spec]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "no marginal for node 2" in err


@pytest.mark.parametrize("spec", [
    {"tree": {"edges": [[0, 1]]}, "marginals": ["uniform(0,1)"] * 2,
     "copulas": [[0, 1, "indep"]]},
    {"tree": CHAIN_TREE, "marginals": ["uniform(0,1)"] * 2, "copulas": []},
    {"tree": CHAIN_TREE, "marginals": [1, 2, 3], "copulas": []},
    {"tree": CHAIN_TREE, "marginals": ["uniform(0,1)"] * 3,
     "copulas": [[0, 1, 0.5], [1, 2, "indep"]]},
    {"tree": CHAIN_TREE, "marginals": ["uniform(0,1)"] * 3, "copulas": [[0, 1]]},
])
def test_check_malformed_spec_exit_code(tmp_path, capsys, spec):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert main(["check", str(path), str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_check_query_without_k_star_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json",
                      [[0, 1, "gaussian(0.3)"], [1, 2, "gaussian(0.3)"]])
    query = tmp_path / "q.json"
    query.write_text(json.dumps({"path": [1]}))
    assert main(["check", spec, spec, "--query", str(query)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "k_star" in err
    query.write_text(json.dumps({"path": [1, "two"], "k_star": 1}))
    assert main(["check", spec, spec, "--query", str(query)]) == 2


def test_sample_writes_csv_and_manifest(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json",
                      [[0, 1, "gaussian(0.5)"], [1, 2, "clayton(2.0)"]])
    out = tmp_path / "samples.csv"
    code = main(["sample", spec, "--samples", "10", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node_0,node_1,node_2"
    assert len(lines) == 11
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["params"]["seed"] == 5


def test_sample_rejects_discrete_spec(tmp_path, capsys):
    (tmp_path / "m.txt").write_text("1/2 0\n0 1/2\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "tree": {"nodes": 2, "edges": [[0, 1]]},
        "matrices": [[0, 1, "m.txt"]],
    }))
    assert main(["sample", str(spec), "--out", str(tmp_path / "s.csv")]) == 2


def test_sample_deterministic_across_workers(tmp_path):
    spec = write_spec(tmp_path / "spec.json",
                      [[0, 1, "gaussian(0.5)"], [1, 2, "sclayton(1.5)"]])
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert main(["sample", spec, "--samples", "500", "--seed", "3",
                 "--out", str(out1), "--workers", "1"]) == 0
    assert main(["sample", spec, "--samples", "500", "--seed", "3",
                 "--out", str(out8), "--workers", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_band_writes_csv(tmp_path, capsys):
    out = tmp_path / "band.csv"
    code = main(["band", "--steps", "10", "--family", "clayton",
                 "--sigma", "linear:0.3", "--samples", "2000", "--seed", "1",
                 "--grid", "51", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,lower,upper,mc_halfwidth"
    assert len(lines) == 52
    assert Path(str(out) + ".manifest.json").exists()


def test_band_rejects_bad_schedule(tmp_path):
    code = main(["band", "--sigma", "exp:2", "--steps", "5",
                 "--samples", "10", "--out", str(tmp_path / "b.csv")])
    assert code == 2


def test_band_rejects_zero_workers(tmp_path, capsys):
    code = main(["band", "--steps", "3", "--samples", "50", "--workers", "0",
                 "--out", str(tmp_path / "b.csv")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "workers" in err


@pytest.mark.parametrize("argv, name", [
    (["--grid", "0"], "grid"),
    (["--grid", "-3"], "grid"),
    (["--sigma", "const:inf"], "sigma"),
    (["--sigma", "const:nan"], "sigma"),
    (["--sigma", "linear:inf"], "sigma"),
])
def test_band_rejects_malformed_input(tmp_path, capsys, argv, name):
    out = tmp_path / "b.csv"
    code = main(["band", "--steps", "3", "--samples", "50", *argv, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert name in err and "rho" not in err
    assert not out.exists()


def _failing_h_inv(self, u, p, scores=False):
    raise HInversionError("bisection did not converge")


def test_h_inversion_failure_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Gaussian, "h_inv", _failing_h_inv)
    code = main(["band", "--steps", "3", "--samples", "50",
                 "--out", str(tmp_path / "b.csv")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "edge (2,3)" in err
    spec = write_spec(tmp_path / "spec.json",
                      [[0, 1, "gaussian(0.5)"], [1, 2, "clayton(2.0)"]])
    code = main(["sample", spec, "--samples", "10", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "edge (0,1)" in err


def _nan_h_inv(self, u, p, scores=False):
    return np.full(np.broadcast(u, p).shape, np.nan)


def _refused_in_band_and_sample(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = main(["band", "--steps", "3", "--samples", "50", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err and "(0,1)" in err
    spec = write_spec(tmp_path / "spec.json",
                      [[0, 1, "gaussian(0.5)"], [1, 2, "clayton(2.0)"]])
    out = tmp_path / "s.csv"
    code = main(["sample", spec, "--samples", "10", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err and "(0,1)" in err


def test_nan_from_an_edge_exits_2(tmp_path, capsys, monkeypatch):
    # a copula whose inverse breaks down into NaN must not leak NaN rows
    # into the output: the next check of the column refuses them
    monkeypatch.setattr(Gaussian, "h_inv", _nan_h_inv)
    _refused_in_band_and_sample(tmp_path, capsys)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_score_from_an_edge_exits_2(tmp_path, capsys, monkeypatch, bad):
    # an infinite normal score stands for the copula value 0 or 1, outside
    # (0,1); the next edge or the marginal refuses it and names the interval
    def infinite_h_inv(self, u, p, scores=False):
        return np.full(np.broadcast(u, p).shape, bad)

    monkeypatch.setattr(Gaussian, "h_inv", infinite_h_inv)
    _refused_in_band_and_sample(tmp_path, capsys)


def _malformed_inputs(tmp_path: Path) -> dict:
    """Spec files and a directory that the table below feeds to the CLI."""
    (tmp_path / "adir").mkdir()
    good = {"tree": CHAIN_TREE, "marginals": ["uniform(0,1)"] * 3,
            "copulas": [[0, 1, "gaussian(0.5)"], [1, 2, "indep"]]}
    files = {
        "good": good,
        "edges_null": {**good, "tree": {"nodes": 3, "edges": None}},
        "node_null": {**good, "copulas": [[0, None, "gaussian(0.5)"], [1, 2, "indep"]]},
        "zero_den": {"tree": {"nodes": 2, "edges": [[0, 1]]},
                     "matrices": [[0, 1, "zero_den.txt"]]},
        # node numbers that int() would overflow on or quietly truncate
        "nodes_huge": {**good, "tree": {**CHAIN_TREE, "nodes": 10**30}},
        "nodes_float": {**good, "tree": {**CHAIN_TREE, "nodes": 3.9}},
        "edge_float": {**good, "tree": {"nodes": 3, "edges": [[0, 1.7], [True, 2]]}},
        "edge_inf": {**good, "tree": {"nodes": 3, "edges": [[0, 1], [1, float("inf")]]}},
        "triple_float": {**good, "copulas": [[0, 1.2, "gaussian(0.5)"], [1, 2, "indep"]]},
        "triple_inf": {**good, "copulas": [[0, float("inf"), "gaussian(0.5)"], [1, 2, "indep"]]},
        "query_float": {"path": [1, 2.0], "k_star": 1},
        "query_bool": {"path": [1, 2], "k_star": True},
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    (tmp_path / "zero_den.txt").write_text("1/0 0\n0 1/2\n")
    (tmp_path / "deep.json").write_text("[" * 200_000)
    # Python's json reads 1e400 as inf
    (tmp_path / "nodes_inf.json").write_text(
        json.dumps(good).replace('"nodes": 3', '"nodes": 1e400'))
    return {name: str(tmp_path / name) for name in
            ("adir", "deep.json", "out.csv", "nodes_inf.json", *(f"{f}.json" for f in files))}


@pytest.mark.parametrize("argv, says", [
    (["band", "--steps", "-2", "--samples", "10", "--out", "out.csv"], "--steps"),
    (["band", "--steps", "3", "--samples", "10", "--out", "adir"], "directory"),
    (["check", "adir", "good.json"], "directory"),
    (["sample", "adir", "--samples", "5", "--out", "out.csv"], "directory"),
    (["sample", "good.json", "--samples", "5", "--out", "adir"], "directory"),
    (["check", "edges_null.json", "good.json"], "edges"),
    (["check", "node_null.json", "good.json"], "node numbers"),
    (["check", "zero_den.json", "zero_den.json"], "divides by zero"),
    (["check", "deep.json", "good.json"], "nested too deeply"),
    (["sample", "nodes_inf.json", "--samples", "5", "--out", "out.csv"], "integer node labels"),
    (["sample", "nodes_huge.json", "--samples", "5", "--out", "out.csv"], "edges, got 2"),
    (["sample", "nodes_float.json", "--samples", "5", "--out", "out.csv"], "integer node labels"),
    (["sample", "edge_float.json", "--samples", "5", "--out", "out.csv"], "integer node labels"),
    (["check", "edge_inf.json", "good.json"], "integer node labels"),
    (["sample", "triple_float.json", "--samples", "5", "--out", "out.csv"], "node numbers"),
    (["check", "triple_inf.json", "good.json"], "node numbers"),
    (["check", "good.json", "good.json", "--query", "query_float.json"], "node numbers"),
    (["check", "good.json", "good.json", "--query", "query_bool.json"], "node numbers"),
])
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, argv, says):
    paths = _malformed_inputs(tmp_path)
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert says in err
