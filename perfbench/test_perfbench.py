"""Self-tests: span arithmetic, tracer restore, and checks that reject bad output."""

from __future__ import annotations

import random
from fractions import Fraction as F

import numpy as np
import pytest

import inputs
import oracles
import tracer as tr
import workloads
import treedep
from treedep import counterexamples, hmm, ordering, sampler, simplex
from treedep.trees import make_chain


def span(id, start, end, parent=None, name="x"):
    return tr.Span(id, name, parent, None, start, end)


def test_covered_merges_overlaps_and_clips():
    assert tr.covered(0, 10, [(1, 3), (2, 5), (7, 12), (-4, -1)]) == pytest.approx(7)
    assert tr.covered(0, 10, []) == 0


def test_self_time_on_synthetic_span_tree():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),   # two worker-thread children that overlap
        span(3, 3.0, 6.0, parent=1),
        span(4, 3.5, 5.0, parent=3),   # grandchild: counts against 3, not 1
        span(5, 8.0, 9.0, parent=1),
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(10 - (5 + 1))
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(3 - 1.5)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[5] == pytest.approx(1)


ALIASES = [
    (hmm, "counter_uniforms"), (sampler, "counter_uniforms"),
    (ordering, "solve_lp_min"), (simplex, "solve_lp_min"),
    (counterexamples, "markov_joint"), (treedep, "markov_joint"),
    (treedep, "sm_check_lp"), (treedep, "sample"),
] + [(getattr(treedep, c), m) for c in ("Gaussian", "Clayton", "SurvivalClayton",
                                          "Comonotone", "Independence") for m in ("h_inv", "cdf")] \
  + [(getattr(treedep, c), "quantile") for c in ("Normal", "Uniform", "RectifiedNormal", "Dirac")] \
  + [(treedep.DiscreteJoint, "orthant_prob"), (treedep.SampleBatch, "to_csv"),
     (treedep.SampleBatch, "to_binary")]


def test_tracer_wraps_every_alias_and_restores_all(tmp_path):
    before = {(id(o), a): getattr(o, a) for o, a in ALIASES}
    t = tr.Tracer()
    t.install()
    try:
        for owner, attr in ALIASES:
            assert getattr(owner, attr) is not before[(id(owner), attr)], f"{owner}.{attr}"
        counterexamples.run_all()
        hmm.uncertainty_band(5, "sclayton", [1.0] * 5, 200, 3)
        patched = list(t.patches)
    finally:
        t.uninstall()
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig
    for owner, attr in ALIASES:
        assert getattr(owner, attr) is before[(id(owner), attr)]
    names = {s.name for s in t.spans}
    assert {"discrete.markov_joint", "discrete.orthant_prob", "sampler.counter_uniforms",
            "copulas.sclayton.h_inv", "copulas.clayton.h_inv", "hmm.simulate_max"} <= names
    m = tr.layer_metrics(t.spans)
    # survival Clayton calls Clayton internally: only the outer call counts
    assert m["copulas.clayton.h_inv.ns_per_value"] == 0
    assert m["hmm.simulate_max.calls"] == 2


def test_coverage_flags_missing_and_unexpected_metrics():
    metrics = {"copulas.cdf.calls": 3, "simplex.solve_lp_min.calls": 0}
    errors = tr.coverage_errors("band", metrics, ["copulas.cdf.calls", "cli.main.calls"])
    assert any("cli.main.calls: declared but not produced" in e for e in errors)
    assert any("copulas.cdf.calls: expected 0 on band" in e for e in errors)
    assert tr.coverage_errors("exact", {"simplex.solve_lp_min.calls": 0}, []) == [
        "simplex.solve_lp_min.calls: expected nonzero on exact, got 0"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = inputs.generate("sample", 7, tmp_path / "a")
    b = inputs.generate("sample", 7, tmp_path / "b")
    c = inputs.generate("sample", 8, tmp_path / "c")
    read = [open(x["spec"]).read() for x in (a, b, c)]
    assert read[0] == read[1] != read[2]
    laws = inputs.exact_inputs(random.Random(1))
    joint = treedep.markov_joint(make_chain(len(laws["joint_chain"])), laws["joint_chain"])
    assert len(joint.mass) == 3 ** inputs.EXACT_JOINT_NODES


def test_orthant_check_rejects_a_value_off_by_1_300():
    laws = inputs.exact_inputs(random.Random(2))
    chain = dict(list(laws["order_x"].items())[:4])
    joint = treedep.markov_joint(make_chain(4), chain)
    thresholds = [(1, 0, 2, 1, 1), (2, 2, 2, 2, 2), (0, 1, 1, 0, 2)]
    values = [joint.orthant_prob(t) for t in thresholds]
    assert workloads.orthant_errors(chain, thresholds, values) == []
    values[1] += F(1, 300)
    assert len(workloads.orthant_errors(chain, thresholds, values)) == 1


def test_band_check_rejects_swapped_columns():
    n = 4000
    grid = hmm.default_t_grid(workloads.BAND_STEPS)
    band = hmm.uncertainty_band(workloads.BAND_STEPS, "gaussian",
                                [workloads.BAND_SIGMA] * workloads.BAND_STEPS, n, 11)
    table = np.column_stack([band.t_grid, band.lower_ecdf, band.upper_ecdf, band.mc_halfwidth])
    m = 20_000
    reference = (oracles.walk_max_ecdf(workloads.BAND_STEPS, workloads.BAND_SIGMA, m, grid, 5),
                 oracles.walk_max_ecdf(workloads.BAND_STEPS, 0.0, m, grid, 6), m)
    assert workloads.band_errors(table, n, reference) == []
    swapped = table[:, [0, 2, 1, 3]]
    assert workloads.band_errors(swapped, n, reference)
    assert workloads.band_errors(swapped, n)  # dominance alone catches it


def test_sample_check_rejects_a_flipped_byte(tmp_path):
    spec = sampler.TreeSpec(
        make_chain(3),
        (treedep.Normal(0, 1), treedep.RectifiedNormal(2.0), treedep.Uniform(0, 3),
         treedep.Normal(1, 2)),
        {(0, 1): treedep.Clayton(2.0), (1, 2): treedep.Gaussian(0.5),
         (2, 3): treedep.SurvivalClayton(1.5)})
    batch = sampler.sample(spec, 60_000, 3)
    path = tmp_path / "draws.bin"
    batch.to_binary(path)
    assert workloads.sample_batch_errors(sampler.load_binary(path), batch.data, spec) == []
    raw = bytearray(path.read_bytes())
    raw[24 + 8 * 12345 + 3] ^= 0x10
    path.write_bytes(bytes(raw))
    assert workloads.sample_batch_errors(sampler.load_binary(path), batch.data, spec)


def test_psmd_certificate_check_rejects_a_tampered_certificate():
    for seed in range(20):
        chain = inputs.random_chain(random.Random(seed), (3, 3, 3))
        joint = treedep.markov_joint(make_chain(2), chain)
        report = ordering.psmd_check(joint)
        if report.holds is False:
            break
    assert report.holds is False
    assert oracles.psmd_certificate_errors(chain, joint, report) == []
    point, value = report.witness[0]
    report.witness[0] = [point, value / 2]
    assert oracles.psmd_certificate_errors(chain, joint, report)


def test_walk_audit_oracle_matches_the_program():
    sx, sy = [2.0, 1.0, 3.0], [2.0, 2.5, 1.5]
    for family, flex in (("gaussian", None), ("clayton", "st-increase"), ("gaussian", "cx")):
        x, y = hmm.build_spec(3, family, sx), hmm.build_spec(3, family, sy)
        report = ordering.audit_theorem_conditions(x, y, marginal_flex=flex, grid_size=33)
        got = report.to_json()
        want = oracles.walk_audit(3, sx, sy, flex)
        assert {k: got[k] for k in want} == want


def test_runner_counts_failed_ops_and_changed_outputs():
    import run

    class Fake:
        def __init__(self):
            self.value = 1

        def ops(self, workers, pass_no=0):
            return [("ok", lambda: self.value), ("raises", lambda: 1 / 0), ("no_file", lambda: 2)]

        def output(self, name, result):
            if name == "no_file":
                raise FileNotFoundError("missing")
            return result

        def check(self, outputs):
            return {name: [] for name in outputs}

    fake = Fake()
    r = run.Run(fake)
    r.record(1)
    fake.value = 2
    r.record(1)
    assert (r.attempted, r.failed) == (6, 5)
    assert any("differs from its first run" in e for e in r.errors)
