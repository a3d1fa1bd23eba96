"""The four benchmark workloads: their ops and their correctness checks.

A workload is a closed loop: one client runs its ops in a fixed order, each
after the previous one returns.  ``ops(workers)`` lists (name, callable)
pairs; the runner times each callable, then calls ``output(name, result)``
outside the timed region.  ``check(outputs)`` verifies, in full, the outputs
of ops the run has not seen before and returns {op name: [error, ...]}; an
op seen before must reproduce its first output exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

import inputs
import oracles
import treedep
from treedep import cli, hmm, ordering, sampler
from treedep.trees import make_chain

NPROC = len(os.sched_getaffinity(0))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """treedep's CLI in this process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    default_workers = 1
    other_workers = None  # worker count of the traced speed-up pass, if any

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.inputs = inputs.generate(self.name, seed, workdir)

    def warmup(self) -> None:
        raise NotImplementedError

    def ops(self, workers: int, pass_no: int = 0):
        """(name, callable) pairs of one pass; ``pass_no`` counts passes from 0."""
        raise NotImplementedError

    def output(self, name: str, result):
        """Comparable output of one op (files are read back here, untimed)."""
        return result

    def check(self, outputs: dict) -> dict[str, list[str]]:
        raise NotImplementedError


# -- band -----------------------------------------------------------------------------

BAND_STEPS = 200
BAND_SIGMA = 3.0
BAND_SAMPLES = 10_000
BAND_REF_SAMPLES = 40_000
BAND_SMALL = 1_000
# The reference comparison covers 2 curves x 401 grid points, so a pointwise
# 3-sigma band fails by chance on some seeds; 5 sigma keeps the family-wise
# false-alarm rate under 1e-3 (Bonferroni).
BAND_Z = 5.0
BAND_FAMILIES = ("gaussian", "clayton", "sclayton")


def read_band(text: str) -> np.ndarray:
    lines = text.splitlines()
    if lines[0] != "t,lower,upper,mc_halfwidth":
        raise ValueError(f"unexpected band header {lines[0]!r}")
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def band_errors(table: np.ndarray, n: int, reference=None) -> list[str]:
    """Checks on one band table (t, lower, upper, mc_halfwidth).

    ``reference`` is (lower, upper, reference sample count) from an
    independent simulation of the same model, or None.
    """
    errors = []
    t, lower, upper, hw = table.T
    for label, curve in (("lower", lower), ("upper", upper)):
        if np.any(np.diff(curve) < 0) or curve.min() < 0 or curve.max() > 1:
            errors.append(f"{label} ECDF not monotone in [0,1]")
    if np.any(upper < lower - hw):
        errors.append("noise-free curve does not dominate the perturbed one")
    if reference is not None:
        ref_lower, ref_upper, m = reference
        for label, curve, ref in (("lower", lower, ref_lower), ("upper", upper, ref_upper)):
            pooled = (curve * n + ref * m) / (n + m)
            var = pooled * (1 - pooled)
            tol = BAND_Z * (np.sqrt(var / n) + np.sqrt(var / m))
            worst = np.max(np.abs(curve - ref) - tol)
            if worst > 0:
                errors.append(f"{label} curve leaves the {BAND_Z:g}-sigma band of the "
                              f"numpy walk by {worst:.2e}")
    return errors


class Band(Workload):
    """``treedep band`` once per family at the CLI defaults (d=200, const:3)."""

    name = "band"
    default_workers = 1
    other_workers = NPROC

    def _argv(self, family, samples, workers, out):
        return ["band", "--steps", BAND_STEPS, "--family", family,
                "--sigma", f"const:{BAND_SIGMA:g}", "--samples", samples,
                "--seed", self.inputs["seed"], "--out", out, "--workers", workers]

    def warmup(self):
        run_cli(self._argv("gaussian", 200, 1, self.dir / "warm.csv"))

    def ops(self, workers, pass_no=0):
        return [(f"band.{fam}",
                 lambda fam=fam: run_cli(self._argv(fam, BAND_SAMPLES, workers,
                                                    self.dir / f"band_{fam}.csv"))[0])
                for fam in BAND_FAMILIES]

    def output(self, name, rc):
        return rc, (self.dir / f"band_{name.split('.')[1]}.csv").read_text()

    def check(self, outputs):
        errors = {}
        grid = hmm.default_t_grid(BAND_STEPS)
        ref_seed = self.inputs["seed"] + 1
        reference = (oracles.walk_max_ecdf(BAND_STEPS, BAND_SIGMA, BAND_REF_SAMPLES, grid, ref_seed),
                     oracles.walk_max_ecdf(BAND_STEPS, 0.0, BAND_REF_SAMPLES, grid, ref_seed + 1),
                     BAND_REF_SAMPLES)
        for fam in BAND_FAMILIES:
            op = f"band.{fam}"
            if op not in outputs:
                continue
            rc, text = outputs[op]
            errs = [] if rc == 0 else [f"exit code {rc}"]
            table = read_band(text)
            if not np.array_equal(table[:, 0], grid):
                errs.append("t grid differs from the default grid")
            errs += band_errors(table, BAND_SAMPLES, reference if fam == "gaussian" else None)
            small = []
            for w in (1, NPROC):
                path = self.dir / f"band_small_{fam}_w{w}.csv"
                rc_small, _ = run_cli(self._argv(fam, BAND_SMALL, w, path))
                small.append((rc_small, path.read_bytes()))
            if small[0] != small[1]:
                errs.append(f"band bytes differ between 1 and {NPROC} workers")
            errors[op] = errs
        return errors


# -- sample --------------------------------------------------------------------------

SAMPLE_BIN = 100_000
SAMPLE_CSV = 10_000
SAMPLE_SMALL = 3_000
# per-column KS bound: the 99.9% point of the Kolmogorov law, Bonferroni-split
# over the 48 columns so that a correct sampler fails with probability 1e-3
SAMPLE_KS_C = math.sqrt(math.log(2 * inputs.SAMPLE_NODES / 1e-3) / 2)
SAMPLE_EDGE_GAP = 0.01


class Sample(Workload):
    """``treedep sample`` on a random 48-node spec: one large bin, one small csv."""

    name = "sample"
    default_workers = NPROC
    other_workers = 1

    def _argv(self, samples, fmt, workers, out):
        return ["sample", self.inputs["spec"], "--samples", samples, "--seed",
                self.inputs["seed"], "--out", out, "--format", fmt, "--workers", workers]

    def warmup(self):
        run_cli(self._argv(200, "csv", self.default_workers, self.dir / "warm.csv"))

    def ops(self, workers, pass_no=0):
        return [
            ("sample.bin", lambda: run_cli(self._argv(SAMPLE_BIN, "bin", workers,
                                                      self.dir / "draws.bin"))[0]),
            ("sample.csv", lambda: run_cli(self._argv(SAMPLE_CSV, "csv", workers,
                                                      self.dir / "draws.csv"))[0]),
        ]

    def output(self, name, rc):
        path = self.dir / ("draws.bin" if name == "sample.bin" else "draws.csv")
        return rc, digest(path.read_bytes())

    def check(self, outputs):
        spec = cli.load_spec(self.inputs["spec"])
        seed = self.inputs["seed"]
        errors = {}
        if "sample.bin" in outputs:
            errs = [] if outputs["sample.bin"][0] == 0 else ["exit code nonzero"]
            got = sampler.load_binary(self.dir / "draws.bin")
            want = sampler.sample(spec, SAMPLE_BIN, seed, workers=1).data
            errs += sample_batch_errors(got, want, spec)
            small = []
            for w in (1, NPROC):
                path = self.dir / f"small_w{w}.bin"
                run_cli(self._argv(SAMPLE_SMALL, "bin", w, path))
                small.append(path.read_bytes())
            if small[0] != small[1]:
                errs.append(f"sample bytes differ between 1 and {NPROC} workers")
            errors["sample.bin"] = errs
        if "sample.csv" in outputs:
            errs = [] if outputs["sample.csv"][0] == 0 else ["exit code nonzero"]
            text = (self.dir / "draws.csv").read_text()
            errs += csv_errors(text, sampler.sample(spec, SAMPLE_CSV, seed).data)
            errors["sample.csv"] = errs
        return errors


def sample_batch_errors(got: np.ndarray, want: np.ndarray, spec) -> list[str]:
    """Exact round trip, per-column KS and per-edge empirical copula gap."""
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        return ["binary dump differs from the sampled batch"]
    errors = []
    n = len(got)
    for node, marginal in enumerate(spec.marginals):
        ks = oracles.ks_distance(got[:, node], marginal)
        if ks > SAMPLE_KS_C / math.sqrt(n):
            errors.append(f"column {node}: KS {ks:.4f} > {SAMPLE_KS_C / math.sqrt(n):.4f}")
    batch = sampler.SampleBatch(got, 0, "")
    for edge in sorted(spec.copulas):
        i, j = edge
        if spec.marginals[i].continuous and spec.marginals[j].continuous:
            gap = sampler.empirical_edge_copula_check(batch, spec, edge)
            if gap > SAMPLE_EDGE_GAP:
                errors.append(f"edge {edge}: empirical copula gap {gap:.4f}")
    return errors


def csv_errors(text: str, want: np.ndarray) -> list[str]:
    lines = text.splitlines()
    header = ",".join(f"node_{i}" for i in range(want.shape[1]))
    if lines[0] != header:
        return ["csv header differs"]
    got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        return ["csv values do not parse back to the sampled float64 batch"]
    return []


# -- exact ---------------------------------------------------------------------------


def orthant_errors(chain: dict, thresholds, values) -> list[str]:
    """Orthant probabilities against the forward recursion along the chain."""
    errors = []
    for t, got in zip(thresholds, values, strict=True):
        want = oracles.chain_lower_orthant(chain, t)
        if got != want:
            errors.append(f"orthant {t}: {got} != {want}")
    return errors


def sm_errors(pairs, verdicts) -> list[str]:
    """Supermodular verdicts against the lower orthant order (equal marginals)."""
    errors = []
    tree = make_chain(1)
    for (holds, details), (x, y) in zip(verdicts, pairs, strict=True):
        lo = ordering.lo_check(treedep.markov_joint(tree, {(0, 1): x}),
                               treedep.markov_joint(tree, {(0, 1): y})).holds
        if holds is None or holds != lo:
            errors.append(f"sm verdict {holds} != lo verdict {lo}")
    return errors


def psmd_errors(chains, verdicts) -> list[str]:
    """Every verdict decided; every negative one carries an exact certificate."""
    errors = []
    for chain, (holds, witness, details) in zip(chains, verdicts, strict=True):
        if holds is None:
            errors.append(f"psmd undecided: {details}")
        elif holds is False:
            joint = treedep.markov_joint(make_chain(len(chain)), chain)
            report = ordering.OrderReport("psmd", holds, witness, details=details)
            errors += oracles.psmd_certificate_errors(chain, joint, report)
    return errors


class Exact(Workload):
    """The rational path: gallery, matrix-spec audit, enumeration and the LP.

    The two LP ops take instance set ``pass_no % EXACT_LP_SETS``, so their
    op names carry the set index and each set is checked the first time it
    runs.
    """

    name = "exact"

    def warmup(self):
        run_cli(["counterexamples"])

    def ops(self, workers, pass_no=0):
        laws = self.inputs
        k = pass_no % inputs.EXACT_LP_SETS
        lp = laws["lp_sets"][k]

        def joint_orthants():
            joint = treedep.markov_joint(make_chain(len(laws["joint_chain"])), laws["joint_chain"])
            return [joint.orthant_prob(t) for t in laws["thresholds"]]

        def orders():
            tree = make_chain(len(laws["order_x"]))
            jx = treedep.markov_joint(tree, laws["order_x"])
            jy = treedep.markov_joint(tree, laws["order_y"])
            return ordering.lo_check(jx, jy), ordering.uo_check(jx, jy)

        def sm_batch():
            tree = make_chain(1)
            return [treedep.sm_check_lp(treedep.markov_joint(tree, {(0, 1): x}),
                                        treedep.markov_joint(tree, {(0, 1): y}))
                    for x, y in lp["sm_pairs"]]

        def psmd():
            return [ordering.psmd_check(treedep.markov_joint(make_chain(len(chain)), chain))
                    for chain in lp["psmd"]]

        check_out = self.dir / "exact_check.json"
        return [
            ("exact.gallery", lambda: run_cli(["counterexamples"])),
            ("exact.check", lambda: run_cli(["check", laws["check_x_path"],
                                             laws["check_y_path"], "--out", check_out])[0]),
            ("exact.orthant", joint_orthants),
            ("exact.lo_uo", orders),
            (f"exact.sm_batch[{k}]", sm_batch),
            (f"exact.psmd[{k}]", psmd),
        ]

    def output(self, name, result):
        if name == "exact.check":
            return result, (self.dir / "exact_check.json").read_text()
        if name == "exact.lo_uo" or name.startswith("exact.psmd"):
            return [(r.holds, r.witness, r.details) for r in result]
        if name.startswith("exact.sm_batch"):
            return [(r.holds, r.details) for r in result]
        return result

    def check(self, outputs):
        laws = self.inputs
        errors = {}
        for op, out in outputs.items():
            kind, _, k = op.partition("[")
            lp = laws["lp_sets"][int(k.rstrip("]"))] if k else None
            if kind == "exact.gallery":
                rc, text = out
                errors[op] = [] if rc == 0 and "all values reproduced exactly" in text \
                    else [f"gallery exit code {rc}"]
            elif kind == "exact.check":
                errors[op] = self._check_audit(*out)
            elif kind == "exact.orthant":
                errors[op] = orthant_errors(laws["joint_chain"], laws["thresholds"], out)
            elif kind == "exact.lo_uo":
                errors[op] = self._check_orders(out)
            elif kind == "exact.sm_batch":
                errors[op] = sm_errors(lp["sm_pairs"], out)
            elif kind == "exact.psmd":
                errors[op] = psmd_errors(lp["psmd"], out)
        return errors

    def _check_audit(self, rc, text) -> list[str]:
        report = json.loads(text)
        verdict = report["verdict"]
        errs = []
        if verdict not in (True, False):
            errs.append(f"audit verdict {verdict!r}")
        if rc != (0 if verdict is True else 1):
            errs.append(f"exit code {rc} with verdict {verdict!r}")
        if (verdict is True) == any(report["failures"].values()):
            errs.append("verdict disagrees with the failure list")
        for (i, j), bx in sorted(self.inputs["check_x"].items()):
            want = oracles.discrete_edge_flags(bx, self.inputs["check_y"][(i, j)])
            if report["per_edge"][f"{i}-{j}"] != want:
                errs.append(f"edge {i}-{j} flags {report['per_edge'][f'{i}-{j}']} != {want}")
        return errs

    def _check_orders(self, result) -> list[str]:
        x, y = self.inputs["order_x"], self.inputs["order_y"]
        nodes = len(x) + 1
        errs = []
        for (holds, witness, details), prob, thresholds in (
            (result[0], oracles.chain_lower_orthant,
             lambda: [tuple(t) for t in np.ndindex(*(3,) * nodes)]),
            (result[1], oracles.chain_upper_orthant,
             lambda: [tuple(v - 1 if v else -math.inf for v in t)
                      for t in np.ndindex(*(4,) * nodes)]),
        ):
            if holds is None:
                errs.append("orthant order undecided")
            elif holds is False:
                gap = prob(x, witness) - prob(y, witness)
                if gap <= 0 or gap != details["gap"]:
                    errs.append(f"witness {witness}: gap {gap}, reported {details['gap']}")
            elif any(prob(x, t) > prob(y, t) for t in thresholds()):
                errs.append("order reported to hold but a threshold violates it")
        return errs


# -- audit ---------------------------------------------------------------------------

AUDIT_GRID = 65
AUDIT_REFS = Path(__file__).with_name("audit_refs.json")


def audit_digest(report: dict) -> str:
    keys = ("verdict", "failures", "per_edge", "marginal_checks")
    return digest(json.dumps({k: report[k] for k in keys}, sort_keys=True).encode())


class Audit(Workload):
    """``treedep check`` on three pairs of perturbed-walk specs."""

    name = "audit"

    def _argv(self, pair, out, grid=AUDIT_GRID):
        flex = ["--flex", pair["flex"]] if pair["flex"] else []
        return ["check", pair["x"], pair["y"], "--grid", grid, "--out", out] + flex

    def warmup(self):
        run_cli(self._argv(self.inputs["pairs"][0], self.dir / "warm.json", grid=5))

    def ops(self, workers, pass_no=0):
        return [(f"audit.{p['name']}",
                 lambda p=p: run_cli(self._argv(p, self.dir / f"audit_{p['name']}.json"))[0])
                for p in self.inputs["pairs"]]

    def output(self, name, rc):
        return rc, (self.dir / f"audit_{name.split('.', 1)[1]}.json").read_text()

    def check(self, outputs):
        refs = json.loads(AUDIT_REFS.read_text()).get(str(self.seed), {})
        errors = {}
        for pair in self.inputs["pairs"]:
            op = f"audit.{pair['name']}"
            if op not in outputs:
                continue
            rc, text = outputs[op]
            report = json.loads(text)
            want = oracles.walk_audit(pair["d"], pair["sigma_x"], pair["sigma_y"], pair["flex"])
            errs = [f"{key}: {report[key]} != {want[key]}"
                    for key in want if report[key] != want[key]]
            if rc != (0 if report["verdict"] is True else 1):
                errs.append(f"exit code {rc} with verdict {report['verdict']!r}")
            if pair["name"] in refs and audit_digest(report) != refs[pair["name"]]:
                errs.append("report differs from the reference recorded for this seed")
            errors[op] = errs
        return errors


WORKLOADS = {w.name: w for w in (Band, Sample, Exact, Audit)}
