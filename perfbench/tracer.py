"""Span tracer for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` wraps treedep's public layer functions under every name
they are reached by (module attributes, names imported into other treedep
modules, the package re-exports) and the listed class methods.  Each call
records a span: name, start, end, parent span, op id and a few counts taken
from the arguments and the result.  Spans stay in memory; ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: object
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _size(result) -> int:
    return int(np.size(result))


def _cdf_key(args, result) -> tuple:
    cop, u, v = args[0], np.asarray(args[1]), np.asarray(args[2])
    return (repr(cop), u.shape, u.tobytes(), v.shape, v.tobytes())


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, count function)
FUNCTIONS = (
    ("treedep.cli", "main", "cli.main", None),
    ("treedep.hmm", "simulate_max", "hmm.simulate_max", None),
    ("treedep.hmm", "ecdf_on_grid", "hmm.ecdf_on_grid", None),
    ("treedep.sampler", "counter_uniforms", "sampler.counter_uniforms",
     lambda a, k, r: {"values": _size(r)}),
    ("treedep.sampler", "sample", "sampler.sample", None),
    ("treedep.discrete", "markov_joint", "discrete.markov_joint",
     lambda a, k, r: {"cells": len(r.mass)}),
    ("treedep.ordering", "lo_check", "ordering.lo_check", None),
    ("treedep.ordering", "uo_check", "ordering.uo_check", None),
    ("treedep.ordering", "si_check", "ordering.bivariate_checks", None),
    ("treedep.ordering", "mtp2_check", "ordering.bivariate_checks", None),
    ("treedep.ordering", "schur_leq", "ordering.bivariate_checks", None),
    ("treedep.ordering", "sm_check_lp", "ordering.sm_check_lp",
     lambda a, k, r: {"decided": int(r.holds is not None)}),
    ("treedep.ordering", "audit_theorem_conditions", "ordering.audit_theorem_conditions", None),
    ("treedep.simplex", "solve_lp_min", "simplex.solve_lp_min",
     lambda a, k, r: {"rows": len(a[1]), "cols": len(a[0])}),
    ("treedep.counterexamples", "run_all", "counterexamples.run_all", None),
    ("treedep.marginals", "st_leq", "marginals.order_checks", None),
    ("treedep.marginals", "cx_leq", "marginals.order_checks", None),
    ("treedep.marginals", "range_closure_equal", "marginals.order_checks", None),
)

_COPULAS = {"Gaussian": "gaussian", "Clayton": "clayton", "SurvivalClayton": "sclayton",
            "Comonotone": "comonotone", "Independence": "indep"}
_MARGINALS = {"Normal": "normal", "Uniform": "uniform", "RectifiedNormal": "rectnormal",
              "Dirac": "dirac"}

# (module, class, method, span name, count function)
METHODS = tuple(
    ("treedep.copulas", cls, "h_inv", f"copulas.{fam}.h_inv",
     lambda a, k, r: {"values": _size(r)})
    for cls, fam in _COPULAS.items()
) + tuple(
    ("treedep.copulas", cls, "cdf", f"copulas.{fam}.cdf",
     lambda a, k, r: {"values": _size(r), "key": _cdf_key(a, r)})
    for cls, fam in _COPULAS.items()
) + tuple(
    ("treedep.marginals", cls, "quantile", f"marginals.{fam}.quantile",
     lambda a, k, r: {"values": _size(r)})
    for cls, fam in _MARGINALS.items()
) + (
    ("treedep.discrete", "DiscreteJoint", "orthant_prob", "discrete.orthant_prob", None),
    ("treedep.discrete", "DiscreteJoint", "product_of_marginals",
     "discrete.product_of_marginals", None),
    ("treedep.discrete", "DiscreteBivariate", "product_of_marginals",
     "discrete.product_of_marginals", None),
    ("treedep.sampler", "SampleBatch", "to_csv", "sampler.to_csv", _file_bytes),
    ("treedep.sampler", "SampleBatch", "to_binary", "sampler.to_binary", _file_bytes),
)


class Tracer:
    """Records spans from wrapped treedep functions; one client thread.

    Spans opened on worker threads with no open span of their own take the
    client thread's innermost open span as parent: that is the call that
    started the worker pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            client = tracer._client_stack
            parent = stack[-1].id if stack else (client[-1].id if client else None)
            span = Span(next(tracer._ids), name, parent, tracer.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target under every treedep name bound to it."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "treedep" or n.startswith("treedep.")) and m is not None]
        try:
            for mod_name, attr, name, count in FUNCTIONS:
                orig = getattr(importlib.import_module(mod_name), attr)
                wrapper = self._wrap(orig, name, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self.patches.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            for mod_name, cls_name, attr, name, count in METHODS:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                orig = cls.__dict__[attr]
                self.patches.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, name, count))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self.patches):
            setattr(owner, key, orig)
        self.patches.clear()


# -- span arithmetic --------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.dur - covered(s.start, s.end, children.get(s.id, ())) for s in spans}


# -- per-layer metrics ------------------------------------------------------------


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the run-level ones)."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def kind(prefix, suffix):
        # outermost spans only: survival Clayton calls Clayton internally
        ss = [s for s in spans if s.name.startswith(prefix) and s.name.endswith(suffix)]
        ids = {s.id for s in ss}
        return [s for s in ss if s.parent not in ids]

    def tot(ss, key=None):
        return sum(s.counts.get(key, 0) for s in ss) if key else sum(s.dur for s in ss)

    def self_sum(ss):
        return sum(selfs[s.id] for s in ss)

    m: dict[str, float] = {}
    sim = named("hmm.simulate_max")
    m["hmm.simulate_max.calls"] = len(sim)
    m["hmm.simulate_max.self_s"] = self_sum(sim)
    m["hmm.ecdf_on_grid.s"] = tot(named("hmm.ecdf_on_grid"))

    hinv = kind("copulas.", ".h_inv")
    m["copulas.h_inv.s"] = tot(hinv)
    m["copulas.h_inv.values"] = tot(hinv, "values")
    for fam in ("gaussian", "clayton", "sclayton"):
        ss = [s for s in hinv if s.name == f"copulas.{fam}.h_inv"]
        m[f"copulas.{fam}.h_inv.ns_per_value"] = _ratio(tot(ss), tot(ss, "values"), 1e9)

    cu = named("sampler.counter_uniforms")
    m["sampler.counter_uniforms.s"] = tot(cu)
    m["sampler.counter_uniforms.ns_per_value"] = _ratio(tot(cu), tot(cu, "values"), 1e9)
    quant = kind("marginals.", ".quantile")
    m["marginals.quantile.s"] = tot(quant)
    m["marginals.quantile.values"] = tot(quant, "values")
    normal_q = [s for s in quant if s.name == "marginals.normal.quantile"]
    m["marginals.normal.quantile.ns_per_value"] = _ratio(
        tot(normal_q), tot(normal_q, "values"), 1e9)

    m["sampler.sample.self_s"] = self_sum(named("sampler.sample"))
    csv = named("sampler.to_csv")
    m["sampler.to_csv.s"] = tot(csv)
    m["sampler.to_csv.mb_per_s"] = _ratio(tot(csv, "bytes") / 1e6, tot(csv))
    m["sampler.to_binary.s"] = tot(named("sampler.to_binary"))

    cdf = kind("copulas.", ".cdf")
    m["copulas.cdf.s"] = tot(cdf)
    m["copulas.cdf.calls"] = len(cdf)
    m["copulas.cdf.distinct_ratio"] = _ratio(len({s.counts["key"] for s in cdf}), len(cdf))
    gcdf = [s for s in cdf if s.name == "copulas.gaussian.cdf"]
    m["copulas.gaussian.cdf.ns_per_value"] = _ratio(tot(gcdf), tot(gcdf, "values"), 1e9)
    m["marginals.order_checks.s"] = tot(named("marginals.order_checks"))
    m["ordering.audit_theorem_conditions.self_s"] = self_sum(
        named("ordering.audit_theorem_conditions"))

    mj = named("discrete.markov_joint")
    m["discrete.markov_joint.s"] = tot(mj)
    m["discrete.markov_joint.cells"] = tot(mj, "cells")
    m["discrete.markov_joint.us_per_cell"] = _ratio(tot(mj), tot(mj, "cells"), 1e6)
    op = named("discrete.orthant_prob")
    m["discrete.orthant_prob.s"] = tot(op)
    m["discrete.orthant_prob.calls"] = len(op)
    m["discrete.product_of_marginals.s"] = tot(named("discrete.product_of_marginals"))
    m["ordering.lo_check.s"] = tot(named("ordering.lo_check"))
    m["ordering.uo_check.s"] = tot(named("ordering.uo_check"))
    m["ordering.bivariate_checks.s"] = tot(named("ordering.bivariate_checks"))
    m["counterexamples.run_all.s"] = tot(named("counterexamples.run_all"))

    sm = named("ordering.sm_check_lp")
    m["ordering.sm_check_lp.self_s"] = self_sum(sm)
    m["ordering.sm_check_lp.calls"] = len(sm)
    m["ordering.sm_check_lp.decided_ratio"] = _ratio(tot(sm, "decided"), len(sm))
    lp = named("simplex.solve_lp_min")
    m["simplex.solve_lp_min.s"] = tot(lp)
    m["simplex.solve_lp_min.calls"] = len(lp)
    m["simplex.solve_lp_min.max_s"] = max((s.dur for s in lp), default=0.0)
    m["simplex.lp_rows_max"] = max((s.counts["rows"] for s in lp), default=0)
    m["simplex.lp_cols_max"] = max((s.counts["cols"] for s in lp), default=0)

    cli = named("cli.main")
    m["cli.main.self_s"] = self_sum(cli)
    m["cli.main.calls"] = len(cli)
    return m


def speedup(spans_1w, spans_nw, name: str) -> float:
    """Summed duration of ``name`` spans at 1 worker over that at n workers."""
    return _ratio(sum(s.dur for s in spans_1w if s.name == name),
                  sum(s.dur for s in spans_nw if s.name == name))


# -- layer coverage ----------------------------------------------------------------

_ALL = ("band", "sample", "exact", "audit")
_HINV = ("copulas.h_inv.s", "copulas.h_inv.values", "copulas.gaussian.h_inv.ns_per_value",
         "copulas.clayton.h_inv.ns_per_value", "copulas.sclayton.h_inv.ns_per_value")
_RNG = ("sampler.counter_uniforms.s", "sampler.counter_uniforms.ns_per_value")
_QUANTILE = ("marginals.quantile.s", "marginals.quantile.values",
             "marginals.normal.quantile.ns_per_value")
_SAMPLER = ("sampler.sample.self_s", "sampler.sample.speedup_nw", "sampler.to_csv.s",
            "sampler.to_csv.mb_per_s", "sampler.to_binary.s")
_CDF = ("copulas.cdf.s", "copulas.cdf.calls", "copulas.cdf.distinct_ratio",
        "copulas.gaussian.cdf.ns_per_value")
_DISCRETE = ("discrete.markov_joint.s", "discrete.markov_joint.cells",
             "discrete.markov_joint.us_per_cell", "discrete.orthant_prob.s",
             "discrete.orthant_prob.calls", "discrete.product_of_marginals.s",
             "ordering.lo_check.s", "ordering.uo_check.s", "ordering.bivariate_checks.s",
             "counterexamples.run_all.s")
_LP = ("ordering.sm_check_lp.self_s", "ordering.sm_check_lp.calls",
       "ordering.sm_check_lp.decided_ratio", "simplex.solve_lp_min.s",
       "simplex.solve_lp_min.calls", "simplex.solve_lp_min.max_s", "simplex.lp_rows_max",
       "simplex.lp_cols_max")
_HMM = ("hmm.simulate_max.calls", "hmm.simulate_max.self_s", "hmm.ecdf_on_grid.s",
        "hmm.simulate_max.speedup_nw")


def _rules():
    rules = {}
    for names, present, absent in (
        (_HMM, ("band",), ("sample", "exact", "audit")),
        (_HINV, ("band", "sample"), ("exact", "audit")),
        (_RNG, ("band", "sample"), ("exact", "audit")),
        (_QUANTILE, ("band", "sample"), ("exact",)),
        (_SAMPLER, ("sample",), ("band", "exact", "audit")),
        (_CDF, ("audit",), ("band", "sample", "exact")),
        (("marginals.order_checks.s", "ordering.audit_theorem_conditions.self_s"),
         ("audit",), ("band", "sample")),
        (_DISCRETE, ("exact",), ("band", "sample", "audit")),
        (_LP, ("exact",), ("band", "sample", "audit")),
        (("cli.main.self_s", "cli.main.calls", "proc.cpu_s"), _ALL, ()),
    ):
        for name in names:
            rules[name] = (present, absent)
    return rules


# metric -> (workloads where it must be nonzero, workloads where it must be zero)
COVERAGE = _rules()


def coverage_errors(workload: str, metrics: dict, declared) -> list[str]:
    """Declared metrics missing from the traced run, or nonzero/zero where not expected."""
    errors = [f"{n}: declared but not produced" for n in declared if n not in metrics]
    for name, value in metrics.items():
        present, absent = COVERAGE.get(name, ((), ()))
        if workload in present and not value:
            errors.append(f"{name}: expected nonzero on {workload}, got {value}")
        if workload in absent and value:
            errors.append(f"{name}: expected 0 on {workload}, got {value}")
    return errors
