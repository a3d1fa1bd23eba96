"""treedep benchmark: one workload, one seed, timed, checked and reported.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {band,sample,exact,audit} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout.  With
``--trace 0`` the run repeats the workload's ops (one pass = every op once,
in order) until S seconds of op time have passed and reports the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it times a few
untraced passes, then one pass with span recorders around treedep's layer
functions, and reports the per-layer metrics.  Each op's first output is
checked in full; every repeat of the op must reproduce it exactly.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["band", "sample", "exact", "audit"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="only generate inputs into DIR and run the warm-up op "
                        "(the set-up time probe)")
    return p.parse_args(argv)


def import_treedep():
    src = ROOT / "src"
    if not (src / "treedep" / "__init__.py").is_file():
        raise SystemExit(f"error: no treedep sources under {src}")
    sys.path.insert(0, str(src))
    import treedep

    if Path(treedep.__file__).resolve().parent != src / "treedep":
        raise SystemExit(f"error: imported treedep from {treedep.__file__}, not {src}")


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def setup_times(args, base: Path, probes: list[float]) -> list[float]:
    """Wall time of fresh processes that import, generate inputs and warm up."""
    times = []
    for r in range(SETUP_REPEATS):
        probes.append(calibrate.probe())
        target = base / f"setup{r}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(target)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        shutil.rmtree(target, ignore_errors=True)
    return times


def run_pass(wl, ops, tracer=None):
    """One pass over the ops; returns (op seconds, outputs, failures)."""
    wall, outputs, failures = 0.0, {}, {}
    for name, fn in ops:
        if tracer is not None:
            tracer.op = name
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failures[name] = [f"{type(exc).__name__}: {exc}"]
            result = None
        wall += time.perf_counter() - start
        if name not in failures:
            try:
                outputs[name] = wl.output(name, result)
            except OSError as exc:  # e.g. a CLI op that exited before writing its file
                failures[name] = [f"no output: {exc}"]
    return wall, outputs, failures


class Run:
    """Pass bookkeeping: op counts, failures and each op's first output."""

    def __init__(self, wl):
        self.wl = wl
        self.passes = 0
        self.seen: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, workers, tracer=None) -> float:
        ops = self.wl.ops(workers, self.passes)
        self.passes += 1
        wall, outputs, failures = run_pass(self.wl, ops, tracer)
        new = {name: out for name, out in outputs.items() if name not in self.seen}
        for name, out in outputs.items():
            if name not in new and out != self.seen[name]:
                failures.setdefault(name, []).append("output differs from its first run")
        if new:
            try:
                for name, errs in self.wl.check(new).items():
                    failures.setdefault(name, []).extend(errs)
            except Exception as exc:  # a check that cannot run fails every op it covers
                for name in new:
                    failures.setdefault(name, []).append(
                        f"check raised {type(exc).__name__}: {exc}")
            self.seen.update(new)
        self.attempted += len(ops)
        bad = [name for name, _ in ops if failures.get(name)]
        self.failed += len(bad)
        self.errors += [f"{name}: {e}" for name in bad for e in failures[name]]
        return wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def timed_passes(run: Run, workers: int, seconds: float, min_passes: int,
                 probes: list[float] | None = None) -> list[float]:
    walls = []
    while len(walls) < min_passes or sum(walls) < seconds:
        if probes is not None:
            probes.append(calibrate.probe())
        walls.append(run.record(workers))
    return walls


def end_to_end(args, wl, run: Run, work: Path) -> dict:
    """wall_s and setup_s are divided by the machine's slowdown (calibrate.py)."""
    probes: list[float] = []
    setups = setup_times(args, work, probes)
    walls = timed_passes(run, wl.default_workers, args.seconds, MIN_PASSES, probes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slowdown = statistics.median(probes)
    scale = 1 / slowdown
    print(f"machine slowdown: median {slowdown:.4f} over {len(probes)} probes; "
          f"time metrics divided by it")
    for name, vals in (("wall_s", walls), ("setup_s", setups)):
        q1, med, q3 = quartiles(vals)
        print(f"{name}: median {med * scale:.4f} s, q1 {q1 * scale:.4f}, q3 {q3 * scale:.4f}, "
              f"n={len(vals)} (unscaled median {med:.4f} s)")
    print(f"peak_rss_mb: {rss_mb:.1f} MB, n=1")
    print(f"ops_failed_ratio: {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.4f}, n={run.attempted} ops")
    return {"wall_s": statistics.median(walls) * scale,
            "setup_s": statistics.median(setups) * scale, "peak_rss_mb": rss_mb}


def per_layer(args, wl, run: Run) -> tuple[dict, list[str]]:
    import tracer as tr

    untraced = timed_passes(run, wl.default_workers, args.seconds / 2, 1)
    tracer = tr.Tracer()
    tracer.install()
    try:
        cpu = time.process_time()
        traced_wall = run.record(wl.default_workers, tracer)
        cpu = time.process_time() - cpu
        spans = list(tracer.spans)
        other = []
        if wl.other_workers is not None:
            tracer.spans.clear()
            run.record(wl.other_workers, tracer)
            other = list(tracer.spans)
    finally:
        tracer.uninstall()
    metrics = tr.layer_metrics(spans)
    metrics["proc.cpu_s"] = cpu
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(untraced) - 1
    one, many = (spans, other) if wl.default_workers == 1 else (other, spans)
    metrics["hmm.simulate_max.speedup_nw"] = tr.speedup(one, many, "hmm.simulate_max")
    metrics["sampler.sample.speedup_nw"] = tr.speedup(one, many, "sampler.sample")
    write_spans(spans, args)
    print(f"untraced pass: median {statistics.median(untraced):.4f} s, n={len(untraced)}; "
          f"traced pass: {traced_wall:.4f} s; "
          f"overhead {metrics['trace.overhead_ratio']:+.3f}")
    return metrics, tr.coverage_errors(args.workload, metrics, declared_metrics()["per_layer"])


def write_spans(spans, args) -> None:
    path = ROOT / ".perfbench_runs" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for s in spans:
            counts = {k: v for k, v in s.counts.items() if k != "key"}
            fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                                 "start": s.start, "end": s.end, "counts": counts}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_treedep()
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_only)).warmup()
        return 0

    units = declared_metrics()
    work = ROOT / ".perfbench_runs" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        wl.warmup()
        run = Run(wl)
        if args.trace:
            values, coverage = per_layer(args, wl, run)
            names = units["per_layer"]
            for err in coverage:
                print(f"layer coverage: {err}", file=sys.stderr)
            for name in names:
                print(f"{name}: {values[name]:.6g} {names[name]}")
            print(f"layer coverage check: {'ok' if not coverage else 'FAILED'}")
        else:
            values = end_to_end(args, wl, run, work)
            names = units["end_to_end"]
            coverage = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in run.errors[:20]:
        print(f"failed op: {err}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not coverage,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
