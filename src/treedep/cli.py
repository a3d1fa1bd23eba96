"""Command-line front end: counterexample gallery, audits, sampling, bands.

Exit codes: 0 success, 1 a check failed, 2 malformed input, a file that
cannot be read or written, or a numerical failure (a conditional inverse or
the exact simplex gave up); every exit 2 prints a one-line ``error:``
message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, counterexamples, hmm, ordering, sampler
from .copulas import HInversionError, parse_copula
from .discrete import DiscreteTreeSpec, parse_matrix_text
from .marginals import parse_marginal
from .simplex import SimplexError
from .trees import TheoremQuery, parse_tree_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(ValueError):
    pass


def _load_json(path: str):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to parse") from None


def load_spec(path: str):
    """Load a spec file; returns a sampler.TreeSpec or a DiscreteTreeSpec.

    Continuous specs carry "marginals" (node -> literal) and "copulas"
    ([i, j, literal] triples); discrete specs carry "matrices"
    ([i, j, matrix-file] triples, paths relative to the spec file).
    """
    obj = _load_json(path)
    if not isinstance(obj, dict) or "tree" not in obj:
        raise InputError(f"{path}: missing 'tree' section")
    if not isinstance(obj["tree"], dict) or not {"nodes", "edges"} <= obj["tree"].keys():
        raise InputError(f"{path}: 'tree' needs 'nodes' and 'edges'")
    tree = parse_tree_json(obj["tree"])
    if "matrices" in obj:
        dists = {}
        for i, j, mpath in _edge_triples(path, obj, "matrices"):
            full = Path(path).parent / mpath
            dists[(i, j)] = parse_matrix_text(full.read_text())
        return DiscreteTreeSpec(tree, dists)
    if "marginals" not in obj or "copulas" not in obj:
        raise InputError(f"{path}: need 'marginals' and 'copulas' (or 'matrices')")
    raw_m = obj["marginals"]
    if isinstance(raw_m, dict):
        missing = [str(n) for n in range(tree.node_count) if str(n) not in raw_m]
        if missing:
            raise InputError(f"{path}: no marginal for node {', '.join(missing)}; "
                             f"every node needs one")
        raw_m = [raw_m[str(n)] for n in range(tree.node_count)]
    elif not isinstance(raw_m, list) or len(raw_m) != tree.node_count:
        raise InputError(f"{path}: 'marginals' needs one entry per node "
                         f"({tree.node_count} nodes)")
    if not all(isinstance(s, str) for s in raw_m):
        raise InputError(f"{path}: marginals are literal strings such as 'normal(0,1)'")
    marginals = tuple(parse_marginal(s) for s in raw_m)
    copulas = {(i, j): parse_copula(lit) for i, j, lit in _edge_triples(path, obj, "copulas")}
    return sampler.TreeSpec(tree, marginals, copulas)


def _edge_triples(path: str, obj: dict, key: str) -> list[tuple[int, int, str]]:
    """``obj[key]`` as ``(i, j, string)`` triples with integer nodes."""
    entries = obj[key]
    message = f"{path}: '{key}' must be a list of [i, j, string] triples"
    if not isinstance(entries, list) or not all(
        isinstance(e, list) and len(e) == 3 and isinstance(e[2], str) for e in entries
    ):
        raise InputError(message)
    try:
        return [(int(i), int(j), text) for i, j, text in entries]
    except (TypeError, ValueError):
        raise InputError(f"{message}, where i and j are node numbers") from None


def load_query(path: str | None):
    """Load a query file ``{"path": [...], "k_star": k}``."""
    if path is None:
        return None
    obj = _load_json(path)
    schema = '{"path": [node, ...], "k_star": node}'
    if not isinstance(obj, dict) or "path" not in obj or "k_star" not in obj:
        raise InputError(f"{path}: a query needs 'path' and 'k_star', as in {schema}")
    try:
        return TheoremQuery(tuple(int(x) for x in obj["path"]), int(obj["k_star"]))
    except (TypeError, ValueError):
        raise InputError(f"{path}: a query holds node numbers, as in {schema}") from None


def _write_manifest(out: str, command: str, params: dict) -> None:
    manifest = {
        "tool": "treedep",
        "version": __version__,
        "command": command,
        "params": params,
    }
    Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_counterexamples(args) -> int:
    reports = counterexamples.run_all()
    all_ok = True
    for rep in reports:
        status = "OK" if rep.ok else "FAILED"
        print(f"[{rep.name}] {status}")
        for line in rep.lines:
            print(line)
        all_ok &= rep.ok
    print("counterexample gallery:", "all values reproduced exactly"
          if all_ok else "MISMATCHES FOUND")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_check(args) -> int:
    spec_x = load_spec(args.spec_x)
    spec_y = load_spec(args.spec_y)
    query = load_query(args.query)
    report = ordering.audit_theorem_conditions(
        spec_x, spec_y, query, marginal_flex=args.flex, grid_size=args.grid
    )
    payload = json.dumps(report.to_json(), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        _write_manifest(args.out, "check", {
            "spec_x": args.spec_x, "spec_y": args.spec_y,
            "query": args.query, "flex": args.flex, "grid": args.grid,
        })
    print(payload)
    return EXIT_OK if report.verdict is True else EXIT_CHECK_FAILED


def cmd_sample(args) -> int:
    spec = load_spec(args.spec)
    if isinstance(spec, DiscreteTreeSpec):
        raise InputError("sampling needs a marginal/copula spec, not matrices")
    batch = sampler.sample(spec, args.samples, args.seed, workers=args.workers)
    if args.format == "csv":
        batch.to_csv(args.out)
    else:
        batch.to_binary(args.out)
    _write_manifest(args.out, "sample", {
        "spec": args.spec, "samples": args.samples, "seed": args.seed,
        "format": args.format, "workers": args.workers,
        "spec_fingerprint": batch.fingerprint,
    })
    print(f"wrote {args.samples} x {spec.tree.node_count} samples to {args.out}")
    return EXIT_OK


def cmd_band(args) -> int:
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1, got {args.steps}")
    sigma = hmm.parse_schedule(args.sigma, args.steps)
    t_grid = hmm.default_t_grid(args.steps, args.grid)
    band = hmm.uncertainty_band(
        args.steps, args.family, sigma, args.samples, args.seed,
        t_grid=t_grid, workers=args.workers,
    )
    band.to_csv(args.out)
    _write_manifest(args.out, "band", {
        "steps": args.steps, "family": args.family, "sigma": args.sigma,
        "samples": args.samples, "seed": args.seed, "grid": args.grid,
        "workers": args.workers,
    })
    dominated = bool(np.all(band.upper_ecdf >= band.lower_ecdf - band.mc_halfwidth))
    print(f"wrote band ({args.steps} steps, {args.family}) to {args.out}; "
          f"dominance within MC noise: {dominated}")
    return EXIT_OK if dominated else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedep",
        description="Markov tree dependence toolkit: build, sample, audit, compare.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counterexamples",
                       help="reproduce the built-in exact counterexamples")
    p.set_defaults(func=cmd_counterexamples)

    p = sub.add_parser("check", help="audit comparison-theorem hypotheses")
    p.add_argument("spec_x")
    p.add_argument("spec_y")
    p.add_argument("--query", default=None, help="JSON file with path and k_star")
    p.add_argument("--flex", default=None,
                   choices=["st-increase", "st-decrease", "cx"],
                   help="also audit marginal-flexibility hypotheses")
    p.add_argument("--grid", type=int, default=129, help="copula grid size")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sample", help="draw joint samples from a spec file")
    p.add_argument("spec")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("band", help="perturbed-walk robustness band")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--family", choices=list(hmm.FAMILIES), default="gaussian")
    p.add_argument("--sigma", default="const:3",
                   help="noise bound schedule, const:<v> or linear:<slope>")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=401, help="number of t points")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_band)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, HInversionError, SimplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
