"""Seeded input generator for the four benchmark workloads.

Every input is a pure function of the benchmark seed, so the same seed gives
the same files and laws.  Sizes and family mixes are fixed and only shapes,
parameters and weights are drawn, which keeps the amount of work in a pass
nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

from treedep import hmm, trees
from treedep.discrete import DiscreteBivariate

# -- sample: one random 48-node tree with mixed marginals and copulas ----------

SAMPLE_NODES = 48
SAMPLE_COPULAS = ("gaussian",) * 12 + ("clayton",) * 12 + ("sclayton",) * 12 + ("indep",) * 11
SAMPLE_MARGINALS = ("normal",) * 16 + ("uniform",) * 16 + ("rectnormal",) * 16


def _num(x: float) -> str:
    return repr(round(x, 4))


def sample_spec(rng: random.Random) -> dict:
    """Spec JSON for a random recursive tree; the family counts never vary."""
    edges = [[rng.randrange(j), j] for j in range(1, SAMPLE_NODES)]
    fams = list(SAMPLE_COPULAS)
    rng.shuffle(fams)
    copulas = []
    for (i, j), fam in zip(edges, fams):
        if fam == "indep":
            lit = "indep"
        elif fam == "gaussian":
            lit = f"gaussian({_num(rng.uniform(-0.8, 0.8))})"
        else:
            lit = f"{fam}({_num(rng.uniform(0.3, 5.0))})"
        copulas.append([i, j, lit])
    kinds = list(SAMPLE_MARGINALS)
    rng.shuffle(kinds)
    marginals = {}
    for node, kind in enumerate(kinds):
        if kind == "normal":
            lit = f"normal({_num(rng.uniform(-2, 2))},{_num(rng.uniform(0.5, 4))})"
        elif kind == "uniform":
            a = rng.uniform(-2, 1)
            lit = f"uniform({_num(a)},{_num(a + rng.uniform(0.5, 3))})"
        else:
            lit = f"rectnormal({_num(rng.uniform(0.5, 3))})"
        marginals[str(node)] = lit
    return {"tree": {"nodes": SAMPLE_NODES, "edges": edges},
            "marginals": marginals, "copulas": copulas}


# -- audit: pairs of perturbed-walk specs ----------------------------------------

# (name, family, steps, --flex value or None)
AUDIT_PAIRS = (
    ("gauss_plain", "gaussian", 12, None),
    ("clayton_st", "clayton", 20, "st-increase"),
    ("gauss_cx", "gaussian", 12, "cx"),
)


def walk_sigmas(rng: random.Random, d: int) -> tuple[list[float], list[float]]:
    """Noise schedules for X and Y.

    Y keeps, lowers or raises each X level by a clear factor, so the copula
    and marginal comparisons are never decided by rounding.
    """
    sx, sy = [], []
    for _ in range(d):
        s = round(rng.uniform(0.5, 4.0), 3)
        move = rng.randrange(3)
        if move == 0:
            t = s
        elif move == 1:
            t = round(s * rng.uniform(0.3, 0.8), 3)
        else:
            t = round(s * rng.uniform(1.25, 2.0), 3)
        sx.append(s)
        sy.append(t)
    return sx, sy


def spec_json(spec) -> dict:
    """Continuous spec file contents for a ``sampler.TreeSpec``."""
    return {
        "tree": trees.tree_to_json(spec.tree),
        "marginals": {str(n): str(m) for n, m in enumerate(spec.marginals)},
        "copulas": [[i, j, str(c)] for (i, j), c in sorted(spec.copulas.items())],
    }


# -- exact: random exact laws -------------------------------------------------------


def random_marginal(rng: random.Random, size: int) -> tuple[F, ...]:
    weights = [rng.randint(1, 6) for _ in range(size)]
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def random_coupling(rng: random.Random, row_marg, col_marg, moves: int = 12) -> DiscreteBivariate:
    """Random coupling with the given exact marginals.

    Starts from the product coupling and applies rectangle transfers (+delta
    on two diagonal corners, -delta on the other two), which keep both
    marginals.  Each transfer moves at most 3/4 of the available mass, so
    every cell stays positive and a chain of k-state couplings always has
    exactly k**nodes cells.
    """
    k, m = len(row_marg), len(col_marg)
    w = [[row_marg[r] * col_marg[c] for c in range(m)] for r in range(k)]
    for _ in range(moves):
        r1, r2 = sorted(rng.sample(range(k), 2))
        c1, c2 = sorted(rng.sample(range(m), 2))
        sign = rng.choice((1, -1))
        room = min(w[r1][c2], w[r2][c1]) if sign > 0 else min(w[r1][c1], w[r2][c2])
        delta = sign * room * F(rng.randint(1, 3), 4)
        w[r1][c1] += delta
        w[r2][c2] += delta
        w[r1][c2] -= delta
        w[r2][c1] -= delta
    return DiscreteBivariate.from_rows(w)


def random_chain(rng: random.Random, sizes) -> dict:
    """Edge laws of a chain 0 -> 1 -> ... with the given state counts."""
    margs = [random_marginal(rng, k) for k in sizes]
    return {(i, i + 1): random_coupling(rng, margs[i], margs[i + 1])
            for i in range(len(sizes) - 1)}


def paired_chain(rng: random.Random, edge_laws: dict) -> dict:
    """A second chain whose edge laws share every marginal with the first."""
    return {e: random_coupling(rng, b.row_marginal(), b.col_marginal())
            for e, b in edge_laws.items()}


def matrix_text(biv: DiscreteBivariate) -> str:
    return "".join(" ".join(str(w) for w in row) + "\n" for row in biv.weights)


# exact sizes: chain lengths are node counts, every node has 3 states
EXACT_JOINT_NODES = 9
EXACT_ORDER_NODES = 7
EXACT_CHECK_NODES = 8
EXACT_SM_PAIRS = ((3, 10), (4, 10))        # (states, how many pairs)
EXACT_PSMD = (((3, 3, 3), 8), ((9, 9), 1))  # (chain state counts, how many)
# The LP's pivot count, and so its time, varies by +-30% from law to law, so
# successive passes cycle through this many LP instance sets: a run then
# measures the cost over many laws instead of over one draw.
EXACT_LP_SETS = 8


def lp_instances(rng: random.Random) -> dict:
    sm_pairs = []
    for k, count in EXACT_SM_PAIRS:
        for _ in range(count):
            rm, cm = random_marginal(rng, k), random_marginal(rng, k)
            sm_pairs.append((random_coupling(rng, rm, cm), random_coupling(rng, rm, cm)))
    psmd = [random_chain(rng, sizes) for sizes, count in EXACT_PSMD for _ in range(count)]
    return {"sm_pairs": sm_pairs, "psmd": psmd}


def exact_inputs(rng: random.Random) -> dict:
    joint_chain = random_chain(rng, (3,) * EXACT_JOINT_NODES)
    thresholds = [tuple(rng.randrange(3) for _ in range(EXACT_JOINT_NODES)) for _ in range(4)]
    order_x = random_chain(rng, (3,) * EXACT_ORDER_NODES)
    order_y = paired_chain(rng, order_x)
    check_x = random_chain(rng, (3,) * EXACT_CHECK_NODES)
    check_y = paired_chain(rng, check_x)
    lp_sets = [lp_instances(rng) for _ in range(EXACT_LP_SETS)]
    return {"joint_chain": joint_chain, "thresholds": thresholds,
            "order_x": order_x, "order_y": order_y, "check_x": check_x,
            "check_y": check_y, "lp_sets": lp_sets}


# -- files ------------------------------------------------------------------------------


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def write_matrix_spec(directory: Path, name: str, edge_laws: dict) -> str:
    entries = []
    for (i, j), biv in sorted(edge_laws.items()):
        fname = f"{name}_{i}_{j}.txt"
        (directory / fname).write_text(matrix_text(biv))
        entries.append([i, j, fname])
    nodes = max(j for _, j in edge_laws) + 1
    edges = [[i, j] for i, j in sorted(edge_laws)]
    return write_json(directory / f"{name}.json",
                      {"tree": {"nodes": nodes, "edges": edges}, "matrices": entries})


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files under ``directory``; return its inputs."""
    rng = random.Random(f"treedep-bench/{workload}/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "band":
        return {"seed": rng.randrange(2**31)}
    if workload == "sample":
        spec = sample_spec(rng)
        return {"spec": write_json(directory / "sample_spec.json", spec),
                "seed": rng.randrange(2**31)}
    if workload == "audit":
        pairs = []
        for name, family, d, flex in AUDIT_PAIRS:
            sx, sy = walk_sigmas(rng, d)
            px = write_json(directory / f"{name}_x.json", spec_json(hmm.build_spec(d, family, sx)))
            py = write_json(directory / f"{name}_y.json", spec_json(hmm.build_spec(d, family, sy)))
            pairs.append({"name": name, "family": family, "d": d, "flex": flex,
                          "sigma_x": sx, "sigma_y": sy, "x": px, "y": py})
        return {"pairs": pairs}
    if workload == "exact":
        laws = exact_inputs(rng)
        laws["check_x_path"] = write_matrix_spec(directory, "chain_x", laws["check_x"])
        laws["check_y_path"] = write_matrix_spec(directory, "chain_y", laws["check_y"])
        return laws
    raise ValueError(f"unknown workload {workload!r}")
