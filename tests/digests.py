"""sha256 digests of `band` CSVs and `sample` dumps, so that "same bits" is a test.

Float outputs depend on the numpy and scipy builds (``ndtr``, ``ndtri``,
``exp``, ``log``), so ``digests.json`` keys its digests by those versions.
``test_digests.py`` recomputes every case through ``treedep.cli.main`` and
compares.  A change that moves output bits on purpose re-records the file
and says why in CHANGES.md:

    PYTHONPATH=src python tests/digests.py

That records the installed versions' entry and leaves the others as they
are.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import scipy

from treedep.cli import main

DIGESTS = Path(__file__).with_name("digests.json")

BAND_FAMILIES = ("gaussian", "clayton", "sclayton", "none")
BAND_SCHEDULES = ("const:3", "linear:0.3")
BAND_ARGS = ("--steps", "12", "--samples", "3000", "--seed", "5", "--grid", "121")

# all five copula families (comonotone on the score path, after another
# comonotone edge and on the copula-value path) and every marginal family
SAMPLE_SPEC = {
    "tree": {"nodes": 10, "edges": [[0, 1], [1, 2], [1, 3], [3, 4], [0, 5],
                                    [5, 6], [2, 7], [4, 8], [2, 9]]},
    "marginals": ["normal(1,4)", "normal(0,1)", "normal(-1,0.25)", "uniform(0,2)",
                  "rectnormal(1.5)", "discrete(0,1,2,5)", "dirac(3)",
                  "empirical(0.5,-2,1,4,3)", "normal(2,9)", "normal(0,2)"],
    "copulas": [[0, 1, "gaussian(0.6)"], [1, 2, "comonotone"], [1, 3, "clayton(2.0)"],
                [3, 4, "comonotone"], [0, 5, "sclayton(1.5)"], [5, 6, "indep"],
                [2, 7, "gaussian(-0.4)"], [4, 8, "gaussian(0.8)"], [2, 9, "comonotone"]],
}
SAMPLE_ARGS = ("--samples", "3000", "--seed", "11")
SAMPLE_FORMATS = ("bin", "csv")


def version_key() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}"


def cases() -> list[str]:
    return ([f"band {f} {s}" for f in BAND_FAMILIES for s in BAND_SCHEDULES]
            + [f"sample {fmt}" for fmt in SAMPLE_FORMATS])


def digest(case: str, workers: int, workdir: Path) -> str:
    """sha256 of the output file that ``case`` writes at ``workers`` workers."""
    kind, *rest = case.split()
    out = workdir / f"{case.replace(' ', '_').replace(':', '')}_w{workers}.out"
    if kind == "band":
        family, schedule = rest
        argv = ["band", *BAND_ARGS, "--family", family, "--sigma", schedule]
    else:
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(SAMPLE_SPEC))
        argv = ["sample", str(spec), *SAMPLE_ARGS, "--format", rest[0]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--workers", str(workers), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{case}: treedep exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def load() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def record() -> None:
    table = load()
    with tempfile.TemporaryDirectory() as tmp:
        table[version_key()] = {case: digest(case, 1, Path(tmp)) for case in cases()}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(cases())} digests for {version_key()} in {DIGESTS}")


if __name__ == "__main__":
    record()
