"""Record the audit workload's reference reports for a range of seeds.

Usage, from the root of a checkout:

    python3 perfbench/record_audit_refs.py FIRST LAST

Runs ``treedep check`` on every generated walk-spec pair for seeds FIRST to
LAST inclusive and writes perfbench/audit_refs.json: seed -> pair -> digest
of the report's verdict, failures, per-edge flags and marginal checks.  The
audit workload then requires the same digests from every later version of
the program.  Existing entries for other seeds are kept.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main(first: int, last: int) -> None:
    run.import_treedep()
    import workloads

    refs = json.loads(workloads.AUDIT_REFS.read_text()) if workloads.AUDIT_REFS.exists() else {}
    base = run.ROOT / ".perfbench_runs" / "refs"
    try:
        for seed in range(first, last + 1):
            wl = workloads.Audit(seed, base / str(seed))
            digests = {}
            for name, fn in wl.ops(1):
                report = json.loads(wl.output(name, fn())[1])
                digests[name.split(".", 1)[1]] = workloads.audit_digest(report)
            refs[str(seed)] = digests
    finally:
        shutil.rmtree(base, ignore_errors=True)
    ordered = {k: refs[k] for k in sorted(refs, key=int)}
    workloads.AUDIT_REFS.write_text(json.dumps(ordered, indent=1) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
