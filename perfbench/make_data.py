"""Regenerate the LP-optimal certificates the ``audit_ledger`` workload audits.

Solves ``build_lp(n, t)`` over the benchmark's (n, t) matrix with the default
dictionary and 300 shells, and writes one ``combo_to_json`` file per Optimal
cell to ``perfbench/data/``, plus ``lp_matrix.json`` with every cell's status,
objective and pivot count as solved.  The audit workload reads these files,
so it measures audits and not the simplex.

The stored files were solved with OpenBLAS's default thread count on a
2-vCPU machine.  The LP's answers depend on that count: with one thread, as
the benchmark runs it, (10, 1) ends IterLimit and has no certificate, so
regenerate under the default to get the same twelve certificates.

Run from the repository root (takes about a minute on one core):

    PYTHONPATH=src python3 perfbench/make_data.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from thetacert import lp  # noqa: E402
from thetacert.certificates import combo_to_json  # noqa: E402

from workloads import LP_MATRIX, cert_name  # noqa: E402


def main() -> int:
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    cells = []
    for n, t in LP_MATRIX:
        problem = lp.build_lp(n, t)
        solution = lp.solve_lp(problem)
        cell = {
            "n": n,
            "t": t,
            "status": solution.status,
            "objective": solution.objective,
            "pivots": solution.iterations,
            "certificate": None,
        }
        if solution.status == "Optimal":
            name = cert_name(n, t)
            combo = lp.certificate_of(problem, solution)
            (data / name).write_text(json.dumps(combo_to_json(combo), sort_keys=True) + "\n")
            cell["certificate"] = name
        cells.append(cell)
        print(f"n={n} t={t}: {solution.status} ({solution.iterations} pivots)", flush=True)
    (data / "lp_matrix.json").write_text(json.dumps({"cells": cells}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
