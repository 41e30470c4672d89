"""Harness self-check: one op per workload, every metric present, failures counted.

Run from the root of a checkout (about a minute):

    python3 perfbench/selfcheck.py

For each workload it runs a smoke pass of one healthy op with tracing off
and on, and checks that exactly the metrics named in
BENCHMARK.json come out, with their units.  It then adds an op that always
raises and checks that ``failed_frac`` rises and the run is marked incorrect.
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _require(condition: bool, message: str) -> None:
    if not condition:
        print(f"selfcheck FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    _require(end_to_end == dict(run.END_TO_END), "end_to_end metrics differ from run.END_TO_END")
    _require(per_layer == dict(tracing.PER_LAYER), "per_layer metrics differ from tracing.PER_LAYER")
    _require([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
             "workloads differ from workloads.WORKLOADS")

    for workload in workloads.WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result, _ = run.measure(workload, seed=0, seconds=1, trace=trace, smoke=True)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            _require(emitted == expected, f"{workload} trace={trace} emitted {sorted(emitted)}")
            _require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                     f"{workload} trace={trace} smoke op failed: {result}")
        clean, _ = run.measure(workload, seed=0, seconds=1, trace=False, smoke=True)
        broken, detail = run.measure(workload, seed=0, seconds=1, trace=False, smoke=True,
                                     inject_failure=True)
        _require(broken["metrics"]["failed_frac"]["value"] > clean["metrics"]["failed_frac"]["value"],
                 f"{workload}: injected failure did not raise failed_frac")
        _require(not broken["correct"], f"{workload}: injected failure left the run correct")
        _require(any(f["id"] == "injected failure" for f in detail["failures"]),
                 f"{workload}: injected failure missing from the ledger")
        print(f"{workload}: metrics complete, injected failure counted", flush=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
