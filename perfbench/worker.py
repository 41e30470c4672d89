"""One benchmark pass, in a fresh process.

Usage: ``python3 perfbench/worker.py SPEC.json`` (``run.py`` writes the spec).
The worker imports thetacert from the checkout, prepares its ops (the timed
set-up), runs each op once in the timed region, measures its peak resident
memory, then checks every answer against its reference and writes a result
JSON.  With tracing on, span wrappers are installed after set-up and removed
before the checks.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())

    import thetacert as tc
    import thetacert.cli  # noqa: F401  (not imported by the package itself)

    if not Path(tc.__file__).resolve().is_relative_to(HERE.parent / "src"):
        raise RuntimeError(f"imported thetacert from {tc.__file__}, not from this checkout")

    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    prepared = [workloads.prepare(workloads.OpSpec(**op), tc, workdir) for op in spec["ops"]]
    result: dict = {"setup_s": time.monotonic() - spec["spawn_time"]}
    if spec["setup_only"]:
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        result["untraced_names"] = tracer.install(tc)

    outcomes = []
    start = time.perf_counter()
    for prep in prepared:
        t0 = time.perf_counter()
        try:
            out = prep.run()
        except Exception as exc:  # a raising op is a failed op; keep going
            out = exc
        outcomes.append((out, time.perf_counter() - t0))
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()

    records = []
    for prep, (out, seconds) in zip(prepared, outcomes):
        answer, ok, reason, reference = workloads.check(prep, out)
        records.append({
            "id": prep.spec.id, "seconds": seconds, "answer": answer,
            "ok": ok, "reason": reason, "reference": reference,
        })
    result["records"] = records

    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["lp.highs_rel_diff_max"] = max(
            (r["reference"].get("rel_diff") or 0.0 for r in records), default=0.0
        )
        layers["cli.output_bytes"] = sum(r["answer"].get("bytes", 0) for r in records)
        result["layers"] = layers
        tracer.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
