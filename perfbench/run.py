"""thetacert benchmark: runs one workload and prints its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lp_solve --seed 1 --seconds 35 --trace 0

Each pass splits a workload's fixed operations into two shards of about
equal run time and runs each shard, in the seed's order, in a fresh worker
process (``worker.py``), because thetacert memoizes shell series, vectors
and Gram decompositions and a CLI user pays those cold costs on every
command.  At most ``nproc`` workers run at once, each with one BLAS thread.
Passes repeat for about ``--seconds`` of measured time, and ``wall_s`` is
their median.  Before and after them, set-up-only workers measure the cold
set-up time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, with the wall-time difference as ``trace.overhead_s``.  The last line
of standard output is the result JSON; the line before it is the answer
ledger with environment details, also written to ``perfbench/_out/``.

Exit status is 0 with a result, 1 when a worker breaks, and 2 when the
checkout has no thetacert sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SHARDS = 2
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("failed_frac", "1"))


class HarnessError(RuntimeError):
    """A worker broke or hung: the run has no trustworthy result."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("THETA_CERT_BUDGET", None)
    # the simplex's answers depend on the BLAS thread count, which by default
    # follows the core count; one thread makes them the same on every machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_workers(specs: list[dict]) -> list[dict]:
    """Run one worker per spec, at most ``nproc`` at a time; return their
    results in spec order."""
    limit = max(1, min(len(specs), os.cpu_count() or 1))
    env = _worker_env()
    results = []
    for first in range(0, len(specs), limit):
        batch = []
        try:
            for spec in specs[first : first + limit]:
                spec_path = Path(spec["result"]).with_suffix(".spec")
                err_path = Path(spec["result"]).with_suffix(".err")
                spec["spawn_time"] = time.monotonic()
                spec_path.write_text(json.dumps(spec))
                with open(err_path, "w", encoding="utf-8") as err:
                    proc = subprocess.Popen(
                        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL, stderr=err,
                    )
                batch.append((proc, spec, err_path))
            deadline = time.monotonic() + WORKER_TIMEOUT_S
            for proc, _, _ in batch:
                try:
                    proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
        finally:
            for proc, _, _ in batch:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        for proc, spec, err_path in batch:
            if proc.returncode != 0 or not Path(spec["result"]).is_file():
                tail = err_path.read_text(errors="replace")[-2000:]
                raise HarnessError(f"worker exited with {proc.returncode}:\n{tail}")
            results.append(json.loads(Path(spec["result"]).read_text()))
    return results


def _spec(ops, trace: bool, setup_only: bool, name: str, workdir: Path, out_dir: Path) -> dict:
    return {
        "ops": [dataclasses.asdict(op) for op in ops],
        "trace": trace,
        "setup_only": setup_only,
        "workdir": str(workdir / name),
        "result": str(workdir / f"{name}.json"),
        "spans": str(out_dir / f"spans-{name}.tsv"),
    }


def _run_pass(shard_ops, trace: bool, index: int, workload: str, workdir: Path, out_dir: Path) -> dict:
    shards = _run_workers([
        _spec(ops, trace, False, f"{workload}-pass{index}-shard{k}", workdir, out_dir)
        for k, ops in enumerate(shard_ops) if ops
    ])
    return {
        "traced": trace,
        "wall_s": max(s["wall_s"] for s in shards),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in shards),
        "shard_wall_s": [s["wall_s"] for s in shards],
        "shard_setup_s": [s["setup_s"] for s in shards],
        "untraced_names": sorted({n for s in shards for n in s.get("untraced_names", [])}),
        "records": [r for s in shards for r in s["records"]],
        "layers": tracing.merge([s["layers"] for s in shards]) if trace else None,
    }


def tail_summary(values: list[float]) -> dict:
    """Median, and the highest whole percentile with at least ten samples
    above it (nearest rank), with the sample count."""
    out: dict = {"samples": len(values)}
    if not values:
        return out
    out["median"] = statistics.median(values)
    p = math.floor(100 * (1 - 10 / len(values))) if len(values) > 10 else 0
    if p > 50:
        ranked = sorted(values)
        out[f"p{p}"] = ranked[math.ceil(p / 100 * len(values)) - 1]
    return out


def environment() -> dict:
    """Machine and library versions recorded with every result."""
    info: dict = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    for pkg in ("numpy", "mpmath", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def _ledger(passes: list[dict]) -> tuple[list[dict], list[dict], int, int, list[float]]:
    """Per-op ledger, failures, attempted and failed counts over all passes,
    and every untraced op time.

    An op fails when its check fails, or when its answer differs from the
    answer the same op gave in the run's first pass.
    """
    first: dict[str, dict] = {}
    seconds: dict[str, list[float]] = {}
    failures = []
    attempted = failed = 0
    for index, p in enumerate(passes):
        for r in p["records"]:
            attempted += 1
            ref = first.setdefault(r["id"], r)
            mismatch = ref["answer"] != r["answer"]
            if not p["traced"]:
                seconds.setdefault(r["id"], []).append(r["seconds"])
            if r["ok"] and not mismatch:
                continue
            failed += 1
            failures.append({
                "pass": index,
                "id": r["id"],
                "reason": "answer differs from the first pass" if mismatch else r["reason"],
                "known_cause": None if mismatch else workloads.KNOWN_DEFECTS.get(r["id"]),
            })
    ledger = [
        {
            "id": op_id,
            "seconds": statistics.median(seconds[op_id]) if op_id in seconds else None,
            "answer": r["answer"],
            "reference": r["reference"],
            "ok": r["ok"],
            "reason": r["reason"],
            "known_cause": workloads.KNOWN_DEFECTS.get(op_id),
        }
        for op_id, r in sorted(first.items())
    ]
    samples = [x for values in seconds.values() for x in values]
    return ledger, failures, attempted, failed, samples


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, inject_failure: bool = False) -> tuple[dict, dict]:
    """Run one benchmark run; return (result line, detail ledger).

    ``smoke`` keeps one pass of the workload's ``SMOKE_OPS`` op;
    ``inject_failure`` adds an op that always raises.  Both exist for
    ``selfcheck.py``.
    """
    ops = workloads.plan(workload, seed)
    if smoke:
        ops = [op for op in ops if op.id == workloads.SMOKE_OPS[workload]]
    if inject_failure:
        ops.append(workloads.OpSpec("injected failure", "injected"))
    shard_ops = workloads.shards(ops, SHARDS, seed)

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    for old in out_dir.glob(f"spans-{workload}-*.tsv"):
        old.unlink()
    workdir = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        def probe(i: int) -> float:
            return _run_workers([_spec(ops, False, True, f"setup{i}", workdir, out_dir)])[0]["setup_s"]

        # setup_s is an end-to-end metric, so traced runs skip the probes;
        # half run before the passes and half after, so one burst of
        # machine load cannot sway all of them
        wanted = 0 if trace else 1 if smoke else SETUP_PROBES
        probes = [probe(i) for i in range((wanted + 1) // 2)]
        passes: list[dict] = []
        while True:
            passes.append(_run_pass(shard_ops, False, len(passes), workload, workdir, out_dir))
            if trace:
                passes.append(_run_pass(shard_ops, True, len(passes), workload, workdir, out_dir))
            # stop when one more round (a pass, or a pass pair when traced)
            # would overshoot --seconds by more than stopping now falls short
            busy = sum(p["wall_s"] for p in passes)
            round_s = busy / len(passes) * (2 if trace else 1)
            if smoke or busy + round_s / 2 >= seconds:
                break
        probes += [probe(i) for i in range(len(probes), wanted)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger, failures, attempted, failed, op_samples = _ledger(passes)
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(probes),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "failed_frac": failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {
        "correct": all(f["known_cause"] for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup_probes_s": probes,
        "wall_s": tail_summary([p["wall_s"] for p in plain]),
        "op_seconds": tail_summary(op_samples),
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "shard_wall_s", "shard_setup_s", "peak_rss_mb",
                               "untraced_names")}
            for p in passes
        ],
        "failures": failures,
        "ledger": ledger,
    }
    (out_dir / f"last-{workload}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thetacert" / "__init__.py").is_file():
        print(f"error: no thetacert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a terminated run still stops its workers (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
