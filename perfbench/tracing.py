"""Spans around thetacert's public functions, installed from outside.

A :class:`Tracer` rebinds each traced name where its callers look it up (a
module attribute or a class attribute) to a wrapper that records a span:
name, start, end and the id of the enclosing span.  Spans stay in memory in
flat arrays and are written out when the pass ends.  :func:`layer_metrics`
turns them into per-layer busy times, self times (span minus the time its
child spans cover) and counts.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Per-layer metrics of a traced run: (name, unit).
PER_LAYER = (
    ("simplex.solve_s", "s"),
    ("simplex.calls", "count"),
    ("simplex.pivots", "count"),
    ("lp.solve_lp_s", "s"),
    ("lp.self_s", "s"),
    ("lp.pivots", "count"),
    ("lp.cg_rounds", "count"),
    ("lp.certified_frac", "1"),
    ("lp.highs_rel_diff_max", "1"),
    ("certificates.eval_mp_s", "s"),
    ("certificates.eval_mp_calls", "count"),
    ("certificates.poisson_check_s", "s"),
    ("audits.chain_audit_s", "s"),
    ("audits.e8_collapse_audit_s", "s"),
    ("audits.graded_audit_s", "s"),
    ("audits.sequence_audit_s", "s"),
    ("audits.self_s", "s"),
    ("audits.depth_sum", "count"),
    ("audits.rotation_s", "s"),
    ("audits.audit_errors", "count"),
    ("lattices.shell_series_s", "s"),
    ("lattices.shell_series_depth_sum", "count"),
    ("lattices.enumerate_shells_s", "s"),
    ("lattices.enumerate_vectors_s", "s"),
    ("lattices.vectors_visited", "count"),
    ("theta.gaussian_mass_s", "s"),
    ("theta.gaussian_mass_calls", "count"),
    ("theta.identity_suite_s", "s"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_s", "s"),
)


def _series_depth(series) -> dict:
    return {"depth": series.max_norm}


def _shell_total(series) -> dict:
    return {"vectors": sum(series.counts)}


def _new_vector_total():
    """Counter for the memoized collecting search: a result object seen
    before came from the cache, so its vectors were not visited again."""
    seen: set[int] = set()

    def count(by_norm) -> dict:
        if id(by_norm) in seen:
            return {}
        seen.add(id(by_norm))
        return {"vectors": sum(len(v) for v in by_norm.values())}

    return count


def _iterations(res) -> dict:
    return {"pivots": res.iterations}


def _lp_outcome(sol) -> dict:
    return {"pivots": sol.iterations, "certified": int(sol.status != "IterLimit")}


def _report_depth(report) -> dict:
    return {"depth": report.depth}


def targets(tc) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter function) for every traced name.

    ``tc`` is the imported thetacert package.  A function imported by name
    into several modules is rebound in each of them, so every caller's
    lookup reaches the wrapper.
    """
    out = [
        (tc.lp, "solve_inequalities", "simplex.solve_inequalities", _iterations),
        (tc.lp, "solve_lp", "lp.solve_lp", _lp_outcome),
        (tc.certificates.GaussianCombo, "eval_mp", "certificates.eval_mp", None),
        (tc.audits, "_rotation_check", "audits.rotation", None),
        (tc.lattices.RotatedLattice, "rotated_vectors", "lattices.rotated_vectors", None),
        (tc.lattices, "enumerate_shells", "lattices.enumerate_shells", _shell_total),
        (tc.lattices, "enumerate_vectors", "lattices.enumerate_vectors", _new_vector_total()),
        (tc.cli, "main", "cli.main", None),
    ]
    for name in ("chain_audit", "e8_collapse_audit", "graded_audit", "sequence_audit"):
        out.append((tc.audits, name, f"audits.{name}", _report_depth))
    for module in (tc.certificates, tc.cli):
        out.append((module, "poisson_check", "certificates.poisson_check", None))
    for module in (tc.lattices, tc.theta, tc.audits, tc.certificates, tc.cli):
        out.append((module, "shell_series", "lattices.shell_series", _series_depth))
    for module in (tc.theta, tc.audits, tc.lp, tc.cli):
        out.append((module, "gaussian_mass", "theta.gaussian_mass", None))
    for module in (tc.theta, tc.cli):
        out.append((module, "identity_suite", "theta.identity_suite", None))
    return out


class Tracer:
    """In-memory span recorder.

    Span i has name ``names[name_id[i]]``, parent ``parent[i]`` (-1 at top
    level), and times ``start[i]``/``end[i]`` from ``time.perf_counter``.
    ``counters`` maps (span name, counter) to a total; ``errors`` counts
    exceptions leaving a span, by span name and exception type.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.errors: dict[tuple[str, str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, span_name: str, fn, counter=None):
        nid = self._name_ids.setdefault(span_name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(span_name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                parent_name = self.names[self.name_id[stack[-2]]] if len(stack) > 1 else ""
                self.errors[(span_name, type(exc).__name__, parent_name)] += 1
                raise
            finally:
                stack.pop()
                self.end[sid] = clock()
            if counter is not None:
                for key, value in counter(result).items():
                    self.counters[(span_name, key)] += value
            return result

        return traced

    def install(self, tc) -> list[str]:
        """Wrap every target that exists; returns the ones that do not."""
        missing = []
        for owner, attr, span_name, counter in targets(tc):
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original, counter))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Spans as text, one per line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Busy time, self time and counts per span name and per layer.

    Busy time of a name sums only spans with no ancestor of the same name,
    so recursion is not counted twice.  Self time of a span is its duration
    minus the durations of its direct children, which run one after another
    inside it.
    """
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child_time[p] += dur[i]
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    for i in range(n):
        name = tracer.names[tracer.name_id[i]]
        calls[name] += 1
        self_time[_layer(name)] += dur[i] - child_time[i]
        p = tracer.parent[i]
        while p >= 0 and tracer.name_id[p] != tracer.name_id[i]:
            p = tracer.parent[p]
        if p < 0:
            busy[name] += dur[i]
    c = tracer.counters
    audit_errors = sum(
        count for (name, exc, parent), count in tracer.errors.items()
        if name.startswith("audits.") and exc == "AuditError" and not parent.startswith("audits.")
    )
    return {
        "simplex.solve_s": busy["simplex.solve_inequalities"],
        "simplex.calls": calls["simplex.solve_inequalities"],
        "simplex.pivots": c[("simplex.solve_inequalities", "pivots")],
        "lp.solve_lp_s": busy["lp.solve_lp"],
        "lp.self_s": self_time["lp"],
        "lp.pivots": c[("lp.solve_lp", "pivots")],
        "lp.calls": calls["lp.solve_lp"],
        "lp.certified": c[("lp.solve_lp", "certified")],
        "certificates.eval_mp_s": busy["certificates.eval_mp"],
        "certificates.eval_mp_calls": calls["certificates.eval_mp"],
        "certificates.poisson_check_s": busy["certificates.poisson_check"],
        "audits.chain_audit_s": busy["audits.chain_audit"],
        "audits.e8_collapse_audit_s": busy["audits.e8_collapse_audit"],
        "audits.graded_audit_s": busy["audits.graded_audit"],
        "audits.sequence_audit_s": busy["audits.sequence_audit"],
        "audits.self_s": self_time["audits"],
        "audits.depth_sum": sum(v for (name, key), v in c.items()
                                if name.startswith("audits.") and key == "depth"),
        "audits.rotation_s": busy["audits.rotation"],
        "audits.audit_errors": audit_errors,
        "lattices.shell_series_s": busy["lattices.shell_series"],
        "lattices.shell_series_depth_sum": c[("lattices.shell_series", "depth")],
        "lattices.enumerate_shells_s": busy["lattices.enumerate_shells"],
        "lattices.enumerate_vectors_s": busy["lattices.enumerate_vectors"],
        "lattices.vectors_visited": c[("lattices.enumerate_shells", "vectors")]
        + c[("lattices.enumerate_vectors", "vectors")],
        "theta.gaussian_mass_s": busy["theta.gaussian_mass"],
        "theta.gaussian_mass_calls": calls["theta.gaussian_mass"],
        "theta.identity_suite_s": busy["theta.identity_suite"],
        "cli.main_s": busy["cli.main"],
        "cli.self_s": self_time["cli"],
    }


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of a pass from those of its shards.

    Times and counts add up, the HiGHS difference is a maximum, and the two
    LP ratios are formed from the summed counts (only lp's constraint
    generation calls the simplex, so its calls are the LP's rounds).
    """
    total: dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            if key == "lp.highs_rel_diff_max":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    calls = total.pop("lp.calls")
    certified = total.pop("lp.certified")
    total["lp.cg_rounds"] = total["simplex.calls"] / calls if calls else 0.0
    total["lp.certified_frac"] = certified / calls if calls else 0.0
    return dict(total)
