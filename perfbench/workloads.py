"""What each workload runs, and how each answer is checked.

A workload is a fixed list of operations.  :func:`plan` describes them as
plain data (no thetacert import) and :func:`shards` splits them for the
workers of a pass.  Inside a worker, :func:`prepare` turns the specs into
callables (this is the timed set-up), each op runs once in the timed
region, and :func:`check` compares its result with an independent reference
afterwards.

Why each workload exists:

* ``lp_solve``: the dense simplex and the constraint-generation loop over
  the full (n, t) matrix, with no audit; it mixes cheap optima with the slow
  (10, 1) and (16, 0.5) cells a solver change must move.
* ``audit_ledger``: the mpmath audits, certificate evaluation, structured
  shell series and the CLI's JSON output, driven through ``cli.main`` on
  stored LP certificates, so no simplex work is timed.
* ``shells_exact``: exact shell enumeration, the collecting search, long
  structured series and the theta identities, with no simplex and no
  ``eval_mp``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import references

WORKLOADS = ("lp_solve", "audit_ledger", "shells_exact")

DIMS = (8, 9, 10, 12, 16)
WIDTHS = (0.3, 0.5, 1.0, 2.0, 5.0)
LP_MATRIX = tuple((n, t) for n in DIMS for t in WIDTHS)

DATA = Path(__file__).resolve().parent / "data"

#: Audit ops that run the rotation check; Z^n vectors up to norm 6 are
#: enumerated for each distinct n, so the subset stays at n <= 9.
ROTATION_CELLS = ((8, 1.0), (8, 2.0), (9, 2.0))

#: (certificate cells, audit width): a pair (chain, graded and sequence
#: audits) and a family of three (chain and sequence audits).
FAMILIES = (
    (((8, 1.0), (8, 2.0)), 1.0),
    (((8, 1.0), (8, 2.0), (8, 5.0)), 2.0),
)

#: Seeded Gaussian combinations, audited as one family per cell through the
#: CLI (a chain audit each, then the sequence audit).  Each has three
#: positive terms on the dictionary widths nearest t, so its transform is
#: positive on every shell and the only correct verdict is Violated.  Whether
#: the (16, 0.3) chain closes depends on how the coefficients round (it
#: failed for 39 of 40 seeds tried); three per family make the outcome of
#: the op the same for every seed.
COMBO_CELLS = ((16, 0.3), (24, 0.5), (24, 1.0))
COMBOS_PER_CELL = 3
_COMBO_WIDTH_INDEX = (11, 12, 13)

#: Failures measured at the commit that introduced the benchmark, with their
#: causes.  They stay in every run and count in ``failed``; only a failure
#: outside this list makes a run incorrect.
KNOWN_DEFECTS = {
    **{
        f"lp n{n} t{t}": "solve_lp ends IterLimit: no seed-ladder rung certifies a terminal state"
        for n, t in (
            (8, 0.3), (9, 0.3), (9, 0.5), (10, 0.3), (10, 0.5), (10, 1.0),
            (12, 1.0), (12, 2.0), (16, 0.5), (16, 1.0),
        )
    },
    **{
        f"lp n{n} t{t}": (
            "certified Unbounded, but HiGHS finds an optimum: the ray check accepts "
            "rows broken by up to _CG_TOL relative to row scale"
        )
        for n, t in ((12, 0.3), (12, 0.5), (16, 2.0))
    },
    "audit n9 t1.0": (
        "the LP certificate is judged Violated at shell 16: its slack -1.15e-10 passes "
        "the LP tolerance 1e-9 but not SIGN_TOL 1e-10"
    ),
    "combos n16 t0.3": (
        "false AuditError: the lattice mass and transform coefficients are rounded "
        "to double before the absolute CHAIN_TOL check"
    ),
    "combos n24 t0.5": (
        "false AuditError: the lattice mass and transform coefficients are rounded "
        "to double before the absolute CHAIN_TOL check"
    ),
    "mass rawE8 t5": (
        "gaussian_mass abs_error omits the rounding of the value to double, so the "
        "true mass lies outside value +- abs_error"
    ),
}


#: A cheap op per workload that is not a known defect, for the self-check.
SMOKE_OPS = {
    "lp_solve": "lp n8 t0.5",
    "audit_ledger": "poisson n8 t1.0 on E8",
    "shells_exact": "cli lattice E8+Z4 8",
}


@dataclass(frozen=True)
class OpSpec:
    """One operation of a workload, as plain data."""

    id: str
    kind: str
    params: dict = field(default_factory=dict)


def cert_name(n: int, t: float) -> str:
    """File name of the LP-optimal certificate of cell (n, t) under data/."""
    return f"cert_n{n}_t{t}.json"


def optimal_cells() -> list[tuple[int, float]]:
    """Cells of the LP matrix whose stored solve was Optimal."""
    cells = json.loads((DATA / "lp_matrix.json").read_text())["cells"]
    return [(c["n"], c["t"]) for c in cells if c["certificate"] is not None]


def _cert(n: int, t: float) -> str:
    return str(DATA / cert_name(n, t))


def plan(workload: str, seed: int) -> list[OpSpec]:
    """The operations of one pass; the seed picks only generated inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lp_solve":
        return [
            OpSpec(f"lp n{n} t{t}", "lp", {"n": n, "t": t})
            for n, t in LP_MATRIX
        ]
    if workload == "audit_ledger":
        ops = []
        for n, t in optimal_cells():
            ops.append(OpSpec(
                f"audit n{n} t{t}", "cli",
                {"argv": ["audit", _cert(n, t), "--t", str(t), "--audit-e8"],
                 "expect": "lp_cert", "own": [0]},
            ))
        for n, t in ROTATION_CELLS:
            ops.append(OpSpec(
                f"rotation n{n} t{t}", "cli",
                {"argv": ["audit", _cert(n, t), "--t", str(t), "--seed", str(rng.randrange(1, 10**6))],
                 "expect": "lp_cert", "own": [0]},
            ))
        for cells, t in FAMILIES:
            label = "+".join(f"n{n}t{tc}" for n, tc in cells)
            ops.append(OpSpec(
                f"family {label} at t{t}", "cli",
                {"argv": ["audit", *(_cert(n, tc) for n, tc in cells), "--t", str(t)],
                 "expect": "family", "own": [i for i, (_, tc) in enumerate(cells) if tc == t]},
            ))
        for (n, t), spec in (((8, 1.0), "E8"), ((12, 5.0), "E8+Z4")):
            ops.append(OpSpec(
                f"poisson n{n} t{t} on {spec}", "cli",
                {"argv": ["poisson", _cert(n, t), "--lattice", spec], "expect": "poisson"},
            ))
        for n, t in COMBO_CELLS:
            coeffs = [[rng.uniform(0.5, 1.5) for _ in _COMBO_WIDTH_INDEX]
                      for _ in range(COMBOS_PER_CELL)]
            ops.append(OpSpec(
                f"combos n{n} t{t}", "combos",
                {"n": n, "t": t, "coeffs": coeffs, "expect": "combos"},
            ))
        return ops
    if workload == "shells_exact":
        ops = [
            OpSpec(f"enumerate raw{name} 10", "enumerate", {"lattice": name, "depth": 10})
            for name in ("Z8", "D8", "E8")
        ]
        ops.append(OpSpec("mass rawE8 t5", "mass", {"lattice": "E8", "t": 5.0}))
        ops.append(OpSpec("vectors E8 6", "vectors", {"depth": 6}))
        ops += [
            OpSpec(f"series {name} {depth}", "series", {"lattice": name, "depth": depth})
            for name, depth in (("Z8", 4096), ("E8+Z4", 4096), ("D16", 1024))
        ]
        ops += [OpSpec(f"identities t{t}", "identities", {"t": t}) for t in (0.3, 1.0, 5.0)]
        ops.append(OpSpec("functional equation E8 t1", "fe", {"t": 1.0}))
        ops.append(OpSpec(
            "cli lattice E8+Z4 8", "cli",
            {"argv": ["lattice", "--lattice", "E8+Z4", "--shells", "8"], "expect": "lattice"},
        ))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def shards(ops: list[OpSpec], count: int, seed: int) -> list[list[OpSpec]]:
    """Split the ops of a pass into ``count`` shards of about equal run time.

    Longest first onto the least-loaded shard, by the op times in
    ``data/op_seconds.json`` (one serial pass on a 2-vCPU VM; an op missing
    there counts as one second).  The split ignores the seed, so every run
    does the same work per shard; the seed only orders each shard.
    """
    seconds = json.loads((DATA / "op_seconds.json").read_text())
    bins: list[list[OpSpec]] = [[] for _ in range(count)]
    load = [0.0] * count
    for op in sorted(ops, key=lambda o: (-seconds.get(o.id, 1.0), o.id)):
        k = load.index(min(load))
        bins[k].append(op)
        load[k] += seconds.get(op.id, 1.0)
    for k, ops_k in enumerate(bins):
        ops_k.sort(key=lambda o: o.id)
        random.Random(f"order:{seed}:{k}").shuffle(ops_k)
    return bins


# --------------------------------------------------------------------------
# set-up: specs to callables (runs inside a worker, after importing thetacert)


@dataclass
class Prepared:
    spec: OpSpec
    run: object
    context: dict = field(default_factory=dict)


def _raw(tc, name: str):
    """A copy of a named lattice with the same basis rows and no structure tag,
    so every shell computation goes through the coordinate search."""
    lat = tc.make_named(name)
    return tc.lattice_from_rows(lat.basis, name=f"raw{name}")


def _run_cli(tc, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def prepare(spec: OpSpec, tc, workdir: Path) -> Prepared:
    """Build the inputs of one op and return its timed callable.

    ``tc`` is the imported ``thetacert`` package.  Every call goes through a
    module attribute looked up at call time, so trace wrappers installed
    after set-up see it.
    """
    p = spec.params
    if spec.kind == "lp":
        problem = tc.lp.build_lp(p["n"], p["t"])
        return Prepared(spec, lambda: tc.lp.solve_lp(problem), {"problem": problem})
    if spec.kind == "cli":
        argv = list(p["argv"])
        return Prepared(spec, lambda: _run_cli(tc, argv))
    if spec.kind == "combos":
        widths = tc.lp.default_dictionary(p["t"])
        argv = ["audit"]
        for j, coeffs in enumerate(p["coeffs"]):
            combo = tc.GaussianCombo(
                dim=p["n"], terms=tuple((c, widths[i]) for c, i in zip(coeffs, _COMBO_WIDTH_INDEX))
            )
            path = workdir / f"combo_n{p['n']}_t{p['t']}_{j}.json"
            path.write_text(json.dumps(tc.combo_to_json(combo), sort_keys=True))
            argv.append(str(path))
        argv += ["--t", str(p["t"])]
        return Prepared(spec, lambda: _run_cli(tc, argv))
    if spec.kind == "enumerate":
        lat = _raw(tc, p["lattice"])
        return Prepared(spec, lambda: tc.lattices.enumerate_shells(lat, p["depth"]))
    if spec.kind == "mass":
        lat = _raw(tc, p["lattice"])
        return Prepared(spec, lambda: tc.theta.gaussian_mass(lat, p["t"]))
    if spec.kind == "vectors":
        lat = tc.e8()
        return Prepared(spec, lambda: tc.lattices.enumerate_vectors(lat, p["depth"]), {"lattice": lat})
    if spec.kind == "series":
        lat = tc.make_named(p["lattice"])
        return Prepared(spec, lambda: tc.lattices.shell_series(lat, p["depth"]))
    if spec.kind == "identities":
        return Prepared(spec, lambda: tc.theta.identity_suite(p["t"]))
    if spec.kind == "fe":
        lat = tc.e8()
        return Prepared(spec, lambda: tc.theta.functional_equation_residual(lat, p["t"]))
    if spec.kind == "injected":
        return Prepared(spec, _injected_failure)
    raise ValueError(f"unknown op kind {spec.kind!r}")


def _injected_failure():
    """Op used by the harness self-check to prove a failure is counted."""
    raise RuntimeError("injected failure")


# --------------------------------------------------------------------------
# answers and reference checks (outside the timed region)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def check(prep: Prepared, result) -> tuple[dict, bool, str, dict]:
    """(answer, ok, reason, reference) for one op's result.

    ``answer`` holds only what the program returned, in a form that compares
    exactly between runs; ``reference`` holds what the check computed.
    """
    if isinstance(result, BaseException):
        return {"raised": type(result).__name__, "message": str(result)[:200]}, False, \
            f"raised {type(result).__name__}", {}
    kind = prep.spec.kind
    if kind == "lp":
        return _check_lp(prep, result)
    if kind in ("cli", "combos"):
        return _check_cli(prep, result)
    return _check_exact(prep, result)


def _check_lp(prep: Prepared, sol) -> tuple[dict, bool, str, dict]:
    answer = {
        "status": sol.status,
        "objective": repr(sol.objective),
        "epsilon": repr(sol.epsilon),
        "pivots": sol.iterations,
    }
    ref_status, ref_obj = references.highs_solve(prep.context["problem"])
    ref = {"highs_status": ref_status, "highs_objective": repr(ref_obj), "rel_diff": None}
    if sol.status == "IterLimit":
        return answer, False, "IterLimit", ref
    if ref_status == "Inconclusive":
        return answer, True, "HiGHS reports numerical difficulties; status unverified", ref
    if ref_status != sol.status:
        return answer, False, f"status {sol.status}, HiGHS {ref_status}", ref
    if sol.status == "Optimal":
        ref["rel_diff"] = abs(sol.objective - ref_obj) / max(1.0, abs(ref_obj))
    return answer, True, "", ref


def _reports(payload: dict) -> list[dict]:
    return [r for key in ("chain", "graded", "sequence") for r in payload.get(key, [])]


def _check_cli(prep: Prepared, result) -> tuple[dict, bool, str, dict]:
    code, out, err = result
    p = prep.spec.params
    answer = {"exit": code, "digest": _digest(out), "bytes": len(out)}
    if not out:
        answer["stderr"] = err.strip()[:200]
        return answer, False, f"exit {code} without a report: {err.strip()[:120]}", {}
    payload = json.loads(out)
    expect = p["expect"]
    if expect == "lattice":
        answer["counts"] = payload["counts"]
        ref = references.shell_counts("E8+Z4", len(payload["counts"]) - 1)
        ok = (code == 0 and references.counts_agree(payload["counts"], ref)
              and payload["unimodular"] and payload["determinant"] == "1")
        return answer, ok, "" if ok else "lattice invariants disagree with closed forms", {}
    if expect == "poisson":
        answer["ok"] = [c["ok"] for c in payload["checks"]]
        ok = code == 0 and all(answer["ok"])
        return answer, ok, "" if ok else "Poisson identity reported broken for a Gaussian combination", {}

    chain = payload.get("chain", [])
    answer["verdicts"] = [r["verdict"] for r in _reports(payload)]
    answer["depths"] = [r["depth"] for r in _reports(payload)]
    answer["violated_shells"] = [r.get("violated_shell") for r in chain]
    answer["failing_steps"] = [c["failing_step"] for c in payload.get("collapse", [])]
    violated = any(v == "Violated" for v in answer["verdicts"])
    if code != (2 if violated else 0):
        return answer, False, f"exit {code} does not match the verdicts", {}
    if expect == "combos":
        # positive coefficients make the transform positive on every shell
        ok = all(v == "Violated" for v in answer["verdicts"])
        return answer, ok, "" if ok else "a positive-transform combination was not Violated", {}
    for i in p["own"]:
        if chain[i]["verdict"] == "Violated":
            return answer, False, (
                f"LP certificate judged Violated at shell {chain[i]['violated_shell']} "
                f"({chain[i]['violated_condition']})"
            ), {}
    if any(step is None for step in answer["failing_steps"]):
        return answer, False, "collapse audit of a genuine certificate names no failing step", {}
    return answer, True, "", {}


def _check_exact(prep: Prepared, result) -> tuple[dict, bool, str, dict]:
    kind, p = prep.spec.kind, prep.spec.params
    if kind in ("enumerate", "series"):
        counts = list(result.counts)
        ref = references.shell_counts(p["lattice"], p["depth"])
        ok = references.counts_agree(counts, ref)
        answer = {"digest": _digest(counts), "total": sum(counts)}
        return answer, ok, "" if ok else "shell counts disagree with the closed form", {}
    if kind == "mass":
        ref = references.e8_mass(p["t"])
        err = float(abs(ref - result.value))
        answer = {"value": repr(result.value), "abs_error": repr(result.abs_error)}
        ok = abs(ref - result.value) <= result.abs_error
        reason = "" if ok else f"true mass is {err:.3g} away, stated abs_error {result.abs_error:.3g}"
        return answer, ok, reason, {"mass": str(ref), "error": err}
    if kind == "vectors":
        counts, norms_ok = references.check_vectors(result, prep.context["lattice"])
        ref = references.shell_counts("E8", p["depth"])
        ok = norms_ok and references.counts_agree(counts, ref)
        answer = {"counts": counts, "digest": _digest({m: v.tolist() for m, v in result.items()})}
        return answer, ok, "" if ok else "collected vectors disagree with the closed form", {}
    if kind == "identities":
        answer = {k: repr(v) for k, v in result.items()}
        worst = max(v for k, v in result.items() if k != "gap_positive")
        ok = worst <= 1e-12 and result["gap_positive"] > 0
        return answer, ok, "" if ok else f"identity residual {worst:.3g}", {}
    if kind == "fe":
        # each side's certified tail is below tol/4 with the default tol 1e-11
        ok = result <= 5e-12
        return {"residual": repr(result)}, ok, "" if ok else f"residual {result:.3g}", {}
    raise ValueError(f"unknown op kind {kind!r}")
