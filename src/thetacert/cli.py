"""Batch command line for theta evaluation, certificate LPs, and audits.

One process per command, machine-readable JSON on stdout, deterministic
output for fixed inputs.  Subcommands:

* ``theta``    -- Gaussian mass, identity suite, or the Z8/E8 gap
* ``lattice``  -- invariants and shell counts of a named lattice
* ``lp``       -- build, solve, and verify a certificate LP
* ``audit``    -- saturation audits of certificate files
* ``poisson``  -- functional-equation check of a certificate file

Exit codes: 0 success (and verification passed where applicable), 2 a
verification or audit failed, 3 the configuration was unusable, 4 the
enumeration budget (env ``THETA_CERT_BUDGET``) was exhausted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

from . import audits, lp
from .certificates import combo_from_json, poisson_check
from .lattices import (
    BUDGET_ENV_VAR,
    BudgetExceededError,
    LatticeError,
    determinant,
    is_integral,
    is_unimodular,
    make_named,
    random_rotation,
    shell_series,
    stability_certificate,
    zn,
)
from .theta import (
    InsufficientShellsError,
    gaussian_mass,
    identity_suite,
    mass_gap,
    secrecy_function,
)

__all__ = ["RunConfig", "config_from_json", "console_main", "main"]

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_CONFIG = 3
EXIT_BUDGET = 4

_IDENTITY_TOL = 1e-12

#: Lattice of the theta, lattice and poisson commands when none is named;
#: audit instead defaults to Z^n of the certificates' dimension.
_DEFAULT_LATTICE = "Z8"


@dataclass(frozen=True)
class RunConfig:
    """Canonical, JSON-round-trippable description of one CLI invocation."""

    command: str
    lattice_spec: str | None = None
    t: tuple[float, ...] = (1.0,)
    dictionary: str | tuple[float, ...] = "default"
    verify_depth: int | None = None
    max_shell: int = lp.DEFAULT_MAX_SHELL
    dim: int = 8
    tolerance: float = 1e-9
    seed: int | None = None
    certificates: tuple[str, ...] = ()
    identity_suite: bool = False
    gap: bool = False
    audit_e8: bool = False
    pretty: bool = False
    out: str | None = None

    def __post_init__(self) -> None:
        if self.command not in ("theta", "lattice", "lp", "audit", "poisson"):
            raise ValueError(f"unknown command {self.command!r}")
        if len(self.t) == 0:
            raise ValueError("need at least one t value")
        for tv in self.t:
            if not (isinstance(tv, (int, float)) and tv > 0):
                raise ValueError(f"t values must be positive, got {tv!r}")

    def canonical_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["schema"] = "v1"
        payload["t"] = list(self.t)
        payload["certificates"] = list(self.certificates)
        if not isinstance(self.dictionary, str):
            payload["dictionary"] = list(self.dictionary)
        return json.dumps(payload, sort_keys=True)


def config_from_json(text: str) -> RunConfig:
    data = json.loads(text)
    data.pop("schema", None)
    if "t" in data:
        data["t"] = tuple(float(v) for v in data["t"])
    if "certificates" in data:
        data["certificates"] = tuple(data["certificates"])
    if "dictionary" in data and not isinstance(data["dictionary"], str):
        data["dictionary"] = tuple(float(v) for v in data["dictionary"])
    try:
        return RunConfig(**data)
    except TypeError as exc:
        raise ValueError(f"malformed run config: {exc}") from exc


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetacert",
        description="Gaussian-mass certificates for unimodular lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_t: bool = True) -> None:
        p.add_argument("--config", help="JSON run config; explicit flags override it")
        p.add_argument("--lattice", dest="lattice_spec", help="lattice name, e.g. Z8 or E8+Z4")
        if with_t:
            p.add_argument("--t", type=float, nargs="+", help="Gaussian width(s)")
        p.add_argument("--pretty", action="store_true", default=None,
                       help="human-readable summary instead of JSON")
        p.add_argument("--out", help="also write the JSON report to this file")
        p.add_argument("--seed", type=int, help="seed for rotation checks")

    p = sub.add_parser("theta", help="evaluate Gaussian mass and identities")
    common(p)
    p.add_argument("--identity-suite", dest="identity_suite", action="store_true",
                   default=None, help="run the classical identity residuals")
    p.add_argument("--gap", action="store_true", default=None,
                   help="report the Z8 versus E8 mass gap")

    p = sub.add_parser("lattice", help="invariants and shell counts")
    common(p, with_t=False)
    p.add_argument("--shells", dest="verify_depth", type=int, help="count shells up to this norm")

    p = sub.add_parser("lp", help="build, solve, and verify a certificate LP")
    common(p)
    p.add_argument("--n", dest="dim", type=int, help="ambient dimension")
    p.add_argument("--dict", dest="dictionary", help='"default", one width, or comma-separated widths')
    p.add_argument("--shells", dest="verify_depth", type=int,
                   help="minimum shell depth for verification")
    p.add_argument("--mc", dest="max_shell", type=int, help="constrained shell norms in the LP")
    p.add_argument("--audit-e8", dest="audit_e8", action="store_true", default=None,
                   help="append the collapse audit on E8 (+) Z^(n-8)")

    p = sub.add_parser("audit", help="saturation audits of certificate files")
    common(p)
    p.add_argument("certificates", nargs="+", help="certificate JSON files")
    p.add_argument("--n", dest="dim", type=int, help="ambient dimension")
    p.add_argument("--audit-e8", dest="audit_e8", action="store_true", default=None)

    p = sub.add_parser("poisson", help="functional-equation check of a certificate")
    common(p, with_t=False)
    p.add_argument("certificates", nargs="+", help="certificate JSON files")
    return parser


def _parse_dictionary(text: str):
    if text == "default":
        return "default"
    parts = [s for s in text.split(",") if s.strip()]
    return tuple(float(s) for s in parts)


def build_config(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    base: dict = {}
    if getattr(ns, "config", None):
        with open(ns.config, "r", encoding="utf-8") as fh:
            loaded = config_from_json(fh.read())
        base = dataclasses.asdict(loaded)
        base["t"] = loaded.t
        base["certificates"] = loaded.certificates
        base["dictionary"] = loaded.dictionary
    base["command"] = ns.command
    for key in (
        "lattice_spec", "t", "dictionary", "verify_depth", "max_shell", "dim",
        "seed", "certificates", "identity_suite", "gap", "audit_e8", "pretty", "out",
    ):
        value = getattr(ns, key, None)
        if value is None:
            continue
        if key == "t":
            value = tuple(float(v) for v in value)
        elif key == "dictionary":
            value = _parse_dictionary(value)
        elif key == "certificates":
            value = tuple(value)
        base[key] = value
    return RunConfig(**base)


# --------------------------------------------------------------------------
# commands


def cmd_theta(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.identity_suite:
        runs = []
        worst = 0.0
        positive = True
        for tv in cfg.t:
            res = identity_suite(tv)
            positive = positive and bool(res.pop("gap_positive"))
            worst = max(worst, max(res.values()))
            runs.append({"t": tv, "residuals": res})
        payload = {"mode": "identity_suite", "runs": runs, "worst_residual": worst,
                   "gap_positive": positive}
        code = EXIT_OK if worst <= _IDENTITY_TOL and positive else EXIT_VERIFY
        return payload, code
    if cfg.gap:
        rows = [{"t": tv, "gap": float(mass_gap(tv))} for tv in cfg.t]
        return {"mode": "gap", "values": rows}, EXIT_OK
    lat = make_named(cfg.lattice_spec or _DEFAULT_LATTICE)
    rows = []
    for tv in cfg.t:
        val = gaussian_mass(lat, tv)
        rows.append({"t": tv, "theta": float(val), "abs_error": val.abs_error})
    payload = {"mode": "mass", "lattice": lat.name, "dim": lat.dim, "values": rows}
    if is_integral(lat) and is_unimodular(lat):
        payload["secrecy_at_one"] = secrecy_function(lat, 1.0)
    return payload, EXIT_OK


def cmd_lattice(cfg: RunConfig) -> tuple[dict, int]:
    lat = make_named(cfg.lattice_spec or _DEFAULT_LATTICE)
    depth = cfg.verify_depth if cfg.verify_depth is not None else 10
    series = shell_series(lat, depth)
    payload = {
        "lattice": lat.name,
        "dim": lat.dim,
        "determinant": str(determinant(lat)),
        "integral": is_integral(lat),
        "unimodular": is_unimodular(lat),
        "stability": stability_certificate(lat),
        "counts": list(series.counts),
        "cumulative": [int(sum(series.counts[: m + 1])) for m in range(depth + 1)],
    }
    return payload, EXIT_OK


def _strip_rotation(report_json: str) -> dict:
    """Report payload with the seed-dependent fields removed, so fixed
    mathematical content serializes identically across seeds."""
    data = json.loads(report_json)
    data.pop("rotation_seed", None)
    data.pop("rotation_defect", None)
    return data


def cmd_lp(cfg: RunConfig) -> tuple[dict, int]:
    runs = []
    code = EXIT_OK
    for tv in cfg.t:
        problem = lp.build_lp(
            cfg.dim, tv, dict_spec=cfg.dictionary, max_shell=cfg.max_shell,
            tolerance=cfg.tolerance,
        )
        solution = lp.solve_lp(problem)
        entry: dict = {
            "t": tv,
            "problem": json.loads(lp.problem_to_json(problem)),
            "solution": json.loads(lp.solution_to_json(solution)),
        }
        if solution.status == "Optimal":
            combo = lp.certificate_of(problem, solution)
            report = audits.chain_audit(
                combo, zn(cfg.dim), tv, min_depth=cfg.verify_depth or 0
            )
            entry["verification"] = _strip_rotation(audits.report_to_json(report))
            if report.verdict == "Violated":
                code = max(code, EXIT_VERIFY)
            if cfg.audit_e8:
                collapse = audits.e8_collapse_audit(combo, cfg.dim, tv)
                entry["collapse"] = _collapse_payload(collapse)
        else:
            code = max(code, EXIT_VERIFY)
        runs.append(entry)
    return {"mode": "lp", "runs": runs}, code


def _collapse_payload(report: audits.CollapseReport) -> dict:
    payload = dataclasses.asdict(report)
    payload["lines"] = list(report.lines)
    return payload


def cmd_audit(cfg: RunConfig) -> tuple[dict, int]:
    combos = []
    for path in cfg.certificates:
        with open(path, "r", encoding="utf-8") as fh:
            combos.append(combo_from_json(json.load(fh)))
    dims = {h.dim for h in combos}
    if len(dims) != 1:
        raise ValueError(f"certificates disagree on dimension: {sorted(dims)}")
    n = dims.pop()
    lat = zn(n) if cfg.lattice_spec is None else make_named(cfg.lattice_spec)
    if lat.dim != n:
        raise ValueError(
            f"lattice {lat.name} has dimension {lat.dim} but the certificates have dimension {n}"
        )
    rotation = random_rotation(n, cfg.seed) if cfg.seed is not None else None

    code = EXIT_OK
    payload: dict = {"mode": "audit", "count": len(combos)}
    reports = []
    for tv in cfg.t:
        for h in combos:
            rep = audits.chain_audit(h, lat, tv, rotation=rotation)
            if rep.verdict == "Violated":
                code = max(code, EXIT_VERIFY)
            reports.append(_strip_rotation(audits.report_to_json(rep)))
    payload["chain"] = reports

    if len(combos) == 2:
        graded = []
        pair = audits.GradedPair(h_zn=combos[0], h_lc=combos[1])
        for tv in cfg.t:
            rep = audits.graded_audit(pair, n, tv)
            if rep.verdict == "Violated":
                code = max(code, EXIT_VERIFY)
            graded.append(dataclasses.asdict(rep))
        payload["graded"] = graded
    if len(combos) >= 2:
        seq = []
        for tv in cfg.t:
            rep = audits.sequence_audit(combos, n, tv)
            if rep.verdict == "Violated":
                code = max(code, EXIT_VERIFY)
            entry = dataclasses.asdict(rep)
            entry.pop("chain", None)
            seq.append(entry)
        payload["sequence"] = seq
    if cfg.audit_e8:
        collapse = []
        for tv in cfg.t:
            for h in combos:
                collapse.append(_collapse_payload(audits.e8_collapse_audit(h, n, tv)))
        payload["collapse"] = collapse
    return payload, code


def cmd_poisson(cfg: RunConfig) -> tuple[dict, int]:
    lat = make_named(cfg.lattice_spec or _DEFAULT_LATTICE)
    code = EXIT_OK
    rows = []
    for path in cfg.certificates:
        with open(path, "r", encoding="utf-8") as fh:
            combo = combo_from_json(json.load(fh))
        rep = poisson_check(combo, lat, tol=cfg.tolerance)
        if not rep.ok:
            code = max(code, EXIT_VERIFY)
        rows.append(dataclasses.asdict(rep))
    return {"mode": "poisson", "lattice": lat.name, "checks": rows}, code


# --------------------------------------------------------------------------
# rendering and entry point


def _pretty_lines(payload: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_pretty_lines(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                lines.append(f"{pad}{key}[{i}]:")
                lines.extend(_pretty_lines(item, indent + 1))
        elif isinstance(value, list) and len(value) > 12:
            lines.append(f"{pad}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


_COMMANDS = {
    "theta": cmd_theta,
    "lattice": cmd_lattice,
    "lp": cmd_lp,
    "audit": cmd_audit,
    "poisson": cmd_poisson,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = build_config(list(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        payload, code = _COMMANDS[cfg.command](cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc} (raise {BUDGET_ENV_VAR} to continue)", file=sys.stderr)
        return EXIT_BUDGET
    except InsufficientShellsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except audits.AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (LatticeError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    payload = {"schema": "v1", "command": cfg.command, **payload}
    text = json.dumps(payload, sort_keys=True)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if cfg.pretty:
        print("\n".join(_pretty_lines(payload)))
    else:
        print(text)
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
