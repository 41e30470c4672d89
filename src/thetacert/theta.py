"""Nullwerte, the weight-4 divisor series, and Gaussian mass evaluation.

Two series conventions coexist and are easy to mix up: the nullwerte sum in
q = e^{-t} while the weight-4 series sums in Q = q^2 = e^{-2t}.  Every entry
point takes the width t and converts internally, so callers never handle q.

Sums run in extended working precision (mpmath, default 30 significant
digits) and results are returned as doubles with a certified absolute error
attached.  The extra precision is not decoration: identity residuals near
1e-12 are compared on values as large as 1e6, which sits below one double
ulp, so the differences must be formed before rounding to double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from .lattices import (
    Lattice,
    LatticeError,
    ShellSeries,
    direct_sum,
    e8,
    is_integral,
    is_unimodular,
    make_named,
    shell_series,
    sigma3,
    zn,
)

__all__ = [
    "DEFAULT_DPS",
    "DEFAULT_REL_TOL",
    "DEFAULT_SHELL_TOL",
    "ThetaValue",
    "eisenstein_e4",
    "functional_equation_residual",
    "gaussian_mass",
    "identity_suite",
    "jacobi_theta",
    "mass_gap",
    "secrecy_function",
    "shell_tail_bound",
    "theta_from_shells",
]

DEFAULT_REL_TOL = 1e-18
DEFAULT_DPS = 30
#: Tail bound met by the shell sum when a mass is enumerated from a raw basis.
DEFAULT_SHELL_TOL = 1e-13

_SERIES_CAP = 200_000


class InsufficientShellsError(ValueError):
    """Shell data too shallow for the requested tolerance."""


@dataclass(frozen=True)
class ThetaValue:
    """A positive series value with a certified absolute error bound."""

    value: float
    abs_error: float
    t: float

    def __post_init__(self):
        if self.abs_error < 0:
            raise ValueError("abs_error must be nonnegative")

    def __float__(self):
        return self.value


def _require_positive(t) -> float:
    t = float(t)
    if not t > 0 or math.isinf(t):
        raise ValueError(f"width t must be a positive finite real, got {t}")
    return t


def _nullwert(kind: int, t, rel_tol):
    """One nullwert as (value, tail bound) in the ambient precision.

    Terms are added until the next term drops below rel_tol times the partial
    sum; the returned tail bound covers everything not added, by comparison
    with the geometric series of consecutive term ratios.
    """
    q = mpmath.exp(-t)
    q2 = q * q
    if kind == 2:
        quarter_root = mpmath.exp(-t / 4)
        partial = mpmath.mpf(0)
        power = mpmath.mpf(1)
        step = mpmath.mpf(1)
        m = 0
        while True:
            term = 2 * quarter_root * power
            if m >= 1 and partial and term < rel_tol * abs(partial):
                ratio = q ** (2 * m + 2)
                return partial, term / (1 - ratio)
            partial += term
            m += 1
            if m > _SERIES_CAP:
                raise RuntimeError("nullwert series failed to converge")
            step *= q2
            power *= step
    if kind in (3, 4):
        partial = mpmath.mpf(1)
        power = mpmath.mpf(1)
        odd = q
        m = 1
        while True:
            power *= odd
            odd *= q2
            term = 2 * power
            if partial and term < rel_tol * abs(partial):
                ratio = q ** (2 * m + 1)
                return partial, term / (1 - ratio)
            sign = 1 if (kind == 3 or m % 2 == 0) else -1
            partial += sign * term
            m += 1
            if m > _SERIES_CAP:
                raise RuntimeError("nullwert series failed to converge")
    raise ValueError(f"nullwert kind must be 2, 3, or 4, got {kind}")


def _weight4(t, rel_tol):
    """The divisor-sum series 1 + 240 sum sigma3(m) Q^m at Q = e^{-2t}.

    Tail control uses sigma3(m) <= m^4, so the stop point must also make the
    crude ratio ((m+1)/m)^4 Q fall below one.
    """
    Q = mpmath.exp(-2 * t)
    partial = mpmath.mpf(1)
    power = mpmath.mpf(1)
    m = 1
    while True:
        power *= Q
        coeff = 240 * sigma3(m)
        term = coeff * power
        ratio = mpmath.mpf(m + 1) ** 4 / mpmath.mpf(m) ** 4 * Q
        if term < rel_tol * partial and ratio < 1:
            crude = 240 * mpmath.mpf(m) ** 4 * power
            return partial, crude / (1 - ratio)
        partial += term
        m += 1
        if m > _SERIES_CAP:
            raise RuntimeError("weight-4 series failed to converge")


def _as_theta_value(value, tail, t: float, dps: int) -> ThetaValue:
    """Round an mp series value to double; the error covers the truncation
    tail, the working-precision arithmetic and the rounding to double."""
    rounding = abs(value) * mpmath.mpf(10) ** (5 - dps)
    to_double = abs(mpmath.mpf(float(value)) - value)
    return ThetaValue(value=float(value), abs_error=float(tail + rounding + to_double), t=t)


def jacobi_theta(
    kind: int, t, rel_tol: float = DEFAULT_REL_TOL, dps: int = DEFAULT_DPS
) -> ThetaValue:
    """Nullwert of the given kind (2, 3, or 4) at q = e^{-t}.

    Kind 3 sums q^{m^2} over all integers, kind 4 alternates signs, kind 2
    sums q^{(m+1/2)^2}.
    """
    t = _require_positive(t)
    with mpmath.workdps(dps):
        value, tail = _nullwert(kind, mpmath.mpf(t), rel_tol)
        return _as_theta_value(value, tail, t, dps)


def eisenstein_e4(
    t, rel_tol: float = DEFAULT_REL_TOL, dps: int = DEFAULT_DPS
) -> ThetaValue:
    """Weight-4 divisor series at Q = e^{-2t}; the Gaussian mass of E8."""
    t = _require_positive(t)
    with mpmath.workdps(dps):
        value, tail = _weight4(mpmath.mpf(t), rel_tol)
        return _as_theta_value(value, tail, t, dps)


# ---------------------------------------------------------------------------
# shell sums and their tails


def _shell_sum(series: ShellSeries, t):
    """Exact partial sum of counts[m] e^{-tm} in the ambient precision."""
    decay = mpmath.exp(-t)
    power = mpmath.mpf(1)
    total = mpmath.mpf(0)
    for r in series.counts:
        if r:
            total += r * power
        power *= decay
    return total


def _crude_tail(n: int, max_norm: int, t):
    """Bound on the mass beyond max_norm via counts[m] <= (2 sqrt(m) + 1)^n.

    Returns None when the geometric comparison does not close (the ratio of
    consecutive envelope terms is not below one yet).
    """
    m1 = mpmath.mpf(max_norm + 1)
    first = (2 * mpmath.sqrt(m1) + 1) ** n * mpmath.exp(-t * m1)
    ratio = ((2 * mpmath.sqrt(m1 + 1) + 1) / (2 * mpmath.sqrt(m1) + 1)) ** n
    ratio *= mpmath.exp(-t)
    if ratio >= 1:
        return None
    return first / (1 - ratio)


def shell_tail_bound(n: int, max_norm: int, t) -> float:
    """Double-precision version of the crude tail bound; inf when it fails."""
    t = _require_positive(t)
    with mpmath.workdps(DEFAULT_DPS):
        tail = _crude_tail(n, max_norm, mpmath.mpf(t))
        return math.inf if tail is None else float(tail)


def required_depth(n: int, t, tol: float) -> int:
    """Smallest truncation depth whose crude tail bound is below tol."""
    t = _require_positive(t)
    if tol <= 0:
        raise ValueError("tol must be positive")
    log_tol = math.log(tol)
    m = 1
    while m <= 10_000_000:
        ratio = (
            n * math.log((2 * math.sqrt(m + 2) + 1) / (2 * math.sqrt(m + 1) + 1)) - t
        )
        if ratio < 0:
            log_first = n * math.log(2 * math.sqrt(m + 1) + 1) - t * (m + 1)
            if log_first - math.log(1 - math.exp(ratio)) < log_tol:
                return m
        m += 1 + m // 8
    raise InsufficientShellsError(
        f"no feasible truncation depth for n={n}, t={t}, tol={tol}"
    )


def theta_from_shells(
    series: ShellSeries, t, tol: float | None = None, dps: int = DEFAULT_DPS
) -> ThetaValue:
    """Gaussian mass from explicit shell counts, with a certified tail.

    The tail bound needs the ambient dimension, taken from series.dim.  When
    tol is given, the call fails loudly if the bound cannot meet it.
    """
    t = _require_positive(t)
    if series.dim < 1:
        raise LatticeError("shell series lacks a positive ambient dimension")
    with mpmath.workdps(dps):
        tmp = mpmath.mpf(t)
        value = _shell_sum(series, tmp)
        tail = _crude_tail(series.dim, series.max_norm, tmp)
        if tail is None:
            if tol is not None:
                raise InsufficientShellsError(
                    f"tail bound does not converge at max_norm={series.max_norm}"
                )
            return ThetaValue(value=float(value), abs_error=math.inf, t=t)
        if tol is not None and tail > tol:
            raise InsufficientShellsError(
                f"tail bound {float(tail):.3e} exceeds tol {tol:.3e} "
                f"at max_norm={series.max_norm}"
            )
        return _as_theta_value(value, tail, t, dps)


# ---------------------------------------------------------------------------
# Gaussian mass of the built-in families


def _mass_from_structure(structure: tuple, t, rel_tol):
    kind = structure[0]
    if kind == "Z":
        n = structure[1]
        v, e = _nullwert(3, t, rel_tol)
        return v**n, n * v ** (n - 1) * e
    if kind == "D":
        n = structure[1]
        v3, e3 = _nullwert(3, t, rel_tol)
        v4, e4 = _nullwert(4, t, rel_tol)
        value = (v3**n + v4**n) / 2
        err = (n * v3 ** (n - 1) * e3 + n * abs(v4) ** (n - 1) * e4) / 2
        return value, err
    if kind == "E8":
        return _weight4(t, rel_tol)
    if kind == "sum":
        value = mpmath.mpf(1)
        err = mpmath.mpf(0)
        for child in structure[1]:
            cv, ce = _mass_from_structure(child, t, rel_tol)
            err = abs(value) * ce + abs(cv) * err
            value *= cv
        return value, err
    raise LatticeError(f"unknown structure tag: {structure!r}")


def _mass_mp(lat: Lattice, t, rel_tol, shell_tol):
    """Gaussian mass in ambient precision: closed forms when the construction
    is known, budgeted enumeration otherwise."""
    if lat.structure is not None:
        return _mass_from_structure(lat.structure, t, rel_tol)
    depth = required_depth(lat.dim, float(t), shell_tol)
    series = shell_series(lat, depth)
    value = _shell_sum(series, t)
    tail = _crude_tail(lat.dim, depth, t)
    return value, tail


def _coerce_lattice(lat) -> Lattice:
    if isinstance(lat, Lattice):
        return lat
    if isinstance(lat, str):
        return make_named(lat)
    if hasattr(lat, "parent"):
        return lat.parent
    raise LatticeError(f"expected a lattice or a lattice name, got {lat!r}")


def gaussian_mass(
    lat,
    t,
    rel_tol: float = DEFAULT_REL_TOL,
    shell_tol: float = DEFAULT_SHELL_TOL,
    dps: int = DEFAULT_DPS,
) -> ThetaValue:
    """Mass of the Gaussian e^{-t |x|^2} summed over the lattice.

    Accepts a Lattice, a rotated lattice (rotations do not change the mass),
    or a name like "Z8" or "E8+Z4".
    """
    lat = _coerce_lattice(lat)
    t = _require_positive(t)
    with mpmath.workdps(dps):
        value, err = _mass_mp(lat, mpmath.mpf(t), rel_tol, shell_tol)
        return _as_theta_value(value, err, t, dps)


def mass_gap(t, rel_tol: float = DEFAULT_REL_TOL, dps: int = DEFAULT_DPS) -> ThetaValue:
    """Mass surplus of the cubic lattice over E8 in rank 8.

    Equals the nullwerte product theta2^4 theta4^4, which the identity suite
    checks against the direct difference of the two masses.
    """
    t = _require_positive(t)
    with mpmath.workdps(dps):
        v2, e2 = _nullwert(2, mpmath.mpf(t), rel_tol)
        v4, e4 = _nullwert(4, mpmath.mpf(t), rel_tol)
        value = v2**4 * v4**4
        err = 4 * v2**3 * abs(v4) ** 3 * (abs(v4) * e2 + v2 * e4)
        return _as_theta_value(value, err, t, dps)


# ---------------------------------------------------------------------------
# identities


_IDENTITY_DPS = 40
_IDENTITY_REL_TOL = 1e-30


def identity_suite(t, dps: int = _IDENTITY_DPS) -> dict[str, float]:
    """Absolute residuals of the classical identities tying the masses together.

    Keys:
      glaisher          weight-4 series minus half the sum of eighth powers
      abstruse          fourth-power relation among the three nullwerte
      gap_product       (mass of Z^8 minus mass of E8) minus theta2^4 theta4^4
      e8_mass_vs_weight4  E8 shell sum against the divisor-series value
      multiplicativity  shell counts of E8+Z4 against the product of masses
      gap_positive      the value theta2^4 theta4^4 itself (a margin, not a
                        residual; positive for every t > 0)

    Residuals are formed at working precision before any rounding to double,
    so they reflect the identities rather than double-precision granularity.
    """
    t = _require_positive(t)
    rel = _IDENTITY_REL_TOL
    with mpmath.workdps(dps):
        tmp = mpmath.mpf(t)
        v2 = _nullwert(2, tmp, rel)[0]
        v3 = _nullwert(3, tmp, rel)[0]
        v4 = _nullwert(4, tmp, rel)[0]
        w4 = _weight4(tmp, rel)[0]
        gap = v2**4 * v4**4

        depth8 = required_depth(8, t, 1e-16)
        depth12 = required_depth(12, t, 1e-16)
        e8_sum = _shell_sum(shell_series(e8(), depth8), tmp)
        sum12 = _shell_sum(shell_series(direct_sum([e8(), zn(4)]), depth12), tmp)

        return {
            "glaisher": float(abs(w4 - (v2**8 + v3**8 + v4**8) / 2)),
            "abstruse": float(abs(v3**4 - v2**4 - v4**4)),
            "gap_product": float(abs((v3**8 - w4) - gap)),
            "e8_mass_vs_weight4": float(abs(e8_sum - w4)),
            "multiplicativity": float(abs(sum12 - w4 * v3**4)),
            "gap_positive": float(gap),
        }


def functional_equation_residual(lat, t, tol: float = 1e-11) -> float:
    """Self-dual mass transform residual, both sides summed from shells.

    For a self-dual lattice the mass at t equals (pi/t)^{n/2} times the mass
    at pi^2/t.  Shell depth on each side is chosen so the certified tails sit
    below tol; the reported residual is the absolute difference of the two
    sides.
    """
    lat = _coerce_lattice(lat)
    t = _require_positive(t)
    if not (is_integral(lat) and is_unimodular(lat)):
        raise LatticeError(
            "the mass transform identity needs an integral unimodular lattice"
        )
    n = lat.dim
    with mpmath.workdps(DEFAULT_DPS):
        tmp = mpmath.mpf(t)
        t_dual = mpmath.pi**2 / tmp
        depth = max(
            required_depth(n, t, tol / 4), required_depth(n, float(t_dual), tol / 4)
        )
        series = shell_series(lat, depth)
        lhs = _shell_sum(series, tmp)
        rhs = (mpmath.pi / tmp) ** (mpmath.mpf(n) / 2) * _shell_sum(series, t_dual)
        return float(abs(lhs - rhs))


def secrecy_function(lat, y) -> float:
    """Mass ratio of the cubic lattice to the given one at matched argument.

    The imaginary-axis argument y converts to the Gaussian width t = pi y;
    the ratio exceeds one exactly when the lattice beats the cubic one.
    """
    lat = _coerce_lattice(lat)
    y = float(y)
    if not y > 0:
        raise ValueError(f"argument y must be positive, got {y}")
    if not (is_integral(lat) and is_unimodular(lat)):
        raise LatticeError("the secrecy ratio needs an integral unimodular lattice")
    with mpmath.workdps(DEFAULT_DPS):
        t = mpmath.pi * mpmath.mpf(y)
        cubic = _nullwert(3, t, DEFAULT_REL_TOL)[0] ** lat.dim
        own = _mass_mp(lat, t, DEFAULT_REL_TOL, DEFAULT_SHELL_TOL)[0]
        return float(cubic / own)
