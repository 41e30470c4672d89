"""Numerical audits of the saturation bookkeeping behind Gaussian certificates.

Every bound produced by the linear program rests on a single telescoping
computation: the lattice Gaussian mass sits below the certificate value
``1 + hhat(0) - h(0)`` with two nonnegative slack totals in between, one from
majorization on shells and one from discarded transform terms.  The functions
here recompute that chain from scratch, shell by shell, for any radial
certificate and any integral unimodular lattice, and report exactly where the
slack lives.  A companion audit runs the same ledger on ``E8 (+) Z^(n-8)``,
where perfect saturation is impossible: completing the chain there would
equate two theta functions that provably differ, and the report quantifies
the obstruction.

All shell sums are evaluated in ``mpmath`` working precision with certified
truncation tails, so a reported residual of 1e-12 means the identity holds,
not that the series was cut early.  One precision model covers every input
to the ledger: shell values come from running powers (one ``exp`` per term
and distinct norm gap, then a multiplication per shell) carried with 10
guard digits; the transform's coefficients ``c (pi/a)^{n/2}`` and widths
``pi^2/a`` are formed in ``mpmath``, and so is the lattice mass, summed to
the working precision.  Nothing is rounded to double before the chain is
closed.  Synthetic shell data (doubles with prescribed values that no
genuine function attains) is supported for testing the bookkeeping itself,
but only behind an explicit flag.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import mpmath

from .certificates import GaussianCombo, fourier, fourier_terms_mp, shell_values_mp
from .lattices import (
    Lattice,
    LatticeError,
    RotatedLattice,
    RotationMatrix,
    direct_sum,
    e8,
    is_integral,
    is_unimodular,
    shell_series,
    zn,
)
from .theta import (
    DEFAULT_SHELL_TOL,
    InsufficientShellsError,
    _coerce_lattice,
    _mass_mp,
    mass_gap,
    shell_tail_bound,
)

__all__ = [
    "AuditError",
    "CHAIN_TOL",
    "SIGN_TOL",
    "CollapseReport",
    "GradedPair",
    "GradedReport",
    "PrescribedShellFunction",
    "SaturationReport",
    "SequenceReport",
    "chain_audit",
    "e8_collapse_audit",
    "graded_audit",
    "report_from_json",
    "report_to_json",
    "sequence_audit",
]

#: Equality residuals along the chain must close to this tolerance.
CHAIN_TOL = 1e-8

#: Pointwise sign conditions may dip this far below zero before a verdict
#: of Violated is returned; solver coefficients are only good to ~1e-9, and
#: a genuine violation shows up orders of magnitude above this line.
SIGN_TOL = 1e-10

_AUDIT_DPS = 30
#: Nullwert truncation of the lattice mass, relative, matched to _AUDIT_DPS:
#: the mass of Z24 at t = 0.3 is 1.7e12, so the default 1e-18 would leave
#: an error of 1e-5 against the absolute CHAIN_TOL.
_MASS_REL_TOL = 10.0**-_AUDIT_DPS
_DEPTH_START = 64
_DEPTH_CAP = 4096
_ROTATION_DEPTH = 6

_COND_MAJORIZE = "majorization"
_COND_FOURIER = "fourier_nonpositivity"


class AuditError(RuntimeError):
    """An identity that must hold for genuine certificates failed to close."""


# --------------------------------------------------------------------------
# inputs: genuine radial certificates, or prescribed shell data for testing


@dataclass(frozen=True)
class PrescribedShellFunction:
    """Test double whose shell values are dictated rather than computed.

    ``shell_value`` and ``fourier_shell_value`` map a squared norm m >= 1 to
    the purported values of h and hhat on that shell; the values at zero are
    given directly.  No actual function is constructed, so Poisson summation
    is an *assumption* about this data, not a theorem -- which is the point:
    doubles let the audits demonstrate what exact saturation would force,
    even though no genuine function reaches it.  Audit entry points reject
    doubles unless ``allow_synthetic=True`` is passed.

    ``tail_abs`` / ``fourier_tail_abs`` are bounds, declared by the author of
    the double, on the shell-weighted absolute sums beyond any audited depth.
    The defaults assert that the prescribed data vanishes far out.
    """

    dim: int
    value_at_zero: float
    fourier_at_zero: float
    shell_value: Callable[[int], float]
    fourier_shell_value: Callable[[int], float]
    label: str = "synthetic"
    tail_abs: float = 0.0
    fourier_tail_abs: float = 0.0


def _is_synthetic(h) -> bool:
    return isinstance(h, PrescribedShellFunction)


def _check_input(h, n: int, allow_synthetic: bool) -> None:
    if _is_synthetic(h):
        if not allow_synthetic:
            raise ValueError(
                "prescribed shell data is a test double; pass allow_synthetic=True "
                "to audit it"
            )
        if h.dim != n:
            raise ValueError(f"shell data has dim {h.dim}, expected {n}")
        return
    if not isinstance(h, GaussianCombo):
        raise TypeError(f"expected GaussianCombo or PrescribedShellFunction, got {type(h).__name__}")
    if h.dim != n:
        raise ValueError(f"certificate has dim {h.dim}, expected {n}")


def _h_zero(h) -> mpmath.mpf:
    if _is_synthetic(h):
        return mpmath.mpf(h.value_at_zero)
    return mpmath.fsum(c for c, _ in h.terms)


def _hhat_zero(h) -> mpmath.mpf:
    if _is_synthetic(h):
        return mpmath.mpf(h.fourier_at_zero)
    return mpmath.fsum(c for c, _ in fourier_terms_mp(h))


def _shell_values(h, norms: Sequence[int]) -> tuple[list[mpmath.mpf], list[mpmath.mpf]]:
    """Values of h and hhat on the given shells, in working precision."""
    if _is_synthetic(h):
        hv = [mpmath.mpf(h.shell_value(m)) for m in norms]
        fv = [mpmath.mpf(h.fourier_shell_value(m)) for m in norms]
        return hv, fv
    return shell_values_mp(h.terms, norms), shell_values_mp(fourier_terms_mp(h), norms)


def _gaussian_values(t: float, norms: Sequence[int]) -> list[mpmath.mpf]:
    """Values of the bare Gaussian e^{-t m} on the given shells."""
    return shell_values_mp(((1, t),), norms)


def _lattice_mass(lat: Lattice, t: float) -> mpmath.mpf:
    """Gaussian mass of ``lat`` at ``t`` in working precision, never rounded
    to double: at n = 24 the double alone is off by more than CHAIN_TOL."""
    return _mass_mp(lat, mpmath.mpf(t), _MASS_REL_TOL, DEFAULT_SHELL_TOL)[0]


def _tail_budget(h, n: int, depth: int) -> float:
    """Bound on everything the audit ignores beyond ``depth``.

    Covers the weighted tails of h, hhat, and the Gaussian itself, each via
    the crude shell-count bound, so the figure is valid for every integral
    lattice of the dimension at once.
    """
    if _is_synthetic(h):
        return h.tail_abs + h.fourier_tail_abs
    hh = fourier(h)
    t_h = h.coeff_abs_sum() * shell_tail_bound(n, depth, h.slowest_width())
    t_f = hh.coeff_abs_sum() * shell_tail_bound(n, depth, hh.slowest_width())
    return t_h + t_f


def _certified_depth(h, n: int, t: float, tol: float, minimum: int = _DEPTH_START) -> tuple[int, float]:
    """Smallest power-of-two depth whose ignored tail is below ``tol``/10."""
    depth = max(minimum, _DEPTH_START)
    while True:
        tail = _tail_budget(h, n, depth) + shell_tail_bound(n, depth, t)
        if math.isfinite(tail) and tail <= tol / 10.0:
            return depth, tail
        if depth >= _DEPTH_CAP:
            raise InsufficientShellsError(
                f"shell data insufficient: tail bound {tail:.3g} still exceeds "
                f"{tol / 10.0:.3g} at depth {depth}"
            )
        depth *= 2


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of replaying the telescoping chain for one certificate.

    ``chain_values`` holds the seven stations of the ledger in order:
    theta minus one; the full shell-weighted Gaussian sum; the shell-weighted
    certificate sum; the same sum written as a total minus the center value;
    its Poisson rearrangement on the dual side; the rearrangement with the
    transform total split off; and finally the bare certificate value
    ``hhat(0) - h(0)``.  Adjacent stations differ only by the two slack
    totals, so the first and last entries bracket everything the audit has
    to say.
    """

    lattice_label: str
    t: float
    epsilon: float
    chain_values: tuple[float, float, float, float, float, float, float]
    per_shell: tuple[tuple[int, float, float], ...]
    verdict: str
    violated_condition: str | None
    violated_shell: int | None
    slack_majorize_total: float
    slack_fourier_total: float
    chain_residual: float
    tail_bound: float
    depth: int
    rotation_seed: int | None = None
    rotation_defect: float | None = None


@dataclass(frozen=True)
class CollapseReport:
    """Five-line collapse ledger on ``E8 (+) Z^(n-8)``.

    ``lines`` carries, in order: theta minus one; the weighted Gaussian shell
    sum; the weighted certificate shell sum; the Poisson rearrangement
    ``hhat(0) - h(0) + sum of hhat over shells``; and ``hhat(0) - h(0)``.
    Exact saturation would make all five equal, forcing the theta function of
    this lattice to coincide with that of ``Z^n`` -- which it cannot, as the
    positive ``contradiction_magnitude`` records.  ``failing_step`` names the
    first equality that actually breaks (None when the data collapses fully,
    as only synthetic doubles can).
    """

    lattice_label: str
    t: float
    dim: int
    lines: tuple[float, float, float, float, float]
    residual: float
    fourier_slack: float
    epsilon: float
    poisson_residual: float | None
    contradiction_magnitude: float
    failing_step: str | None
    forced_theta_discrepancy: float
    tail_bound: float
    depth: int


@dataclass(frozen=True)
class GradedPair:
    """Certificate pair graded against the two lattices it must serve.

    ``h_zn`` is the certificate read against ``Z^n``; ``h_lc`` the one read
    against the comparison lattice.  Their difference ``F`` is formed by
    exact signed concatenation of Gaussian terms -- no floating cancellation
    happens until F is evaluated.
    """

    h_zn: GaussianCombo
    h_lc: GaussianCombo

    def __post_init__(self) -> None:
        if self.h_zn.dim != self.h_lc.dim:
            raise ValueError(
                f"pair members disagree on dimension: {self.h_zn.dim} vs {self.h_lc.dim}"
            )

    @property
    def difference(self) -> GaussianCombo:
        """``h_lc - h_zn`` as a signed concatenation of terms."""
        return self.h_lc.minus(self.h_zn)


@dataclass(frozen=True)
class GradedReport:
    """Sign and comparison audit for a graded pair on the comparison lattice."""

    lattice_label: str
    t: float
    f_zero: float
    f_hat_zero: float
    sum_f: float
    sum_f_hat: float
    comparison_residual: float
    first_violation: tuple[str, int] | None
    verdict: str
    tail_bound: float
    depth: int


@dataclass(frozen=True)
class SequenceReport:
    """Audit of a family of certificates treated as an approximating sequence."""

    count: int
    t: float
    epsilons: tuple[float, ...]
    per_element_ok: tuple[bool, ...]
    worst_majorize_excess: float
    worst_fourier_excess: float
    dominated: bool
    envelope_sum_shell: float | None
    envelope_sum_fourier: float | None
    theta_clash: float | None
    clash_expected: float | None
    chain: SaturationReport | None
    verdict: str
    depth: int


# --------------------------------------------------------------------------
# shared shell ledger


def _shell_ledger(h, lat: Lattice, t: float, chain_tol: float, min_depth: int = 0):
    """Everything the audits need about ``h`` on ``lat`` at width ``t``.

    Returns (depth, tail, norms, counts, hv, fv, gv, theta) where the value
    lists are aligned with ``norms`` and, like the mass ``theta``, already in
    working precision.
    """
    depth, tail = _certified_depth(h, lat.dim, t, chain_tol, minimum=max(min_depth, _DEPTH_START))
    series = shell_series(lat, depth)
    norms = [m for m in range(1, depth + 1) if series.counts[m] > 0]
    counts = [series.counts[m] for m in norms]
    hv, fv = _shell_values(h, norms)
    gv = _gaussian_values(t, norms)
    theta = _lattice_mass(lat, t)
    return depth, tail, norms, counts, hv, fv, gv, theta


def _rotation_check(h, lat: Lattice, rotation: RotationMatrix) -> float:
    """Worst shell defect of evaluating ``h`` on rotated vectors.

    The audits are radial by construction; this confirms numerically that a
    rotated copy of the lattice feeds identical sums, by comparing pointwise
    sums over rotated vectors with count-weighted shell values on the first
    few shells.
    """
    rot = RotatedLattice(lat, rotation)
    by_shell = rot.rotated_vectors(_ROTATION_DEPTH)
    worst = 0.0
    for m, vecs in by_shell.items():
        if len(vecs) == 0:
            continue
        pointwise = math.fsum(h.eval(float(r2)) for r2 in (vecs * vecs).sum(axis=1))
        radial = len(vecs) * h.eval(float(m))
        defect = abs(pointwise - radial) / max(1.0, abs(radial))
        worst = max(worst, defect)
    if worst > 1e-9:
        raise AuditError(
            f"rotated evaluation disagrees with radial shell arithmetic by {worst:.3g}"
        )
    return worst


# --------------------------------------------------------------------------
# chain audit


def chain_audit(
    h,
    lattice,
    t: float,
    rotation: RotationMatrix | None = None,
    chain_tol: float = CHAIN_TOL,
    sign_tol: float = SIGN_TOL,
    allow_synthetic: bool = False,
    min_depth: int = 0,
) -> SaturationReport:
    """Replay the seven-station saturation ledger for ``h`` on a lattice.

    The two sign conditions are checked pointwise on every populated shell
    up to a certified depth, the per-shell slacks are accumulated with exact
    shell counts, and the telescoping identity (slack totals add up to the
    certificate's excess over the lattice mass) is verified to ``chain_tol``
    plus the truncation tail.  For genuine certificates a failure of that
    identity is impossible, so it raises; prescribed shell data merely
    records the residual, since doubles are free to break Poisson.
    """
    if not (isinstance(t, (int, float)) and t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    lat = _coerce_lattice(lattice)
    _check_input(h, lat.dim, allow_synthetic)
    if not is_integral(lat):
        raise LatticeError(f"{lat.name} is not integral; shell audits need integer norms")
    if not is_unimodular(lat):
        raise LatticeError(f"{lat.name} is not unimodular")

    with mpmath.workdps(_AUDIT_DPS):
        depth, tail, norms, counts, hv, fv, gv, theta = _shell_ledger(
            h, lat, t, chain_tol, min_depth=min_depth
        )

        violated: tuple[str, int] | None = None
        per_shell = []
        a_terms = []
        b_terms = []
        for m, r, hm, fm, gm in zip(norms, counts, hv, fv, gv):
            point_a = hm - gm
            point_b = -fm
            if violated is None and point_a < -sign_tol:
                violated = (_COND_MAJORIZE, m)
            if violated is None and point_b < -sign_tol:
                violated = (_COND_FOURIER, m)
            a_m = r * point_a
            b_m = r * point_b
            a_terms.append(a_m)
            b_terms.append(b_m)
            per_shell.append((m, float(a_m), float(b_m)))

        sum_g = mpmath.fsum(r * g for r, g in zip(counts, gv))
        sum_h = mpmath.fsum(r * v for r, v in zip(counts, hv))
        sum_fh = mpmath.fsum(r * v for r, v in zip(counts, fv))
        slack_a = mpmath.fsum(a_terms)
        slack_b = mpmath.fsum(b_terms)

        h0 = _h_zero(h)
        hh0 = _hhat_zero(h)
        theta_m1 = theta - 1
        chain = (
            float(theta_m1),
            float(sum_g),
            float(sum_h),
            float((h0 + sum_h) - h0),
            float((hh0 + sum_fh) - h0),
            float((hh0 - h0) + sum_fh),
            float(hh0 - h0),
        )
        epsilon = float((hh0 - h0) - theta_m1)
        residual = float(mpmath.fabs((slack_a + slack_b) - ((hh0 - h0) - theta_m1)))

    if residual > chain_tol + tail and not _is_synthetic(h):
        raise AuditError(
            f"slack totals miss the certificate excess by {residual:.3g} "
            f"(tolerance {chain_tol + tail:.3g}); the chain does not close"
        )

    rotation_defect = None
    if rotation is not None and not _is_synthetic(h):
        rotation_defect = _rotation_check(h, lat, rotation)

    if violated is not None:
        verdict = "Violated"
    elif abs(epsilon) <= chain_tol:
        verdict = "Sharp"
    else:
        verdict = "NearSharp"

    return SaturationReport(
        lattice_label=lat.name,
        t=float(t),
        epsilon=epsilon,
        chain_values=chain,
        per_shell=tuple(per_shell),
        verdict=verdict,
        violated_condition=violated[0] if violated else None,
        violated_shell=violated[1] if violated else None,
        slack_majorize_total=float(slack_a),
        slack_fourier_total=float(slack_b),
        chain_residual=residual,
        tail_bound=tail,
        depth=depth,
        rotation_seed=rotation.seed if rotation is not None else None,
        rotation_defect=rotation_defect,
    )


# --------------------------------------------------------------------------
# collapse audit on E8 (+) Z^(n-8)


def _collapse_lattice(n: int) -> Lattice:
    if n == 8:
        return e8()
    return direct_sum([e8(), zn(n - 8)])


def e8_collapse_audit(
    h,
    n: int,
    t: float,
    chain_tol: float = CHAIN_TOL,
    sign_tol: float = SIGN_TOL,
    allow_synthetic: bool = False,
) -> CollapseReport:
    """Walk the five-line collapse ledger on ``E8 (+) Z^(n-8)``.

    The five lines would all be equal if ``h`` saturated every inequality on
    this lattice.  Completing the walk identifies the lattice mass with the
    certificate value, and hence -- after dividing off the common cubic
    factor -- the theta function of E8 with that of Z^8.  Those differ by a
    strictly positive amount, returned as ``contradiction_magnitude``.  For
    genuine certificates some step must therefore fail; the report names the
    first one that does.  Prescribed doubles may sail through every check,
    in which case ``failing_step`` is None and the contradiction stands
    exposed.
    """
    if n < 8:
        raise ValueError(f"the collapse lattice needs dimension >= 8, got {n}")
    if not (isinstance(t, (int, float)) and t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    _check_input(h, n, allow_synthetic)
    lam = _collapse_lattice(n)

    with mpmath.workdps(_AUDIT_DPS):
        depth, tail, norms, counts, hv, fv, gv, theta = _shell_ledger(h, lam, t, chain_tol)

        sum_g = mpmath.fsum(r * g for r, g in zip(counts, gv))
        sum_h = mpmath.fsum(r * v for r, v in zip(counts, hv))
        sum_fh = mpmath.fsum(r * v for r, v in zip(counts, fv))
        h0 = _h_zero(h)
        hh0 = _hhat_zero(h)
        theta_m1 = theta - 1

        lines = (
            float(theta_m1),
            float(sum_g),
            float(sum_h),
            float((hh0 - h0) + sum_fh),
            float(hh0 - h0),
        )
        residual = float(mpmath.fabs(sum_h - sum_g))
        fourier_slack = float(-sum_fh)
        theta_zn = _lattice_mass(zn(n), t)
        epsilon = float((hh0 - h0) - (theta_zn - 1))
        poisson_residual = None
        if not _is_synthetic(h):
            poisson_residual = float(mpmath.fabs(((hh0 - h0) + sum_fh) - sum_h))

        gap = float(mass_gap(t))
        forced = float(theta_zn - theta)

    failing_step = None
    if residual > chain_tol + tail:
        failing_step = "shell_saturation"
    elif poisson_residual is not None and poisson_residual > chain_tol + tail:
        failing_step = "poisson_rearrangement"
    elif fourier_slack < -sign_tol or fourier_slack > chain_tol + tail:
        failing_step = "fourier_collapse"
    elif abs(epsilon) > chain_tol:
        failing_step = "mass_normalization"

    return CollapseReport(
        lattice_label=lam.name,
        t=float(t),
        dim=n,
        lines=lines,
        residual=residual,
        fourier_slack=fourier_slack,
        epsilon=epsilon,
        poisson_residual=poisson_residual,
        contradiction_magnitude=gap,
        failing_step=failing_step,
        forced_theta_discrepancy=forced,
        tail_bound=tail,
        depth=depth,
    )


# --------------------------------------------------------------------------
# graded audit


def graded_audit(
    pair: GradedPair,
    n: int,
    t: float,
    chain_tol: float = CHAIN_TOL,
    sign_tol: float = SIGN_TOL,
) -> GradedReport:
    """Audit a graded certificate pair on the comparison lattice.

    The difference F must be nonnegative on every populated shell of
    ``E8 (+) Z^(n-8)`` while its transform must be nonpositive there, and the
    two totals must reproduce ``Fhat(0) - F(0)`` exactly.  The first sign
    failure (if any) is reported with its shell; the comparison identity is
    checked to ``chain_tol`` plus certified tails.
    """
    if not isinstance(pair, GradedPair):
        raise TypeError(f"expected GradedPair, got {type(pair).__name__}")
    if pair.h_zn.dim != n:
        raise ValueError(f"pair has dim {pair.h_zn.dim}, expected {n}")
    if n < 8:
        raise ValueError(f"the comparison lattice needs dimension >= 8, got {n}")
    if not (isinstance(t, (int, float)) and t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t!r}")

    f = pair.difference
    lam = _collapse_lattice(n)

    with mpmath.workdps(_AUDIT_DPS):
        depth, tail = _certified_depth(f, n, t, chain_tol)
        series = shell_series(lam, depth)
        norms = [m for m in range(1, depth + 1) if series.counts[m] > 0]
        counts = [series.counts[m] for m in norms]
        fv, fhv = _shell_values(f, norms)

        first_violation: tuple[str, int] | None = None
        for m, vm, wm in zip(norms, fv, fhv):
            if first_violation is None and vm < -sign_tol:
                first_violation = ("F_nonnegative", m)
            if first_violation is None and wm > sign_tol:
                first_violation = ("F_transform_nonpositive", m)

        sum_f = mpmath.fsum(r * v for r, v in zip(counts, fv))
        sum_fh = mpmath.fsum(r * v for r, v in zip(counts, fhv))
        f0 = _h_zero(f)
        fh0 = _hhat_zero(f)
        residual = float(mpmath.fabs((fh0 - f0) - (sum_f - sum_fh)))

    if residual > chain_tol + tail:
        raise AuditError(
            f"transform comparison misses by {residual:.3g} "
            f"(tolerance {chain_tol + tail:.3g})"
        )

    return GradedReport(
        lattice_label=lam.name,
        t=float(t),
        f_zero=float(f0),
        f_hat_zero=float(fh0),
        sum_f=float(sum_f),
        sum_f_hat=float(sum_fh),
        comparison_residual=residual,
        first_violation=first_violation,
        verdict="Violated" if first_violation else "SignsHold",
        tail_bound=tail,
        depth=depth,
    )


# --------------------------------------------------------------------------
# sequence audit


def sequence_audit(
    hs: Sequence,
    n: int,
    t: float,
    dominators: tuple[Sequence[float], Sequence[float]] | None = None,
    chain_tol: float = CHAIN_TOL,
    sign_tol: float = SIGN_TOL,
    allow_synthetic: bool = False,
) -> SequenceReport:
    """Audit a family of certificates as a would-be approximating sequence.

    Each element gets its excess over the ``Z^n`` mass and a pointwise check
    that its shell slacks stay inside ``[0, excess]`` up to tolerances.  With
    ``dominators`` -- a pair of per-shell envelope sequences bounding |h| and
    |hhat| uniformly over the family -- the audit also forms the limit sums
    on ``E8 (+) Z^(n-8)`` from the last element and reports the gap between
    the direct and transformed totals (``theta_clash``), alongside the value
    exact saturation would force it to equal.  A single element with no
    dominators degrades to a plain chain audit.
    """
    if len(hs) == 0:
        raise ValueError("need at least one certificate to audit")
    if not (isinstance(t, (int, float)) and t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    for h in hs:
        _check_input(h, n, allow_synthetic)

    if len(hs) == 1 and dominators is None:
        chain = chain_audit(
            hs[0], zn(n), t,
            chain_tol=chain_tol, sign_tol=sign_tol, allow_synthetic=allow_synthetic,
        )
        return SequenceReport(
            count=1,
            t=float(t),
            epsilons=(chain.epsilon,),
            per_element_ok=(chain.verdict != "Violated",),
            worst_majorize_excess=0.0,
            worst_fourier_excess=0.0,
            dominated=False,
            envelope_sum_shell=None,
            envelope_sum_fourier=None,
            theta_clash=None,
            clash_expected=None,
            chain=chain,
            verdict=chain.verdict,
            depth=chain.depth,
        )

    with mpmath.workdps(_AUDIT_DPS):
        depth = _DEPTH_START
        tails = []
        for h in hs:
            d, tl = _certified_depth(h, n, t, chain_tol)
            depth = max(depth, d)
            tails.append(tl)
        tail = max(tails) + shell_tail_bound(n, depth, t)

        series = shell_series(zn(n), depth)
        norms = [m for m in range(1, depth + 1) if series.counts[m] > 0]
        gv = _gaussian_values(t, norms)
        theta_zn = _lattice_mass(zn(n), t)

        epsilons = []
        element_ok = []
        worst_a_excess = 0.0
        worst_b_excess = 0.0
        all_hv = []
        all_fv = []
        for h in hs:
            hv, fv = _shell_values(h, norms)
            all_hv.append(hv)
            all_fv.append(fv)
            h0 = _h_zero(h)
            hh0 = _hhat_zero(h)
            eps = float((hh0 - h0) - (theta_zn - 1))
            epsilons.append(eps)
            ok = True
            for m, hm, fm, gm in zip(norms, hv, fv, gv):
                point_a = float(hm - gm)
                point_b = float(-fm)
                if point_a < -sign_tol or point_b < -sign_tol:
                    ok = False
                worst_a_excess = max(worst_a_excess, point_a - eps)
                worst_b_excess = max(worst_b_excess, point_b - eps)
            if worst_a_excess > sign_tol + chain_tol or worst_b_excess > sign_tol + chain_tol:
                ok = False
            element_ok.append(ok)

        env_sum_shell = env_sum_fourier = None
        theta_clash = clash_expected = None
        if dominators is not None:
            env_h, env_f = dominators
            if len(env_h) < depth or len(env_f) < depth:
                raise ValueError(
                    f"dominator envelopes must cover {depth} shells; got "
                    f"{len(env_h)} and {len(env_f)}"
                )
            for j, (hv, fv) in enumerate(zip(all_hv, all_fv)):
                for m, hm, fm in zip(norms, hv, fv):
                    if abs(hm) > env_h[m - 1] + sign_tol or abs(fm) > env_f[m - 1] + sign_tol:
                        raise ValueError(
                            f"element {j} escapes its dominator envelope at shell {m}"
                        )

            lam = _collapse_lattice(n)
            lam_series = shell_series(lam, depth)
            lam_norms = [m for m in range(1, depth + 1) if lam_series.counts[m] > 0]
            lam_counts = [lam_series.counts[m] for m in lam_norms]

            env_sum_shell = float(mpmath.fsum(
                r * mpmath.mpf(env_h[m - 1]) for m, r in zip(lam_norms, lam_counts)
            ))
            env_sum_fourier = float(mpmath.fsum(
                r * mpmath.mpf(env_f[m - 1]) for m, r in zip(lam_norms, lam_counts)
            ))
            last_shell_weight = float(lam_counts[-1] * max(env_h[lam_norms[-1] - 1],
                                                           env_f[lam_norms[-1] - 1]))
            if not (math.isfinite(env_sum_shell) and math.isfinite(env_sum_fourier)) or (
                last_shell_weight > chain_tol
            ):
                raise ValueError(
                    f"envelope not summable at the configured M={depth}: "
                    f"final weighted term {last_shell_weight:.3g}"
                )

            limit = hs[-1]
            hv, fv = _shell_values(limit, lam_norms)
            h0 = _h_zero(limit)
            hh0 = _hhat_zero(limit)
            direct = mpmath.fsum(r * v for r, v in zip(lam_counts, hv))
            transformed = (hh0 - h0) + mpmath.fsum(r * v for r, v in zip(lam_counts, fv))
            theta_clash = float(transformed - direct)
            clash_expected = float(theta_zn - _lattice_mass(lam, t))

    if not all(element_ok):
        verdict = "Violated"
    elif theta_clash is not None and abs(theta_clash) > chain_tol + tail:
        verdict = "ThetaClash"
    else:
        verdict = "Consistent"

    return SequenceReport(
        count=len(hs),
        t=float(t),
        epsilons=tuple(epsilons),
        per_element_ok=tuple(element_ok),
        worst_majorize_excess=worst_a_excess,
        worst_fourier_excess=worst_b_excess,
        dominated=dominators is not None,
        envelope_sum_shell=env_sum_shell,
        envelope_sum_fourier=env_sum_fourier,
        theta_clash=theta_clash,
        clash_expected=clash_expected,
        chain=None,
        verdict=verdict,
        depth=depth,
    )


# --------------------------------------------------------------------------
# serialization


def report_to_json(report: SaturationReport) -> str:
    """Serialize a saturation report, chain and per-shell table included."""
    payload = dataclasses.asdict(report)
    payload["schema"] = "v1"
    payload["chain_values"] = list(report.chain_values)
    payload["per_shell"] = [list(row) for row in report.per_shell]
    return json.dumps(payload, sort_keys=True)


def report_from_json(text: str) -> SaturationReport:
    data = json.loads(text)
    data.pop("schema", None)
    data["chain_values"] = tuple(data["chain_values"])
    data["per_shell"] = tuple((int(m), float(a), float(b)) for m, a, b in data["per_shell"])
    try:
        return SaturationReport(**data)
    except TypeError as exc:
        raise ValueError(f"malformed saturation report: {exc}") from exc
