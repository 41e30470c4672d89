"""Finite Gaussian combinations: the computable certificate class.

A combination h(x) = sum c_k exp(-a_k |x|^2) is radial, Schwartz, and has a
closed-form transform obtained term by term, which makes two-sided lattice
summation and sign audits exact up to certified tails.  Restricting to this
class loses nothing for exhibiting obstructions, since any obstruction here
already rules out the wider search space the class discretizes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import mpmath

from .lattices import Lattice, LatticeError, is_integral, is_unimodular, shell_series
from .theta import DEFAULT_DPS, required_depth, shell_tail_bound

__all__ = [
    "GaussianCombo",
    "NoncertReport",
    "PoissonReport",
    "combo_from_json",
    "combo_to_json",
    "fourier",
    "fourier_terms_mp",
    "gaussian_noncert_report",
    "poisson_check",
    "shell_values_mp",
    "single_gaussian",
]

#: Extra digits carried by the running products of shell_values_mp; the
#: relative error grows by about one unit per step, so thousands of shells
#: stay far below the caller's working precision.
_GUARD_DPS = 10


@dataclass(frozen=True)
class GaussianCombo:
    """h(x) = sum over k of c_k exp(-a_k |x|^2) on R^dim."""

    dim: int
    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not self.terms:
            raise ValueError("a Gaussian combination needs at least one term")
        for c, a in self.terms:
            if not (a > 0 and math.isfinite(a)):
                raise ValueError(f"widths must be positive and finite, got {a}")
            if not math.isfinite(c):
                raise ValueError(f"coefficients must be finite, got {c}")

    def eval(self, r2: float) -> float:
        """Value at any point with squared radius r2."""
        if r2 < 0:
            raise ValueError(f"squared radius must be nonnegative, got {r2}")
        return math.fsum(c * math.exp(-a * r2) for c, a in self.terms)

    def eval_mp(self, r2):
        """Extended-precision value, for audits that subtract near-equal sums."""
        return mpmath.fsum(c * mpmath.exp(-mpmath.mpf(a) * r2) for c, a in self.terms)

    def __call__(self, r2: float) -> float:
        return self.eval(r2)

    def at_zero(self) -> float:
        return math.fsum(c for c, _ in self.terms)

    def coeff_abs_sum(self) -> float:
        return math.fsum(abs(c) for c, _ in self.terms)

    def slowest_width(self) -> float:
        return min(a for _, a in self.terms)

    def scaled(self, factor: float) -> "GaussianCombo":
        return GaussianCombo(
            dim=self.dim, terms=tuple((c * factor, a) for c, a in self.terms)
        )

    def plus(self, other: "GaussianCombo") -> "GaussianCombo":
        """Signed concatenation; no term merging, so structure stays auditable."""
        if other.dim != self.dim:
            raise ValueError("cannot add combinations of different dimensions")
        return GaussianCombo(dim=self.dim, terms=self.terms + other.terms)

    def minus(self, other: "GaussianCombo") -> "GaussianCombo":
        return self.plus(other.scaled(-1.0))


def single_gaussian(n: int, t: float) -> GaussianCombo:
    """The bare Gaussian of width t, the function the comparison bounds."""
    return GaussianCombo(dim=n, terms=((1.0, float(t)),))


def fourier(h: GaussianCombo) -> GaussianCombo:
    """Term-wise transform: (c, a) maps to (c (pi/a)^{n/2}, pi^2/a).

    An involution on the class: applying it twice returns the original
    coefficients and widths to machine precision.
    """
    n = h.dim
    out = tuple(
        (c * (math.pi / a) ** (n / 2.0), math.pi**2 / a) for c, a in h.terms
    )
    return GaussianCombo(dim=n, terms=out)


def fourier_terms_mp(h: GaussianCombo) -> list:
    """Transform terms ``(c (pi/a)^{n/2}, pi^2/a)`` in the ambient mp precision.

    The same map as :func:`fourier`, without rounding coefficients that can
    reach 1e8 and beyond to double, which would cost absolute accuracy well
    above the audit tolerances.
    """
    half_dim = mpmath.mpf(h.dim) / 2
    return [(c * (mpmath.pi / a) ** half_dim, mpmath.pi**2 / a) for c, a in h.terms]


def shell_values_mp(terms, norms: Sequence[int]) -> list:
    """Values of ``sum c_k exp(-a_k m)`` at strictly increasing integer norms m.

    ``terms`` holds ``(c, a)`` pairs (floats or mpf).  Each term keeps a
    running power: one ``exp`` per term for each distinct gap between
    consecutive norms (gap 1 on Z^n, gap 2 on E8), then one multiplication
    per term and norm, and an exact-rounding ``fsum`` per norm.  The products
    carry _GUARD_DPS extra digits, and the results keep them: the caller's
    arithmetic rounds to its own working precision, and a per-shell slack
    ``h(m) - e^{-tm}`` that cancels to 1e-15 is then formed from values more
    accurate than that precision.
    """
    if any(b <= a for a, b in zip([-1, *norms], norms)):
        raise ValueError("norms must be nonnegative and strictly increasing")
    with mpmath.extradps(_GUARD_DPS):
        widths = [mpmath.mpf(a) for _, a in terms]
        powers = [mpmath.mpf(c) for c, _ in terms]
        steps: dict[int, list] = {}
        values = []
        previous = 0
        for m in norms:
            gap = m - previous
            step = steps.get(gap)
            if step is None:
                step = steps[gap] = [mpmath.exp(-a * gap) for a in widths]
            powers = [p * s for p, s in zip(powers, step)]
            values.append(mpmath.fsum(powers))
            previous = m
    return values


def combo_to_json(h: GaussianCombo) -> dict:
    return {"dim": h.dim, "terms": [{"c": c, "a": a} for c, a in h.terms]}


def combo_from_json(obj: dict) -> GaussianCombo:
    try:
        dim = int(obj["dim"])
        terms = tuple((float(item["c"]), float(item["a"])) for item in obj["terms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed Gaussian combination object: {exc}") from exc
    return GaussianCombo(dim=dim, terms=terms)


# ---------------------------------------------------------------------------
# two-sided lattice summation


@dataclass(frozen=True)
class PoissonReport:
    """Both sides of the self-dual summation identity for one h and lattice."""

    lattice_label: str
    dim: int
    lhs: float
    rhs: float
    residual: float
    tail_bound: float
    tol: float
    max_norm: int
    ok: bool


def _lattice_sum_mp(terms, series):
    """sum over shells of counts[m] * h(m), in the ambient mp precision."""
    norms = [m for m, r in enumerate(series.counts) if r]
    values = shell_values_mp(terms, norms)
    return mpmath.fsum(series.counts[m] * v for m, v in zip(norms, values))


def poisson_check(h: GaussianCombo, lat: Lattice, tol: float = 1e-9) -> PoissonReport:
    """Summation identity check: sum of h over the lattice against the same
    sum for the transform.

    Valid for integral unimodular (hence self-dual) lattices.  Shell depth is
    chosen so both certified tails sit below tol/4 each.
    """
    if not isinstance(lat, Lattice):
        lat = getattr(lat, "parent", lat)
    if h.dim != lat.dim:
        raise ValueError(f"dimension mismatch: h on R^{h.dim}, lattice of rank {lat.dim}")
    if not (is_integral(lat) and is_unimodular(lat)):
        raise LatticeError("two-sided summation needs an integral unimodular lattice")
    if tol <= 0:
        raise ValueError("tol must be positive")
    hhat = fourier(h)
    per_side = tol / 4
    scale_h = max(h.coeff_abs_sum(), 1e-300)
    scale_hhat = max(hhat.coeff_abs_sum(), 1e-300)
    depth = max(
        required_depth(lat.dim, h.slowest_width(), per_side / scale_h),
        required_depth(lat.dim, hhat.slowest_width(), per_side / scale_hhat),
    )
    series = shell_series(lat, depth)
    with mpmath.workdps(DEFAULT_DPS):
        lhs = _lattice_sum_mp(h.terms, series)
        rhs = _lattice_sum_mp(fourier_terms_mp(h), series)
        residual = float(abs(lhs - rhs))
    tail = scale_h * shell_tail_bound(lat.dim, depth, h.slowest_width())
    tail += scale_hhat * shell_tail_bound(lat.dim, depth, hhat.slowest_width())
    return PoissonReport(
        lattice_label=lat.name,
        dim=lat.dim,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=residual,
        tail_bound=tail,
        tol=tol,
        max_norm=depth,
        ok=residual <= tol + tail,
    )


# ---------------------------------------------------------------------------
# why the bare Gaussian certifies nothing


@dataclass(frozen=True)
class NoncertReport:
    """The bare Gaussian against the two certificate conditions.

    It majorizes itself with equality on every shell, but its transform is
    strictly positive everywhere, so the nonpositivity condition fails at
    every nonzero radius; transform_values lists the violation margins.
    """

    dim: int
    t: float
    shells: tuple[int, ...]
    majorization_residuals: tuple[float, ...]
    transform_values: tuple[float, ...]
    min_transform_value: float
    nonpositivity_violated: bool


def gaussian_noncert_report(n: int, t: float, max_shell: int = 40) -> NoncertReport:
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    t = float(t)
    if not t > 0:
        raise ValueError(f"width t must be positive, got {t}")
    if max_shell < 1:
        raise ValueError("max_shell must be at least 1")
    g = single_gaussian(n, t)
    ghat = fourier(g)
    shells = tuple(range(1, max_shell + 1))
    maj = tuple(abs(g.eval(m) - math.exp(-t * m)) for m in shells)
    hat_vals = tuple(ghat.eval(m) for m in shells)
    return NoncertReport(
        dim=n,
        t=t,
        shells=shells,
        majorization_residuals=maj,
        transform_values=hat_vals,
        min_transform_value=min(hat_vals),
        nonpositivity_violated=all(v > 0 for v in hat_vals),
    )
