"""Exact lattice constructions and integer shell data.

Bases and Gram matrices are stored as exact rationals (dyadic denominators
cover every built-in family), so integrality, unimodularity, and shell
membership are decided without rounding.  Shell counts and vectors of an
integral lattice come from one Fincke-Pohst coordinate search over numpy
arrays: float bounds from the exact decomposition of the quadratic form,
widened by margins that cover their rounding, and exact int64 norms for every
vector kept.  Families with product structure (powers of Z, the E8 divisor
formula, orthogonal sums) get identical counts from coefficient convolution
at depths the search cannot reach.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "BUDGET_ENV_VAR",
    "BudgetExceededError",
    "CERTIFIED_STABLE",
    "DEFAULT_NODE_BUDGET",
    "Lattice",
    "LatticeError",
    "NOT_APPLICABLE",
    "RotatedLattice",
    "RotationMatrix",
    "ShellSeries",
    "ambient_vectors",
    "determinant",
    "direct_sum",
    "dn",
    "e8",
    "enumerate_shells",
    "enumerate_vectors",
    "four_squares",
    "is_integral",
    "is_unimodular",
    "lattice_from_json",
    "lattice_from_rows",
    "lattice_to_json",
    "make_named",
    "node_budget",
    "random_rotation",
    "shell_series",
    "shells_from_json",
    "shells_to_json",
    "sigma3",
    "stability_certificate",
    "zn",
]

DEFAULT_NODE_BUDGET = 100_000_000
BUDGET_ENV_VAR = "THETA_CERT_BUDGET"

#: Frontier rows the coordinate search expands at a time.
_CHUNK_ROWS = 256
#: Largest coordinate-box bound on ``x^T G x`` the search accepts; the leaf
#: arithmetic stays below four times this, inside int64.
_NORM_LIMIT = 2**61

CERTIFIED_STABLE = "CertifiedStable"
NOT_APPLICABLE = "NotApplicable"


class LatticeError(ValueError):
    """Invalid construction, or an operation applied to an unsuitable lattice."""


class BudgetExceededError(RuntimeError):
    """The coordinate search hit the configured node budget."""


def node_budget() -> int:
    """Enumeration node budget, overridable through THETA_CERT_BUDGET.

    A node is one candidate coordinate value generated at one level of the
    coordinate search; the search checks the budget before it allocates a
    level's candidates, so an exhausted budget raises early.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise LatticeError(f"invalid {BUDGET_ENV_VAR} value: {raw!r}") from exc
    if value <= 0:
        raise LatticeError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def _frac(x) -> Fraction:
    """Coerce exact input to Fraction.  Floats are rejected on purpose."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return Fraction(int(x[0]), int(x[1]))
    raise LatticeError(f"expected an exact rational entry, got {x!r}")


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by an exact rational basis.

    The rows of ``basis`` generate the lattice and ``gram`` holds their exact
    pairwise inner products.  ``structure`` is an optional construction tag
    (set by the named builders) that lets shell computations exploit product
    structure; it never affects the lattice's identity.
    """

    dim: int
    basis: tuple[tuple[Fraction, ...], ...]
    gram: tuple[tuple[Fraction, ...], ...]
    name: str = ""
    structure: tuple | None = None

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise LatticeError(f"dimension must be positive, got {n}")
        if len(self.basis) != n or any(len(row) != n for row in self.basis):
            raise LatticeError("basis must be a square matrix of size dim")
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise LatticeError("gram must be a square matrix of size dim")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise LatticeError("gram matrix is not symmetric")
                expected = sum(self.basis[i][k] * self.basis[j][k] for k in range(n))
                if self.gram[i][j] != expected:
                    raise LatticeError("gram matrix does not match the basis")
        # positive definiteness: the exact decomposition raises on failure
        _squares_decomposition(self.gram)

    def __repr__(self):
        label = self.name or "lattice"
        return f"Lattice({label!r}, dim={self.dim})"


def lattice_from_rows(rows, name: str = "", structure: tuple | None = None) -> Lattice:
    """Build a Lattice from generator rows of exact rational entries."""
    basis = tuple(tuple(_frac(x) for x in row) for row in rows)
    n = len(basis)
    gram = tuple(
        tuple(sum(basis[i][k] * basis[j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return Lattice(dim=n, basis=basis, gram=gram, name=name, structure=structure)


# ---------------------------------------------------------------------------
# named constructions


def zn(n: int) -> Lattice:
    """The integer lattice Z^n with the standard basis."""
    if n < 1:
        raise LatticeError(f"Z^n needs n >= 1, got {n}")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return lattice_from_rows(rows, name=f"Z{n}", structure=("Z", n))


def dn(n: int) -> Lattice:
    """The checkerboard lattice D_n: integer vectors with even coordinate sum."""
    if n < 2:
        raise LatticeError(f"D_n needs n >= 2, got {n}")
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = 1
        row[i + 1] = -1
        rows.append(row)
    last = [0] * n
    last[n - 2] = 1
    last[n - 1] = 1
    rows.append(last)
    return lattice_from_rows(rows, name=f"D{n}", structure=("D", n))


def e8() -> Lattice:
    """The E8 lattice: D8 together with its half-integer glue coset.

    The basis uses the even coordinate system, so the generated set is
    exactly the union of D8 and D8 + (1/2, ..., 1/2).
    """
    half = Fraction(1, 2)
    rows = [
        [2, 0, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
        [half] * 8,
    ]
    return lattice_from_rows(rows, name="E8", structure=("E8",))


def direct_sum(parts) -> Lattice:
    """Orthogonal sum of lattices, with a block-diagonal basis."""
    parts = list(parts)
    if not parts:
        raise LatticeError("direct_sum needs at least one summand")
    if len(parts) == 1:
        return parts[0]
    total = sum(p.dim for p in parts)
    rows = []
    offset = 0
    for part in parts:
        for row in part.basis:
            padded = [Fraction(0)] * total
            padded[offset : offset + part.dim] = list(row)
            rows.append(padded)
        offset += part.dim
    name = "+".join(p.name or f"dim{p.dim}" for p in parts)
    structure = None
    if all(p.structure is not None for p in parts):
        structure = ("sum", tuple(p.structure for p in parts))
    return lattice_from_rows(rows, name=name, structure=structure)


_TOKEN_RE = re.compile(r"(?i)^(z|zn|d|dn)\(?(\d+)\)?$")


def _named_token(token: str) -> Lattice:
    if re.fullmatch(r"(?i)e8", token):
        return e8()
    match = _TOKEN_RE.match(token)
    if match:
        n = int(match.group(2))
        family = match.group(1)[0].lower()
        return zn(n) if family == "z" else dn(n)
    raise LatticeError(f"unknown lattice name: {token!r}")


def make_named(spec: str) -> Lattice:
    """Parse a lattice name like ``Z8``, ``Dn(4)``, ``E8`` or ``E8+Z4``."""
    cleaned = spec.replace(" ", "")
    tokens = [tok for tok in cleaned.split("+") if tok]
    if not tokens:
        raise LatticeError(f"empty lattice name: {spec!r}")
    parts = [_named_token(tok) for tok in tokens]
    if len(parts) == 1:
        return parts[0]
    return direct_sum(parts)


# ---------------------------------------------------------------------------
# predicates


def is_integral(lat: Lattice) -> bool:
    """Whether all pairwise inner products of generators are integers."""
    return all(entry.denominator == 1 for row in lat.gram for entry in row)


@lru_cache(maxsize=None)
def determinant(lat: Lattice) -> Fraction:
    """Exact determinant of the Gram matrix (squared covolume)."""
    d, _ = _squares_decomposition(lat.gram)
    out = Fraction(1)
    for pivot in d:
        out *= pivot
    return out


def is_unimodular(lat: Lattice) -> bool:
    """Whether the Gram determinant is exactly one."""
    return determinant(lat) == 1


def stability_certificate(lat: Lattice) -> str:
    """Certify stability for integral unimodular input.

    For an integral lattice every sublattice has an integer Gram determinant,
    hence covolume at least one; with covolume exactly one, that is the whole
    stability inequality.  Anything outside that class gets NotApplicable
    rather than a guess.
    """
    if is_integral(lat) and is_unimodular(lat):
        return CERTIFIED_STABLE
    return NOT_APPLICABLE


# ---------------------------------------------------------------------------
# exact decomposition and the coordinate search


@lru_cache(maxsize=None)
def _decomposition_cached(gram: tuple) -> tuple:
    return _squares_decomposition(gram)


def _squares_decomposition(gram):
    """Write the form as sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2, exactly.

    Raises LatticeError when the matrix is not positive definite.
    """
    n = len(gram)
    work = [[Fraction(entry) for entry in row] for row in gram]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        pivot = work[i][i]
        if pivot <= 0:
            raise LatticeError("gram matrix is not positive definite")
        d[i] = pivot
        for j in range(i + 1, n):
            u[i][j] = work[i][j] / pivot
        for k in range(i + 1, n):
            for l in range(k, n):
                work[k][l] -= pivot * u[i][k] * u[i][l]
                work[l][k] = work[k][l]
    return tuple(d), tuple(tuple(row) for row in u)


@lru_cache(maxsize=None)
def _inverse_diagonal(gram: tuple) -> tuple:
    """Exact diagonal of the inverse Gram matrix.

    With the form written as ``(Ux)^T D (Ux)`` (``U`` unit upper triangular),
    the inverse is ``V D^-1 V^T`` with ``V = U^-1``, found by back substitution.
    """
    d, u = _decomposition_cached(gram)
    n = len(d)
    v = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for k in range(i, n):
            entry = Fraction(int(i == k))
            for j in range(i + 1, k + 1):
                entry -= u[i][j] * v[j][k]
            v[i][k] = entry
    return tuple(sum(v[i][k] ** 2 / d[k] for k in range(i, n)) for i in range(n))


def _coordinate_search(lat: Lattice, max_norm: int, budget: int, collect: bool):
    """Visit every lattice vector with squared norm <= max_norm (Fincke-Pohst).

    Returns (counts list, None) or, with ``collect``, (counts list, dict from
    norm to an int64 array of coordinate rows in lexicographic order).

    The search fixes coordinates n-1 down to 0.  It carries a frontier of
    partial coordinate rows, each with a float remaining budget ``rem`` and a
    running bound ``err`` on that budget's rounding error, and expands it one
    level at a time.  A row's candidates for the next coordinate form an
    interval around its centre ``-sum u_ij x_j`` of half-width
    ``sqrt(rem / d_i)``.  Coordinates are clipped to the exact box
    ``|x_i| <= sqrt(N (G^-1)_ii)``, and a box whose norms could overflow int64
    is refused.  The interval is widened, and rows are kept while
    ``rem >= -err``, by margins that scale with ``sum |u_ij x_j|`` (bounded
    over the box, which also bounds the centre), the half-width and ``err``,
    so rounding can only widen the search.  Every full row is then accepted
    or rejected by its exact int64 norm ``x^T G x``.  Frontier blocks
    of at most ``_CHUNK_ROWS`` rows are expanded deepest level first, so
    memory stays bounded; the node budget is checked before each expansion.
    """
    if not is_integral(lat):
        raise LatticeError("enumeration requires an integral lattice")
    n = lat.dim
    gram = [[int(entry) for entry in row] for row in lat.gram]
    box = [
        math.isqrt(max_norm * v.numerator // v.denominator)
        for v in _inverse_diagonal(lat.gram)
    ]
    # gx_max[i] bounds |(Gx)_i| over the box, so the sum bounds |x^T G x|
    gx_max = [sum(abs(g) * b for g, b in zip(row, box)) for row in gram]
    if sum(max(b, 1) * r for b, r in zip(box, gx_max)) > _NORM_LIMIT:
        raise LatticeError(
            f"coordinate box to norm {max_norm} is too large for exact int64 norms"
        )
    d_exact, u_exact = _decomposition_cached(lat.gram)
    d = [float(v) for v in d_exact]
    u = np.array([[float(v) for v in row] for row in u_exact])
    # size[i] bounds sum_j |u_ij x_j|, hence the centre, over the whole box
    size = [sum(abs(u_ij) * b for u_ij, b in zip(row, box)) for row in u.tolist()]
    g = np.array(gram, dtype=np.int64)
    # relative rounding of an n-term dot product and of the few operations
    # around it, with a fourfold reserve
    tau = 4 * (n + 4) * 2.0**-53

    counts = np.zeros(max_norm + 1, dtype=np.int64)
    # collected rows wait in the narrowest integer type that holds the box
    narrow = np.min_scalar_type(-max(box) - 1)
    found = []
    nodes = 0
    stack = [(n - 1, np.zeros((1, n), np.int64), np.array([float(max_norm)]), np.zeros(1))]
    while stack:
        i, x, rem, err = stack.pop()
        if len(x) > _CHUNK_ROWS:
            stack.append((i, x[_CHUNK_ROWS:], rem[_CHUNK_ROWS:], err[_CHUNK_ROWS:]))
            x, rem, err = x[:_CHUNK_ROWS], rem[:_CHUNK_ROWS], err[:_CHUNK_ROWS]
        centre = -(x[:, i + 1 :] * u[i, i + 1 :]).sum(axis=1)
        room = np.maximum(rem, 0.0)
        width = np.sqrt(room / d[i])
        margin = tau * (size[i] + width) + np.sqrt(err / d[i])
        lo = np.clip(np.ceil(centre - width - margin), -box[i], box[i] + 1)
        hi = np.clip(np.floor(centre + width + margin), -box[i] - 1, box[i])
        k = np.maximum(hi - lo + 1, 0).astype(np.int64)
        total = int(k.sum())
        nodes += total
        if nodes > budget:
            raise BudgetExceededError(
                f"shell enumeration exceeded the budget of {budget} nodes"
            )
        parent = np.repeat(np.arange(len(x)), k)
        xi = lo.astype(np.int64)[parent] + np.arange(total) - np.repeat(np.cumsum(k) - k, k)
        if i > 0:
            # every candidate has |x_i - centre| <= reach, so one error bound
            # per parent covers the rounding of all its children's remainders
            reach = width + margin
            delta = tau * (size[i] + reach)
            child_err = (
                err
                + d[i] * delta * (2 * reach + delta)
                + tau * (room + err + d[i] * reach * reach)
            )
            y = xi - centre[parent]
            new_rem = rem[parent] - d[i] * y * y
            new_err = child_err[parent]
            keep = new_rem >= -new_err
            child = x[parent[keep]]
            child[:, i] = xi[keep]
            stack.append((i - 1, child, new_rem[keep], new_err[keep]))
            continue
        # leaves: x^T G x = q + x_0 (2 s + G_00 x_0), with q, s from the parent row
        xg = x @ g
        q = (xg * x).sum(axis=1)
        norms = q[parent] + xi * (2 * xg[parent, 0] + g[0, 0] * xi)
        keep = norms <= max_norm
        counts += np.bincount(norms[keep], minlength=max_norm + 1)
        if collect:
            rows = x[parent[keep]]
            rows[:, 0] = xi[keep]
            found.append((rows.astype(narrow), norms[keep]))
    counts = counts.tolist()
    if not collect:
        return counts, None
    rows = np.concatenate([r for r, _ in found])
    order = np.lexsort((*rows.T[::-1], np.concatenate([m for _, m in found])))
    del found
    rows = rows[order].astype(np.int64)
    shells = [m for m, c in enumerate(counts) if c]
    ends = list(itertools.accumulate(counts[m] for m in shells))
    return counts, dict(zip(shells, np.split(rows, ends[:-1])))


@dataclass(frozen=True)
class ShellSeries:
    """Counts of lattice vectors by squared norm, 0 through max_norm."""

    dim: int
    max_norm: int
    counts: tuple[int, ...]
    lattice_ref: str = ""

    def __post_init__(self):
        if self.max_norm < 0:
            raise LatticeError("max_norm must be nonnegative")
        if len(self.counts) != self.max_norm + 1:
            raise LatticeError("counts must have max_norm + 1 entries")
        if self.counts[0] != 1:
            raise LatticeError("shell zero must contain exactly the origin")
        for m, r in enumerate(self.counts):
            if r < 0:
                raise LatticeError(f"negative shell count at norm {m}")
            if m >= 1 and r % 2 != 0:
                raise LatticeError(f"odd shell count at norm {m}; shells pair x with -x")

    def count(self, m: int) -> int:
        return self.counts[m] if 0 <= m <= self.max_norm else 0

    def cumulative(self, up_to: int) -> int:
        return sum(self.counts[: up_to + 1])

    def as_dict(self) -> dict[int, int]:
        return {m: r for m, r in enumerate(self.counts) if r}


def enumerate_shells(lat: Lattice, max_norm: int, budget: int | None = None) -> ShellSeries:
    """Exact shell counts by the Fincke-Pohst coordinate search."""
    if not isinstance(lat, Lattice):
        raise LatticeError("enumerate_shells expects an exact Lattice")
    if max_norm < 0:
        raise LatticeError("max_norm must be nonnegative")
    budget = node_budget() if budget is None else budget
    counts, _ = _coordinate_search(lat, max_norm, budget, collect=False)
    return ShellSeries(
        dim=lat.dim, max_norm=max_norm, counts=tuple(counts), lattice_ref=lat.name
    )


@lru_cache(maxsize=64)
def enumerate_vectors(lat: Lattice, max_norm: int) -> dict:
    """All vectors with squared norm <= max_norm, as coordinate arrays by norm.

    Each shell's int64 rows are in lexicographic order and read-only, since
    the cache hands the same arrays to every caller.
    """
    _, coords = _coordinate_search(lat, max_norm, node_budget(), collect=True)
    for vecs in coords.values():
        vecs.setflags(write=False)
    return coords


@lru_cache(maxsize=None)
def basis_matrix(lat: Lattice) -> np.ndarray:
    """Float copy of the basis rows (generators)."""
    arr = np.array([[float(entry) for entry in row] for row in lat.basis])
    arr.setflags(write=False)
    return arr


def ambient_vectors(lat: Lattice, max_norm: int) -> dict:
    """Ambient float coordinates of every vector up to max_norm, by shell."""
    b = basis_matrix(lat)
    return {m: c.astype(float) @ b for m, c in enumerate_vectors(lat, max_norm).items()}


# ---------------------------------------------------------------------------
# structured shell series


def _convolve(a: list[int], b: list[int], max_norm: int) -> list[int]:
    """Coefficients 0..max_norm of the product of two count series.

    Visits only the nonzero entries of ``b``, so the cost is ``nnz(a) * nnz(b)``
    at most; pass the sparser series (a Z1 factor has about sqrt(max_norm)
    nonzero entries) as ``b``.
    """
    out = [0] * (max_norm + 1)
    nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nonzero_b:
                if i + j > max_norm:
                    break
                out[i + j] += ai * bj
    return out


def _times_z_power(counts: list[int], n: int, max_norm: int, signed: bool = False) -> list[int]:
    """``counts`` times the (signed) series of Z^n, one sparse Z1 factor at a time."""
    factor = _z1_counts(max_norm, signed)
    for _ in range(n):
        counts = _convolve(counts, factor, max_norm)
    return counts


def _z1_counts(max_norm: int, signed: bool = False) -> list[int]:
    out = [0] * (max_norm + 1)
    out[0] = 1
    k = 1
    while k * k <= max_norm:
        out[k * k] = -2 if (signed and k % 2 == 1) else 2
        k += 1
    return out


def sigma3(m: int) -> int:
    """Sum of cubes of divisors, by trial division up to sqrt(m)."""
    if m < 1:
        raise ValueError(f"sigma3 needs m >= 1, got {m}")
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += d**3
            q = m // d
            if q != d:
                total += q**3
        d += 1
    return total


def _structure_counts(structure: tuple, max_norm: int) -> list[int]:
    kind = structure[0]
    unit = [1] + [0] * max_norm
    if kind == "Z":
        return _times_z_power(unit, structure[1], max_norm)
    if kind == "D":
        n = structure[1]
        plain = _times_z_power(unit, n, max_norm)
        signed = _times_z_power(unit, n, max_norm, signed=True)
        out = []
        for m in range(max_norm + 1):
            total = plain[m] + signed[m]
            assert total % 2 == 0 and total >= 0
            out.append(total // 2)
        return out
    if kind == "E8":
        out = [0] * (max_norm + 1)
        out[0] = 1
        for k in range(1, max_norm // 2 + 1):
            out[2 * k] = 240 * sigma3(k)
        return out
    if kind == "sum":
        out = unit
        for child in structure[1]:
            if child[0] == "Z":
                out = _times_z_power(out, child[1], max_norm)
            else:
                out = _convolve(out, _structure_counts(child, max_norm), max_norm)
        return out
    raise LatticeError(f"unknown structure tag: {structure!r}")


@lru_cache(maxsize=None)
def _structured_series(lat: Lattice, max_norm: int) -> ShellSeries:
    counts = _structure_counts(lat.structure, max_norm)
    return ShellSeries(
        dim=lat.dim, max_norm=max_norm, counts=tuple(counts), lattice_ref=lat.name
    )


def shell_series(lat, max_norm: int, budget: int | None = None) -> ShellSeries:
    """Shell counts, using product structure when available.

    For named constructions (powers of Z, D_n, E8, orthogonal sums) the
    counts come from exact coefficient arithmetic and reach any depth; raw
    bases fall back to the budgeted coordinate search.  Both routes agree on
    their overlap, which the test suite checks.
    """
    if isinstance(lat, RotatedLattice):
        inner = shell_series(lat.parent, max_norm, budget)
        return ShellSeries(
            dim=inner.dim,
            max_norm=inner.max_norm,
            counts=inner.counts,
            lattice_ref=lat.name,
        )
    if lat.structure is not None:
        return _structured_series(lat, max_norm)
    return enumerate_shells(lat, max_norm, budget)


# ---------------------------------------------------------------------------
# four squares


def four_squares(m: int) -> tuple[int, int, int, int]:
    """Lexicographically smallest (a, b, c, d) with a>=b>=c>=d>=0 summing to m.

    The sum is of squares: a^2 + b^2 + c^2 + d^2 = m.  Existence for every
    nonnegative integer is the classical four-square theorem; this scans a,
    then b, then c in ascending order, so the first hit is the smallest
    sorted solution in lexicographic order.
    """
    if m < 0:
        raise ValueError(f"four_squares needs m >= 0, got {m}")
    a = math.isqrt(m // 4)
    while 4 * a * a < m:
        a += 1
    for a in range(a, math.isqrt(m) + 1):
        rem = m - a * a
        b = math.isqrt(rem // 3)
        while 3 * b * b < rem:
            b += 1
        for b in range(b, min(a, math.isqrt(rem)) + 1):
            rem2 = rem - b * b
            c = math.isqrt(rem2 // 2)
            while 2 * c * c < rem2:
                c += 1
            for c in range(c, min(b, math.isqrt(rem2)) + 1):
                d2 = rem2 - c * c
                d = math.isqrt(d2)
                if d * d == d2 and d <= c:
                    return (a, b, c, d)
    raise AssertionError(f"no four-square decomposition found for {m}")


# ---------------------------------------------------------------------------
# rotations


@dataclass(frozen=True, eq=False)
class RotationMatrix:
    """Orthogonal matrix with a seed, produced by random_rotation."""

    dim: int
    entries: np.ndarray
    seed: int

    def __post_init__(self):
        if self.entries.shape != (self.dim, self.dim):
            raise LatticeError("rotation entries must be dim x dim")
        if self.defect() > 1e-12:
            raise LatticeError("rotation is not orthogonal to within 1e-12")
        self.entries.setflags(write=False)

    def defect(self) -> float:
        """Largest absolute deviation of U^T U from the identity."""
        gram = self.entries.T @ self.entries
        return float(np.max(np.abs(gram - np.eye(self.dim))))


def random_rotation(n: int, seed: int) -> RotationMatrix:
    """Seeded orthogonal matrix, uniform with respect to the invariant measure.

    A Gaussian matrix is orthonormalized by QR; fixing the signs of the
    triangular factor's diagonal makes the distribution invariant and the
    output reproducible per seed.
    """
    if n < 1:
        raise LatticeError(f"rotation dimension must be positive, got {n}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return RotationMatrix(dim=n, entries=q * signs, seed=seed)


@dataclass(frozen=True, eq=False)
class RotatedLattice:
    """Image of an exact lattice under an orthogonal map.

    The rotated basis is double precision and flagged inexact; shell data is
    inherited from the exact parent, since rotations preserve norms.
    """

    parent: Lattice
    rotation: RotationMatrix

    def __post_init__(self):
        if self.parent.dim != self.rotation.dim:
            raise LatticeError("rotation dimension does not match the lattice")

    @property
    def dim(self) -> int:
        return self.parent.dim

    @property
    def name(self) -> str:
        return f"rot{self.rotation.seed}({self.parent.name})"

    @property
    def exact(self) -> bool:
        return False

    def basis(self) -> np.ndarray:
        return basis_matrix(self.parent) @ self.rotation.entries.T

    def rotated_vectors(self, max_norm: int) -> dict:
        """Rotated ambient vectors by shell, from the parent's exact search."""
        u = self.rotation.entries
        return {
            m: vecs @ u.T for m, vecs in ambient_vectors(self.parent, max_norm).items()
        }


# ---------------------------------------------------------------------------
# serialization


def lattice_to_json(lat: Lattice) -> dict:
    """Schema: dim, row-major basis as [numerator, denominator] pairs, name."""
    flat = [
        [entry.numerator, entry.denominator] for row in lat.basis for entry in row
    ]
    return {"dim": lat.dim, "basis": flat, "name": lat.name}


def lattice_from_json(obj: dict) -> Lattice:
    try:
        dim = int(obj["dim"])
        flat = obj["basis"]
        name = str(obj.get("name", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"malformed lattice object: {exc}") from exc
    if dim < 1 or len(flat) != dim * dim:
        raise LatticeError("basis length must equal dim squared")
    rows = [
        [_frac(flat[i * dim + j]) for j in range(dim)] for i in range(dim)
    ]
    built = lattice_from_rows(rows, name=name)
    if name:
        try:
            candidate = make_named(name)
        except LatticeError:
            candidate = None
        if candidate is not None and candidate.basis == built.basis:
            return candidate
    return built


def shells_to_json(series: ShellSeries) -> dict:
    """Schema: max_norm plus a sparse map from norm to count."""
    return {
        "dim": series.dim,
        "max_norm": series.max_norm,
        "counts": {str(m): r for m, r in series.as_dict().items()},
        "lattice_ref": series.lattice_ref,
    }


def shells_from_json(obj: dict) -> ShellSeries:
    try:
        max_norm = int(obj["max_norm"])
        raw = obj["counts"]
        dim = int(obj.get("dim", 0))
        ref = str(obj.get("lattice_ref", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"malformed shell series object: {exc}") from exc
    counts = [0] * (max_norm + 1)
    for key, value in raw.items():
        m = int(key)
        if not 0 <= m <= max_norm:
            raise LatticeError(f"shell norm {m} outside [0, {max_norm}]")
        counts[m] = int(value)
    return ShellSeries(dim=dim, max_norm=max_norm, counts=tuple(counts), lattice_ref=ref)
