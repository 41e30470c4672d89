"""Independent references the benchmark checks answers against.

Nothing here calls into thetacert's solvers or shell engines: LP instances
are rebuilt from the public ``LPProblem`` fields and solved by scipy's HiGHS,
and shell counts come from classical divisor-sum formulas (Conway & Sloane,
SPLAG ch. 4), combined by convolution where a lattice is a sum or a sublattice.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# primes near 2**20: a residue convolution of 4097 terms stays below 2**53
_PRIMES = (1048573, 1048571)


def highs_solve(problem) -> tuple[str, float | None]:
    """Status and objective of the certificate LP, solved by HiGHS.

    Rows are the majorization ``sum c_k e^{-a_k m} >= e^{-t m}`` and the
    transform sign ``sum c_k (pi/a_k)^{n/2} e^{-pi^2 m/a_k} <= 0`` for each
    shell norm m; the objective is ``1 + sum c_k ((pi/a_k)^{n/2} - 1)`` over
    free c.  Each row is divided by its largest magnitude, which leaves the
    feasible set and the optimum unchanged and keeps HiGHS out of trouble
    with entries spanning hundreds of orders of magnitude.
    """
    from scipy.optimize import linprog

    a = np.asarray(problem.dictionary, dtype=float)
    m = np.asarray(problem.shell_norms, dtype=float)
    amp = (math.pi / a) ** (problem.dim / 2.0)
    A = np.vstack([-np.exp(-np.outer(m, a)), amp * np.exp(-(math.pi**2) * np.outer(m, 1.0 / a))])
    b = np.concatenate([-np.exp(-problem.t * m), np.zeros(len(m))])
    scale = np.maximum(np.abs(A).max(axis=1), np.abs(b))
    scale[scale == 0.0] = 1.0
    res = linprog(amp - 1.0, A_ub=A / scale[:, None], b_ub=b / scale,
                  bounds=(None, None), method="highs")
    status = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}.get(res.status, "Inconclusive")
    return status, (1.0 + float(res.fun)) if status == "Optimal" else None


def _divisor_sums(depth: int, weight) -> list[int]:
    """out[m] = sum over divisors d of m of weight(d, m), for 1 <= m <= depth."""
    out = [0] * (depth + 1)
    for d in range(1, depth + 1):
        for mult in range(d, depth + 1, d):
            out[mult] += weight(d, mult)
    return out


def r4(depth: int) -> list[int]:
    """Jacobi: r4(m) = 8 * sum of the divisors of m not divisible by 4."""
    out = _divisor_sums(depth, lambda d, m: 8 * d if d % 4 else 0)
    out[0] = 1
    return out


def r8(depth: int) -> list[int]:
    """Jacobi: r8(m) = 16 * sum over d | m of (-1)^(m+d) d^3."""
    out = _divisor_sums(depth, lambda d, m: 16 * d**3 * (-1) ** (m + d))
    out[0] = 1
    return out


def e8_counts(depth: int) -> list[int]:
    """E8 shells: 240 sigma_3(m/2) at even m, none at odd m."""
    sigma = _divisor_sums(depth // 2, lambda d, m: d**3)
    return [1 if m == 0 else (240 * sigma[m // 2] if m % 2 == 0 else 0) for m in range(depth + 1)]


def _even_part(counts: list[int]) -> list[int]:
    """D_n inside Z^n: a vector has even coordinate sum iff its norm is even."""
    return [c if m % 2 == 0 else 0 for m, c in enumerate(counts)]


def _residue_convolve(a: list[int], b: list[int], depth: int) -> list[tuple[int, ...]]:
    """Coefficients 0..depth of a * b, as residues modulo each of _PRIMES."""
    out = []
    for p in _PRIMES:
        x = np.array([v % p for v in a[: depth + 1]], dtype=np.int64)
        y = np.array([v % p for v in b[: depth + 1]], dtype=np.int64)
        out.append(np.convolve(x, y)[: depth + 1] % p)
    return [tuple(int(r[m]) for r in out) for m in range(depth + 1)]


def shell_counts(name: str, depth: int) -> list:
    """Reference shell counts 0..depth of a named lattice.

    Exact integers for Z8, D8 and E8; residues modulo _PRIMES for the sums
    E8+Z4 and D16, whose exact convolution would dominate the check.
    """
    if name == "Z8":
        return r8(depth)
    if name == "D8":
        return _even_part(r8(depth))
    if name == "E8":
        return e8_counts(depth)
    if name == "E8+Z4":
        return _residue_convolve(e8_counts(depth), r4(depth), depth)
    if name == "D16":
        r8s = r8(depth)
        return [c if m % 2 == 0 else (0,) * len(_PRIMES)
                for m, c in enumerate(_residue_convolve(r8s, r8s, depth))]
    raise ValueError(f"no reference for {name!r}")


def counts_agree(counts: list[int], ref: list) -> bool:
    """Whether counts match the reference entry by entry: exactly where the
    reference holds an integer, modulo _PRIMES where it holds residues."""
    return len(counts) == len(ref) and all(
        c == r if isinstance(r, int) else tuple(c % p for p in _PRIMES) == r
        for c, r in zip(counts, ref)
    )


def e8_mass(t: float) -> mpmath.mpf:
    """Gaussian mass of E8 at width t, 1 + 240 sum sigma_3(k) e^{-2tk}, to 50 digits."""
    with mpmath.workdps(50):
        tail_start = 1
        while math.exp(-2 * t * tail_start) * tail_start**4 > 1e-60:
            tail_start += 1
        sigma = _divisor_sums(tail_start, lambda d, m: d**3)
        return 1 + 240 * mpmath.fsum(sigma[k] * mpmath.exp(-2 * mpmath.mpf(t) * k)
                                     for k in range(1, tail_start + 1))


def check_vectors(by_norm: dict, lattice) -> tuple[list[int], bool]:
    """Counts per norm of collected coordinate vectors, and whether every
    vector's exact norm under the Gram matrix equals the norm it is filed at."""
    depth = max(by_norm, default=0)
    gram = [[float(g) for g in row] for row in lattice.gram]
    if any(g != int(g) for row in gram for g in row):
        raise ValueError("check_vectors needs an integral Gram matrix")
    G = np.array(gram, dtype=np.int64)
    counts = [0] * (depth + 1)
    ok = True
    for m, vecs in by_norm.items():
        vecs = np.asarray(vecs, dtype=np.int64)
        norms = np.einsum("ij,jk,ik->i", vecs, G, vecs)
        ok = ok and bool((norms == m).all())
        counts[m] = len(vecs)
    return counts, ok
