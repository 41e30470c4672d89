"""Exact lattice constructions, shell enumeration, and their invariants."""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from thetacert import lattices as lat

# Frozen from independent coefficient arithmetic: theta series of Z^8 is the
# eighth power of the one-dimensional series, E8's counts are 240*sigma3 on
# even norms.
Z8_COUNTS = (1, 16, 112, 448, 1136, 2016, 3136, 5504, 9328, 12112, 14112)
E8_COUNTS = (1, 0, 240, 0, 2160, 0, 6720, 0, 17520, 0, 30240)


def test_z8_shell_counts():
    series = lat.shell_series(lat.zn(8), 10)
    assert series.counts == Z8_COUNTS


def test_e8_shell_counts():
    series = lat.shell_series(lat.e8(), 10)
    assert series.counts == E8_COUNTS


def test_cumulative_counts_through_norm_two():
    z8 = lat.enumerate_shells(lat.zn(8), 2)
    e8 = lat.enumerate_shells(lat.e8(), 2)
    assert sum(z8.counts) == 129
    assert sum(e8.counts) == 241


def test_e8_counts_match_divisor_sums():
    series = lat.shell_series(lat.e8(), 12)
    for m in (2, 4, 6, 8, 10, 12):
        assert series.counts[m] == 240 * lat.sigma3(m // 2)


@pytest.mark.parametrize("name", ["Z1", "Z4", "Z8", "D4", "E8", "D8+Z1"])
def test_enumeration_agrees_with_structured_series(name):
    """Brute-force box enumeration and product-structure coefficient
    arithmetic are independent; they must produce the same counts."""
    lattice = lat.make_named(name)
    brute = lat.enumerate_shells(lattice, 10)
    struct = lat.shell_series(lattice, 10)
    assert brute.counts == struct.counts


def test_enumeration_agrees_in_dimension_twelve():
    lattice = lat.make_named("E8+Z4")
    assert lat.enumerate_shells(lattice, 8).counts == lat.shell_series(lattice, 8).counts


@pytest.mark.parametrize("name, depth", [("Z12", 6), ("D16", 6), ("E8", 16)])
def test_raw_basis_enumeration_agrees_with_structured_series(name, depth):
    named = lat.make_named(name)
    raw = lat.lattice_from_rows(named.basis, name=f"raw{name}")
    assert raw.structure is None
    assert lat.shell_series(raw, depth).counts == lat.shell_series(named, depth).counts


def test_dn_construction():
    d4 = lat.dn(4)
    assert lat.determinant(d4) == 4
    assert lat.is_integral(d4)
    assert not lat.is_unimodular(d4)
    # D4 kissing number
    assert lat.shell_series(d4, 2).counts[2] == 24


def test_e8_is_integral_unimodular_even():
    e8 = lat.e8()
    assert lat.is_integral(e8)
    assert lat.is_unimodular(e8)
    counts = lat.shell_series(e8, 9).counts
    assert all(counts[m] == 0 for m in range(1, 10, 2))


def test_direct_sum_multiplies_series():
    a = lat.shell_series(lat.e8(), 6).counts
    b = lat.shell_series(lat.zn(4), 6).counts
    combined = lat.shell_series(lat.direct_sum([lat.e8(), lat.zn(4)]), 6).counts
    for m in range(7):
        assert combined[m] == sum(a[i] * b[m - i] for i in range(m + 1))


def test_four_squares_reconstructs_norm():
    for m in range(0, 10_001):
        a, b, c, d = lat.four_squares(m)
        assert a * a + b * b + c * c + d * d == m


def test_four_squares_rejects_negative():
    with pytest.raises(ValueError):
        lat.four_squares(-1)


def test_make_named_rejects_garbage():
    with pytest.raises(lat.LatticeError):
        lat.make_named("Q17")


def test_lattice_json_round_trip():
    for name in ("Z4", "E8", "E8+Z4"):
        original = lat.make_named(name)
        back = lat.lattice_from_json(lat.lattice_to_json(original))
        assert back.dim == original.dim
        assert back.gram == original.gram


def test_shells_json_round_trip():
    series = lat.shell_series(lat.e8(), 8)
    back = lat.shells_from_json(lat.shells_to_json(series))
    assert back == series


def test_stability_certificates():
    assert lat.stability_certificate(lat.e8()) == lat.CERTIFIED_STABLE
    assert lat.stability_certificate(lat.zn(4)) == lat.CERTIFIED_STABLE
    assert lat.stability_certificate(lat.dn(4)) == lat.NOT_APPLICABLE


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv(lat.BUDGET_ENV_VAR, "25")
    with pytest.raises(lat.BudgetExceededError):
        lat.enumerate_shells(lat.zn(8), 6)


def test_budget_fires_before_a_large_frontier():
    start = time.perf_counter()
    with pytest.raises(lat.BudgetExceededError):
        lat.enumerate_shells(lat.zn(16), 30, budget=10**5)
    assert time.perf_counter() - start < 1.0


def test_rotation_preserves_norms():
    rot = lat.random_rotation(8, seed=11)
    assert rot.defect() < 1e-12
    rotated = lat.RotatedLattice(lat.zn(8), rot)
    by_shell = rotated.rotated_vectors(3)
    plain = lat.shell_series(lat.zn(8), 3)
    for m, vecs in by_shell.items():
        assert len(vecs) == plain.counts[m]
        if len(vecs):
            norms = (vecs * vecs).sum(axis=1)
            assert abs(norms - m).max() < 1e-9


def test_rotated_vectors_are_pinned():
    z8 = lat.zn(8)
    rot = lat.random_rotation(8, seed=11)
    got = lat.RotatedLattice(z8, rot).rotated_vectors(3)
    want = _box_vectors(z8, 3)
    assert list(got) == list(want)
    for m, coords in want.items():
        expected = (coords.astype(float) @ lat.basis_matrix(z8)) @ rot.entries.T
        assert np.array_equal(got[m], expected)


def _box_vectors(lattice, max_norm):
    """Every coordinate vector in the box |x_i| <= sqrt(max_norm), filtered
    by its exact norm; the box holds every shell of Z^n, and of D4 through
    norm 4."""
    gram = np.array(lattice.gram, dtype=np.int64)
    side = range(-math.isqrt(max_norm), math.isqrt(max_norm) + 1)
    by_norm = {}
    for x in itertools.product(side, repeat=lattice.dim):
        norm = int(np.array(x) @ gram @ np.array(x))
        if norm <= max_norm:
            by_norm.setdefault(norm, []).append(x)
    return {m: np.array(sorted(by_norm[m]), dtype=np.int64) for m in sorted(by_norm)}


def _e8_vectors(max_norm):
    """E8 vectors from its ambient description (D8 and D8 + 1/2, coordinates
    at most 2 in absolute value, enough through norm 4), mapped to basis
    coordinates."""
    e8 = lat.e8()
    inverse = np.linalg.inv(lat.basis_matrix(e8))
    by_norm = {}
    for values in ((-2, -1, 0, 1, 2), (-1.5, -0.5, 0.5, 1.5)):
        for v in itertools.product(values, repeat=8):
            norm = sum(c * c for c in v)
            if norm <= max_norm and sum(v) % 2 == 0:
                coords = np.array(v) @ inverse
                x = tuple(int(c) for c in np.rint(coords))
                assert np.array_equal(np.array(x) @ lat.basis_matrix(e8), np.array(v))
                by_norm.setdefault(int(norm), []).append(x)
    return {m: np.array(sorted(by_norm[m]), dtype=np.int64) for m in sorted(by_norm)}


@pytest.mark.parametrize(
    "name, depth, reference",
    [
        ("D4", 4, lambda: _box_vectors(lat.dn(4), 4)),
        ("Z3", 6, lambda: _box_vectors(lat.zn(3), 6)),
        ("E8", 4, lambda: _e8_vectors(4)),
    ],
)
def test_collected_vectors_match_brute_force(name, depth, reference):
    got = lat.enumerate_vectors(lat.make_named(name), depth)
    want = reference()
    assert list(got) == list(want)
    for m in want:
        assert got[m].dtype == np.int64
        assert np.array_equal(got[m], want[m])


def test_cached_vectors_are_read_only():
    vecs = lat.enumerate_vectors(lat.dn(4), 2)
    with pytest.raises(ValueError):
        vecs[2][0, 0] = 5
    assert lat.enumerate_vectors(lat.dn(4), 2)[2][0, 0] != 5


def _skewed(name, k):
    """Another basis of a named lattice, from a fixed sequence of unimodular
    row operations: a mix of neighbours, which makes the decomposition
    non-dyadic, then a chain scaled by k, which makes the entries large."""
    rows = [list(row) for row in lat.make_named(name).basis]
    mix = [(0, 1, 1), (2, 3, -1), (4, 5, 1), (6, 7, 1), (1, 2, 1), (5, 6, -1), (3, 4, 1)]
    chain = [(i, i - 1, (-1) ** i * k) for i in range(1, 8)] + [(7, 0, k), (6, 1, -k)]
    for i, j, c in mix + chain:
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return lat.lattice_from_rows(rows, name=f"skew{k}{name}")


@pytest.mark.parametrize(
    "name, k, entries_above, closed_form",
    [
        # entries in the thousands: a search without rounding margins misses
        # about half of shell 8 on both
        ("Z8", 3, 1000, lambda: _r8(8)),
        ("E8", 3, 1000, lambda: _e8(8)),
        # entries near 4e7: fixed margins of 1e-7 (instead of ones scaled to
        # the centres) lose 24 vectors of shell 8
        ("E8", 12, 10**7, lambda: _e8(8)),
    ],
)
def test_skewed_bases_count_exactly(name, k, entries_above, closed_form):
    skewed = _skewed(name, k)
    assert lat.is_unimodular(skewed)
    assert max(abs(entry) for row in skewed.basis for entry in row) > entries_above
    assert list(lat.enumerate_shells(skewed, 8).counts) == closed_form()


def test_basis_beyond_int64_is_refused_or_exact():
    sheared = lat.lattice_from_rows([[1, 0], [10**12, 1]], name="sheared")
    try:
        counts = lat.enumerate_shells(sheared, 8).counts
    except lat.LatticeError:
        return
    assert counts == lat.shell_series(lat.zn(2), 8).counts


def _divisor_sum(depth, weight):
    out = [0] * (depth + 1)
    for d in range(1, depth + 1):
        for m in range(d, depth + 1, d):
            out[m] += weight(d, m)
    return out


def _r4(depth):
    """Jacobi: r4(m) = 8 * sum of the divisors of m not divisible by 4."""
    out = _divisor_sum(depth, lambda d, m: 8 * d if d % 4 else 0)
    out[0] = 1
    return out


def _r8(depth):
    """Jacobi: r8(m) = 16 * sum over d | m of (-1)^(m+d) d^3."""
    out = _divisor_sum(depth, lambda d, m: 16 * (-1) ** (m + d) * d**3)
    out[0] = 1
    return out


def _e8(depth):
    sigma = _divisor_sum(depth // 2, lambda d, m: d**3)
    return [1] + [240 * sigma[m // 2] if m % 2 == 0 else 0 for m in range(1, depth + 1)]


def _product(a, b):
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


@pytest.mark.parametrize(
    "name, depth, closed_form",
    [
        ("Z8", 4096, _r8),
        ("E8+Z4", 4096, lambda d: _product(_e8(d), _r4(d))),
        # D16 is the even-norm part of Z16 = Z8 + Z8
        ("D16", 1024, lambda d: [c if m % 2 == 0 else 0 for m, c in enumerate(_product(_r8(d), _r8(d)))]),
    ],
)
def test_deep_structured_series_match_divisor_sums(name, depth, closed_form):
    assert list(lat.shell_series(lat.make_named(name), depth).counts) == closed_form(depth)
