"""Exact lattice constructions, shell enumeration, and their invariants."""

import json
import os

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
    # shallow depth: the box blows up quickly past eight dimensions
    lattice = lat.make_named("E8+Z4")
    assert lat.enumerate_shells(lattice, 4).counts == lat.shell_series(lattice, 4).counts


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
