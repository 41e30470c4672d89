"""Nullwerte, Gaussian masses, and the classical identity suite."""

import math

import mpmath
import pytest

from thetacert import theta
from thetacert.lattices import dn, e8, lattice_from_rows, make_named, zn

# Anchors frozen from 40-digit mpmath evaluations of the defining series.
E4_AT_ONE = 97.40915357737309
Z8_AT_ONE = 97.48973316380332
GAP_AT_ONE = 0.08057958643023068

T_GRID = (0.3, 0.5, 1.0, math.pi, 5.0)


def test_e8_mass_anchor():
    assert float(theta.gaussian_mass(e8(), 1.0)) == pytest.approx(E4_AT_ONE, abs=1e-12)


def test_z8_mass_anchor():
    assert float(theta.gaussian_mass(zn(8), 1.0)) == pytest.approx(Z8_AT_ONE, abs=1e-12)


def test_gap_anchor():
    assert float(theta.mass_gap(1.0)) == pytest.approx(GAP_AT_ONE, abs=1e-14)


def test_eisenstein_matches_e8_mass():
    for t in T_GRID:
        assert float(theta.eisenstein_e4(t)) == pytest.approx(
            float(theta.gaussian_mass(e8(), t)), rel=1e-14
        )


def test_jacobi_theta_against_mpmath():
    """The q-series evaluator must agree with mpmath's jtheta."""
    for t in (0.3, 1.0, 2.5):
        q = mpmath.exp(-t)
        for idx in (2, 3, 4):
            ours = theta.jacobi_theta(idx, t)
            ref = mpmath.jtheta(idx, 0, q)
            assert abs(float(ours) - float(ref)) < 1e-14 * float(ref)


@pytest.mark.parametrize("t", T_GRID)
def test_identity_suite_residuals(t):
    result = theta.identity_suite(t)
    assert result.pop("gap_positive")
    for name, residual in result.items():
        assert residual <= 1e-12, (name, residual)


def test_gap_is_strictly_positive_across_widths():
    for t in (0.1, 0.5, 1.0, 2.0, 10.0):
        assert float(theta.mass_gap(t)) > 0.0


def test_symmetry_point_quarter_ratio():
    """At t = pi the gap equals exactly one quarter of the Z8 mass."""
    z8 = float(theta.gaussian_mass(zn(8), math.pi))
    gap = float(theta.mass_gap(math.pi))
    assert abs(gap - z8 / 4.0) < 1e-10


def test_theta2_equals_theta4_at_symmetry_point():
    q = mpmath.exp(-mpmath.pi)
    assert abs(float(mpmath.jtheta(2, 0, q)) - float(mpmath.jtheta(4, 0, q))) < 1e-12


def test_secrecy_gain_of_e8():
    assert theta.secrecy_function(e8(), 1.0) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_secrecy_of_zn_is_one():
    assert theta.secrecy_function(zn(8), 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["Z1", "Z4", "Z8", "Z12", "E8", "E8+Z4"])
@pytest.mark.parametrize("t", (0.3, 1.0, math.pi, 5.0))
def test_functional_equation(name, t):
    residual = theta.functional_equation_residual(make_named(name), t, tol=1e-9)
    assert residual <= 1e-9


def test_mass_at_huge_width_is_one():
    assert float(theta.gaussian_mass(e8(), 1e9)) == pytest.approx(1.0, abs=1e-15)


def test_mass_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        theta.gaussian_mass(zn(8), 0.0)
    with pytest.raises(ValueError):
        theta.gaussian_mass(zn(8), -1.0)


def test_theta_from_shells_matches_closed_form():
    from thetacert.lattices import shell_series

    series = shell_series(zn(8), 60)
    via_shells = theta.theta_from_shells(series, 1.0)
    assert float(via_shells) == pytest.approx(Z8_AT_ONE, abs=1e-10)


def test_theta_from_shells_refuses_shallow_data():
    from thetacert.lattices import shell_series

    series = shell_series(zn(8), 3)
    with pytest.raises(theta.InsufficientShellsError):
        theta.theta_from_shells(series, 0.05, tol=1e-9)
    # without a requested tolerance the value comes back with an honest
    # infinite error bar instead
    assert theta.theta_from_shells(series, 0.05).abs_error == math.inf


def test_required_depth_monotone_in_width():
    assert theta.required_depth(8, 0.3, 1e-12) >= theta.required_depth(8, 3.0, 1e-12)


def test_shell_tail_bound_closes_for_fast_decay():
    bound = theta.shell_tail_bound(8, 200, 1.0)
    assert 0.0 < bound < 1e-60


def test_shell_tail_bound_refuses_slow_decay():
    assert theta.shell_tail_bound(8, 10, 1e-6) == math.inf


def test_value_object_is_floatable():
    value = theta.gaussian_mass(zn(4), 2.0)
    assert isinstance(float(value), float)
    assert value.abs_error >= 0.0


def _closed_form_mass(name, t):
    """50-digit masses from the nullwerte: Z8 = theta3^8, D8 its even part,
    E8 = (theta2^8 + theta3^8 + theta4^8) / 2."""
    with mpmath.workdps(50):
        q = mpmath.exp(-mpmath.mpf(t))
        v2, v3, v4 = (mpmath.jtheta(k, 0, q) ** 8 for k in (2, 3, 4))
        return {"Z8": v3, "D8": (v3 + v4) / 2, "E8": (v2 + v3 + v4) / 2}[name]


# A raw basis (no structure tag) is summed by enumeration, which reaches the
# depth t = 5 needs (norm 10) but not that of t = 1 (56) or t = 0.3 (196).
_MASS_CASES = [(name, False, t) for name in ("Z8", "D8", "E8") for t in (0.3, 1.0, 5.0)]
_MASS_CASES += [(name, True, 5.0) for name in ("Z8", "D8", "E8")]


@pytest.mark.parametrize("name, raw, t", _MASS_CASES)
def test_mass_error_bar_contains_closed_form(name, raw, t):
    """The stated abs_error also covers rounding the value to double."""
    lattice = {"Z8": zn(8), "D8": dn(8), "E8": e8()}[name]
    if raw:
        lattice = lattice_from_rows(lattice.basis, name=f"raw{name}")
    value = theta.gaussian_mass(lattice, t)
    with mpmath.workdps(50):
        assert abs(_closed_form_mass(name, t) - value.value) <= value.abs_error
