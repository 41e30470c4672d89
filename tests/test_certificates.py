"""Gaussian combinations, their transforms, and Poisson checks."""

import json
import math

import mpmath
import pytest

from thetacert import lp
from thetacert.certificates import (
    GaussianCombo,
    combo_from_json,
    combo_to_json,
    fourier,
    fourier_terms_mp,
    gaussian_noncert_report,
    poisson_check,
    shell_values_mp,
    single_gaussian,
)
from thetacert.lattices import make_named, zn


def test_single_gaussian_evaluation():
    g = single_gaussian(8, 1.5)
    assert g.eval(0.0) == pytest.approx(1.0)
    assert g.eval(2.0) == pytest.approx(math.exp(-3.0))


def test_fourier_of_gaussian():
    # exp(-a r^2) transforms to (pi/a)^(n/2) exp(-pi^2 r^2 / a)
    g = single_gaussian(4, 2.0)
    gh = fourier(g)
    ((c, a),) = gh.terms
    assert c == pytest.approx((math.pi / 2.0) ** 2)
    assert a == pytest.approx(math.pi**2 / 2.0)


def test_fourier_is_an_involution():
    combo = GaussianCombo(dim=8, terms=((0.4, 0.7), (-0.1, 2.2), (0.05, 5.0)))
    twice = fourier(fourier(combo))
    for (c1, a1), (c2, a2) in zip(combo.terms, twice.terms):
        assert c2 == pytest.approx(c1, rel=1e-12)
        assert a2 == pytest.approx(a1, rel=1e-12)


def test_at_zero_sums_coefficients():
    combo = GaussianCombo(dim=8, terms=((0.25, 1.0), (0.5, 3.0)))
    assert float(combo.at_zero()) == pytest.approx(0.75)


def test_plus_minus_are_exact_concatenations():
    a = GaussianCombo(dim=8, terms=((1.0, 1.0),))
    b = GaussianCombo(dim=8, terms=((0.5, 2.0),))
    s = a.plus(b)
    d = a.minus(b)
    assert s.terms == ((1.0, 1.0), (0.5, 2.0))
    assert d.terms == ((1.0, 1.0), (-0.5, 2.0))


def test_combo_rejects_dimension_mismatch():
    a = GaussianCombo(dim=8, terms=((1.0, 1.0),))
    b = GaussianCombo(dim=4, terms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        a.plus(b)


def test_mp_eval_matches_float_eval():
    combo = GaussianCombo(dim=8, terms=((0.3, 0.9), (0.7, 1.8)))
    for r2 in (0.0, 1.0, 7.5):
        assert float(combo.eval_mp(r2)) == pytest.approx(combo.eval(r2), rel=1e-13)


@pytest.mark.parametrize("name", ["Z4", "Z8", "E8", "E8+Z4"])
def test_poisson_check_on_unimodular_lattices(name):
    combo = GaussianCombo(dim=make_named(name).dim, terms=((0.7, 0.9), (0.2, 1.7), (0.1, 3.1)))
    report = poisson_check(combo, make_named(name))
    assert report.ok
    assert report.residual <= 1e-9


def test_poisson_check_three_term_combo_tight():
    combo = GaussianCombo(dim=12, terms=((0.7, 0.9), (0.2, 1.7), (0.1, 3.1)))
    report = poisson_check(combo, make_named("E8+Z4"))
    assert report.residual <= 1e-12


def test_combo_json_round_trip():
    combo = GaussianCombo(dim=8, terms=((0.125, 0.5), (-3.5e-9, 4.0)))
    blob = json.dumps(combo_to_json(combo), sort_keys=True)
    back = combo_from_json(json.loads(blob))
    assert back == combo


def test_noncert_report_shows_fourier_positivity():
    """The bare Gaussian is not a certificate: its transform is strictly
    positive on every shell, and the report must say so."""
    report = gaussian_noncert_report(8, 1.0)
    assert report.nonpositivity_violated
    assert report.min_transform_value > 0.0
    assert max(abs(v) for v in report.majorization_residuals) == 0.0


def test_scaled_combo():
    combo = GaussianCombo(dim=8, terms=((2.0, 1.0),))
    assert combo.scaled(0.5).terms == ((1.0, 1.0),)


@pytest.mark.parametrize(
    "norms",
    [list(range(1, 513)), list(range(2, 513, 2)), [7, 8, 11, 30, 31, 200, 203]],
    ids=["Z8 shells", "E8 even shells", "first norm 7"],
)
def test_running_powers_match_direct_exponentials(default_problem, default_solution, norms):
    """The running-power kernel at audit precision against one exp per term
    at 80 digits, on the 24-term LP certificate and its mp transform."""
    h = lp.certificate_of(default_problem, default_solution)
    assert len(h.terms) == 24
    with mpmath.workdps(30):
        hhat = GaussianCombo(dim=h.dim, terms=tuple(fourier_terms_mp(h)))
        values = [shell_values_mp(h.terms, norms), shell_values_mp(hhat.terms, norms)]
    with mpmath.workdps(80):
        for combo, got in zip((h, hhat), values):
            for m, v in zip(norms, got):
                scale = mpmath.fsum(abs(c) * mpmath.exp(-a * m) for c, a in combo.terms)
                assert abs(v - combo.eval_mp(m)) <= mpmath.mpf("1e-25") * scale, m


def test_running_powers_reject_unordered_norms():
    with pytest.raises(ValueError):
        shell_values_mp(((1.0, 1.0),), [3, 2])
    with pytest.raises(ValueError):
        shell_values_mp(((1.0, 1.0),), [-1, 2])
