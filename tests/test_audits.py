"""Saturation chain, collapse, graded, and sequence audits."""

import math

import mpmath
import numpy as np
import pytest

from thetacert import audits, lp
from thetacert.certificates import GaussianCombo, single_gaussian
from thetacert.lattices import dn, e8, random_rotation, zn
from thetacert.theta import InsufficientShellsError, gaussian_mass, mass_gap


@pytest.fixture(scope="module")
def lp_combo(default_problem, default_solution):
    return lp.certificate_of(default_problem, default_solution)


# --------------------------------------------------------------------------
# chain audit


def test_bare_gaussian_saturates_shells_but_fails_transform():
    """h = g has zero majorization slack on every shell while its transform
    is positive there, so the verdict is Violated at the transform condition
    on the first populated shell."""
    report = audits.chain_audit(single_gaussian(8, 1.0), zn(8), 1.0)
    assert report.verdict == "Violated"
    assert report.violated_condition == "fourier_nonpositivity"
    assert report.violated_shell == 1
    assert report.slack_majorize_total == 0.0
    # the bookkeeping identity holds regardless of the sign failure
    assert report.chain_residual <= 1e-8 + report.tail_bound


def test_lp_optimum_is_near_sharp(lp_combo, default_solution):
    report = audits.chain_audit(lp_combo, zn(8), 1.0)
    assert report.verdict == "NearSharp"
    assert abs(report.epsilon - default_solution.epsilon) <= 1e-8
    total = report.slack_majorize_total + report.slack_fourier_total
    assert abs(total - report.epsilon) <= 1e-8 + report.tail_bound


def test_mass_and_transform_stay_in_mp(lp_combo):
    """The excess over the Z8 mass and the Z8/E8 mass gap come out as the
    doubles nearest their 80-digit closed forms: neither the mass nor the
    transform coefficients are rounded to double on the way."""
    chain = audits.chain_audit(lp_combo, zn(8), 1.0)
    collapse = audits.e8_collapse_audit(lp_combo, 8, 1.0)
    with mpmath.workdps(80):
        q = mpmath.exp(-1)
        z8 = mpmath.jtheta(3, 0, q) ** 8
        e8_mass = (mpmath.jtheta(2, 0, q) ** 8 + z8 + mpmath.jtheta(4, 0, q) ** 8) / 2
        value = mpmath.fsum(c * ((mpmath.pi / a) ** 4 - 1) for c, a in lp_combo.terms)
        epsilon = float(value - (z8 - 1))
        gap = float(z8 - e8_mass)
    assert abs(chain.epsilon - epsilon) <= math.ulp(epsilon)
    assert abs(collapse.epsilon - epsilon) <= math.ulp(epsilon)
    assert abs(collapse.forced_theta_discrepancy - gap) <= math.ulp(gap)


@pytest.mark.parametrize("n, t", [(16, 0.3), (24, 0.5), (24, 0.3)])
def test_positive_combination_is_violated_not_an_audit_error(n, t):
    """A positive combination has a positive transform, so the verdict is
    Violated; at these (n, t) the chain used to miss CHAIN_TOL by 1e-7 to
    1e-5 because the mass was rounded to double (or truncated at 1e-18)."""
    widths = lp.default_dictionary(t)
    h = GaussianCombo(dim=n, terms=tuple(
        (c, widths[i]) for c, i in zip((0.7, 1.1, 1.3), (11, 12, 13))
    ))
    report = audits.chain_audit(h, zn(n), t)
    assert report.verdict == "Violated"
    assert report.violated_condition == "fourier_nonpositivity"
    assert report.chain_residual <= 1e-15


def test_chain_stations_bracket_the_slacks(lp_combo):
    report = audits.chain_audit(lp_combo, zn(8), 1.0)
    v = report.chain_values
    assert v[0] == pytest.approx(v[1], abs=1e-8)          # mass vs shell sum
    assert v[2] == pytest.approx(v[3], abs=1e-12)         # regrouping only
    assert v[4] == pytest.approx(v[5], abs=1e-12)
    assert v[3] == pytest.approx(v[4], abs=1e-8)          # transform rearrangement
    assert v[2] - v[1] == pytest.approx(report.slack_majorize_total, abs=1e-10)
    assert v[6] - v[5] == pytest.approx(report.slack_fourier_total, abs=1e-10)


def test_per_shell_rows_are_count_weighted(lp_combo):
    from thetacert.lattices import shell_series

    report = audits.chain_audit(lp_combo, zn(8), 1.0)
    counts = shell_series(zn(8), report.depth).counts
    m, a_m, _b_m = report.per_shell[0]
    point = lp_combo.eval(float(m)) - math.exp(-1.0 * m)
    assert a_m == pytest.approx(counts[m] * point, rel=1e-9)


def test_rotation_seeds_produce_identical_reports(lp_combo):
    reports = [
        audits.chain_audit(lp_combo, zn(8), 1.0, rotation=random_rotation(8, seed=s))
        for s in (1, 2, 3, 4, 5)
    ]
    base = reports[0]
    for other in reports[1:]:
        assert other.chain_values == base.chain_values
        assert other.epsilon == base.epsilon
        assert other.per_shell == base.per_shell
        assert other.rotation_defect is not None and other.rotation_defect <= 1e-9


def test_chain_rejects_non_unimodular_lattice():
    from thetacert.lattices import LatticeError

    with pytest.raises(LatticeError):
        audits.chain_audit(single_gaussian(4, 1.0), dn(4), 1.0)


def test_chain_refuses_undecidable_tails():
    sluggish = GaussianCombo(dim=8, terms=((1.0, 1e-3),))
    with pytest.raises(InsufficientShellsError):
        audits.chain_audit(sluggish, zn(8), 1.0)


def test_chain_report_json_round_trip(lp_combo):
    report = audits.chain_audit(lp_combo, zn(8), 1.0)
    blob = audits.report_to_json(report)
    assert audits.report_from_json(blob) == report
    assert audits.report_to_json(audits.report_from_json(blob)) == blob


# --------------------------------------------------------------------------
# synthetic shell data


def _exact_double(n: float, t: float, epsilon: float = 0.0) -> audits.PrescribedShellFunction:
    theta = float(gaussian_mass(zn(8), t))
    return audits.PrescribedShellFunction(
        dim=8,
        value_at_zero=1.0,
        fourier_at_zero=theta + epsilon,
        shell_value=lambda m: math.exp(-t * m),
        fourier_shell_value=lambda m: 0.0,
    )


def test_synthetic_requires_flag():
    with pytest.raises(ValueError):
        audits.chain_audit(_exact_double(8, 1.0), zn(8), 1.0)


def test_exact_double_closes_the_chain_exactly():
    report = audits.chain_audit(_exact_double(8, 1.0), zn(8), 1.0, allow_synthetic=True)
    assert report.verdict == "Sharp"
    assert abs(report.epsilon) <= 1e-12
    assert abs(report.slack_majorize_total) <= 1e-12
    assert report.slack_fourier_total == 0.0


# --------------------------------------------------------------------------
# collapse audit


def test_collapse_double_exposes_the_contradiction():
    """Prescribed data that saturates everything walks all five lines and
    leaves only the impossible conclusion, whose magnitude is the theta gap."""
    report = audits.e8_collapse_audit(_exact_double(8, 1.0), 8, 1.0, allow_synthetic=True)
    assert report.failing_step is None
    assert report.residual <= 1e-12
    assert abs(report.fourier_slack) <= 1e-12
    assert report.contradiction_magnitude == pytest.approx(float(mass_gap(1.0)), abs=1e-14)
    assert report.forced_theta_discrepancy == pytest.approx(float(mass_gap(1.0)), abs=1e-8)


def test_collapse_of_bare_gaussian_fails_at_transform_step():
    report = audits.e8_collapse_audit(single_gaussian(8, 1.0), 8, 1.0)
    assert report.failing_step == "fourier_collapse"
    assert report.residual <= 1e-12
    assert report.fourier_slack < 0.0


def test_collapse_of_lp_optimum_blocks_at_saturation(lp_combo, default_solution):
    report = audits.e8_collapse_audit(lp_combo, 8, 1.0)
    assert report.failing_step == "shell_saturation"
    floor = float(mass_gap(1.0)) - default_solution.epsilon - report.tail_bound
    assert report.residual >= floor > 0.0


def test_collapse_in_dimension_twelve(lp_combo):
    combo12 = GaussianCombo(dim=12, terms=((0.9, 0.8), (0.1, 2.0)))
    report = audits.e8_collapse_audit(combo12, 12, 1.0)
    assert report.lattice_label.startswith("E8")
    assert report.dim == 12


def test_collapse_needs_dimension_eight():
    with pytest.raises(ValueError):
        audits.e8_collapse_audit(single_gaussian(4, 1.0), 4, 1.0)


# --------------------------------------------------------------------------
# graded audit


def test_graded_identical_pair_is_all_zero(lp_combo):
    pair = audits.GradedPair(h_zn=lp_combo, h_lc=lp_combo)
    report = audits.graded_audit(pair, 8, 1.0)
    assert report.verdict == "SignsHold"
    assert report.f_zero == 0.0
    assert report.sum_f == 0.0
    assert report.comparison_residual <= 1e-12


def test_graded_doubled_gaussian_violates_transform_sign():
    g = single_gaussian(8, 1.0)
    pair = audits.GradedPair(h_zn=g, h_lc=g.scaled(2.0))
    report = audits.graded_audit(pair, 8, 1.0)
    assert report.verdict == "Violated"
    # first populated shell of the comparison lattice is norm two
    assert report.first_violation == ("F_transform_nonpositive", 2)


def test_graded_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        audits.GradedPair(h_zn=single_gaussian(8, 1.0), h_lc=single_gaussian(4, 1.0))


def test_graded_difference_is_signed_concatenation(lp_combo):
    g = single_gaussian(8, 2.0)
    pair = audits.GradedPair(h_zn=g, h_lc=lp_combo)
    diff = pair.difference
    assert diff.terms == lp_combo.terms + tuple((-c, a) for c, a in g.terms)


def test_graded_comparison_on_twenty_random_pairs():
    """The transform comparison identity is a theorem for genuine Gaussian
    combinations; twenty random pairs must all close within 1e-8."""
    rng = np.random.default_rng(20240817)
    for trial in range(20):
        terms_a = tuple(
            (float(c), float(a))
            for c, a in zip(rng.uniform(-1, 1, 3), rng.uniform(0.5, 4.0, 3))
        )
        terms_b = tuple(
            (float(c), float(a))
            for c, a in zip(rng.uniform(-1, 1, 3), rng.uniform(0.5, 4.0, 3))
        )
        pair = audits.GradedPair(
            h_zn=GaussianCombo(dim=8, terms=terms_a),
            h_lc=GaussianCombo(dim=8, terms=terms_b),
        )
        report = audits.graded_audit(pair, 8, 1.0)
        assert report.comparison_residual <= 1e-8, trial


# --------------------------------------------------------------------------
# sequence audit


def test_sequence_single_element_degrades_to_chain(lp_combo):
    report = audits.sequence_audit([lp_combo], 8, 1.0)
    assert report.count == 1
    assert report.chain is not None
    assert report.verdict == report.chain.verdict == "NearSharp"


def test_sequence_of_doubles_realizes_the_theta_clash():
    """A manufactured family with excesses shrinking to zero, summable under
    a shared envelope, forces limit sums on the collapse lattice that differ
    by exactly the Z8 versus E8 mass difference."""
    doubles = [_exact_double(8, 1.0, epsilon=e) for e in (1e-6, 1e-9, 0.0)]
    depth = 4096
    env_h = [math.exp(-m) * 1.01 for m in range(1, depth + 1)]
    env_f = [1e-30] * depth
    report = audits.sequence_audit(
        doubles, 8, 1.0, dominators=(env_h, env_f), allow_synthetic=True
    )
    assert report.verdict == "ThetaClash"
    assert report.epsilons[-1] == pytest.approx(0.0, abs=1e-12)
    expected = float(gaussian_mass(zn(8), 1.0)) - float(gaussian_mass(e8(), 1.0))
    assert report.theta_clash == pytest.approx(expected, abs=1e-8)
    assert report.clash_expected == pytest.approx(expected, abs=1e-12)


def test_sequence_unsummable_envelope_is_refused():
    doubles = [_exact_double(8, 1.0)]
    flat = [1.0] * 4096
    with pytest.raises(ValueError, match="envelope not summable"):
        audits.sequence_audit(doubles, 8, 1.0, dominators=(flat, flat), allow_synthetic=True)


def test_sequence_envelope_must_cover_the_family():
    doubles = [_exact_double(8, 1.0)]
    depth = 4096
    env = [1e-40] * depth
    with pytest.raises(ValueError, match="escapes"):
        audits.sequence_audit(doubles, 8, 1.0, dominators=(env, env), allow_synthetic=True)


def test_sequence_epsilons_reported_per_element(lp_combo):
    g_like = GaussianCombo(dim=8, terms=lp_combo.terms)
    report = audits.sequence_audit([lp_combo, g_like], 8, 1.0)
    assert report.count == 2
    assert report.epsilons[0] == pytest.approx(report.epsilons[1], abs=1e-12)
