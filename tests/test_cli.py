"""End-to-end command line checks against the installed entry point."""

import json
import os
import subprocess
import sys

import pytest

from thetacert.certificates import GaussianCombo, combo_to_json, single_gaussian

_CMD = [sys.executable, "-m", "thetacert.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        _CMD + [str(a) for a in args], capture_output=True, text=True, env=env
    )


@pytest.fixture(scope="module")
def cert_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("certs")
    (d / "gauss8.json").write_text(json.dumps(combo_to_json(single_gaussian(8, 1.0))))
    combo12 = GaussianCombo(dim=12, terms=((0.7, 0.9), (0.25, 2.0), (0.05, 5.0)))
    (d / "combo12.json").write_text(json.dumps(combo_to_json(combo12)))
    return d


def test_identity_suite_passes():
    proc = run_cli("theta", "--identity-suite", "--t", "1.0")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "v1"
    assert payload["gap_positive"] is True
    assert payload["worst_residual"] <= 1e-12


def test_theta_reports_the_gap():
    proc = run_cli("theta", "--lattice", "E8", "--t", "1.0", "--gap")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["values"][0]["gap"] > 0


def test_lattice_summary():
    proc = run_cli("lattice", "--lattice", "E8", "--shells", "8")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["counts"][:3] == [1, 0, 240]
    assert payload["determinant"] == "1"
    assert payload["unimodular"] is True


def test_lp_run_with_collapse_is_fully_verified():
    proc = run_cli(
        "lp", "--n", "8", "--t", "1.0", "--dict", "default",
        "--shells", "40", "--audit-e8",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    run = payload["runs"][0]
    assert run["solution"]["status"] == "Optimal"
    assert run["solution"]["epsilon"] > 0
    assert run["verification"]["verdict"] == "NearSharp"
    assert run["collapse"]["failing_step"] == "shell_saturation"


def test_lp_single_width_is_a_verification_failure():
    proc = run_cli("lp", "--n", "8", "--t", "1.0", "--dict", "1.0")
    assert proc.returncode == 2
    assert "Infeasible" in proc.stdout


def test_bad_dimension_is_a_config_error():
    proc = run_cli("lp", "--n", "3", "--t", "1.0")
    assert proc.returncode == 3


def test_unknown_command_is_a_config_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 3


def test_budget_exhaustion_has_its_own_exit_code(cert_dir):
    proc = run_cli(
        "audit", str(cert_dir / "gauss8.json"), "--t", "1.0", "--seed", "7",
        env_extra={"THETA_CERT_BUDGET": "50"},
    )
    assert proc.returncode == 4


def test_audit_of_bare_gaussian_reports_violation(cert_dir):
    proc = run_cli("audit", str(cert_dir / "gauss8.json"), "--t", "1.0")
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    chain = payload["chain"][0]
    assert chain["verdict"] == "Violated"
    assert chain["violated_condition"] == "fourier_nonpositivity"


def test_audit_output_is_rotation_invariant(cert_dir):
    a = run_cli("audit", str(cert_dir / "gauss8.json"), "--t", "1.0", "--seed", "11")
    b = run_cli("audit", str(cert_dir / "gauss8.json"), "--t", "1.0", "--seed", "99")
    assert a.returncode == b.returncode == 2
    assert a.stdout == b.stdout


def test_reruns_are_bit_identical():
    args = ("lp", "--n", "8", "--t", "0.5", "--mc", "120")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_poisson_check_passes_on_mixed_lattice(cert_dir):
    proc = run_cli("poisson", str(cert_dir / "combo12.json"), "--lattice", "E8+Z4")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    check = payload["checks"][0]
    assert check["ok"] is True
    assert check["residual"] <= 1e-9


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "theta", "lattice_spec": "Z8", "t": [2.0]}))
    proc = run_cli("theta", "--config", str(cfg), "--t", "1.0")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["values"][0]["t"] == 1.0


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("theta", "--lattice", "Z8", "--t", "1.0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == proc.stdout


def test_pretty_rendering_is_plain_text():
    proc = run_cli("theta", "--lattice", "Z8", "--t", "1.0", "--pretty")
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout)
    assert "value" in proc.stdout


def test_audit_rejects_an_explicit_lattice_of_another_dimension(cert_dir):
    proc = run_cli("audit", str(cert_dir / "combo12.json"), "--t", "1.0", "--lattice", "Z8")
    assert proc.returncode == 3
    assert "8" in proc.stderr and "12" in proc.stderr
    assert proc.stdout == ""


def test_audit_defaults_to_zn_of_the_certificate_dimension(cert_dir):
    proc = run_cli("audit", str(cert_dir / "combo12.json"), "--t", "1.0")
    assert proc.returncode in (0, 2), proc.stderr
    assert json.loads(proc.stdout)["chain"][0]["lattice_label"] == "Z12"
