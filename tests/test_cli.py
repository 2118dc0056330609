"""End-to-end tests of the command-line interface.

Everything except the forced-failure exit-code checks runs
`python -m logeq.cli`, the module behind the `logeq` console script, in a
subprocess, so argument parsing, formatting, and the documented exit codes
are exercised exactly as a user sees them.  The installed script itself is
run by the CI workflow.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import logeq.cli as cli
from logeq.equilibrium import cauchy, omega, solve_beta_repulsive
from logeq.errors import ConsistencyError
from logeq.oracle import VerificationReport

BETA2 = 0.41729943021563737


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "logeq.cli", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def parse_json(out: bytes):
    return json.loads(out.decode("utf-8"))


def parse_csv(out: bytes):
    lines = out.decode("utf-8").splitlines()
    rows = [tuple(float(f) for f in line.split(",")) for line in lines[1:]]
    return lines[0], np.array(rows)


# ---------------------------------------------------------------------------
# Scalar commands
# ---------------------------------------------------------------------------

def test_regime_json():
    rc, out, _ = run_cli("regime", "--tau", "-2")
    assert rc == 0
    payload = parse_json(out)
    assert payload == {"tau": -2.0, "regime": "attractive"}


def test_module_entry_point_matches_cli_module():
    rc1, out1, _ = run_cli("regime", "--tau", "0.5")
    proc = subprocess.run([sys.executable, "-m", "logeq", "regime", "--tau", "0.5"],
                          capture_output=True)
    assert rc1 == proc.returncode == 0
    assert out1 == proc.stdout


def test_import_pulls_in_no_scipy():
    code = ("import sys, logeq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


def test_beta_json():
    rc, out, _ = run_cli("beta", "--tau", "2")
    assert rc == 0
    payload = parse_json(out)
    assert payload["regime"] == "repulsive"
    assert math.isclose(payload["beta"], solve_beta_repulsive(2.0)[0],
                        rel_tol=0.0, abs_tol=1e-15)


def test_cauchy_json_round_trip():
    rc, out, _ = run_cli("cauchy", "--tau", "-2", "--re", "0.5", "--im", "0.8")
    assert rc == 0
    payload = parse_json(out)
    assert set(payload) == {"tau", "re", "im", "cauchy_re", "cauchy_im"}
    ref = cauchy(-2.0, complex(0.5, 0.8))
    assert payload["cauchy_re"] == ref.real
    assert payload["cauchy_im"] == ref.imag


def test_two_cut_cauchy_is_real_on_the_axis():
    rc, out, _ = run_cli("cauchy", "--tau", "3", "--re", "1.5")
    assert rc == 0
    assert parse_json(out)["cauchy_im"] == 0.0


def test_potential_x_shorthand_is_byte_identical():
    rc1, out1, _ = run_cli("potential", "--tau", "0", "--x", "0.25")
    rc2, out2, _ = run_cli("potential", "--tau", "0", "--re", "0.25")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_negative_tau_with_an_exponent_is_a_number():
    # "-1e8" after a space is the value of --tau, not an unknown option
    rc, out, _ = run_cli("verify", "--tau", "-1e8")
    rc_eq, out_eq, _ = run_cli("verify", "--tau=-1e8")
    assert rc == rc_eq == 0
    assert out == out_eq
    payload = parse_json(out)
    assert payload["tau"] == -1e8 and payload["pass"] is True


def test_negative_re_with_an_exponent_is_a_number():
    rc, out, _ = run_cli("potential", "--tau", "3", "--re", "-1e-3")
    rc_x, out_x, _ = run_cli("potential", "--tau", "3", "--x", "-0.001")
    assert rc == rc_x == 0
    assert out == out_x
    assert parse_json(out)["re"] == -1e-3


def test_omega_methods():
    rc, out, _ = run_cli("omega", "--tau", "0")
    assert rc == 0
    payload = parse_json(out)
    assert payload["method"] == "auto"
    assert payload["omega"] == math.log(2.0)

    rc, out_s, _ = run_cli("omega", "--tau", "2", "--method", "series")
    assert rc == 0
    rc, out_i, _ = run_cli("omega", "--tau", "2", "--method", "integral")
    assert rc == 0
    ws = parse_json(out_s)["omega"]
    wi = parse_json(out_i)["omega"]
    assert abs(ws - wi) <= 1e-8
    assert abs(ws - omega(2.0)) <= 1e-8
    rc, out_a, _ = run_cli("omega", "--tau", "2")
    assert rc == 0
    # within two ulps of the frozen 30-digit value 2.07280477580112332...
    assert abs(parse_json(out_a)["omega"] - 2.0728047758011233) <= 1e-15


def test_omega_methods_above_the_series_band():
    # beta^2 > 0.9: auto answers with the theta formula, as below the band,
    # and the integral route agrees with it
    rc, out_a, _ = run_cli("omega", "--tau", "80")
    assert rc == 0
    rc, out_i, _ = run_cli("omega", "--tau", "80", "--method", "integral")
    assert rc == 0
    assert parse_json(out_a)["omega"] == omega(80.0)
    assert abs(parse_json(out_a)["omega"] - parse_json(out_i)["omega"]) <= 1e-13
    assert abs(parse_json(out_a)["omega"] - 28.263340124900358) <= 1e-12


def test_omega_series_past_its_term_budget_exits_3():
    rc, out, err = run_cli("omega", "--tau", "1e4", "--method", "series")
    assert rc == 3
    assert out == b""
    assert b"use omega_integral" in err


def test_verify_command_passes():
    rc, out, _ = run_cli("verify", "--tau", "0")
    assert rc == 0
    payload = parse_json(out)
    assert payload["pass"] is True
    assert payload["mass_error"] <= 1e-8


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_code_2_usage_errors():
    for argv in (["regime"],                       # missing --tau
                 ["no-such-command", "--tau", "0"],
                 ["density", "--tau", "0", "--n", "1"],
                 ["cauchy", "--tau", "0", "--x", "2", "--re", "2"],
                 ["potential", "--tau", "0", "--x", "0.5", "--im", "0.3"],
                 ["cauchy", "--tau", "0", "--im", "0.3"],  # no real part
                 ["cauchy", "--tau", "0"],         # no evaluation point
                 ["figure", "--name", "extfield", "--n", "-1"],
                 ["figure", "--name", "fig3", "--n", "0"],
                 ["figure", "--name", "fig2", "--n", "1"],
                 ["omega", "--tau", "2", "--tol", "1e-3"],  # --tol is for the series
                 ["omega", "--tau", "2", "--method", "integral", "--tol", "1e-3"]):
        rc, _, err = run_cli(*argv)
        assert rc == 2, argv
        # argparse explains itself on stderr, with the usage of the
        # subcommand when there is one
        usage = "usage: logeq" if argv[0] == "no-such-command" else f"usage: logeq {argv[0]} "
        assert err.startswith(usage.encode()), (argv, err)


@pytest.mark.parametrize("argv, message", [
    (["regime", "--tau", "abc"], "argument --tau: invalid float value: 'abc'"),
    (["cauchy", "--tau", "3", "--x", "1,5"], "argument --x: invalid float value: '1,5'"),
    (["cauchy", "--tau", "3", "--re", "x", "--im", "1"], "argument --re: invalid float value: 'x'"),
    (["potential", "--tau", "3", "--re", "2", "--im", "1j"],
     "argument --im: invalid float value: '1j'"),
    (["omega", "--tau", "3", "--method", "series", "--tol", "tiny"],
     "argument --tol: invalid float value: 'tiny'"),
    (["density", "--tau", "3", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
])
def test_malformed_numbers_use_argparse_wording(argv, message, capsys):
    # not the name of the private type function
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(message)


def test_exit_code_3_domain_errors():
    cases = (["cauchy", "--tau", "0", "--x", "0.5"],      # on the cut
             ["cauchy", "--tau", "-3", "--x", "0.1"],
             ["omega", "--tau", "2", "--method", "closed"],
             ["omega", "--tau", "0", "--method", "series"],
             ["omega", "--tau", "0", "--method", "integral"])
    for argv in cases:
        rc, _, err = run_cli(*argv)
        assert rc == 3, argv
        assert err.startswith(b"error:")


def test_exit_code_1_verification_failure(monkeypatch):
    failing = VerificationReport(
        tau=0.0, mass_error=1.0, flatness_error=1.0,
        inequality_margin=-1.0, sp_error=1.0, cross_route_omega_spread=1.0)
    monkeypatch.setattr(cli, "verify", lambda tau: failing)
    assert cli.main(["verify", "--tau", "0"]) == 1


def test_exit_code_1_consistency_error(monkeypatch):
    def boom(tau):
        raise ConsistencyError("routes disagree")
    monkeypatch.setattr(cli, "omega", boom)
    assert cli.main(["omega", "--tau", "0"]) == 1


# ---------------------------------------------------------------------------
# Density tables
# ---------------------------------------------------------------------------

def test_density_known_rows():
    rc, out, _ = run_cli("density", "--tau", "0", "--n", "3")
    assert rc == 0
    lines = out.decode("utf-8").splitlines()
    assert lines[0] == "x,density"
    assert lines[2] == "0,0.3183098861837907"  # 1/pi at the center

    rc, out, _ = run_cli("density", "--tau", "-2", "--n", "3")
    assert rc == 0
    assert out.decode("utf-8").splitlines()[2] == "0,0.6666666666666666"


def test_density_two_cut_split():
    rc, out, _ = run_cli("density", "--tau", "2", "--n", "9")
    assert rc == 0
    _, rows = parse_csv(out)
    x = rows[:, 0]
    assert len(x) == 9
    assert np.all(np.diff(x) > 0.0)
    beta = solve_beta_repulsive(2.0)[0]
    assert np.sum(x < 0) == 4 and np.sum(x > 0) == 5
    assert np.all((np.abs(x) > beta) & (np.abs(x) < 1.0))


def test_density_soft_edge_values_small():
    rc, out, _ = run_cli("density", "--tau", "2", "--n", "100")
    assert rc == 0
    _, rows = parse_csv(out)
    x, rho = rows[:, 0], rows[:, 1]
    assert np.all(rho >= 0.0)
    first_right = rho[x > 0][0]  # closest sample to the soft edge +beta
    assert 0.0 < first_right < 1e-2


def test_density_chebyshev_grid():
    rc, out, _ = run_cli("density", "--tau", "0", "--n", "64", "--grid", "chebyshev")
    assert rc == 0
    _, rows = parse_csv(out)
    x = rows[:, 0]
    assert len(x) == 64 and np.all(np.diff(x) > 0.0)
    # Gauss-Chebyshev nodes of the full interval
    j = np.arange(1, 65)
    ref = np.sort(np.cos((2.0 * j - 1.0) * np.pi / 128.0))
    assert np.allclose(x, ref, rtol=0.0, atol=1e-15)


def test_density_table_mass():
    # bounded density (soft edges): the trapezoid rule on the table is clean
    rc, out, _ = run_cli("density", "--tau", "-2", "--n", "10000")
    assert rc == 0
    _, rows = parse_csv(out)
    assert abs(np.trapezoid(rows[:, 1], rows[:, 0]) - 1.0) <= 1e-5
    # divergent edges: trapezoid overshoots by ~ h * rho(last sample), so
    # only a coarse check is meaningful on a uniform table
    rc, out, _ = run_cli("density", "--tau", "0", "--n", "10000")
    assert rc == 0
    _, rows = parse_csv(out)
    assert abs(np.trapezoid(rows[:, 1], rows[:, 0]) - 1.0) <= 5e-2


# ---------------------------------------------------------------------------
# Output handling and determinism
# ---------------------------------------------------------------------------

def test_reruns_are_byte_identical():
    a = run_cli("density", "--tau", "2", "--n", "51")
    b = run_cli("density", "--tau", "2", "--n", "51")
    assert a == b
    c = run_cli("verify", "--tau", "-2")
    d = run_cli("verify", "--tau", "-2")
    assert c == d


def test_out_file_matches_stdout(tmp_path):
    for argv in (["density", "--tau", "-2", "--n", "11"],
                 ["figure", "--name", "fig2", "--n", "11"]):
        rc, out, _ = run_cli(*argv)
        assert rc == 0
        target = tmp_path / f"{argv[0]}.csv"
        rc2, out2, _ = run_cli(*argv, "--out", str(target))
        assert rc2 == 0 and out2 == b""
        assert target.read_bytes() == out
        assert b"\r" not in out  # LF endings regardless of platform


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------

def test_figure_extfield():
    rc, out, _ = run_cli("figure", "--name", "extfield", "--n", "5")
    assert rc == 0
    lines = out.decode("utf-8").splitlines()
    assert lines[0] == "x,value"
    assert lines[3] == "0,-2"  # tau V(0) = -2 at the default tau = -2
    _, rows = parse_csv(out)
    assert rows[0, 0] == -1.0 and rows[-1, 0] == 1.0  # endpoints included
    assert abs(rows[0, 1] - (-2.0 * (1.0 - math.log(2.0)))) <= 1e-14


def test_figure_extfield_is_the_array_field():
    from logeq.equilibrium import external_field
    rc, out, _ = run_cli("figure", "--name", "extfield", "--tau", "1.5", "--n", "41")
    assert rc == 0
    _, rows = parse_csv(out)
    assert np.array_equal(rows[:, 1], external_field(1.5, rows[:, 0]))


def test_figure_fig2_spans_attractive_support():
    rc, out, _ = run_cli("figure", "--name", "fig2", "--n", "101")
    assert rc == 0
    _, rows = parse_csv(out)
    x, v = rows[:, 0], rows[:, 1]
    b = math.sqrt(3.0) / 2.0
    assert np.all(np.abs(x) <= b)
    assert np.all(v >= 0.0)
    # density falls to zero at the soft edges and peaks at the center
    assert v[0] < 1e-2 and v[-1] < 1e-2
    assert abs(v[len(v) // 2] - 2.0 / 3.0) <= 1e-3


def test_figure_fig3_trends():
    rc, out, _ = run_cli("figure", "--name", "fig3", "--n", "100")
    assert rc == 0
    _, rows = parse_csv(out)
    x, v = rows[:, 0], rows[:, 1]
    beta = solve_beta_repulsive(2.0)[0]
    assert np.all((np.abs(x) > beta) & (np.abs(x) < 1.0))
    right = v[x > 0]
    assert right[0] < 5e-2        # vanishes at the soft inner edge
    assert right[-1] > 1.0        # grows toward the hard outer edge
    assert np.all(v >= 0.0)
