"""Acceptance battery: the eleven headline checks, one test each.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(visible under pytest -s or in the failure output) and then asserts.
Stated runtime budgets are asserted for the criteria that carry one;
the whole battery is sized to finish well inside three minutes.
"""

import math
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from logeq.equilibrium import (
    TAU_CRITICAL,
    density,
    omega,
    solve_beta_repulsive,
    support,
)
from logeq.errors import ConsistencyError
from logeq.oracle import discrete_minimize, measure_quadrature, pv_integral, verify
from logeq.series import c_quadrature, c_recurrence, check_initial_coeff
from logeq.specfun import integral_I

BETA2 = 0.41729943021563737

# Frozen c_k at BETA2 to 30 digits (mpmath at 40 digits, the 2F1 closed
# form and mp.quad of the defining integral agreeing).
CK_FROZEN = {
    1: 0.939764793728497520422914950096,
    10: 0.354349257292876791677240589199,
    60: 0.146677814696023142030690975862,
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=None)
def _verify_cached(tau: float):
    return verify(tau)


def test_criterion_1_endpoint_reproduction():
    solve_beta_repulsive.cache_clear()
    support.cache_clear()
    t0 = time.perf_counter()
    b2 = solve_beta_repulsive(2.0)[0]
    dt = time.perf_counter() - t0
    b_att = support(-2.0).beta
    err2 = abs(b2 - 0.417299)
    err_att = abs(b_att - math.sqrt(3.0) / 2.0)
    ok = err2 <= 1e-5 and err_att <= 1e-15 and dt < 0.1
    _report(1, ok, f"beta(2)={b2:.9f} (|diff|={err2:.2e}), "
                   f"beta(-2) off sqrt(3)/2 by {err_att:.1e}, {dt*1e3:.1f} ms")


def test_criterion_2_classical_anchors():
    x = np.linspace(-0.99, 0.99, 100)
    arcsine = 1.0 / (np.pi * np.sqrt(1.0 - x * x))
    err_arc = float(np.max(np.abs(density(0.0, x) - arcsine)))
    omega_exact = omega(0.0) == math.log(2.0)
    flat = density(-1.0, np.linspace(-0.9999, 0.9999, 100))
    uniform_exact = bool(np.all(flat == 0.5))
    ok = err_arc <= 1e-14 and omega_exact and uniform_exact
    _report(2, ok, f"arcsine max|diff|={err_arc:.1e}, omega(0)==log2: "
                   f"{omega_exact}, density(-1,.)==1/2: {uniform_exact}")


def test_criterion_3_mass_normalization():
    taus = (-3.0, -2.0, -1.0, 0.0, 1.0, TAU_CRITICAL, 2.0, 5.0)
    t0 = time.perf_counter()
    worst = max(abs(float(measure_quadrature(t)) - 1.0) for t in taus)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    _report(3, ok, f"max |mass - 1| = {worst:.2e} over 8 taus, {dt:.2f} s")


def test_criterion_4_equilibrium_conditions():
    t0 = time.perf_counter()
    reports = [_verify_cached(t) for t in (-2.0, 2.0)]
    dt = time.perf_counter() - t0
    flat = max(r.flatness_error for r in reports)
    margin = min(r.inequality_margin for r in reports)
    ok = flat <= 1e-6 and margin >= -1e-9 and dt < 20.0
    _report(4, ok, f"flatness {flat:.2e}, inequality margin {margin:+.2e}, {dt:.2f} s")


def test_criterion_5_cross_route_omega():
    from logeq.series import omega_integral, omega_series
    t0 = time.perf_counter()
    worst_si = worst_dm = 0.0
    for tau in (2.0, 3.0, 5.0, 10.0):
        ws = omega_series(tau, 1e-12).value
        wi = omega_integral(tau)
        dm = discrete_minimize(tau, 2000, 5000).omega_est
        worst_si = max(worst_si, abs(ws - wi))
        worst_dm = max(worst_dm, abs(ws - dm), abs(wi - dm))
    dt = time.perf_counter() - t0
    ok = worst_si <= 1e-8 and worst_dm <= 1e-2 and dt < 60.0
    _report(5, ok, f"series-integral {worst_si:.2e}, routes-minimizer "
                   f"{worst_dm:.2e}, {dt:.1f} s")


def test_criterion_6_omega_continuity():
    jump = abs(omega(-1.0 + 1e-4) - omega(-1.0 - 1e-4))
    near_zero = max(abs(omega(-1.0 + 1e-4)), abs(omega(-1.0 - 1e-4)))
    limit = (math.pi / (math.pi - 2.0)) * math.log(2.0)
    crit = abs(omega(TAU_CRITICAL + 1e-4) - limit)
    ok = jump <= 1e-3 and near_zero <= 1e-3 and crit <= 1e-3
    _report(6, ok, f"|jump at -1| = {jump:.1e} (values {near_zero:.1e} from "
                   f"the limit 0), |omega - pi/(pi-2) log2| = {crit:.1e} at "
                   f"tau_c + 1e-4")


def test_criterion_7_sokhotski_plemelj():
    worst = max(_verify_cached(t).sp_error for t in (-2.0, 0.0, 2.0))
    ok = worst <= 1e-4
    _report(7, ok, f"max one-sided boundary-value error {worst:.2e} "
                   f"at 20 points per regime")


def test_criterion_8_pv_identity():
    worst = 0.0
    for beta in (0.2, 0.417299, 0.8):
        for x in np.linspace(-beta, beta, 22)[1:-1]:
            x = float(x)
            lhs = pv_integral("full", beta, x)
            rhs = 2.0 * x * integral_I(math.sqrt(1.0 - x * x), beta, math.sqrt(1.0 - beta * beta))
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    _report(8, ok, f"max |PV - 2x I| = {worst:.2e} over 3 betas x 20 points")


def test_criterion_9_coefficient_consistency():
    table = c_recurrence(BETA2, math.sqrt(1.0 - BETA2 * BETA2), 2.0, 60).values
    worst = max(abs(table[k] - c_quadrature(BETA2, k)) / table[k] for k in range(61))
    for k, ref in CK_FROZEN.items():
        worst = max(worst, abs(table[k] - ref) / ref, abs(c_quadrature(BETA2, k) - ref) / ref)
    b2 = BETA2 * BETA2
    doubled = 0.5 + (1.0 - b2) / BETA2 * math.atanh(BETA2)
    try:
        check_initial_coeff(BETA2, 1, doubled)
        rejected = False
    except ConsistencyError:
        rejected = True
    ok = worst <= 1e-8 and rejected
    _report(9, ok, f"recurrence, quadrature and frozen values: rel spread "
                   f"{worst:.2e} for k <= 60, "
                   f"doubled-log c_1 rejected: {rejected}")


def test_criterion_10_soft_edge_exponent():
    d = np.logspace(-3.0, -6.0, 4)
    slopes = {}
    for tau in (-2.0, 2.0):
        beta = support(tau).beta
        x = beta + d if tau > 0 else beta - d  # inward is outward-of-gap for two-cut
        rho = density(tau, x)
        slopes[tau] = float(np.polyfit(np.log(d), np.log(rho), 1)[0])
    ok = all(abs(s - 0.5) <= 0.02 for s in slopes.values())
    _report(10, ok, f"log-log slopes {slopes[-2.0]:.4f} (tau=-2), "
                    f"{slopes[2.0]:.4f} (tau=2)")


def test_criterion_11_figures():
    def fig(name):
        proc = subprocess.run(
            [sys.executable, "-m", "logeq.cli", "figure", "--name", name,
             "--n", "101"], capture_output=True)
        assert proc.returncode == 0
        return proc.stdout

    out2, out3 = fig("fig2"), fig("fig3")
    stable = out2 == fig("fig2") and out3 == fig("fig3")

    rows2 = np.array([[float(f) for f in l.split(",")]
                      for l in out2.decode().splitlines()[1:]])
    rows3 = np.array([[float(f) for f in l.split(",")]
                      for l in out3.decode().splitlines()[1:]])
    b_att = math.sqrt(3.0) / 2.0
    beta = solve_beta_repulsive(2.0)[0]
    x3 = rows3[:, 0]
    right = rows3[x3 > 0][:, 1]
    caption_ok = (bool(np.all(np.abs(rows2[:, 0]) <= b_att))
                  and rows2[0, 1] < 1e-2 and rows2[-1, 1] < 1e-2
                  and bool(np.all((np.abs(x3) > beta) & (np.abs(x3) < 1.0)))
                  and right[0] < 5e-2 and right[-1] > 1.0)
    ok = stable and caption_ok
    _report(11, ok, f"byte-identical reruns: {stable}, "
                    f"caption consistency: {caption_ok}")
