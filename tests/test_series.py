"""Tests for the series and integral routes to the two-cut constant.

Reference values marked "frozen" were computed once with 30-digit
arithmetic (mpmath: the defining integrals via mp.quad, the endpoint via
bisection on E(beta) = 1 + 1/tau) and pasted here as literals, so the
suite never trusts the code under test to generate its own expectations.
"""

import math

import numpy as np
import pytest

from logeq.errors import ConsistencyError, DomainError
from logeq.equilibrium import TAU_CRITICAL, omega, solve_beta_repulsive
from logeq.oracle import measure_quadrature
from logeq.series import (
    CoeffTable,
    SeriesResult,
    c_init,
    c_quadrature,
    c_recurrence,
    check_initial_coeff,
    omega_integral,
    omega_series,
)
from logeq.specfun import complete_E

BETA2 = 0.41729943021563737  # frozen: endpoint for tau = 2
OMEGA2 = 2.0728047758011234  # frozen: equilibrium constant at tau = 2

# Frozen moment coefficients c_k at beta = BETA2.
CK_REFS = {
    0: 1.5,  # c_0 = E(beta) = 1 + 1/tau exactly, by the endpoint equation
    1: 0.9397647937284975,
    2: 0.732091961408728,
    5: 0.49185413376663456,
    10: 0.3543492572928768,
    60: 0.14667781469602315,
}


# Frozen c_k to 30 digits: mpmath at 40 digits of the closed form
# sqrt(pi) Gamma((k+1)/2) / (2 Gamma(k/2 + 1)) 2F1(-1/2, (k+1)/2; k/2 + 1; beta^2),
# which agrees with mp.quad of the defining integral for every k <= 11
# below tau = 100.  The betas are the endpoints of tau = TAU_CRITICAL + 1e-12,
# 2, 5, 9.5 and 100 (beta^2 = 8.3e-13, 0.17, 0.77, 0.90 and 0.994), and k
# runs up to 2 k_max, the table omega_series(tau, 1e-14) builds.
CK_MP = {
    9.109178788148167e-07: {
        0: 1.57079632679457076877161216037,
        1: 0.999999999999723409539351792423,
        2: 0.785398163397203921770878693144,
        3: 0.666666666666445394298148097982,
        10: 0.386563158547034575326081305929,
        11: 0.369408369408227935526399492089,
        19: 0.283773192751408797812533958176,
        20: 0.276769682076647746192889364684,
    },
    0.4172994302156365: {
        0: 1.50000000000000032178860142673,
        1: 0.939764793728497786940613065545,
        2: 0.732091961408728298986371105937,
        3: 0.618347747767952038330529048675,
        10: 0.354349257292876935139186898832,
        11: 0.338401586053949614703419089855,
        28: 0.214078869028660303677647280073,
        29: 0.210396657474919361932079163731,
        55: 0.153164660785678726292796308092,
        56: 0.151798470981793761082347722391,
    },
    0.8759855628093005: {
        0: 1.19999999999999999772005020514,
        1: 0.680365363090859091123266040153,
        2: 0.499931225042188754625661078534,
        3: 0.406138248966529998499975829963,
        10: 0.20891982368388415973889009737,
        11: 0.198139155160222065026952011996,
        144: 0.0508483305992369630767179200346,
        145: 0.0506695620624548146177220284231,
        287: 0.0358543946919870908150550577249,
        288: 0.0357915126526069359975891773116,
    },
    0.9483684967153133: {
        0: 1.10526315789473655340102507222,
        1: 0.596278436736993413207484030731,
        2: 0.42322803317526289538305136417,
        3: 0.334989485794435467013366829744,
        10: 0.157499746080616406117071626088,
        11: 0.14833247414538199680535148388,
        363: 0.0211006780993951255327680492251,
        364: 0.0210710401834399962664226254096,
        725: 0.0148481622654459311990974979098,
        726: 0.0148378174028535500995678769454,
    },
    0.9971146047298584: {
        0: 1.00999999999999996706322934202,
        1: 0.509448600575608214893915343732,
        2: 0.342382881739999642768060912105,
        3: 0.258737808338503151243781518302,
        10: 0.0984223886097945545269144014561,
        11: 0.0907353429132149248662127214318,
        7433: 0.00111608026494089040299484555194,
        7434: 0.00111600353508001694230252795969,
        14865: 0.000784812504274070597925383993272,
        14866: 0.000784785809044826730313929638566,
    },
}

# Frozen c_200 and c_250 at BETA2, computed as CK_MP.
CK_LARGE_K = {
    200: 0.0804789009448319693218172179027,
    250: 0.0719930731162919199480385940359,
}


def _tau_for(beta: float) -> float:
    """The tau whose two-cut endpoint is the given beta."""
    return 1.0 / (complete_E(beta) - 1.0)


# ---------------------------------------------------------------------------
# Coefficient routes
# ---------------------------------------------------------------------------

def test_frozen_coefficient_anchors():
    assert abs(solve_beta_repulsive(2.0) - BETA2) <= 1e-13
    table = c_recurrence(BETA2, 2.0, 60).values
    for k, ref in CK_REFS.items():
        assert abs(table[k] - ref) <= 5e-13 * abs(ref)
        assert abs(c_quadrature(BETA2, k) - ref) <= 5e-13 * abs(ref)


def test_three_routes_agree():
    # backward recurrence vs direct quadrature, every k up to 60 at the
    # tau = 2 endpoint, both against frozen 30-digit values at the anchors
    # (test_frozen_coefficient_anchors) and beyond (CK_MP)
    table = c_recurrence(BETA2, 2.0, 60)
    for k in range(61):
        quad = c_quadrature(BETA2, k)
        assert abs(table.values[k] - quad) <= 1e-12 * quad


@pytest.mark.parametrize("beta", sorted(CK_MP))
def test_recurrence_against_frozen_references(beta):
    refs = CK_MP[beta]
    table = c_recurrence(beta, _tau_for(beta), max(refs)).values
    for k, ref in refs.items():
        assert abs(table[k] - ref) <= 2e-14 * ref, k


def test_quadrature_large_k():
    # both quadrature orders (128 for k <= 200, 256 above)
    table = c_recurrence(BETA2, 2.0, 250).values
    for k, ref in CK_LARGE_K.items():
        assert abs(c_quadrature(BETA2, k) - ref) <= 1e-10 * ref
        assert abs(table[k] - ref) <= 2e-14 * ref


def test_initial_coeff_gate_accepts_correct_c1():
    b2 = BETA2 * BETA2
    correct = 0.5 + (1.0 - b2) / (2.0 * BETA2) * math.atanh(BETA2)
    assert check_initial_coeff(BETA2, 1, correct) == correct


def test_initial_coeff_gate_rejects_doubled_log_coefficient():
    # The tempting wrong form carries (1 - beta^2)/(2 beta) in front of the
    # full log((1+b)/(1-b)) = 2 atanh(b), i.e. twice the correct slope; at
    # this beta it is off by ~29 percent and the quadrature gate must say so.
    b2 = BETA2 * BETA2
    wrong = 0.5 + (1.0 - b2) / BETA2 * math.atanh(BETA2)
    correct = 0.5 + (1.0 - b2) / (2.0 * BETA2) * math.atanh(BETA2)
    assert abs(wrong - correct) / correct > 0.25
    with pytest.raises(ConsistencyError):
        check_initial_coeff(BETA2, 1, wrong)


def test_c_init_values_and_validation():
    c0, c1 = c_init(BETA2, 2.0)
    assert c0 == complete_E(BETA2)
    assert abs(c0 - 1.5) <= 1e-9  # endpoint equation E(beta) = 1 + 1/tau
    assert abs(c1 - CK_REFS[1]) <= 1e-12
    with pytest.raises(DomainError):
        c_init(1.2, 2.0)
    with pytest.raises(DomainError):
        c_init(0.3, 2.0)  # E(0.3) != 1.5: pair describes no equilibrium


def test_c2_stable_at_tiny_beta():
    # A forward run of the recurrence would divide by beta^2 = 1e-12 here;
    # the backward run is as accurate as anywhere.  Limit c_2(0) = pi/4.
    beta = 1e-6
    c2 = c_recurrence(beta, _tau_for(beta), 40).values[2]
    assert abs(c2 - 0.25 * math.pi) <= 1e-10


def test_recurrence_fallback_table_is_correct():
    # At beta = 0.05 a forward run of the recurrence would amplify roundoff
    # by ~400x per step; run backward every entry has to come out right.
    beta = 0.05
    table = c_recurrence(beta, _tau_for(beta), 40)
    for k in range(41):
        quad = c_quadrature(beta, k)
        assert abs(table.values[k] - quad) <= 1e-12 * quad


def test_coeff_table_validation():
    good = c_recurrence(BETA2, 2.0, 12)
    assert good.K == 12 and len(good.values) == 13
    v = good.values.copy()
    with pytest.raises(ConsistencyError):
        CoeffTable(beta=BETA2, values=v[:-1], K=12)
    bad0 = v.copy()
    bad0[0] += 1e-6
    with pytest.raises(ConsistencyError):
        CoeffTable(beta=BETA2, values=bad0, K=12)
    neg = v.copy()
    neg[5] = -neg[5]
    with pytest.raises(ConsistencyError):
        CoeffTable(beta=BETA2, values=neg, K=12)
    swapped = v.copy()
    swapped[7] = swapped[5] + 1.0  # breaks c_{k+2} < c_k
    with pytest.raises(ConsistencyError):
        CoeffTable(beta=BETA2, values=swapped, K=12)


def test_quadrature_domain_errors():
    with pytest.raises(DomainError):
        c_quadrature(1.0, 3)
    with pytest.raises(DomainError):
        c_quadrature(-0.1, 3)
    with pytest.raises(DomainError):
        c_quadrature(0.5, -1)
    with pytest.raises(DomainError):
        c_recurrence(BETA2, 2.0, 2)
    with pytest.raises(DomainError, match="use c_quadrature"):
        c_recurrence(0.99999, _tau_for(0.99999), 10)  # ~3.9e6 steps


# ---------------------------------------------------------------------------
# The constant itself
# ---------------------------------------------------------------------------

def test_omega_series_frozen_value():
    res = omega_series(2.0, 1e-12)
    assert isinstance(res, SeriesResult)
    assert abs(res.value - OMEGA2) <= 1e-9
    assert res.terms_used >= 1
    assert res.last_term < 1e-12


# TAU_CRITICAL + 1e-12 (beta^2 ~ 8e-13) is the smallest beta the series
# meets in the tests.
@pytest.mark.parametrize("tau", [TAU_CRITICAL + 1e-12, 2.0, 3.0, 5.0, 10.0])
def test_series_and_integral_routes_agree(tau):
    assert abs(omega_series(tau, 1e-12).value - omega_integral(tau)) <= 1e-8


def test_truncation_tolerance_controls_tail():
    coarse = omega_series(2.0, 1e-6).value
    fine = omega_series(2.0, 1e-12).value
    # positive terms, ratio <= beta^2: tail below last_term b^2/(1-b^2)
    assert abs(coarse - fine) <= 1e-6
    assert coarse != fine  # the tolerance is actually doing something


# Frozen 30-digit omega: the outer integrals of omega_integral's formula by
# mpmath.quad (tanh-sinh, panels graded toward x = 1 by sqrt(1 - beta)),
# with J0, J1 in closed form through K, E and Pi on [1, 2] and by their
# moment series beyond; beta from mpmath.findroot on E = 1 + 1/tau.  At
# tau <= 1e3 they agree with the coefficient series summed in 40-digit
# fixed point to all 30 digits.  Those at tau = 2, 1e7, 1e10 and 3e10 come
# from two formulas at 60 digits on the 40-digit root k'^2 of
# E(sqrt(1 - k'^2)) = 1 + 1/tau: the theta formula of `omega` by mpmath.quad
# on panels graded toward phi = 0 by k', and omega_integral's double
# integral with J0 = 2xK - 2(x^2 - 1)/x Pi(beta^2/x^2, beta) and
# J1 = (x J0 - 2E)/beta at 2 log10(x) extra digits; the two agree to 59
# digits.
OMEGA_REFS = {
    TAU_CRITICAL + 1e-12: 1.90749833879612752118945367718,
    2.0: 2.07280477580112332231274073891,
    3.0: 2.64768404464327821268867468153,
    9.0: 5.18345753615941118545288633641,
    12.0: 6.27985047271157676910516056802,
    30.0: 12.3507633840480158386856000051,
    80.0: 28.2633401249003579381410944621,
    1e3: 311.987391132627205568528540522,
    1e5: 30692.9124871651447063151462647,
    1e7: 3068538.26365015329852271499883,
    1e10: 3068528208.07447098231004286111,
    3e10: 9205584597.44501928892447565711,
}


@pytest.mark.parametrize("tau", sorted(OMEGA_REFS))
def test_omega_integral_against_frozen_references(tau):
    ref = OMEGA_REFS[tau]
    assert abs(omega_integral(tau) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("tau", sorted(OMEGA_REFS))
def test_omega_against_frozen_references(tau):
    ref = OMEGA_REFS[tau]
    # omega is the level of the density at the double beta, whose mass
    # misses 1 by beta's rounding; that sets its error: 1.1e-14 at 1e5,
    # 6.1e-14 at 1e7 and 5.4e-14 at 3e10 (see the test below)
    assert abs(omega(tau) - ref) <= (2e-14 if tau <= 1e5 else 1e-13) * ref


@pytest.mark.parametrize("tau", sorted(OMEGA_REFS))
def test_omega_less_its_mass_defect_against_frozen_references(tau):
    # The density at the double beta has mass m = 1 + O(ulp(beta) tau K),
    # and its level, which omega answers, sits (m - 1) log(2/k') above the
    # exact omega.  With m read by the quadrature oracle, what is left is
    # the error of the theta formula: within 4.3e-16 relative of each.
    ref = OMEGA_REFS[tau]
    beta = solve_beta_repulsive(tau)
    log_2_over_kp = math.log(2.0 / math.sqrt((1.0 - beta) * (1.0 + beta)))
    exact = omega(tau) - (measure_quadrature(tau) - 1.0) * log_2_over_kp
    assert abs(exact - ref) <= 2e-15 * ref


def test_series_tail_bound_meets_tol():
    # the first term below tol leaves a tail up to beta^2/(1 - beta^2) times
    # larger (9.6 at tau = 10); the sum stops when the tail bound is below tol
    assert abs(omega_series(10.0, 1e-12).value - 5.5549566653916498997574929766344) <= 1e-12


def test_series_refuses_past_its_term_budget():
    # ~1.5e6 terms at tau = 1e4: refused before any coefficient is built
    with pytest.raises(DomainError, match="use omega_integral"):
        omega_series(1e4, 1e-12)


def test_omega_domain_errors():
    with pytest.raises(DomainError):
        omega_series(1.0, 1e-10)
    with pytest.raises(DomainError):
        omega_series(2.0, 1e-15)
    with pytest.raises(DomainError):
        omega_integral(0.5)
