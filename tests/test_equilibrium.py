"""Closed-form layer: regimes, support, density, transforms, potentials.

Live identities (asymptotics, symmetry, derivative relations) carry most
of the weight here; frozen constants state their oracle inline.
"""

import cmath
import math

import numpy as np
import pytest

from logeq._quad import gl_map
from logeq.equilibrium import (ON_CUT_TOL, TAU_CRITICAL, Regime, Support,
                               SupportShape, beta_series_guess, cauchy,
                               classify_regime, density, edge_coefficient,
                               external_field, g_function, lebesgue_cauchy,
                               lebesgue_g, lebesgue_potential, omega,
                               potential, report, solve_beta_repulsive,
                               sqrt_cut, support)
from logeq.errors import DomainError
from logeq.specfun import complete_E

# oracle: mpmath bisection on E(b) = 1 + 1/tau, dps=30
BETA2_REF = 0.41729943021563737
BETA5_REF = 0.8759855628093005


# ---------------------------------------------------------------------------
# regimes and support
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau,regime", [
    (-3.0, Regime.ATTRACTIVE),
    (-1.0 - 1e-12, Regime.ATTRACTIVE),
    (-1.0, Regime.INTERMEDIATE),
    (0.0, Regime.INTERMEDIATE),
    (1.0, Regime.INTERMEDIATE),
    (TAU_CRITICAL, Regime.INTERMEDIATE),
    (TAU_CRITICAL + 1e-12, Regime.REPULSIVE),
    (10.0, Regime.REPULSIVE),
])
def test_classify_regime(tau, regime):
    assert classify_regime(tau) is regime


def test_support_shapes():
    assert support(0.0).shape is SupportShape.FULL_INTERVAL
    assert support(0.0).pieces == ((-1.0, 1.0),)
    assert support(-2.0).shape is SupportShape.ONE_CUT
    assert support(2.0).shape is SupportShape.TWO_CUT
    lo_piece, hi_piece = support(2.0).pieces
    assert lo_piece[1] == -hi_piece[0]


def test_support_validation():
    with pytest.raises(DomainError):
        Support(shape=SupportShape.ONE_CUT, beta=1.5)
    with pytest.raises(DomainError):
        Support(shape=SupportShape.TWO_CUT, beta=0.0)


def test_attractive_beta_closed_form():
    # beta = sqrt(1 - ((1+tau)/tau)^2); at tau=-2 this is sqrt(3)/2 exactly
    assert support(-2.0).beta == math.sqrt(3.0) / 2.0


def test_repulsive_beta_reference():
    assert abs(solve_beta_repulsive(2.0) - BETA2_REF) <= 1e-13
    assert abs(solve_beta_repulsive(5.0) - BETA5_REF) <= 1e-13


@pytest.mark.parametrize("tau", [1.76, 2.0, 3.0, 5.0, 10.0, 50.0])
def test_repulsive_beta_defining_equation(tau):
    b = solve_beta_repulsive(tau)
    assert abs(complete_E(b) - 1.0 - 1.0 / tau) <= 1e-14


def test_beta_series_guess_quality():
    # near the transition the two-term expansion is essentially exact and
    # it stays a usable bracket center through tau = 5
    for tau, rtol in ((TAU_CRITICAL + 1e-4, 1e-9), (1.8, 1e-6), (2.0, 1e-4),
                      (5.0, 1e-2)):
        b = solve_beta_repulsive(tau)
        assert abs(beta_series_guess(tau) - b) <= rtol * b


def test_solve_beta_rejects_other_regimes():
    with pytest.raises(DomainError):
        solve_beta_repulsive(0.0)
    with pytest.raises(DomainError):
        solve_beta_repulsive(-2.0)


# ---------------------------------------------------------------------------
# branch-cut square root
# ---------------------------------------------------------------------------

def test_sqrt_cut_real_axis_signs():
    assert sqrt_cut(3.0, 1.0) == pytest.approx(math.sqrt(8.0), abs=1e-15)
    assert sqrt_cut(-3.0, 1.0) == pytest.approx(-math.sqrt(8.0), abs=1e-15)


def test_sqrt_cut_asymptotic_and_symmetry():
    for z in (100 + 3j, -40 + 70j, 1e4j):
        val = sqrt_cut(z, 0.7)
        assert abs(val / z - 1.0) <= 1e-3
        assert sqrt_cut(z.conjugate(), 0.7) == val.conjugate()


def test_sqrt_cut_boundary_value():
    # approaching the cut from above yields +i sqrt(a^2 - x^2)
    x, a = 0.3, 1.0
    val = sqrt_cut(complex(x, 1e-12), a)
    assert val.imag > 0
    assert abs(val - 1j * math.sqrt(a * a - x * x)) <= 1e-10


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_arcsine():
    x = np.linspace(-0.99, 0.99, 100)
    ref = 1.0 / (math.pi * np.sqrt(1.0 - x * x))
    assert np.max(np.abs(density(0.0, x) - ref)) <= 1e-14 * np.max(ref)


def test_density_uniform_at_minus_one():
    x = np.linspace(-0.999, 0.999, 41)
    assert np.all(density(-1.0, x) == 0.5)


def test_density_attractive_center():
    # analytic evaluation at tau=-2: (2/pi) arctan(sqrt(3)) = 2/3
    assert abs(density(-2.0, 0.0) - 2.0 / 3.0) <= 1e-15


def test_density_vanishes_at_critical_origin():
    assert abs(density(TAU_CRITICAL, 0.0)) <= 1e-15


def test_density_nonnegative_everywhere():
    for tau in (-3.0, -1.0, 0.5, TAU_CRITICAL, 2.0, 5.0):
        for lo, hi in support(tau).pieces:
            x = np.linspace(lo + 1e-9, hi - 1e-9, 101)
            assert np.all(density(tau, x) >= 0.0)


def test_density_rejects_exterior_points():
    with pytest.raises(DomainError):
        density(0.0, 1.0)
    with pytest.raises(DomainError):
        density(-2.0, 0.9)          # outside [-beta, beta]
    with pytest.raises(DomainError):
        density(2.0, 0.0)           # inside the two-cut gap
    with pytest.raises(DomainError):
        density(2.0, support(2.0).beta)   # edge itself is excluded


def test_density_scalar_and_array_agree():
    xs = np.array([0.1, -0.55, 0.8])
    arr = density(-2.0, xs)
    for xi, vi in zip(xs, arr):
        assert density(-2.0, float(xi)) == vi


# ---------------------------------------------------------------------------
# edge coefficients
# ---------------------------------------------------------------------------

def test_edge_coefficient_attractive_soft():
    # coefficient of sqrt(beta^2 - x^2); 4/pi at tau=-2
    c = edge_coefficient(-2.0, "soft")
    assert abs(c - 4.0 / math.pi) <= 1e-14
    b = support(-2.0).beta
    d = 1e-8
    fitted = density(-2.0, b - d) / math.sqrt(2.0 * b * d)
    assert abs(fitted - c) <= 1e-6 * c


def test_edge_coefficient_hard_limits():
    # density * sqrt(1 - x^2) approaches the hard-edge constant
    for tau in (0.5, 2.0):
        c = edge_coefficient(tau, "hard")
        x = 1.0 - 1e-10
        assert abs(density(tau, x) * math.sqrt(1.0 - x * x) - c) <= 1e-4 * c


def test_edge_coefficient_repulsive_soft():
    tau = 2.0
    b = support(tau).beta
    c = edge_coefficient(tau, "soft")
    d = 1e-8
    assert abs(density(tau, b + d) / math.sqrt(d) - c) <= 1e-4 * c


def test_edge_coefficient_wrong_edge_rejected():
    with pytest.raises(DomainError):
        edge_coefficient(0.0, "soft")
    with pytest.raises(DomainError):
        edge_coefficient(-2.0, "hard")
    with pytest.raises(DomainError):
        edge_coefficient(2.0, "corner")


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------

CAUCHY_TAUS = (-2.0, 0.0, 1.0, 2.0)


@pytest.mark.parametrize("tau", CAUCHY_TAUS)
def test_cauchy_decay(tau):
    # z C(z) -> 1 with an O(1/z^2) defect (the measure is even, so the
    # first moment vanishes)
    for z in (10.0, 100.0, 1000.0, 10j, 8 + 6j):
        zc = complex(z)
        assert abs(zc * cauchy(tau, zc) - 1.0) <= 2.0 / abs(zc) ** 2


@pytest.mark.parametrize("tau", CAUCHY_TAUS)
def test_cauchy_far_field(tau):
    # from |z| = 1e6 on the transform is 1/z (to 1e-12), finite at any
    # modulus; just below, the closed forms agree with it to 1e-8
    for z in (1e300j, -1e300 + 1e300j, 3e200, complex(1e6, -1.0)):
        assert cauchy(tau, z) == 1.0 / z
    for z in (0.999e6j, 0.999e6 * cmath.exp(0.3j)):
        assert abs(z * cauchy(tau, z) - 1.0) <= 1e-8


@pytest.mark.parametrize("tau", [-2.0, 0.0, 2.0])
@pytest.mark.parametrize("z", [complex(math.nan, 1.0), math.inf, complex(0.0, -math.inf),
                               math.nan])
def test_non_finite_points_raise(tau, z):
    with pytest.raises(DomainError):
        cauchy(tau, z)
    with pytest.raises(DomainError):
        potential(tau, z)


def test_attractive_edge_of_the_boundary():
    # 1 - beta^2 is formed as ((1+tau)/tau)^2: beta rounds to 1 here, and
    # the density, omega and the transform must stay finite and quiet
    tau = -1.0 - 1e-12
    assert support(tau).beta == 1.0
    assert abs(density(tau, 0.5) - 0.5) <= 1e-9
    assert abs(omega(tau) - omega(-1.0)) <= 1e-9
    assert 0.0 < edge_coefficient(tau, "soft") < math.inf
    assert math.isfinite(abs(cauchy(tau, 2.0 + 0.5j)))


def test_repulsive_memo_caches_are_bounded():
    from logeq.equilibrium import _omega_repulsive
    assert solve_beta_repulsive.cache_info().maxsize == 1024
    assert _omega_repulsive.cache_info().maxsize == 1024


@pytest.mark.parametrize("tau", CAUCHY_TAUS)
def test_cauchy_schwarz_and_parity(tau):
    for z in (0.9 + 0.4j, -1.4 + 0.01j, 0.2 + 2j, 3.0 + 0.0j):
        val = cauchy(tau, z)
        assert cauchy(tau, z.conjugate()) == pytest.approx(
            val.conjugate(), abs=1e-13)
        assert cauchy(tau, -z) == pytest.approx(-val, abs=1e-12)


def test_cauchy_rejects_cut_points():
    with pytest.raises(DomainError):
        cauchy(0.0, 0.25)
    with pytest.raises(DomainError):
        cauchy(-2.0, complex(0.1, 0.5 * ON_CUT_TOL))
    with pytest.raises(DomainError):
        cauchy(2.0, 0.7)
    # the two-cut gap is legal real ground
    assert abs(cauchy(2.0, 0.0)) <= 1e-12   # odd function on the gap
    assert cauchy(2.0, 0.2).imag == 0.0


def test_cauchy_repulsive_gap_continuity():
    # the dedicated real-gap expression must meet the complex evaluation
    tau = 2.0
    for x in (0.1, -0.3, 0.40):
        gap_val = cauchy(tau, x)
        limit_val = cauchy(tau, complex(x, 1e-9))
        assert abs(gap_val - limit_val) <= 1e-7


def test_chebyshev_kernel_closed_form():
    # int_{-b}^{b} dx / (sqrt(b^2 - x^2)(z - x)) = pi / sqrt_cut(z, b);
    # quadrature under x = b sin(theta) against the closed form.
    b = 0.6
    theta, w = gl_map(-math.pi / 2, math.pi / 2, 160)
    for z in (2.0, 1 + 1j, -3j):
        quad_val = np.sum(w / (z - b * np.sin(theta)))
        assert abs(quad_val - math.pi / sqrt_cut(z, b)) <= 1e-10


# ---------------------------------------------------------------------------
# g-function and potentials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", (-2.0, 0.0, 1.0))
def test_g_prime_is_cauchy(tau):
    for z in (1.9 + 0.3j, -0.4 + 1.1j, 3j, 2.5 + 0.0j):
        h = 1e-6
        fd = (g_function(tau, z + h) - g_function(tau, z - h)) / (2 * h)
        assert abs(fd - cauchy(tau, z)) <= 1e-8


@pytest.mark.parametrize("tau", (-2.0, 0.0, 1.0))
def test_g_log_normalization(tau):
    for z in (50 + 50j, 200j, -300.0 + 0.0j):
        assert abs(g_function(tau, z) - cmath.log(z)) <= 1.0 / abs(z) ** 2


def test_g_repulsive_unavailable():
    with pytest.raises(DomainError):
        g_function(2.0, 2 + 1j)


def test_lebesgue_functions():
    # potential of the uniform unit measure on [-1,1]: V(0) = 1,
    # V(+-1) = 1 - log 2, both by direct integration
    assert abs(lebesgue_potential(0.0) - 1.0) <= 1e-14
    assert abs(lebesgue_potential(1.0) - (1.0 - math.log(2.0))) <= 1e-14
    assert abs(lebesgue_potential(-1.0) - (1.0 - math.log(2.0))) <= 1e-14
    # C(z) = (1/2) log((z+1)/(z-1)); at z=3 that is log(2)/2
    assert abs(lebesgue_cauchy(3.0) - 0.5 * math.log(2.0)) <= 1e-15
    for z in (60 + 10j, -4 + 0.5j):
        assert abs(lebesgue_g(z) - cmath.log(z)) <= 1.0 / abs(z) ** 2
        h = 1e-6
        fd = (lebesgue_g(z + h) - lebesgue_g(z - h)) / (2 * h)
        # roundoff in the difference quotient dominates; O(h^2) alone is 1e-12
        assert abs(fd - lebesgue_cauchy(z)) <= 1e-7


def test_external_field_values():
    assert external_field(0.0, 0.37) == 0.0
    assert abs(external_field(-2.0, 0.0) + 2.0) <= 1e-14
    assert abs(external_field(-2.0, 0.5) - external_field(-2.0, -0.5)) <= 1e-15


def test_potential_arcsine_plateau():
    for x in (-0.9, -0.2, 0.0, 0.55, 0.99):
        assert abs(potential(0.0, x) - math.log(2.0)) <= 1e-13


def test_potential_arcsine_exterior():
    # -Re g for the arcsine measure: V(2) = -log((2 + sqrt(3))/2)
    assert abs(potential(0.0, 2.0) - math.log(2.0 / (2.0 + math.sqrt(3.0)))) \
        <= 1e-15


@pytest.mark.parametrize("tau", (-2.0, -1.0, 0.0, 1.0, TAU_CRITICAL))
def test_potential_continuous_at_soft_support_entry(tau):
    # crossing into the support from outside changes the formula branch;
    # the potential itself must stay continuous
    lo, hi = support(tau).pieces[-1]
    eps = 1e-9
    inside = potential(tau, hi - eps)
    outside = potential(tau, hi + eps)
    # a hard edge has a square-root cusp in the exterior direction, so the
    # modulus of continuity is sqrt(eps), not eps
    assert abs(inside - outside) <= 5e-4


def test_potential_complex_matches_real_axis_limit():
    for tau in (-2.0, 0.5):
        v_real = potential(tau, 2.0)
        v_complex = potential(tau, complex(2.0, 1e-10))
        assert abs(v_real - v_complex) <= 1e-9


# ---------------------------------------------------------------------------
# equilibrium constant
# ---------------------------------------------------------------------------

def test_omega_closed_values():
    assert omega(0.0) == math.log(2.0)
    assert omega(-1.0) == 0.0
    # tau=-2: (3/2) log 3 - 2 log 2 - 1 by substituting beta = sqrt(3)/2
    ref = 1.5 * math.log(3.0) - 2.0 * math.log(2.0) - 1.0
    assert abs(omega(-2.0) - ref) <= 1e-14
    assert abs(omega(TAU_CRITICAL) - (1.0 + TAU_CRITICAL) * math.log(2.0)) \
        <= 1e-14


def test_omega_continuity_at_attractive_boundary():
    left, right = omega(-1.0 - 1e-4), omega(-1.0 + 1e-4)
    assert abs(left - right) <= 1e-3
    assert abs(left) <= 1e-3 and abs(right) <= 1e-3


def test_omega_continuity_at_repulsive_boundary():
    limit = (math.pi / (math.pi - 2.0)) * math.log(2.0)
    assert abs(omega(TAU_CRITICAL + 1e-4) - limit) <= 1e-3


def test_omega_repulsive_routes_agree():
    from logeq.series import omega_integral
    assert abs(omega(2.0) - omega_integral(2.0)) <= 1e-8


def test_report_fields():
    rep = report(2.0)
    assert rep.tau == 2.0
    assert rep.regime is Regime.REPULSIVE
    assert rep.beta == solve_beta_repulsive(2.0)
    assert rep.omega == omega(2.0)
    rep0 = report(0.0)
    assert rep0.beta == 1.0 and rep0.omega == math.log(2.0)
