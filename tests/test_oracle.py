"""Tests for the independent verification machinery.

The oracle routines deliberately avoid the closed forms they are meant to
check, so most tests here are cross-route: quadrature against closed form,
principal values against their algebraic reductions, the discrete
minimizer against known constants.  Values marked "frozen" come from
one-off adaptive quadrature (scipy.integrate.quad at rtol 1e-12) and were
pasted in as literals.
"""

import math

import numpy as np
import pytest

from logeq.equilibrium import (
    TAU_CRITICAL,
    cauchy,
    density,
    external_field,
    omega,
    potential,
    solve_beta_repulsive,
    support,
)
from logeq.errors import ConsistencyError, ConvergenceError, DomainError
from logeq.oracle import (
    DiscreteSolution,
    GridMeasure,
    VerificationReport,
    discrete_minimize,
    measure_quadrature,
    potential_quad,
    pv_integral,
    verify,
)
from logeq.specfun import integral_I

BETA2 = 0.41729943021563737

# Frozen potentials of the attractive (tau = -2) measure, from adaptive
# quadrature of the closed-form density against log|x - t|.
V_ATT_03 = 1.1702229888316482   # on the cut, x = 0.3
V_ATT_17 = -0.49178076865289017  # outside, x = 1.7


# ---------------------------------------------------------------------------
# Principal values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.2, BETA2, 0.8])
def test_pv_chebyshev_kernel_is_zero(beta):
    # the exact principal value is 0 for every x in the open gap; the
    # computed value is a pure cancellation test of the quadrature
    for x in np.linspace(-beta, beta, 22)[1:-1]:
        assert abs(pv_integral("chebyshev", beta, float(x))) <= 5e-12


@pytest.mark.parametrize("beta", [0.2, BETA2, 0.8])
def test_pv_full_kernel_reduction(beta):
    # p.v. of the density kernel over the gap reduces to 2x I(sqrt(1-x^2), beta)
    for x in np.linspace(-beta, beta, 22)[1:-1]:
        x = float(x)
        expected = 2.0 * x * integral_I(math.sqrt(1.0 - x * x), beta, math.sqrt(1.0 - beta * beta))
        assert abs(pv_integral("full", beta, x) - expected) <= 1e-9


def test_pv_domain_errors():
    with pytest.raises(DomainError):
        pv_integral("full", 0.5, 0.5)  # x on the edge is not interior
    with pytest.raises(DomainError):
        pv_integral("full", 0.5, -0.7)
    with pytest.raises(DomainError):
        pv_integral("full", 1.0, 0.1)
    with pytest.raises(DomainError):
        pv_integral("sine", 0.5, 0.1)


# ---------------------------------------------------------------------------
# Quadrature of the measure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", [-3.0, -2.0, -1.0, 0.0, 1.0, TAU_CRITICAL, 2.0, 5.0])
def test_total_mass_is_one(tau):
    assert abs(float(measure_quadrature(tau)) - 1.0) <= 1e-8


@pytest.mark.parametrize("tau", [2.0, 1e3, 1e5, 1e7, 1e10, 1e12, 1e14])
def test_two_cut_mass_is_one_to_rounding(tau):
    # the piece widths come from kc: as 1 - beta from the double beta, the
    # mass was off by 5.5e-13 at tau = 1e3, 2.0e-8 at 1e7 and 3.7e-5 at 3e10
    assert abs(measure_quadrature(tau) - 1.0) <= 1e-15


def test_known_moments():
    # arcsine measure: second moment 1/2, fourth moment 3/8
    assert abs(float(measure_quadrature(0.0, lambda x: x * x)) - 0.5) <= 1e-10
    assert abs(float(measure_quadrature(0.0, lambda x: x ** 4)) - 0.375) <= 1e-10
    # every equilibrium measure here is even
    for tau in (-2.0, 1.0, 2.0):
        assert abs(float(measure_quadrature(tau, lambda x: x))) <= 1e-10


@pytest.mark.parametrize("tau", [-5.0, -2.0, -1.0, 0.0, 1.0, 1.75, 2.0, 10.0])
def test_measure_quadrature_close_to_the_cut(tau):
    # one edge-segment rule in every regime: f = 1/(z - x) at 0.05 to 0.1
    # from the cut is integrated to the accuracy of the closed form
    lo, hi = support(tau).pieces[-1]
    for z in (0.5 * (lo + hi) + 0.1j, lo + 0.3 * (hi - lo) + 0.1j, 0.05j, hi + 0.1):
        direct = complex(measure_quadrature(tau, lambda x: 1.0 / (z - x)))
        assert abs(cauchy(tau, z) - direct) <= 1e-13 * abs(direct), z


@pytest.mark.parametrize("tau", [-2.0, 0.0, 2.0])
def test_cauchy_against_quadrature(tau):
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0))
        direct = complex(measure_quadrature(tau, lambda x: 1.0 / (z - x)))
        assert abs(cauchy(tau, z) - direct) <= 1e-8


# ---------------------------------------------------------------------------
# Potential by quadrature
# ---------------------------------------------------------------------------

def test_potential_quad_frozen_anchors():
    assert abs(potential_quad(-2.0, 0.3) - V_ATT_03) <= 1e-9
    assert abs(potential_quad(-2.0, 1.7) - V_ATT_17) <= 1e-9


@pytest.mark.parametrize("tau", [-2.0, -0.5, 0.0, 1.0])
def test_potential_quad_matches_closed_form(tau):
    beta = support(tau).beta
    pts = [0.0, 0.3, -0.55, 0.8 * beta, 1.3, -2.2, complex(0.4, 0.9)]
    for z in pts:
        assert abs(potential_quad(tau, z) - potential(tau, z)) <= 1e-9


def test_potential_quad_repulsive_flatness():
    # no closed potential in this regime; the defining property stands in
    w = omega(2.0)
    beta = solve_beta_repulsive(2.0)[0]
    for x in (beta + 1e-3, 0.5 * (beta + 1.0), 0.97, -0.8):
        total = potential_quad(2.0, x) + external_field(2.0, x)
        assert abs(total - w) <= 1e-6


@pytest.mark.parametrize("tau,edges", [
    (-2.0, [math.sqrt(3.0) / 2.0]),          # soft edges only
    (0.5, [1.0]),                            # hard edges only
    (2.0, [solve_beta_repulsive(2.0)[0], 1.0]),  # one of each
])
def test_potential_quad_stable_at_the_edges(tau, edges):
    # the equilibrium relation V + tau V_bg = omega holds up to the edge;
    # evaluating just inside must not lose the edge sliver of the measure
    w = omega(tau)
    for edge in edges:
        soft = abs(edge) != 1.0 or tau == -2.0
        tol = 1e-9 if (tau == -2.0 or (tau == 2.0 and edge != 1.0)) else 1e-6
        for off in (1e-6, 1e-9, 1e-12):
            x = edge - off
            total = potential_quad(tau, x) + external_field(tau, x)
            assert abs(total - w) <= tol, (edge, off)
        # on the edge itself, also a hair off the axis there
        for z in (edge, -edge, complex(-edge, 1e-300), complex(edge, -1e-300)):
            total = potential_quad(tau, z) + external_field(tau, z)
            assert abs(total - w) <= 1e-13, z


# ---------------------------------------------------------------------------
# Grid measures and the discrete minimizer
# ---------------------------------------------------------------------------

def test_grid_measure_validation():
    nodes = np.linspace(-1.0, 1.0, 11)
    w = np.full(11, 1.0 / 11.0)
    GridMeasure(nodes=nodes, weights=w)  # valid
    with pytest.raises(ConsistencyError):
        GridMeasure(nodes=nodes, weights=w[:-1])
    with pytest.raises(ConsistencyError):
        GridMeasure(nodes=nodes, weights=w * 1.5)
    bad = w.copy()
    bad[3] = -bad[3]
    bad[4] += 2.0 * w[3]
    with pytest.raises(ConsistencyError):
        GridMeasure(nodes=nodes, weights=bad)
    with pytest.raises(ConsistencyError):
        GridMeasure(nodes=nodes[::-1], weights=w)
    with pytest.raises(ConsistencyError):
        GridMeasure(nodes=nodes + 0.5, weights=w)


def test_discrete_minimizer_arcsine():
    sol = discrete_minimize(0.0, 400, 1500)
    assert isinstance(sol, DiscreteSolution)
    assert abs(sol.omega_est - math.log(2.0)) <= 1e-2
    assert abs(float(np.sum(sol.measure.weights)) - 1.0) <= 1e-12
    # full-interval regime: the carrying set reaches the endpoints
    assert sol.beta_est >= 0.99
    trace = np.asarray(sol.energy_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    # energy of the arcsine limit is log 2 (plus the discrete self-term,
    # which the regularization keeps small at this n)
    assert abs(sol.energy - math.log(2.0)) <= 2e-2


def test_discrete_minimizer_attractive_edge():
    sol = discrete_minimize(-2.0, 400, 1500)
    assert abs(sol.beta_est - math.sqrt(3.0) / 2.0) <= 0.05
    assert abs(sol.omega_est - omega(-2.0)) <= 1e-2


def test_discrete_minimizer_grid_convergence():
    # halving the mesh must shrink the omega error by a clear factor
    target = omega(2.0)
    err = {}
    for n in (500, 1000):
        sol = discrete_minimize(2.0, n, 4000)
        err[n] = abs(sol.omega_est - target)
    assert err[1000] < err[500]
    assert err[500] / err[1000] >= 1.5


def test_discrete_minimizer_rejects_bad_arguments():
    with pytest.raises(DomainError):
        discrete_minimize(0.0, 50, 100)
    with pytest.raises(DomainError):
        discrete_minimize(0.0, 400, 0)


def test_discrete_minimizer_reports_nonconvergence(monkeypatch):
    # The fully-corrective pass solves these problems in one shot from any
    # start, so the iteration cap alone cannot be hit honestly; disable the
    # corrective step to check the guard actually fires.
    import logeq.oracle as oracle_mod
    monkeypatch.setattr(oracle_mod, "_corrective_solve", lambda *a: None)
    with pytest.raises(ConvergenceError):
        discrete_minimize(0.0, 400, 3)


# ---------------------------------------------------------------------------
# The verification report
# ---------------------------------------------------------------------------

# at tau = 1e7 the mass error was 2.0e-8 with piece widths from the double beta
@pytest.mark.parametrize("tau", [-2.0, 0.0, 2.0, 1e4, 1e5, 1e6, 1e7])
def test_verify_passes(tau):
    rep = verify(tau)
    assert isinstance(rep, VerificationReport)
    assert rep.passes
    assert rep.mass_error <= 1e-8
    assert rep.flatness_error <= 1e-6
    assert rep.inequality_margin >= -1e-9
    assert rep.sp_error <= 1e-4


def test_verify_spread_repulsive():
    assert verify(2.0).cross_route_omega_spread <= 1e-8


@pytest.mark.parametrize("tau", [5.0, 9.0])
def test_verify_at_the_rounding_floor_in_the_series_band(tau):
    # omega's two routes agree to ~1e-14 and the quadrature potential is flat to ~1e-14
    rep = verify(tau)
    assert rep.flatness_error <= 1e-13
    assert rep.cross_route_omega_spread <= 1e-13


@pytest.mark.parametrize("tau", [9.0, 10.0, 12.0, 1e3])
def test_verify_passes_on_narrow_two_cut_pieces(tau):
    # the boundary value is read a hair off the cut, whatever the piece width
    rep = verify(tau)
    assert rep.passes
    assert rep.sp_error <= 1e-6


def test_verify_sp_error_far_into_the_attractive_regime():
    # a cut of half-width ~1.4e-4 whose density peaks near 4.5e3
    assert verify(-1e8).sp_error <= 1e-4


def test_verify_sp_error_on_the_narrowest_two_cut_pieces():
    # pieces of width ~1e-8: the boundary value 1e-300 off a cut answers
    assert verify(1e7).sp_error <= 1e-4


def test_verify_sp_error_reads_the_boundary_value_at_tau_1e8():
    # a density of size ~1.5e9, read 1e-300 off the cut.  verify(1e8)
    # still fails on its omega spread (1.1e-8 against the absolute 1e-8
    # bound).
    assert verify(1e8).sp_error <= 1e-4


def _assert_verify_reuses_the_omega_routes(monkeypatch, tau):
    # omega's cache holds both route values; verify reads its spread there,
    # and the series is not one of them
    import logeq.series as series_mod
    from logeq.equilibrium import _omega_repulsive
    _omega_repulsive.cache_clear()
    series_calls, integral_calls = [], []
    real_series, real_integral = series_mod.omega_series, series_mod.omega_integral
    monkeypatch.setattr(series_mod, "omega_series",
                        lambda tau, tol: series_calls.append(tau) or real_series(tau, tol))
    monkeypatch.setattr(series_mod, "omega_integral",
                        lambda tau: integral_calls.append(tau) or real_integral(tau))
    rep = verify(tau)
    assert rep.passes
    assert series_calls == []
    assert integral_calls == [tau]
    value, check = _omega_repulsive(tau)
    assert rep.cross_route_omega_spread == abs(value - check) <= 1e-8


def test_verify_reuses_the_omega_routes(monkeypatch):
    _assert_verify_reuses_the_omega_routes(monkeypatch, 2.0 + 1e-9 * math.pi)  # a tau no other test caches


def test_verify_reuses_the_omega_routes_above_the_series_band(monkeypatch):
    # beta^2 ~ 0.935, above the band where omega once answered by its series
    _assert_verify_reuses_the_omega_routes(monkeypatch, 12.0 + 1e-9 * math.pi)


def test_verify_spread_stays_finite_when_the_routes_disagree(monkeypatch):
    import logeq.series as series_mod
    from logeq.equilibrium import _omega_repulsive
    real = series_mod.omega_integral
    monkeypatch.setattr(series_mod, "omega_integral", lambda tau: real(tau) + 1e-6)
    tau = 3.0 + 1e-9 * math.pi
    try:
        with pytest.raises(ConsistencyError, match="omega routes disagree"):
            omega(tau)
        rep = verify(tau)
        assert not rep.passes
        assert abs(rep.cross_route_omega_spread - 1e-6) <= 1e-12
        assert rep.flatness_error == math.inf  # it needs omega itself
    finally:
        _omega_repulsive.cache_clear()  # drop the perturbed route values


def test_verify_spread_stays_finite_when_the_theta_formula_disagrees(monkeypatch):
    import logeq.equilibrium as equilibrium_mod
    from logeq.equilibrium import _omega_repulsive
    real = equilibrium_mod._omega_theta
    monkeypatch.setattr(equilibrium_mod, "_omega_theta", lambda tau: real(tau) + 1e-6)
    tau = 15.0 + 1e-9 * math.pi
    try:
        with pytest.raises(ConsistencyError,
                           match="omega routes disagree at tau=.*: theta .* vs integral"):
            omega(tau)
        rep = verify(tau)
        assert not rep.passes
        assert abs(rep.cross_route_omega_spread - 1e-6) <= 1e-12
        assert rep.flatness_error == math.inf  # it needs omega itself
    finally:
        _omega_repulsive.cache_clear()  # drop the perturbed route values


def test_verify_makes_one_cauchy_call(monkeypatch):
    import logeq.oracle as oracle_mod
    sizes = []
    real = oracle_mod.cauchy
    monkeypatch.setattr(oracle_mod, "cauchy",
                        lambda tau, z: sizes.append(np.size(z)) or real(tau, z))
    assert verify(2.0).passes
    assert sizes == [20]  # one boundary value per support point


def test_verify_batches_its_quadrature_points(monkeypatch):
    import logeq.oracle as oracle_mod
    calls = []
    real = oracle_mod.potential_quad
    monkeypatch.setattr(oracle_mod, "potential_quad",
                        lambda tau, z: calls.append(np.size(z)) or real(tau, z))
    assert verify(-2.0).passes
    assert calls == [200, 200, 1]


def test_two_cut_quadrature_builds_one_I_table_per_tau(monkeypatch):
    # the two-cut density reads I(a, beta) from a 24-term interpolant built
    # once per beta, not from a quadrature per node: at a fresh tau, 10 000
    # density points and 200 potential points cost 24 integral_I points
    import logeq.equilibrium as equilibrium_mod
    import logeq.specfun as specfun_mod
    points = []
    real = specfun_mod.integral_I

    def counted(a, k, kc):
        points.append(np.size(a))
        return real(a, k, kc)

    monkeypatch.setattr(specfun_mod, "integral_I", counted)
    monkeypatch.setattr(equilibrium_mod, "integral_I", counted)
    density(2.0, 0.7)  # warm-up
    potential_quad(2.0, 0.7)
    # another test may have built the table for this tau already
    specfun_mod._I_cheb_coeffs.cache_clear()
    points.clear()
    tau = 3.0 + 1e-7 * math.pi
    beta = support(tau).beta
    density(tau, np.linspace(beta, 1.0, 10_002)[1:-1])
    potential_quad(tau, np.linspace(-1.5, 1.5, 200) + 0.01j * (np.arange(200) % 3))
    assert 0 < sum(points) <= 24
