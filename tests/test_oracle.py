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
    Regime,
    cauchy,
    density,
    external_field,
    omega,
    potential,
    report,
    solve_beta_repulsive,
    support,
)
from logeq.errors import ConsistencyError, ConvergenceError, DomainError
from logeq.oracle import (
    DiscreteSolution,
    GridMeasure,
    VerificationReport,
    _support_grid,
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


@pytest.mark.parametrize("tau, calls", [(-2.0, 1), (0.5, 1), (3.0, 2)])
def test_measure_quadrature_takes_the_density_once_per_edge_modulus(monkeypatch, tau, calls):
    # the density depends on an edge only through |edge|: the two edges of
    # one piece, or the mirror edges of two cuts, share their values
    import logeq.oracle as oracle_mod
    edges = []
    real = oracle_mod._density_offset
    monkeypatch.setattr(oracle_mod, "_density_offset",
                        lambda tau, edge, off: edges.append(edge) or real(tau, edge, off))
    assert abs(measure_quadrature(tau) - 1.0) <= 2.2e-16
    assert len(edges) == calls


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
    with pytest.raises(ConsistencyError):
        GridMeasure(nodes=np.array([0.0, 0.5]), weights=np.array([math.nan, 1.0]))
    with pytest.raises(ConsistencyError):
        GridMeasure(nodes=np.array([math.nan, 0.5]), weights=np.array([0.5, 0.5]))


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
    # non-integer sizes are typed errors, not numpy's TypeError
    with pytest.raises(DomainError):
        discrete_minimize(0.0, 400.5, 10)
    with pytest.raises(DomainError):
        discrete_minimize(0.0, 400, 10.5)


def test_discrete_minimizer_reports_nonconvergence():
    # max_iters caps the KKT solves; at tau = 2 the first solve, on every
    # node, has negative weights, so one solve leaves no feasible iterate
    with pytest.raises(ConvergenceError):
        discrete_minimize(2.0, 400, 1)


def test_discrete_minimizer_potential_is_flat_on_the_carrying_nodes():
    # the minimizer solves the KKT system on its carrying set, so the
    # discrete total potential is flat there to rounding and the gap is far
    # below its bound 1e-6 (a stop on that bound alone can leave 7e-7)
    from logeq.oracle import _interaction_matrix
    sol = discrete_minimize(2.0, 1000, 4000)
    nodes, w = sol.measure.nodes, sol.measure.weights
    pot = _interaction_matrix(nodes) @ w + external_field(2.0, nodes)
    assert np.ptp(pot[w > 0.0]) <= 1e-12
    assert abs(2.0 * (pot @ w - np.min(pot))) <= 1e-12


@pytest.mark.parametrize("tau", [1e8, 1e12, -1e12, -1e300])
def test_discrete_minimizer_at_large_field_strengths(tau):
    # the solves take b less its minimum: with b itself they hold sum w = 1
    # only to ~|tau| eps (5e-10 at tau = 1e8, past GridMeasure's 1e-12)
    sol = discrete_minimize(tau, 100, 50)
    assert abs(sol.omega_est - omega(tau)) <= 2e-4 * abs(tau)
    assert sol.beta_est == 1.0 if tau > 0 else sol.beta_est < 0.02


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
    # one call on the x > 0 halves: 100 support points, 100 gap points off
    # one piece or in the two-cut gap, and the spread point of one piece
    import logeq.oracle as oracle_mod
    real = oracle_mod.potential_quad
    for tau, sizes in ((-2.0, [201]), (0.5, [101]), (3.0, [200])):
        calls = []
        monkeypatch.setattr(oracle_mod, "potential_quad",
                            lambda tau, z: calls.append(np.size(z)) or real(tau, z))
        assert verify(tau).passes
        assert calls == sizes, tau


def _full_grids(sup):
    """The 200-point support and gap grids, both halves, that verify once sampled."""
    on = _support_grid(sup, 200, 1e-3)
    if sup.regime is Regime.INTERMEDIATE:
        return on, np.empty(0)
    if sup.regime is Regime.ATTRACTIVE:
        right = np.linspace(sup.beta + 1e-3 * sup.kc ** 2 / (1.0 + sup.beta), 1.0, 100)
        return on, np.concatenate((-right[::-1], right))
    ins = 1e-3 * (2.0 * sup.beta)
    return on, np.linspace(-sup.beta + ins, sup.beta - ins, 200)


@pytest.mark.parametrize("tau", [-300.0, -7.45, -1.53, -0.6, 0.19, 2.15, 4.57, 10.3, 1e3, 1e6])
def test_verify_samples_one_half_of_a_symmetric_problem(tau):
    # potential_quad is even to 2 ulps (bitwise on one piece), so the x > 0
    # halves that verify samples give the residuals of the full grids
    sup, w = support(tau), omega(tau)
    on, gap = _full_grids(sup)
    xs = np.concatenate((on, gap))
    u = potential_quad(tau, xs)
    mirrored = potential_quad(tau, -xs)
    if tau <= TAU_CRITICAL:
        assert np.array_equal(mirrored, u)
    assert np.all(np.abs(mirrored - u) <= 2.0 * np.spacing(np.abs(u)))
    residual = u + external_field(tau, xs) - w
    rep = verify(tau)
    ulp = np.spacing(abs(w))
    assert abs(rep.flatness_error - np.max(np.abs(residual[:on.size]))) <= 4.0 * ulp
    margin = np.min(residual[on.size:]) if gap.size else 0.0
    assert abs(rep.inequality_margin - margin) <= 4.0 * ulp
    assert rep.passes


@pytest.mark.parametrize("tau", [-2.0, 0.5, 3.0])
def test_verify_reads_a_failed_quadrature_as_infinities(monkeypatch, tau):
    import logeq.oracle as oracle_mod

    def failing(tau, z):
        raise DomainError("quadrature failed")

    monkeypatch.setattr(oracle_mod, "potential_quad", failing)
    rep, regime = verify(tau), support(tau).regime
    assert not rep.passes
    assert rep.flatness_error == math.inf
    # the full interval has no gap to check
    assert rep.inequality_margin == (0.0 if regime is Regime.INTERMEDIATE else -math.inf)
    # two cuts read the spread of omega's two routes
    assert (rep.cross_route_omega_spread == math.inf) == (regime is not Regime.REPULSIVE)
    assert math.isfinite(rep.mass_error) and math.isfinite(rep.sp_error)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_non_finite_tau_is_a_domain_error(tau):
    from logeq.equilibrium import _omega_repulsive
    caches = (support, solve_beta_repulsive, _omega_repulsive)
    for cache in caches:
        cache.cache_clear()
    for call in (support, omega, lambda t: density(t, 0.5), verify, solve_beta_repulsive):
        for t in (tau, np.float64(tau), np.array(tau)):
            with pytest.raises(DomainError):
                call(t)
    # a tau that raises leaves no entry behind
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]


@pytest.mark.parametrize("tau", [-2.0, 0.5, 3.0])
def test_numpy_tau_answers_as_its_float(tau):
    # every tau-keyed cache keys on float(tau): a 0-d array is no
    # unhashable key, and a numpy scalar gives what its float gives
    want = (support(tau), omega(tau), report(tau), verify(tau))
    for t in (np.float64(tau), np.array(tau)):
        got = (support(t), omega(t), report(t), verify(t))
        assert got == want
        assert type(got[1]) is float and type(got[2].omega) is float


def test_verify_raises_where_support_does():
    # verify records its components' failures, but not the support's: past
    # tau ~ 1.8e15 the two-cut beta rounds to 1
    with pytest.raises(DomainError):
        verify(2e15)


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
