"""Property tests of the array API of the point functions, and of the
measure and omega over tau.

Every function of a point takes one point or an array of them.  These
tests draw tau across the three regimes and arrays of points off the cuts,
and check that the array call is the elementwise scalar call, that the
Cauchy transform is conjugate-symmetric and odd, that one bad entry makes
the whole call raise DomainError, and that a scalar comes back as a Python
float or complex.  The quadrature potential takes up to 300 points on and
off the cuts, across its chunks and blocks.  Over tau they check that the
measure has unit mass, that omega is continuous where its formula changes,
that its two two-cut routes agree from the critical tau to 1e14, and that
the free energy has a third-order transition where the gap opens and a
fourth-order one where the hard edges turn soft.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logeq.equilibrium import (TAU_CRITICAL, Regime, _omega_repulsive,
                               cauchy, density, external_field, g_function,
                               lebesgue_cauchy, lebesgue_g, lebesgue_potential,
                               omega, potential, support)
from logeq.errors import DomainError
from logeq.oracle import measure_quadrature, potential_quad
from logeq.specfun import complete_E

# Deterministic runs with no example database: the suite stays
# reproducible and writes nothing.
PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)

TAUS = st.one_of(st.floats(-60.0, -1.001), st.floats(-1.0, 1.75), st.floats(1.76, 20.0))
CLOSED_FORM_TAUS = st.one_of(st.floats(-60.0, -1.001), st.floats(-1.0, 1.75))
COORD = st.floats(-3.0, 3.0)
FAR_COORD = st.floats(-1e6, 1e6)


def _off_cut(tau, pts):
    """The points of pts that lie farther than 1e-9 from every support piece."""
    pts = np.asarray(pts, dtype=complex)
    keep = np.ones(pts.shape, bool)
    for lo, hi in support(tau).pieces:
        keep &= ~((np.abs(pts.imag) <= 1e-9) & (pts.real >= lo - 1e-9) & (pts.real <= hi + 1e-9))
    return pts[keep]


def _points(coord):
    return st.lists(st.builds(complex, coord, coord), min_size=1, max_size=8)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


@PROPERTY
@given(tau=TAUS, pts=_points(COORD), far=_points(FAR_COORD))
def test_cauchy_array_is_elementwise(tau, pts, far):
    z = _off_cut(tau, pts + far)
    got = cauchy(tau, z)
    for zi, gi in zip(z, got):
        assert _close(gi, cauchy(tau, complex(zi)), 1e-15)


@PROPERTY
@given(tau=CLOSED_FORM_TAUS, pts=_points(COORD))
def test_g_function_and_potential_arrays_are_elementwise(tau, pts):
    z = _off_cut(tau, pts)
    g, v = g_function(tau, z), potential(tau, z)
    for zi, gi, vi in zip(z, g, v):
        assert _close(gi, g_function(tau, complex(zi)), 1e-15)
        assert _close(vi, potential(tau, complex(zi)), 1e-15)


@PROPERTY
@given(tau=st.floats(1.76, 20.0), x=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5))
def test_repulsive_potential_array_is_elementwise(tau, x):
    x = np.asarray(x)
    v = potential(tau, x)
    for xi, vi in zip(x, v):
        assert _close(vi, potential(tau, float(xi)), 1e-15)


@PROPERTY
@given(tau=TAUS, pts=_points(COORD))
def test_background_functions_are_elementwise(tau, pts):
    z = np.asarray(pts)
    z_bg = _off_cut(0.0, pts)  # lebesgue_g and lebesgue_cauchy need z off [-1, 1]
    for zi, vi in zip(z, external_field(tau, z)):
        assert _close(vi, external_field(tau, complex(zi)), 1e-15)
    for zi, vi in zip(z, lebesgue_potential(z)):
        assert _close(vi, lebesgue_potential(complex(zi)), 1e-15)
    for zi, gi, ci in zip(z_bg, lebesgue_g(z_bg), lebesgue_cauchy(z_bg)):
        assert _close(gi, lebesgue_g(complex(zi)), 1e-15)
        assert _close(ci, lebesgue_cauchy(complex(zi)), 1e-15)


@PROPERTY
@given(tau=TAUS, pts=_points(COORD), far=_points(FAR_COORD))
def test_cauchy_is_conjugate_symmetric_and_odd(tau, pts, far):
    z = _off_cut(tau, pts + far)
    c = cauchy(tau, z)
    assert np.all(cauchy(tau, z.conj()) == c.conj())
    # rounding relative to the size of the terms that cancel where C is
    # small (near the centre of the two-cut gap): tau atanh(1/z) and its match
    scale = (1.0 + abs(tau)) / np.maximum(np.abs(z), 1.0)
    assert np.all(np.abs(cauchy(tau, -z) + c) <= 1e-14 * np.maximum(np.abs(c), scale))


# Sizes around the 128-point chunks and 256-point blocks of potential_quad
SEAM_SIZES = st.one_of(st.sampled_from([127, 128, 129, 255, 256, 257, 300]), st.integers(1, 300))


@settings(PROPERTY, max_examples=10)
@pytest.mark.parametrize("taus", [st.floats(-60.0, -1.001), st.floats(-1.0, 1.75),
                                  st.floats(1.76, 1e3)])
@given(data=st.data())
def test_potential_quad_batch_is_pointwise_across_chunks_and_blocks(taus, data):
    # up to 300 points on and off the cuts, on the axis, next to it and off
    # it: a point's value is the one it has alone, and U is even, bit for
    # bit on one piece
    tau, n = data.draw(taus), data.draw(SEAM_SIZES)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.uniform(-1.5, 1.5, n) + 1j * rng.choice([0.0, 0.0, 1e-12, 1e-3, -0.3], n)
    batch = potential_quad(tau, z)
    alone = np.array([potential_quad(tau, p) for p in z])
    assert np.all(np.abs(batch - alone) <= 1e-15 * np.maximum(1.0, np.abs(alone)))
    mirrored = potential_quad(tau, -z)
    if tau <= TAU_CRITICAL:
        assert np.array_equal(mirrored, batch)
    else:
        assert np.all(np.abs(mirrored - batch) <= 2.0 * np.spacing(np.abs(batch)))


BAD_POINTS = (complex(math.nan, 1.0), complex(math.inf, 0.0), complex(0.3, -math.inf))


@PROPERTY
@given(tau=TAUS, pts=_points(COORD), at=st.integers(0, 8), bad=st.sampled_from(BAD_POINTS))
def test_one_non_finite_entry_raises(tau, pts, at, bad):
    z = _off_cut(tau, pts)
    z = np.insert(z, min(at, z.size), bad)
    for fn in (cauchy, potential, g_function):
        with pytest.raises(DomainError):
            fn(tau, z)


@PROPERTY
@given(tau=TAUS, pts=_points(COORD), at=st.integers(0, 8),
       where=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       zero=st.sampled_from([0.0, -0.0]), dy=st.floats(1e-300, 1e-13))
def test_one_entry_on_a_cut_raises(tau, pts, at, where, zero, dy):
    # exactly on a cut, from either side of the axis and at the edges too;
    # a point however close above or below it is off the cut and answers
    lo, hi = support(tau).pieces[-1]
    x = min(max(lo + where * (hi - lo), lo), hi)
    z = _off_cut(tau, pts)
    i = min(at, z.size)
    for fn in (cauchy, g_function):
        with pytest.raises(DomainError):
            fn(tau, np.insert(z, i, complex(x, zero)))
    for near in (complex(x, dy), complex(x, -dy)):
        got = cauchy(tau, np.insert(z, i, near))
        assert np.isfinite(got).all()
        assert _close(got[i], cauchy(tau, near), 1e-15)
        assert cauchy(tau, near.conjugate()) == got[i].conjugate()
        if tau <= TAU_CRITICAL:  # no closed-form g in the repulsive regime
            assert np.isfinite(g_function(tau, np.insert(z, i, near))).all()


@pytest.mark.parametrize("tau", [-2.0, 0.5, 2.0])
def test_scalar_in_gives_python_scalar_out(tau):
    lo, hi = support(tau).pieces[-1]
    inside = 0.5 * (lo + hi)
    for z in (1.5 + 0.5j, np.complex128(1.5 + 0.5j), 2.5, np.float64(2.5)):
        assert type(cauchy(tau, z)) is complex
        assert type(potential(tau, z)) is float
        if tau != 2.0:
            assert type(g_function(tau, z)) is complex
    for x in (inside, np.float64(inside)):
        assert type(density(tau, x)) is float
        assert type(potential(tau, x)) is float
        assert type(external_field(tau, x)) is float
    assert type(lebesgue_potential(0.5)) is float
    assert type(lebesgue_g(2.0)) is complex
    assert type(lebesgue_cauchy(np.float64(2.0))) is complex


# |tau| from 1.001 to 1e4 one-cut and from TAU_CRITICAL to 1e5 two-cut, log-spread
WIDE_TAUS = st.one_of(st.floats(0.0005, 4.0).map(lambda e: -10.0 ** e),
                      st.floats(-1.0, 1.75),
                      st.floats(-12.0, 5.0).map(lambda e: TAU_CRITICAL + 10.0 ** e))


@PROPERTY
@given(tau=WIDE_TAUS)
def test_unit_mass(tau):
    assert abs(measure_quadrature(tau) - 1.0) <= 1e-10


# The two-cut taus start 3e-4 above the critical tau: the second derivative
# of omega jumps there, and the central difference below must not straddle it.
CAPACITY_TAUS = st.one_of(st.floats(0.0005, 4.0).map(lambda e: -10.0 ** e),
                          st.floats(-1.0, 1.75),
                          st.floats(-3.5, 5.0).map(lambda e: TAU_CRITICAL + 10.0 ** e))


@PROPERTY
@given(tau=CAPACITY_TAUS)
def test_omega_less_tau_times_its_slope_is_the_robin_constant(tau):
    # As the mass grows, the measure grows by the Robin measure of its
    # support (Buyarov-Rakhmanov), so omega - tau omega' = L = log(1/cap):
    # log 2 on the full interval, log(2/beta) on one cut, log(2/k') on two.
    # The two sides come from different code: omega from its routes, L from
    # the endpoint alone.  omega' is the central difference of step
    # h = delta max(1, |tau|), which errs by h^2 |omega'''|/6 at most.  From
    # the identity, tau^3 omega''' = 2 dL/ds - d^2L/ds^2 in s = log|tau|:
    # 0 on the full interval, (2 kc^2 + 3 kc - 1)/(1 + kc)^2 on one cut and
    # between 1.03 and 1.53 on two, so tau times the difference errs by at
    # most delta^2 M/6 with M = 2.  Omega's own error e, 2e-15 of
    # max(1, |omega|) (its frozen-reference bound), adds e (1 + 1/delta).
    sup, delta = support(tau), 1e-4
    h = delta * max(1.0, abs(tau))
    w, right, left = omega(tau), omega(tau + h), omega(tau - h)
    if sup.regime is Regime.INTERMEDIATE:
        robin = math.log(2.0)
    elif sup.regime is Regime.ATTRACTIVE:
        robin = math.log(2.0 / sup.beta)
    else:
        robin = math.log(2.0 / sup.kc)
    e = 2e-15 * max(1.0, abs(w), abs(right), abs(left))
    bound = delta ** 2 * 2.0 / 6.0 + e * (1.0 + 1.0 / delta)
    assert abs(w - tau * (right - left) / (2.0 * h) - robin) <= bound


# One-sided 4-point rules at the end of a row of step h: coefficients, divisor
# and the power of h in the error, for the first to third derivative.
_ONE_SIDED = {1: ((-11.0, 18.0, -9.0, 2.0), 6.0, 3),
              2: ((2.0, -5.0, 4.0, -1.0), 1.0, 2),
              3: ((-1.0, 3.0, -3.0, 1.0), 1.0, 1)}


def _free_energy_jump(tau0, m):
    """The jump across tau0 of the (m + 1)-th derivative of the free energy F,
    from F' = 2 m_1, m_1 = int V dmu_tau, by the one-sided rule of the m-th
    derivative on each side, Richardson-extrapolated from h = 1e-2 and 5e-3."""
    coeffs, div, p = _ONE_SIDED[m]

    def side(s, h):
        return sum(c * 2.0 * measure_quadrature(tau0 + s * i * h, lebesgue_potential)
                   for i, c in enumerate(coeffs)) / (div * (s * h) ** m)

    coarse, fine = (side(1.0, h) - side(-1.0, h) for h in (1e-2, 5e-3))
    return (2 ** p * fine - coarse) / (2 ** p - 1)


def test_the_transitions_are_of_third_and_fourth_order():
    # F = min over mu of the energy plus 2 tau int V dmu, so F' = 2 m_1, and
    # by the identity above F - tau F' + tau^2 F''/2 = L, so F''' = 2 L'/tau^2.
    # Where the gap opens L' jumps from 0 to 4/(pi tau_c^2): F''' jumps by
    # 8/(pi tau_c^4) = 0.2703, F'' does not.  Where the hard edges turn soft
    # L' is 0 on both sides and L'' jumps by -1: F'''' jumps by -2, F''' does
    # not.  Measured: 0.270311 and -1.989 (the bounds are 1% and 2%), and
    # 7e-10 for F'' at tau_c and 3e-5 for F''' at -1 (bounds 1e-6 and 1e-3).
    third = 8.0 / (math.pi * TAU_CRITICAL ** 4)
    assert abs(_free_energy_jump(TAU_CRITICAL, 1)) <= 1e-6
    assert abs(_free_energy_jump(TAU_CRITICAL, 2) - third) <= 0.01 * third
    assert abs(_free_energy_jump(-1.0, 2)) <= 1e-3
    assert abs(_free_energy_jump(-1.0, 3) + 2.0) <= 0.02 * 2.0


# beta^2 = 0.9 (tau ~ 9.55), inside the two-cut range, where one formula
# answers on both sides
TAU_BAND = 1.0 / (complete_E(math.sqrt(0.9)) - 1.0)


@PROPERTY
@given(where=st.sampled_from([-1.0, TAU_CRITICAL, TAU_BAND]), delta=st.floats(1e-9, 1e-3))
def test_omega_is_continuous_where_its_route_changes(where, delta):
    left, right = omega(where - delta), omega(where + delta)
    # |d omega / d tau| < 0.7 around each point; the routes err by < 1e-12
    assert abs(right - left) <= 2.0 * delta + 3e-12


# log-uniform over the two-cut range, up to 1e14 (beta rounds to 1 past ~1.8e15)
TWO_CUT_TAUS = (st.floats(math.log10(TAU_CRITICAL), 14.0)
                .map(lambda e: 10.0 ** e).filter(lambda tau: tau > TAU_CRITICAL))


@PROPERTY
@given(tau=TWO_CUT_TAUS)
def test_omega_routes_agree_over_the_two_cut_range(tau):
    # 1.5e-15 is the largest spread measured over 3000 such tau; omega's
    # own gate is 1e-12 relative
    w = omega(tau)
    theta, integral = _omega_repulsive(tau)
    assert w == theta
    assert abs(theta - integral) <= 1e-14 * max(1.0, abs(w))
