"""Property tests of the array API of the point functions, and of the
measure and omega over tau.

Every function of a point takes one point or an array of them.  These
tests draw tau across the three regimes and arrays of points off the cuts,
and check that the array call is the elementwise scalar call, that the
Cauchy transform is conjugate-symmetric and odd, that one bad entry makes
the whole call raise DomainError, and that a scalar comes back as a Python
float or complex.  Over tau they check that the measure has unit mass,
that omega is continuous where its formula changes, and that its two
two-cut routes agree from the critical tau to 1e14.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logeq.equilibrium import (TAU_CRITICAL, _omega_repulsive,
                               cauchy, density, external_field, g_function,
                               lebesgue_cauchy, lebesgue_g, lebesgue_potential,
                               omega, potential, support)
from logeq.errors import DomainError
from logeq.oracle import measure_quadrature
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
