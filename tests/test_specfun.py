"""Elliptic-integral kernel checks.

Frozen reference values were produced by one-off oracle scripts; the
comment above each block names the oracle (mpmath at 30 digits).
"""

import math

import numpy as np
import pytest

from logeq.equilibrium import TAU_CRITICAL, support
from logeq.errors import DomainError
from logeq.specfun import (_cache_line_rows, complete_E, complete_K, integral_I,
                           integral_I_cheb)

BETA2 = 0.41729943021563715


def _kc(k):
    # the complementary modulus of a caller's double k, which integral_I
    # takes with it
    return math.sqrt((1.0 - k) * (1.0 + k))

# oracle: mpmath.ellipk / mpmath.ellipe with parameter m = k**2, dps=30.
# The last row sits so close to the logarithmic singularity of K that the
# float rounding of 1 - k^2 alone moves K by ~1e-12 relative; its tolerance
# reflects that conditioning, not the algorithm.
ELLIPTIC_REFS = [
    (0.1, 1.574745561517356, 1.5668619420216683, 5e-15),
    (BETA2, 1.6468148148111827, 1.5, 5e-15),
    (0.9, 2.2805491384227703, 1.1716970527816142, 5e-15),
    (0.99, 3.356600523361192, 1.028475809028804, 5e-15),
    (0.999999, 7.947479773547967, 1.0000074474777243, 5e-12),
]


@pytest.mark.parametrize("k,ref_K,ref_E,rtol", ELLIPTIC_REFS)
def test_complete_K_E_reference(k, ref_K, ref_E, rtol):
    assert abs(complete_K(k) - ref_K) <= rtol * ref_K
    assert abs(complete_E(k) - ref_E) <= rtol * ref_E


def test_complete_KE_limits():
    assert abs(complete_K(0.0) - math.pi / 2) <= 1e-15
    assert abs(complete_E(0.0) - math.pi / 2) <= 1e-15
    assert abs(complete_E(1.0) - 1.0) <= 1e-15


def test_legendre_relation():
    # E(k) K(k') + E(k') K(k) - K(k) K(k') = pi/2 for every modulus pair,
    # a parameter-free identity tying both integrals together.
    for k in np.linspace(0.01, 0.99, 50):
        kp = math.sqrt(1.0 - k * k)
        lhs = (complete_E(k) * complete_K(kp) + complete_E(kp) * complete_K(k)
               - complete_K(k) * complete_K(kp))
        assert abs(lhs - math.pi / 2) <= 5e-14


# oracle: mpmath.quad of the defining integral, dps=30
I_REFS = [
    (0.5, BETA2, 1.0801683872884977),
    (1e-06, BETA2, 1.6468130863250763),
    (2.0, 0.9, 0.5750426800689286),
    (0.03, 0.999, 3.7411948042950747),
]


@pytest.mark.parametrize("a,k,ref", I_REFS)
def test_integral_I_reference(a, k, ref):
    assert abs(integral_I(a, k, _kc(k)) - ref) <= 1e-10 * abs(ref)


# oracle: mpmath.quad (dps 40) of the defining integral in phi = pi/2 -
# theta, with breakpoints halving toward phi = 0, at the double
# k = solve_beta_repulsive(tau) for tau = 1e5, 1e7 and 1e9, and a = 0, k',
# 1/2 and 1
I_NEAR_ONE_REFS = [
    (0.0, 0.9999986281442431, 7.789398854670247),
    (0.0016564146919705377, 0.9999986281442431, 6.789407482832951),
    (0.5, 0.9999986281442431, 1.5206603370196274),
    (1.0, 0.9999986281442431, 0.9999913718372958),
    (0.0, 0.9999999897296016, 10.236720830415889),
    (0.00014332060820320425, 0.9999999897296016, 9.236720920145492),
    (0.5, 0.9999999897296016, 1.5206916550743146),
    (1.0, 0.9999999897296016, 0.999999910270395),
    (0.0, 0.9999999999176955, 12.650018458156413),
    (1.2830003628063174e-05, 0.9999999999176955, 11.65001845907411),
    (0.5, 0.9999999999176955, 1.5206919891025272),
    (1.0, 0.9999999999176955, 0.9999999990823033),
]


@pytest.mark.parametrize("a,k,ref", I_NEAR_ONE_REFS)
def test_integral_I_next_to_the_modulus_cap(a, k, ref):
    # the layer of width sqrt(1 - k) at theta = pi/2 is resolved at every k
    assert abs(integral_I(a, k, _kc(k)) - ref) <= 1e-15 * ref


# oracle: mpmath.quad (dps 40) of the defining integral in phi = pi/2 -
# theta, with breakpoints halving toward phi = 0, at complex a with
# Re a >= 0 (the range of sqrt(1 - z^2) over |z| < 2), at k = 0.6 and at
# the double k = solve_beta_repulsive(1e5)
I_COMPLEX_REFS = [
    ((0.3+0.4j), 0.6, (1.178116808645903-0.3942556649551156j)),
    ((0.001-0.5j), 0.6, (1.3310723628853227+0.7433613545494105j)),
    ((1.2+2j), 0.6, (0.39199676683913803-0.37327914161396575j)),
    ((2.2-0.1j), 0.6, (0.5059904359672918+0.016324582038291135j)),
    (1e-300j, 0.6, (1.7507538029157526-1.9634954084936207e-300j)),
    ((0.3+0.4j), 0.9999986281442431, (1.4399075509986525-0.7856195821666443j)),
    ((0.001-0.5j), 0.9999986281442431, (1.2918193350927543+1.402838853351658j)),
    ((1.2+2j), 0.9999986281442431, (0.3848969275667173-0.4303751541568345j)),
    ((2.2-0.1j), 0.9999986281442431, (0.5600522021267297+0.020264066190550805j)),
    (1e-300j, 0.9999986281442431, (7.789398854670247-9.483110325025033e-298j)),
]


@pytest.mark.parametrize("a,k,ref", I_COMPLEX_REFS)
def test_integral_I_at_complex_a(a, k, ref):
    got = integral_I(a, k, _kc(k))
    assert type(got) is complex
    assert abs(got - ref) <= 1e-15 * abs(ref)
    assert integral_I(np.array([a, np.conj(a)]), k, _kc(k))[1] == np.conj(got)


def test_integral_I_rejects_negative_real_part():
    for a in (-0.1, -1e-300 + 1j, np.array([0.5, -0.5j - 1e-3])):
        with pytest.raises(DomainError):
            integral_I(a, 0.6, 0.8)


def test_integral_I_rejects_nan():
    # a NaN in either part of a is a typed error, not a NaN result
    for a in (math.nan, complex(0.5, math.nan), np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            integral_I(a, 0.5, math.sqrt(0.75))


def test_integral_I_limits():
    # a -> 0 turns the integrand into 1/sqrt(1 - k^2 sin^2 t), so the value
    # approaches K(k) from below.
    k = 0.6
    assert abs(integral_I(1e-14, k, 0.8) - complete_K(k)) <= 1e-9
    # huge a: a * integral -> pi/2 with an O(1/a) defect
    assert abs(1e6 * integral_I(1e6, k, 0.8) - 0.5 * math.pi) <= 2e-6


def test_integral_I_vectorized():
    a = np.array([0.5, 1.0, 2.0])
    vals = integral_I(a, BETA2, _kc(BETA2))
    assert vals.shape == (3,)
    for ai, vi in zip(a, vals):
        assert abs(integral_I(float(ai), BETA2, _kc(BETA2)) - vi) == 0.0


@pytest.mark.parametrize("tau", [TAU_CRITICAL + 1e-12, TAU_CRITICAL + 1e-3, 2.0,
                                 9.55, 100.0, 1e3, 1e5])
def test_integral_I_cheb_matches_the_quadrature(tau):
    # the support range a in [0, k'] of the two-cut density, densely, for
    # beta from ~1e-6 up to 1 - 1.4e-6
    k, kc = support(tau).beta, support(tau).kc
    a = np.linspace(0.0, kc, 4001)
    ref = integral_I(a, k, kc)
    assert np.all(np.abs(integral_I_cheb(a, k, kc) - ref) <= 1e-14 * ref)
    got = integral_I_cheb(float(a[1234]), k, kc)
    assert type(got) is float and got == integral_I_cheb(a[1234:1235], k, kc)[0]


def test_integral_I_cheb_shapes_and_aligned_scratch():
    # the recurrence runs in scratch rows that each start on a cache line,
    # whatever the point count; the result keeps the shape of `a`
    for n in (1, 7, 8, 9, 5376):
        rows = _cache_line_rows(5, n)
        assert rows.shape == (5, n)
        assert all(row.ctypes.data % 64 == 0 for row in rows)
    k = 0.6
    a = np.linspace(0.0, 0.8, 35).reshape(5, 7)
    got = integral_I_cheb(a, k, 0.8)
    assert got.shape == (5, 7) and integral_I_cheb(a[:0], k, 0.8).shape == (0, 7)
    assert np.array_equal(got.ravel(), integral_I_cheb(a.ravel(), k, 0.8))

