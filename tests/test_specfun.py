"""Elliptic-integral kernel checks.

Frozen reference values were produced by one-off oracle scripts; the
comment above each block names the oracle (mpmath at 30 digits).
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from logeq._quad import graded_rule
from logeq.equilibrium import TAU_CRITICAL, cauchy, density, omega, support
from logeq.errors import DomainError
from logeq.series import _outer_rule
from logeq.specfun import (_cache_line_rows, _cheb_cosines, _theta_table, complete_E,
                           integral_I, integral_I_cheb, theta_rule)

BETA2 = 0.41729943021563715


def _kc(k):
    # the complementary modulus of a caller's double k, which integral_I
    # takes with it
    return math.sqrt((1.0 - k) * (1.0 + k))


def _K(k, kc=None):
    # K(k) = I(0, k), the way two-cut code reads it
    return integral_I(0.0, k, _kc(k) if kc is None else kc)

# oracle: mpmath.ellipk / mpmath.ellipe with parameter m = k**2, dps=30.
# The last row sits so close to the logarithmic singularity of K that the
# float rounding of 1 - k^2 alone would move K by ~1e-12 relative; I(0, k)
# takes kc from (1 - k)(1 + k) instead, and is within 2e-16 of every row.
ELLIPTIC_REFS = [
    (0.1, 1.574745561517356, 1.5668619420216683, 5e-15),
    (BETA2, 1.6468148148111827, 1.5, 5e-15),
    (0.9, 2.2805491384227703, 1.1716970527816142, 5e-15),
    (0.99, 3.356600523361192, 1.028475809028804, 5e-15),
    (0.999999, 7.947479773547967, 1.0000074474777243, 5e-12),
]


@pytest.mark.parametrize("k,ref_K,ref_E,rtol", ELLIPTIC_REFS)
def test_complete_K_E_reference(k, ref_K, ref_E, rtol):
    assert abs(_K(k) - ref_K) <= rtol * ref_K
    assert abs(complete_E(k) - ref_E) <= rtol * ref_E


def test_complete_KE_limits():
    assert abs(_K(0.0) - math.pi / 2) <= 1e-15
    assert abs(complete_E(0.0) - math.pi / 2) <= 1e-15
    assert abs(complete_E(1.0) - 1.0) <= 1e-15


def test_legendre_relation():
    # E(k) K(k') + E(k') K(k) - K(k) K(k') = pi/2 for every modulus pair,
    # a parameter-free identity tying both integrals together.
    for k in np.linspace(0.01, 0.99, 50):
        kp = math.sqrt(1.0 - k * k)
        K, Kp = _K(k, kp), _K(kp, k)
        lhs = complete_E(k) * Kp + complete_E(kp) * K - K * Kp
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
    assert 0.0 < _K(k, 0.8) - integral_I(1e-14, k, 0.8) <= 1e-9
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



def test_theta_rule_rejects_a_modulus_outside_its_domain():
    # the panel count is taken from k and kc: NaN is a typed error there,
    # not a ValueError from the ceiling
    for k, kc in ((math.nan, 0.5), (0.5, math.nan), (-0.1, 0.5), (1.5, 0.5),
                  (0.5, 0.0), (0.5, 1.5), (0.5, math.inf)):
        with pytest.raises(DomainError):
            theta_rule(k, kc)


def test_cached_rule_tables_are_read_only_and_exact():
    # every table a route reads is frozen, and its sines and cosines are
    # those of the graded rule's nodes bit for bit
    for n in (1, 6, 29):
        nodes = _theta_table(n)
        phi, w = graded_rule(0.5 * math.pi, n, 16)
        assert np.array_equal(nodes.phi, phi) and np.array_equal(nodes.w, w)
        assert np.array_equal(nodes.sin, np.sin(phi)) and np.array_equal(nodes.cos, np.cos(phi))
        assert not any(arr.flags.writeable for arr in (*nodes, *_outer_rule(n)))
    assert not any(arr.flags.writeable for arr in _cheb_cosines())


def test_a_fresh_tau_with_known_panel_counts_builds_no_rule():
    # after one two-cut tau, another with the same panel counts reads every
    # rule from the caches: the Newton, the density, both forms of the
    # Cauchy transform and both omega routes
    def run(tau):
        beta = support(tau).beta
        density(tau, np.linspace(beta, 1.0, 7)[1:-1])
        cauchy(tau, np.array([0.3 + 0.4j, 3.0 + 1.0j]))
        omega(tau)

    caches = (_theta_table, _outer_rule, graded_rule)
    run(7.0 + 1e-9 * math.pi)  # taus no other test caches
    misses = [cache.cache_info().misses for cache in caches]
    run(7.0 + 2e-9 * math.pi)
    assert [cache.cache_info().misses for cache in caches] == misses


def test_import_builds_the_fixed_rule_tables():
    # a fresh process holds every tabulated Gauss-Legendre rule, the
    # Chebyshev cosines and the one-panel theta and outer tables before its
    # first call; its first two-cut density and omega build none of them
    tau = TAU_CRITICAL + 1e-3
    code = ("import logeq, logeq._quad as q, logeq.specfun as f, logeq.series as s\n"
            "caches = (q.gl_rule, f._cheb_cosines)\n"
            "held = [c.cache_info().currsize for c in caches]\n"
            "misses = [c.cache_info().misses for c in caches]\n"
            "print(held, f._theta_table.cache_info().currsize, s._outer_rule.cache_info().currsize)\n"
            f"logeq.density({tau!r}, 0.5), logeq.omega({tau!r})\n"
            "assert [c.cache_info().misses for c in caches] == misses")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == "[5, 1] 1 1".split()
