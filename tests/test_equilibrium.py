"""Closed-form layer: regimes, support, density, transforms, potentials.

Live identities (asymptotics, symmetry, derivative relations) carry most
of the weight here; frozen constants state their oracle inline.
"""

import cmath
import math

import numpy as np
import pytest

from logeq._quad import gl_map
from logeq.equilibrium import (TAU_CRITICAL, Regime, Support, cauchy,
                               classify_regime, density, edge_coefficient,
                               external_field, g_function, lebesgue_cauchy,
                               lebesgue_g, lebesgue_potential, omega,
                               phi_joukowski, potential, report,
                               solve_beta_repulsive, sqrt_cut, support)
from logeq.errors import DomainError
from logeq.specfun import complete_E

# oracle: mpmath bisection on E(b) = 1 + 1/tau, dps=30
BETA2_REF = 0.41729943021563737
BETA5_REF = 0.8759855628093005


def _at_the_endpoint(monkeypatch, beta):
    """Pin the two-cut support to the double endpoint beta a reference table
    was frozen at, with kc = sqrt(1 - beta^2), so that the table keeps
    testing the formulas at that endpoint.  The tables marked "frozen at the
    double beta of the E(beta) root" were; the k'^2 root moves beta by up
    to a few ulps, and the tables "at the k'^2 root" below test the
    solved endpoint itself."""
    import logeq.equilibrium as equilibrium_mod
    sup = Support(Regime.REPULSIVE, beta, math.sqrt((1.0 - beta) * (1.0 + beta)))
    monkeypatch.setattr(equilibrium_mod, "support", lambda tau: sup)


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
    assert support(0.0).regime is Regime.INTERMEDIATE
    assert support(0.0).pieces == ((-1.0, 1.0),)
    assert support(-2.0).regime is Regime.ATTRACTIVE
    assert support(-2.0).pieces == ((-support(-2.0).beta, support(-2.0).beta),)
    assert support(2.0).regime is Regime.REPULSIVE
    lo_piece, hi_piece = support(2.0).pieces
    assert lo_piece[1] == -hi_piece[0]


def test_support_validation():
    with pytest.raises(DomainError):
        Support(regime=Regime.ATTRACTIVE, beta=1.5, kc=0.0)
    with pytest.raises(DomainError):
        Support(regime=Regime.REPULSIVE, beta=0.0, kc=1.0)
    # kc is the complementary modulus of beta, 0 on the full interval only
    for beta, kc in ((0.6, 0.7), (0.6, -0.8), (0.6, 1.5), (1.0, 0.0)):
        with pytest.raises(DomainError):
            Support(regime=Regime.ATTRACTIVE, beta=beta, kc=kc)
    with pytest.raises(DomainError):
        Support(regime=Regime.INTERMEDIATE, beta=1.0, kc=1e-9)
    sup = Support(regime=Regime.REPULSIVE, beta=0.6, kc=0.8)
    assert sup.half_length == pytest.approx(0.2, rel=1e-15)


@pytest.mark.parametrize("tau", [-1e300, -1e8, -2.0, -1.0 - 1e-12, -1.0, 0.5, TAU_CRITICAL,
                                 TAU_CRITICAL + 1e-12, 2.0, 30.0, 1e7, 1e14])
def test_beta_and_kc_are_complementary(tau):
    sup = support(tau)
    assert abs(sup.beta ** 2 + sup.kc ** 2 - 1.0) <= 4 * 2.0 ** -52


def test_support_half_length_is_formed_from_kc():
    # at tau = 1e10 the doubles beta and 1 miss the piece width 1 - beta
    # = kc^2/(1 + beta) by ~1e-5 relative; half_length carries it
    assert support(-2.0).half_length == support(-2.0).beta
    assert support(0.5).half_length == 1.0
    sup = support(1e10)
    lo, hi = sup.pieces[1]
    assert sup.half_length == 0.5 * sup.kc ** 2 / (1.0 + sup.beta)
    assert abs(2.0 * sup.half_length / (hi - lo) - 1.0) > 1e-7


def test_attractive_beta_closed_form():
    # beta = sqrt(1 - ((1+tau)/tau)^2); at tau=-2 this is sqrt(3)/2 exactly
    assert support(-2.0).beta == math.sqrt(3.0) / 2.0


# oracle: mpmath (dps 40) sqrt(-(2 tau + 1))/(-tau) at the float tau
ATTRACTIVE_BETA_REFS = [
    (-1.0001, 0.9999999950009998),
    (-1.5, 0.9428090415820634),
    (-3.0, 0.7453559924999299),
    (-10.0, 0.43588989435406733),
    (-1e3, 0.04471017781221631),
    (-1e8, 0.0001414213558837561),
    (-1e10, 1.4142135623377398e-05),
    (-1e12, 1.4142135623727415e-06),
    (-4e15, 2.2360679774997895e-08),
    (-1e16, 1.414213562373095e-08),
    (-1e100, 1.414213562373095e-50),
    (-1e300, 1.414213562373095e-150),
]


@pytest.mark.parametrize("tau,ref", ATTRACTIVE_BETA_REFS)
def test_attractive_beta_mpmath_reference(tau, ref):
    # 1 - ((1+tau)/tau)^2 cancels as tau -> -inf (1e-5 relative at -1e12)
    # and rounds to 0 from ~ -9e15 on
    assert abs(support(tau).beta - ref) <= 4.5e-16 * ref


@pytest.mark.parametrize("tau", [-1e8, -1e10, -1e12, -1e16, -1e300])
def test_attractive_mass_at_large_negative_tau(tau):
    from logeq.oracle import measure_quadrature
    assert abs(measure_quadrature(tau) - 1.0) <= 1e-13


def test_repulsive_beta_reference():
    assert abs(solve_beta_repulsive(2.0)[0] - BETA2_REF) <= 1e-13
    assert abs(solve_beta_repulsive(5.0)[0] - BETA5_REF) <= 1e-13


@pytest.mark.parametrize("tau", [TAU_CRITICAL + 1e-8, 1.76, 2.0, 3.0, 5.0, 10.0,
                                 50.0, 1e3, 1e5])
def test_repulsive_beta_defining_equation(tau):
    b = solve_beta_repulsive(tau)[0]
    assert abs(complete_E(b) - 1.0 - 1.0 / tau) <= 1e-14


# oracle: mpmath.findroot (dps 50) on ellipe(1 - m) = 1 + 1/tau in m = k'^2,
# at the double tau, and beta = sqrt(1 - m): (m, beta), 25 digits each
KC2_BETA_REFS = {
    2.0: (0.8258611855417043763262914, 0.417299430215637394504959),
    2.5: (0.6012865285707427986765687, 0.631437622754027225792126),
    3.0: (0.4660201683094879201634883, 0.7307392364520411325170519),
    9.0: (0.1078198102296607417598027, 0.9445529046963644048863534),
    30.0: (0.02407182620372141901571258, 0.9878907701746578120948443),
    1e3: (0.0004187547341601163208780358, 0.9997906007088883828156612),
    1e5: (0.000002743709631635890273650508, 0.999998628144243187946114),
    1e7: (2.05407963108943125201804e-8, 0.9999999897296017918123041),
    1e10: (1.498313385353436610055205e-11, 0.9999999999925084330732048),
    1e12: (1.271204065292134796367482e-13, 0.9999999999999364397967354),
    1e14: (1.104610090941965974765427e-15, 0.9999999999999994476949545),
}


@pytest.mark.parametrize("tau", sorted(KC2_BETA_REFS))
def test_kc2_root_against_frozen_references(tau):
    # the root is taken in k'^2, which holds what beta rounds away as tau
    # grows; beta is the nearest double from tau = 3 up, and sits at the
    # floor that the rounding of 1 + 1/tau sets below
    m_ref, beta_ref = KC2_BETA_REFS[tau]
    beta, kc = solve_beta_repulsive(tau)
    assert abs(kc * kc - m_ref) <= 4e-16 * m_ref
    assert abs(beta - beta_ref) <= (3.0 if tau < 3.0 else 1.0) * math.ulp(beta)


# oracle: mpmath bisection on mp.ellipe(beta^2) = 1 + 1/tau, dps=30.  Below
# tau ~ 1.8 (beta < 0.2) the root is conditioned worse than 1e-14 relative
# in double precision: E changes by only ~beta^2 pi/4 per unit of log beta.
BETA_REFS = [
    (1.8, 0.1962840365024351),
    (2.5, 0.6314376227540273),
    (4.0, 0.8281967402140247),
    (20.0, 0.9800458630413882),
    (300.0, 0.999186491677339),
    (1e5, 0.9999986281442432),
]


@pytest.mark.parametrize("tau,ref", BETA_REFS)
def test_repulsive_beta_mpmath_reference(tau, ref):
    assert abs(solve_beta_repulsive(tau)[0] - ref) <= 1e-14 * ref


def test_repulsive_beta_increases_with_tau():
    taus = np.concatenate([TAU_CRITICAL + np.geomspace(1e-10, 1e-2, 9),
                           np.geomspace(1.8, 1e5, 60)])
    betas = [solve_beta_repulsive(float(t))[0] for t in taus]
    assert np.all(np.diff(betas) > 0.0)


def test_solve_beta_rejects_beta_at_the_modulus_cap():
    # past tau ~ 1.8e15 k'^2 < 2^-54 and beta rounds to 1, which leaves no
    # double inside a piece; just below, beta is a double below 1
    assert solve_beta_repulsive(1e15)[0] < 1.0
    with pytest.raises(DomainError, match="within rounding of 1"):
        solve_beta_repulsive(1e16)


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


def _joukowski_points():
    rng = np.random.default_rng(20)
    plane = rng.uniform(-3.0, 3.0, 2000) + 1j * rng.uniform(-3.0, 3.0, 2000)
    real = np.array([1.0 + 1e-12, 1.5, 3.0, 1e3, -1.0 - 1e-12, -1.5, -3.0, -1e3])
    far = np.array([1e10 + 1j, 1e300])
    return plane, np.concatenate((real + 0j, np.conj(real + 0j))), far


def test_phi_joukowski_inverts_the_joukowski_map():
    # (w + 1/w)/2 = z, and C \ [-1, 1] goes to the outside of the unit disk
    plane, real, far = _joukowski_points()
    edge = np.linspace(-1.0, 1.0, 21)
    hair = np.concatenate((edge + 1e-300j, edge - 1e-300j))
    for z in (plane, real, far, hair):
        w = phi_joukowski(z)
        assert np.all(np.abs(0.5 * (w + 1.0 / w) - z) <= 1e-15 * np.maximum(1.0, np.abs(z)))
    for z in (plane, real, far):
        assert np.all(np.abs(phi_joukowski(z)) > 1.0)
    # a hair off the cut |w| is 1 to rounding, on the side of z
    w = phi_joukowski(hair)
    assert np.all(np.abs(np.abs(w) - 1.0) <= 2.3e-16)
    assert np.all(np.sign(w.imag[1:20]) == 1.0) and np.all(np.sign(w.imag[22:41]) == -1.0)


def test_phi_joukowski_maps_conjugates_to_conjugates():
    plane, real, far = _joukowski_points()
    for z in (plane, real, far, np.array([0.5 + 1e-300j, -0.3 + 1e-300j])):
        assert np.all(phi_joukowski(np.conj(z)) == np.conj(phi_joukowski(z)))


def test_phi_joukowski_on_the_cut_has_modulus_one():
    for z in (complex(0.5, 0.0), complex(0.5, -0.0)):
        w = phi_joukowski(z)
        assert abs(abs(w) - 1.0) <= 2.3e-16
        assert math.copysign(1.0, w.imag) == math.copysign(1.0, z.imag)


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


# oracle: mpmath (dps 30) quadrature of I(a, beta) in
# (tau/pi) |x| sqrt(x^2 - beta^2)/a I(a, beta), a = sqrt(1 - x^2), at the
# double beta of the E(beta) root (frozen at that endpoint) and the double points
# x = beta + f (1 - beta), f = 1e-9 (soft edge), 1e-3, 1/2, 1 - 1e-3 and
# 1 - 1e-9 (hard edge); checked against K + (a^2/x^2) Pi(beta^2/x^2, beta)
# - a pi/(2 x sqrt(x^2 - beta^2)) at 60 digits.  Near the soft edge the
# density moves by ~(1/2) dbeta/(x - beta) relative, so the references hold
# for this beta only.
DENSITY_EDGE_REFS = [
    (2.0, 0.4172994302156365, 0.41729943079833703, 5.4351344972890271e-6),
    (2.0, 0.4172994302156365, 0.41788213078542086, 0.0054470116987482514),
    (2.0, 0.4172994302156365, 0.7086497151078182, 0.34657092969394545),
    (2.0, 0.4172994302156365, 0.9994172994302155, 26.912754442721611),
    (2.0, 0.4172994302156365, 0.9999999994172994, 27907.770374770345),
    (10.0, 0.9517291058103534, 0.9517291058586244, 0.00015731727048091435),
    (10.0, 0.9517291058103534, 0.9517773767045431, 0.15743067955655857),
    (10.0, 0.9517291058103534, 0.9758645529051767, 5.6765666820953873),
    (10.0, 0.9517291058103534, 0.9999517291058103, 254.11898730629294),
    (10.0, 0.9517291058103534, 0.9999999999517291, 259143.94795669119),
    (100.0, 0.9971146047298584, 0.9971146047327437, 0.0029846953002307487),
    (100.0, 0.9971146047298584, 0.9971174901251285, 2.986544286767466),
    (100.0, 0.9971146047298584, 0.9985573023649292, 101.22738032472057),
    (100.0, 0.9971146047298584, 0.9999971146047298, 3941.0312608029483),
    (100.0, 0.9971146047298584, 0.9999999999971146, 3991997.0945983115),
    (1e3, 0.9997906007088883, 0.9997906007090976, 0.043035618202244716),
    (1e3, 0.9997906007088883, 0.9997908101081794, 43.061665448650934),
    (1e3, 0.9997906007088883, 0.9998953003544442, 1429.2604437133546),
    (1e3, 0.9997906007088883, 0.9999997906007089, 52586.650002514018),
    (1e3, 0.9997906007088883, 0.9999999999997906, 53104065.044030393),
]


@pytest.mark.parametrize("tau,beta,x,ref", DENSITY_EDGE_REFS)
def test_density_edges_against_mpmath(monkeypatch, tau, beta, x, ref):
    # x^2 - beta^2 and 1 - x^2 are formed as products of a difference and
    # a sum; as differences of squares they lost up to 1e-4 relative here
    from logeq.equilibrium import _density_offset
    _at_the_endpoint(monkeypatch, beta)
    assert abs(density(tau, x) - ref) <= 1e-14 * ref
    assert abs(density(tau, -x) - ref) <= 1e-14 * ref
    edge, off = (1.0, 1.0 - x) if x > 0.5 * (1.0 + beta) else (beta, x - beta)
    assert abs(_density_offset(tau, edge, off) - ref) <= 1e-14 * ref


# oracle: as DENSITY_EDGE_REFS, at the double beta and kc of the k'^2 root,
# I(a) = ∫ dphi/(a + sqrt(kc^2 + beta^2 sin^2 phi)): (tau, beta, x, ref,
# ref_offset).  ref_offset is the density at the offset from the nearer
# edge of a piece of width 1 - beta = kc^2/(1 + beta), which the double
# beta misses by up to half an ulp (4e-14 of the density at tau = 1e3).
# Past the midpoint of the piece `density` measures from the outer edge,
# and so reads ref_offset there.
DENSITY_EDGE_K_REFS = [
    (2.0, 0.4172994302156375, 0.41729943079833803, 5.4351344972890514e-6, 5.4351344972890515e-6),
    (2.0, 0.4172994302156375, 0.41788213078542186, 0.0054470116987482758, 0.0054470116987482758),
    (2.0, 0.4172994302156375, 0.7086497151078188, 0.34657092969394635, 0.34657092969394634),
    (2.0, 0.4172994302156375, 0.9994172994302157, 26.912754442726921, 26.912754442726921),
    (2.0, 0.4172994302156375, 0.9999999994172994, 27907.770374770338, 27907.770374770338),
    (10.0, 0.9517291058103535, 0.9517291058586245, 0.00015731727048091466, 0.00015731727048091471),
    (10.0, 0.9517291058103535, 0.9517773767045432, 0.15743067955655888, 0.15743067955655893),
    (10.0, 0.9517291058103535, 0.9758645529051768, 5.6765666820954064, 5.67656668209541),
    (10.0, 0.9517291058103535, 0.9999517291058103, 254.11898730629278, 254.11898730629272),
    (10.0, 0.9517291058103535, 0.9999999999517291, 259143.94795669103, 259143.94795669097),
    (100.0, 0.9971146047298584, 0.9971146047327437, 0.002984695300230748, 0.0029846953002307406),
    (100.0, 0.9971146047298584, 0.9971174901251285, 2.9865442867674653, 2.9865442867674579),
    (100.0, 0.9971146047298584, 0.9985573023649292, 101.22738032472054, 101.22738032472006),
    (100.0, 0.9971146047298584, 0.9999971146047298, 3941.0312608029463, 3941.0312608029543),
    (100.0, 0.9971146047298584, 0.9999999999971146, 3991997.0945983095, 3991997.0945983175),
    (1000.0, 0.9997906007088884, 0.9997906007090978, 0.043035618202258925, 0.043035618202260896),
    (1000.0, 0.9997906007088884, 0.9997908101081795, 43.061665448665165, 43.061665448667139),
    (1000.0, 0.9997906007088884, 0.9998953003544442, 1429.2604437126384, 1429.2604437127661),
    (1000.0, 0.9997906007088884, 0.9999997906007089, 52586.650002502982, 52586.650002500896),
    (1000.0, 0.9997906007088884, 0.9999999999997906, 53104065.044019382, 53104065.044017277),
]


@pytest.mark.parametrize("tau,beta,x,ref,ref_offset", DENSITY_EDGE_K_REFS)
def test_density_edges_at_the_kc2_root(tau, beta, x, ref, ref_offset):
    from logeq.equilibrium import _density_offset
    assert support(tau).beta == beta
    outer = x > 0.5 * (1.0 + beta)
    want = ref_offset if outer else ref
    assert abs(density(tau, x) - want) <= 1e-14 * want
    assert abs(density(tau, -x) - want) <= 1e-14 * want
    edge, off = (1.0, 1.0 - x) if outer else (beta, x - beta)
    assert abs(_density_offset(tau, edge, off) - ref_offset) <= 1e-14 * ref_offset


# oracle: mpmath (dps 50, checked at 60) of the two-cut density
# (tau/pi) x sqrt(x^2 - beta^2)/sqrt(1 - x^2) I(sqrt(1 - x^2)), I as above,
# at the true beta (E(beta) = 1 + 1/tau solved in kc^2) and the doubles
# x = b + f (1 - b), b the double beta, f = 0.6 and 0.999: (tau, x, ref).
# Measured from the double beta, the density is off by up to 2.5e-11
# (1e5) and 7.8e-10 (1e7) here.
DENSITY_OUTER_HALF_REFS = [
    (1e5, 0.9999994512576973, 275463.6481962254411031611752367200807685),
    (1e5, 0.9999999986281443, 7787768.930574851424994810456824032411127),
    (1e7, 0.9999999958918407, 37087221.48525747740546201419387757561021),
    (1e7, 0.9999999999897295, 1024994869.348069684423916812601736623108),
]


@pytest.mark.parametrize("tau,x,ref", DENSITY_OUTER_HALF_REFS)
def test_density_past_the_midpoint_from_the_outer_edge(tau, x, ref):
    assert abs(density(tau, x) - ref) <= 1e-15 * ref
    assert abs(density(tau, -x) - ref) <= 1e-15 * ref
    # the boundary value -Im C(x + i0)/pi forms z -+ beta the same way
    boundary = -cauchy(tau, np.array([x, -x]) + 1e-300j).imag / math.pi
    assert np.all(np.abs(boundary - ref) <= 1e-15 * ref)


# oracle: mpmath (dps 40) of (1 + tau)/(pi sqrt(1 - x^2)) - tau/2 at the
# double x = 1 - 1e-9 and 1 - 1e-6 (intermediate), and of
# (-tau/pi) atan(sqrt(beta^2 - x^2)/kc) at the double beta and kc of
# support(tau) and x = beta (1 - f), f = 1e-12 and 1e-9 (attractive).  As
# differences of squares, 1 - x^2 and beta^2 - x^2 lost up to 2.5e-10 and
# 2.1e-5 relative at these points.
DENSITY_NEAR_EDGE_REFS = [
    (0.0, 0.999999999, 7117.6255366012765),
    (0.0, 0.999999, 225.07913530583124),
    (0.5, 0.999999999, 10676.188304901914),
    (0.5, 0.999999, 337.36870295874684),
    (-0.5, 0.999999999, 3559.0627683006383),
    (-0.5, 0.999999, 112.78956765291562),
    (-1.5, 0.9428090415811206, 1.909851569670642e-06),
    (-1.5, 0.9428090406392543, 6.0395054555506577e-05),
    (-2.0, 0.8660254037835726, 1.5593472853841035e-06),
    (-2.0, 0.8660254029184132, 4.931235423953688e-05),
    (-10.0, 0.43588989435363146, 2.180174614353414e-06),
    (-10.0, 0.43588989391817745, 6.894446545124114e-05),
    (-1000.0, 0.04471017781217161, 2.014614821335243e-05),
    (-1000.0, 0.04471017776750614, 0.0006370977106671633),
]


@pytest.mark.parametrize("tau,x,ref", DENSITY_NEAR_EDGE_REFS)
def test_density_near_the_edges_of_one_piece(tau, x, ref):
    assert abs(density(tau, x) - ref) <= 1e-15 * ref
    assert abs(density(tau, -x) - ref) <= 1e-15 * ref


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


# oracle: mpmath (dps 40) (tau/pi) (K - E)/(beta k') sqrt(2 beta),
# k' = sqrt(1 - beta^2), at the double beta of the E(beta) root (frozen at
# that endpoint); at tau = 1e5 one ulp of beta moves the constant by
# ~4e-11 relative, so the references hold for this beta only
SOFT_EDGE_REFS = [
    (TAU_CRITICAL + 1e-3, 0.02879343980596624, 0.0030302409291194399),
    (2.0, 0.4172994302156365, 0.22515810193765068),
    (10.0, 0.9517291058103534, 22.642976283013684),
    (1e3, 0.9997906007088883, 94048.54619148237),
    (1e5, 0.9999986281442431, 184513026.38859188),
]


@pytest.mark.parametrize("tau,beta,ref", SOFT_EDGE_REFS)
def test_edge_coefficient_repulsive_soft_reference(monkeypatch, tau, beta, ref):
    _at_the_endpoint(monkeypatch, beta)
    assert abs(edge_coefficient(tau, "soft") - ref) <= 1e-13 * ref


# oracle: mpmath (dps 40) (tau/pi) beta sqrt(2 beta) I(kc, beta)/kc,
# I(a) = ∫ dphi/(a + sqrt(kc^2 + beta^2 sin^2 phi)), at the double beta and
# kc of the k'^2 root
SOFT_EDGE_K_REFS = [
    (1.7529383938841088, 0.028793439805976623, 0.0030302409291210804),
    (2.0, 0.4172994302156375, 0.22515810193765168),
    (10.0, 0.9517291058103535, 22.642976283013735),
    (1000.0, 0.9997906007088884, 94048.54619151773),
    (100000.0, 0.9999986281442432, 184513026.39399116),
]


@pytest.mark.parametrize("tau,beta,ref", SOFT_EDGE_K_REFS)
def test_edge_coefficient_repulsive_soft_at_the_kc2_root(tau, beta, ref):
    assert support(tau).beta == beta
    assert abs(edge_coefficient(tau, "soft") - ref) <= 1e-13 * ref


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


# Moduli and arguments of the relative-error test, plus the points of the
# former exact-1/z far-field check.
REL_MODULI = (2.0, 5.0, 30.0, 1e2, 1e3, 1e5, 9.9e5, 1e10, 1e100, 1e300)
REL_POINTS = np.concatenate([
    np.outer(REL_MODULI, np.exp(0.25j * math.pi * np.arange(8))).ravel(),
    [1e300j, -1e300 + 1e300j, 3e200, complex(1e6, -1.0), 0.999e6j,
     0.999e6 * cmath.exp(0.3j)]])


@pytest.mark.parametrize("tau", [-1e8, -2.0, 0.0, 1.0, 2.0, 10.0])
def test_cauchy_relative_error(tau):
    # one closed form per regime at every modulus, with no switch to 1/z:
    # against quadrature of 1/(z - x) where that is accurate, and against
    # the moment expansion (1 + m2/z^2 + m4/z^4)/z farther out (and on the
    # 3e-4 wide cut of tau = -1e8, whose mass rule is good to 4.5e-9 only)
    from logeq.oracle import measure_quadrature
    m2 = measure_quadrature(tau, lambda x: x * x)
    m4 = measure_quadrature(tau, lambda x: x ** 4)
    got = cauchy(tau, REL_POINTS)
    assert got.shape == REL_POINTS.shape
    for z, c in zip(REL_POINTS, got):
        if abs(z) <= 1e3 and tau != -1e8:
            ref = complex(measure_quadrature(tau, lambda x: 1.0 / (z - x)))
        else:
            w = 1.0 / z
            ref = w * (1.0 + m2 * w * w + m4 * w ** 4)
        assert abs(c - ref) <= 1e-12 * abs(ref), z


@pytest.mark.parametrize("tau", [-2.0, 0.0, 2.0])
@pytest.mark.parametrize("z", [complex(math.nan, 1.0), math.inf, complex(0.0, -math.inf),
                               math.nan])
def test_non_finite_points_raise(tau, z):
    with pytest.raises(DomainError):
        cauchy(tau, z)
    with pytest.raises(DomainError):
        potential(tau, z)


@pytest.mark.parametrize("call", [
    lambda: sqrt_cut(math.nan, 0.5),
    lambda: sqrt_cut(math.inf, 0.5),
    lambda: sqrt_cut(1.0, math.nan),
    lambda: phi_joukowski(math.nan),
    lambda: external_field(math.nan, 0.5),
    lambda: external_field(math.inf, 0.5),
], ids=["sqrt_cut-nan-z", "sqrt_cut-inf-z", "sqrt_cut-nan-a", "phi_joukowski-nan",
        "external_field-nan-tau", "external_field-inf-tau"])
def test_branch_helpers_reject_non_finite_input(call):
    with pytest.raises(DomainError):
        call()


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
    assert support.cache_info().maxsize == 1024
    # every route at one tau reads one Support
    assert support(3.0) is support(3.0)


@pytest.mark.parametrize("tau", CAUCHY_TAUS)
def test_cauchy_schwarz_and_parity(tau):
    for z in (0.9 + 0.4j, -1.4 + 0.01j, 0.2 + 2j, 3.0 + 0.0j):
        val = cauchy(tau, z)
        assert cauchy(tau, z.conjugate()) == pytest.approx(
            val.conjugate(), abs=1e-13)
        assert cauchy(tau, -z) == pytest.approx(-val, abs=1e-12)


def test_cauchy_rejects_cut_points():
    # exactly on a cut, from either side of the axis, at the edges too
    for tau in (-2.0, 0.0, 2.0):
        for lo, hi in support(tau).pieces:
            for x in (lo, 0.3 * lo + 0.7 * hi, hi):
                for zero in (0.0, -0.0):
                    with pytest.raises(DomainError):
                        cauchy(tau, complex(x, zero))
    # 5e-14 above the cut is off it: frozen 40-digit mpmath of the closed form
    ref = 0.2006706954621453 - 2.0885730336455532j
    assert abs(cauchy(-2.0, complex(0.1, 5e-14)) - ref) <= 1e-15 * abs(ref)
    # the two-cut gap is legal real ground
    assert abs(cauchy(2.0, 0.0)) <= 1e-12   # odd function on the gap
    assert cauchy(2.0, 0.2).imag == 0.0


@pytest.mark.parametrize("tau", [3.0, 10.0])
def test_cauchy_real_outside_the_interval(tau):
    # Schwarz reflection: real on the real axis off [-1, 1], exactly, as in
    # the other regimes; the |z| < 2 form cancels two imaginary terms there
    xs = [1.5, -1.5, 1.05, -1.05, 1.9, 2.5, -40.0]
    for x in xs:
        assert cauchy(tau, x).imag == 0.0
        assert cauchy(tau, complex(x, -0.0)).imag == 0.0
    vals = cauchy(tau, np.array(xs + [1.5 + 1e-3j]))
    assert np.all(vals[:-1].imag == 0.0)
    assert np.all(vals[:-1].real == [cauchy(tau, x).real for x in xs])
    assert vals[-1].imag < 0.0


def test_cauchy_repulsive_gap_continuity():
    # the real axis of the gap and the plane above it share one formula,
    # continuous across the gap
    tau = 2.0
    for x in (0.1, -0.3, 0.40):
        gap_val = cauchy(tau, x)
        limit_val = cauchy(tau, complex(x, 1e-9))
        assert abs(gap_val - limit_val) <= 1e-7


# oracle: mpmath.quad (dps 40) of (tau/2) rho q(z) - tau atanh(1/z),
# rho = sqrt_cut(z, beta)/sqrt_cut(z, 1), q(z) the gap-kernel integral in
# theta with breakpoints
# halving toward theta = +-pi/2 (and toward asin(Re z/beta) for points
# over the gap), at the double beta of the E(beta) root (frozen at that
# endpoint), with kc = sqrt(1 - beta^2).  At real
# points of the gap q is the principal value, taken after subtracting the
# value-matched Chebyshev kernel.  Points, with w = 1 - beta: beta + 0.3 w
# + 1e-3 w i over a piece, 1 + 0.01 w and beta - 0.01 w next to the outer
# and inner edges, 0.5 beta in the gap, 0.3 + 1e-3 i over the gap, then
# 0.4 + 0.9 i, 3 + 0.5 i and -2.5.
CAUCHY_TWO_CUT_REFS = [
    (30.0, 0.9878907701746577, (0.9915235391222603+1.210922982534235e-05j), (-81.77105436635729-46.48804057116654j)),
    (30.0, 0.9878907701746577, 1.0001210922982535, (832.2398207238576+0j)),
    (30.0, 0.9878907701746577, 0.9877696778764042, (-69.65482741518183+0j)),
    (30.0, 0.9878907701746577, 0.4939453850873288, (-0.6581678002033484+0j)),
    (30.0, 0.9878907701746577, (0.3+0.001j), (-0.3316827576035654-0.0013256488425097844j)),
    (30.0, 0.9878907701746577, (0.4+0.9j), (-0.003038197272749765-0.5486104497838171j)),
    (30.0, 0.9878907701746577, (3+0.5j), (0.35816826540604374-0.07407730840058037j)),
    (30.0, 0.9878907701746577, -2.5, (-0.47569389104028104+0j)),
    (1000.0, 0.9997906007088883, (0.9998534204962217+2.0939929111174483e-07j), (-4753.375811332454-2874.724929143127j)),
    (1000.0, 0.9997906007088883, 1.000002093992911, (46034.285268642234+0j)),
    (1000.0, 0.9997906007088883, 0.9997885067159772, (-4152.079034518959+0j)),
    (1000.0, 0.9997906007088883, 0.4998953003544441, (-0.6665222136444243+0j)),
    (1000.0, 0.9997906007088883, (0.3+0.001j), (-0.3297050498562918-0.0013164311414081053j)),
    (1000.0, 0.9997906007088883, (0.4+0.9j), (-0.0036908015798845493-0.5470979754269101j)),
    (1000.0, 0.9997906007088883, (3+0.5j), (0.35836737070376323-0.07420577421507449j)),
    (1000.0, 0.9997906007088883, -2.5, (-0.47618147760854657+0j)),
    (10000.0, 0.9999834559963339, (0.9999884191974338+1.6544003666130182e-08j), (-60205.41293843094-37054.42222720259j)),
    (10000.0, 0.9999834559963339, 1.0000001654400366, (575175.4579309948+0j)),
    (10000.0, 0.9999834559963339, 0.9999832905562972, (-52949.713532992224+0j)),
    (10000.0, 0.9999834559963339, 0.49999172799816693, (-0.6666553333341311+0j)),
    (10000.0, 0.9999834559963339, (0.3+0.001j), (-0.32967197234388923-0.0013162772583655787j)),
    (10000.0, 0.9999834559963339, (0.4+0.9j), (-0.0037017263435029178-0.5470724734470092j)),
    (10000.0, 0.9999834559963339, (3+0.5j), (0.35837074738706-0.07420795531646412j)),
    (10000.0, 0.9999834559963339, -2.5, (-0.4761897569359826+0j)),
    (100000.0, 0.9999986281442431, (0.9999990397009701+1.3718557568820345e-09j), (-726353.3176193277-452042.77813319484j)),
    (100000.0, 0.9999986281442431, 1.0000000137185576, (6878379.683780631+0j)),
    (100000.0, 0.9999986281442431, 0.9999986144256855, (-641603.1385154921+0j)),
    (100000.0, 0.9999986281442431, 0.49999931407212156, (-0.6666657312176419+0j)),
    (100000.0, 0.9999986281442431, (0.3+0.001j), (-0.32966933951644584-0.0013162650103195198j)),
    (100000.0, 0.9999986281442431, (0.4+0.9j), (-0.0037025959248606338-0.5470704433271387j)),
    (100000.0, 0.9999986281442431, (3+0.5j), (0.3583710162374928-0.07420812897200788j)),
    (100000.0, 0.9999986281442431, -2.5, (-0.47619041613123075+0j)),
    (10000000.0, 0.9999999897296016, (0.999999992810721+1.027039842060873e-11j), (-97070456.98928238-61225769.95164406j)),
    (10000000.0, 0.9999999897296016, 1.000000000102704, (909317371.5230997+0j)),
    (10000000.0, 0.9999999897296016, 0.9999999896268976, (-86198408.4456868+0j)),
    (10000000.0, 0.9999999897296016, 0.4999999948648008, (-0.6666666727830249+0j)),
    (10000000.0, 0.9999999897296016, (0.3+0.001j), (-0.3296691078112152-0.0013162639281640274j)),
    (10000000.0, 0.9999999897296016, (0.4+0.9j), (-0.003702674656806653-0.5470702703931803j)),
    (10000000.0, 0.9999999897296016, (3+0.5j), (0.3583710475704029-0.07420814613284525j)),
    (10000000.0, 0.9999999897296016, -2.5, (-0.4761904850798662+0j)),
]


@pytest.mark.parametrize("tau,beta,z,ref", CAUCHY_TWO_CUT_REFS)
def test_cauchy_two_cut_against_mpmath(monkeypatch, tau, beta, z, ref):
    # its terms cancel by a factor ~1 + tau, which sets the rounding floor;
    # the quadrature (of I, or of q past |z| = 2) adds nothing to it up to
    # tau = 1e7
    _at_the_endpoint(monkeypatch, beta)
    assert abs(cauchy(tau, z) - ref) <= 5e-15 * (1.0 + tau) * abs(ref)
    assert abs(cauchy(tau, np.conj(z)) - np.conj(ref)) <= 5e-15 * (1.0 + tau) * abs(ref)


# oracle: as CAUCHY_TWO_CUT_REFS, with the gap kernel
# sqrt(kc^2 + beta^2 cos^2 theta) at the double beta and kc of the k'^2
# root, and the same points, w = 1 - beta taken at that beta.
CAUCHY_TWO_CUT_K_REFS = [
    (30.0, 0.9878907701746579, (0.9915235391222605+1.2109229825342128e-05j), (-81.77105436635767-46.48804057116749j)),
    (30.0, 0.9878907701746579, 1.0001210922982535, (832.2398207238523+0j)),
    (30.0, 0.9878907701746579, 0.9877696778764045, (-69.65482741518201+0j)),
    (30.0, 0.9878907701746579, 0.49394538508732894, (-0.6581678002033414+0j)),
    (30.0, 0.9878907701746579, (0.3+0.001j), (-0.33168275760356175-0.0013256488425130277j)),
    (30.0, 0.9878907701746579, (0.4+0.9j), (-0.003038197272749216-0.5486104497838129j)),
    (30.0, 0.9878907701746579, (3+0.5j), (0.35816826540604046-0.07407730840057968j)),
    (30.0, 0.9878907701746579, -2.5, (-0.4756938910402767+0j)),
    (1000.0, 0.9997906007088884, (0.9998534204962218+2.093992911116338e-07j), (-4753.375811332831-2874.724929144379j)),
    (1000.0, 0.9997906007088884, 1.000002093992911, (46034.285268630556+0j)),
    (1000.0, 0.9997906007088884, 0.9997885067159773, (-4152.07903451908+0j)),
    (1000.0, 0.9997906007088884, 0.4998953003544442, (-0.6665222136440617+0j)),
    (1000.0, 0.9997906007088884, (0.3+0.001j), (-0.32970504985611204-0.001316431141378741j)),
    (1000.0, 0.9997906007088884, (0.4+0.9j), (-0.0036908015798872264-0.5470979754265966j)),
    (1000.0, 0.9997906007088884, (3+0.5j), (0.35836737070356234-0.07420577421503312j)),
    (1000.0, 0.9997906007088884, -2.5, (-0.47618147760828017+0j)),
    (10000.0, 0.999983455996334, (0.9999884191974338+1.6544003666019158e-08j), (-60205.41293843117-37054.42222679615j)),
    (10000.0, 0.999983455996334, 1.0000001654400366, (575175.4579291408+0j)),
    (10000.0, 0.999983455996334, 0.9999832905562973, (-52949.713533003785+0j)),
    (10000.0, 0.999983455996334, 0.499991727998167, (-0.6666553333299923+0j)),
    (10000.0, 0.999983455996334, (0.3+0.001j), (-0.3296719723418423-0.0013162772583406904j)),
    (10000.0, 0.999983455996334, (0.4+0.9j), (-0.0037017263434826727-0.5470724734436034j)),
    (10000.0, 0.999983455996334, (3+0.5j), (0.3583707473848316-0.07420795531600283j)),
    (10000.0, 0.999983455996334, -2.5, (-0.47618975693302196+0j)),
    (100000.0, 0.9999986281442432, (0.9999990397009703+1.3718557567710122e-09j), (-726353.3176250848-452042.7781647927j)),
    (100000.0, 0.9999986281442432, 1.0000000137185576, (6878379.6835222+0j)),
    (100000.0, 0.9999986281442432, 0.9999986144256856, (-641603.138516541+0j)),
    (100000.0, 0.9999986281442432, 0.4999993140721216, (-0.6666657311856974+0j)),
    (100000.0, 0.9999986281442432, (0.3+0.001j), (-0.32966933950073485-0.001316265017340981j)),
    (100000.0, 0.9999986281442432, (0.4+0.9j), (-0.00370259592352599-0.5470704433048535j)),
    (100000.0, 0.9999986281442432, (3+0.5j), (0.3583710162217929-0.07420812896869909j)),
    (100000.0, 0.9999986281442432, -2.5, (-0.47619041611022905+0j)),
    (10000000.0, 0.9999999897296018, (0.9999999928107213+1.0270398198564124e-11j), (-97070457.142979-61225770.993237264j)),
    (10000000.0, 0.9999999897296018, 1.000000000102704, (909317361.6345979+0j)),
    (10000000.0, 0.9999999897296018, 0.9999999896268978, (-86198408.44416006+0j)),
    (10000000.0, 0.9999999897296018, 0.4999999948648009, (-0.6666666596962066+0j)),
    (10000000.0, 0.9999999897296018, (0.3+0.001j), (-0.329669101341748-0.001316264068443854j)),
    (10000000.0, 0.9999999897296018, (0.4+0.9j), (-0.0037026745569874266-0.5470702597461885j)),
    (10000000.0, 0.9999999897296018, (3+0.5j), (0.358371040570018-0.0742081446819152j)),
    (10000000.0, 0.9999999897296018, -2.5, (-0.47619047577471857+0j)),
]


@pytest.mark.parametrize("tau,beta,z,ref", CAUCHY_TWO_CUT_K_REFS)
def test_cauchy_two_cut_at_the_kc2_root(tau, beta, z, ref):
    assert support(tau).beta == beta
    assert abs(cauchy(tau, z) - ref) <= 5e-15 * (1.0 + tau) * abs(ref)
    assert abs(cauchy(tau, np.conj(z)) - np.conj(ref)) <= 5e-15 * (1.0 + tau) * abs(ref)


# oracle: 40-digit mpmath of the closed forms, the two-cut one with q by
# mpmath.quad as for CAUCHY_TWO_CUT_REFS, at points 1e-300, 1e-16 and
# 1e-13 above a cut: the interior of a piece and next to an edge.  The
# tau = 30 rows are frozen at the double beta of the E(beta) root.
CAUCHY_NEAR_CUT_REFS = [
    (-2.0, (0.3+1e-300j), (0.6190392084062234-2.0381770277831865j)),
    (-2.0, (0.3+1e-16j), (0.6190392084062234-2.038177027783186j)),
    (-2.0, (0.3+1e-13j), (0.6190392084061829-2.0381770277829667j)),
    (-2.0, (0.8+1e-300j), (2.1972245773362196-1.1713710869143017j)),
    (-2.0, (0.8+1e-16j), (2.197224577336219-1.171371086914301j)),
    (-2.0, (0.8+1e-13j), (2.1972245773355494-1.1713710869137461j)),
    (0.5, (0.3+1e-300j), (-0.15475980210155585-0.7870290916854291j)),
    (0.5, (0.3+1e-16j), (-0.1547598021015558-0.7870290916854292j)),
    (0.5, (0.3+1e-13j), (-0.154759802101504-0.7870290916854841j)),
    (0.5, (0.999+1e-300j), (-1.9001005836250997-32.76400989979637j)),
    (0.5, (0.999+1e-16j), (-1.9001005836234233-32.76400989979639j)),
    (0.5, (0.999+1e-13j), (-1.9001005819484686-32.76400989982138j)),
    (30.0, (0.9915235391222603+1e-300j), (-81.89043313471369-46.46657273478225j)),
    (30.0, (0.9915235391222603+1e-16j), (-81.89043313471271-46.466572734782424j)),
    (30.0, (0.9915235391222603+1e-13j), (-81.89043313372797-46.46657273495996j)),
    (30.0, (0.999+1e-300j), (-114.006035017506-286.915103393652j)),
    (30.0, (0.999+1e-16j), (-114.00603501748871-286.9151033936535j)),
    (30.0, (0.999+1e-13j), (-114.00603500022476-286.91510339515276j)),
]


@pytest.mark.parametrize("tau,z,ref", CAUCHY_NEAR_CUT_REFS)
def test_cauchy_a_hair_off_a_cut(monkeypatch, tau, z, ref):
    # a point however close above or below a cut is off it
    if tau == 30.0:
        _at_the_endpoint(monkeypatch, 0.9878907701746577)
    assert abs(cauchy(tau, z) - ref) <= 2e-15 * abs(ref)
    assert abs(cauchy(tau, np.conj(z)) - np.conj(ref)) <= 2e-15 * abs(ref)


# oracle: as CAUCHY_NEAR_CUT_REFS, at the double beta and kc of the k'^2
# root of tau = 30 and beta + 0.3 (1 - beta) at that beta
CAUCHY_NEAR_CUT_K_REFS = [
    (30.0, (0.9915235391222605+1e-300j), (-81.89043313471409-46.4665727347832j)),
    (30.0, (0.9915235391222605+1e-16j), (-81.8904331347131-46.46657273478338j)),
    (30.0, (0.9915235391222605+1e-13j), (-81.89043313372837-46.46657273496091j)),
    (30.0, (0.999+1e-300j), (-114.006035017506-286.91510339365j)),
    (30.0, (0.999+1e-16j), (-114.00603501748871-286.9151033936515j)),
    (30.0, (0.999+1e-13j), (-114.00603500022476-286.91510339515077j)),
]


@pytest.mark.parametrize("tau,z,ref", CAUCHY_NEAR_CUT_K_REFS)
def test_cauchy_a_hair_off_a_cut_at_the_kc2_root(tau, z, ref):
    # 1.7e-15 here: beta^2 + kc^2 misses 1 by an ulp at tau = 30
    assert abs(cauchy(tau, z) - ref) <= 2e-15 * abs(ref)
    assert abs(cauchy(tau, np.conj(z)) - np.conj(ref)) <= 2e-15 * abs(ref)


@pytest.mark.parametrize("tau", [2.0, 30.0, 1e3, 1e5])
def test_two_cut_boundary_value_is_the_density(tau):
    # -Im C(x +- i 1e-300)/pi is the density itself: the |z| < 2 formula
    # holds up to the cut
    lo, hi = support(tau).pieces[-1]
    x = lo + np.array([0.01, 0.3, 0.5, 0.9, 0.99]) * (hi - lo)
    x = np.concatenate((x, -x))
    d = density(tau, x)
    for y in (1e-300, -1e-300):
        sp = -np.sign(y) * cauchy(tau, x + 1j * y).imag / math.pi
        assert np.all(np.abs(sp - d) <= 1e-15 * d)


def test_chebyshev_kernel_closed_form():
    # int_{-b}^{b} dx / (sqrt(b^2 - x^2)(z - x)) = pi / sqrt_cut(z, b);
    # quadrature under x = b sin(theta) against the closed form.
    b = 0.6
    theta, w = gl_map(-math.pi / 2, math.pi / 2, 128)
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


def test_lebesgue_transforms_reject_the_interval():
    # both are defined off [-1, 1], exactly on it from either side of the
    # axis, at the edges too; lebesgue_potential covers the interval
    for x in (0.5, -1.0, 0.0, 1.0):
        for zero in (0.0, -0.0):
            with pytest.raises(DomainError):
                lebesgue_g(complex(x, zero))
            with pytest.raises(DomainError):
                lebesgue_cauchy(complex(x, zero))
    with pytest.raises(DomainError):
        lebesgue_potential(math.nan)
    # 5e-14 above an edge is off the interval: 40-digit mpmath of the
    # closed forms
    z = complex(1.0, 5e-14)
    ref = -0.3068528194400154 + 8.079975142510622e-13j
    assert abs(lebesgue_g(z) - ref) <= 1e-15 * abs(ref)
    ref = 15.659950285021242 - 0.7853981633974358j
    assert abs(lebesgue_cauchy(z) - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("z,ref", [
    # frozen: 40-digit mpmath of -Re g at the float z
    (0.3 + 1e-13j, 0.9542994584745301),
    (1 + 1e-300j, 0.3068528194400547),
    (-1 + 1e-300j, 0.3068528194400547),
    (1 - 1e-300j, 0.3068528194400547),
    (-1 - 1e-300j, 0.3068528194400547),
])
def test_lebesgue_potential_a_hair_off_the_interval(z, ref):
    # -Re g, not the interval formula, which is off by ~(pi/2)|Im z|
    assert abs(lebesgue_potential(z) - ref) <= 5e-16 * ref


def test_lebesgue_transforms_at_large_modulus():
    # atanh(1/z) and the regrouped primitive do not cancel as |z| grows
    for z in (1e8 + 1e8j, -3e5, 1e200j):
        w = 1.0 / z
        assert abs(lebesgue_cauchy(z) - (w + w ** 3 / 3.0)) <= 1e-15 * abs(w)
        ref = cmath.log(z) - w * w / 6.0
        assert abs(lebesgue_g(z) - ref) <= 1e-15 * abs(ref)


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


@pytest.mark.parametrize("tau,edge,ref", [
    # frozen: 40-digit mpmath of the closed forms at the float x
    (-2.0, math.sqrt(3.0) / 2.0, None),
    (0.5, 1.0, 0.8862938869682485),
])
def test_potential_just_outside_a_support_edge(tau, edge, ref):
    # real points just outside an edge get -Re g, which is continuous with
    # the values on either side
    x = edge + 5e-14
    v = potential(tau, x)
    assert potential(tau, -x) == v
    assert potential(tau, edge) >= v >= potential(tau, edge + 2e-13)
    if ref is None:  # a soft edge: the potential is flat to first order
        assert abs(v - potential(tau, edge)) <= 1e-12
    else:  # a hard edge: it falls like sqrt(x - 1)
        assert abs(v - ref) <= 1e-13


@pytest.mark.parametrize("x,ref", [
    # frozen: 40-digit mpmath of the closed forms at the float x, tau = 0.5
    (1.0 + 5e-14, 0.88629388696824856),
    (1.0 + 1e-12, 0.88629223971258752),
    (1.0 + 1e-8, 0.88608227937092557),
    (1.0 - 1e-8, 0.88629431083532057),
    (1.0 + 1e-4, 0.86535392227081626),
    (-1.0 - 1e-8, 0.88608227937092557),
])
def test_potential_next_to_a_hard_edge(x, ref):
    # -Re g loses nothing to the rounding of 1/x just outside the edge
    assert abs(potential(0.5, x) - ref) <= 2e-15 * ref


@pytest.mark.parametrize("tau", (0.5, -0.5, 1.7, -2.0, -1.001))
def test_potential_just_off_the_axis_over_the_support(tau):
    # a point a hair above or below the support takes -Re g, continuous
    # across the axis; read as on the axis it moved by ~sqrt|Im z| next to
    # a hard edge (4.7e-7 at tau = 0.5).  potential_quad is the reference.
    from logeq.oracle import potential_quad
    xs = []
    for lo, hi in support(tau).pieces:
        xs += [lo, hi, lo + 1e-9, hi - 1e-9, lo + 1e-3, hi - 1e-3, 0.3 * hi]
    ys = 10.0 ** -np.array([12.0, 13, 14, 16, 20, 50, 100, 200, 300])
    z = (np.array(xs)[:, None] + 1j * ys).ravel()
    for zs in (z, z.conjugate()):
        assert np.max(np.abs(potential(tau, zs) - potential_quad(tau, zs))) <= 2e-13


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


def test_omega_and_report_just_above_the_repulsive_boundary():
    # beta^2 ~ 8e-13 here, too small for the coefficient recurrence; omega
    # leaves the intermediate line (1 + tau) log 2 only at second order.
    tau = TAU_CRITICAL + 1e-12
    rep = report(tau)
    assert rep.regime is Regime.REPULSIVE
    assert rep.omega == omega(tau)
    assert abs(rep.omega - (1.0 + tau) * math.log(2.0)) <= 1e-14


def test_omega_answers_by_the_theta_formula_at_every_tau():
    # one route pair on both sides of the old beta^2 = 0.9 band (tau ~ 9.55)
    from logeq.equilibrium import _omega_theta
    for tau in (1.8, 9.0, 12.0, 80.0, 1e7):
        assert omega(tau) == _omega_theta(tau)


def test_omega_above_the_beta_cap_raises_domain_error():
    # 3.6e10, past the former 2e-12 modulus cap, answers; from tau ~ 1.8e15
    # on beta rounds to 1
    assert math.isfinite(omega(3.6e10))
    for tau in (1e16, 1e300):
        with pytest.raises(DomainError, match="within rounding of 1"):
            omega(tau)


def test_omega_repulsive_routes_agree():
    from logeq.series import omega_integral
    assert abs(omega(2.0) - omega_integral(2.0)) <= 1e-8


def test_report_fields():
    rep = report(2.0)
    assert rep.tau == 2.0
    assert rep.regime is Regime.REPULSIVE
    assert rep.beta == solve_beta_repulsive(2.0)[0]
    assert rep.omega == omega(2.0)
    rep0 = report(0.0)
    assert rep0.beta == 1.0 and rep0.omega == math.log(2.0)
