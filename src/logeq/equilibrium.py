"""Equilibrium measures on [-1, 1] under the uniform-background external field.

A unit charge on [-1, 1] interacting through the logarithmic kernel is
exposed to the external field tau * V(x), where V is the logarithmic
potential of the normalized Lebesgue measure (a "uniform background" of
total charge tau).  Depending on tau the minimizing measure lives on

* one symmetric cut [-beta, beta]          (attractive regime, tau < -1),
* the whole interval [-1, 1]               (intermediate regime), or
* two cuts [-1, -beta] u [beta, 1]         (repulsive regime, tau > 2/(pi-2)).

This module owns the regime classification, the support endpoints, the
density, the Cauchy transform with correct branch cuts, the g-function, the
logarithmic potential, and the equilibrium constant omega.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import gl_map
from .errors import ConsistencyError, ConvergenceError, DomainError
from .specfun import complete_E, complete_K, integral_I

# Upper boundary of the intermediate regime; 2/(pi-2) ~ 1.7519.
TAU_CRITICAL = 2.0 / (math.pi - 2.0)

# Evaluation points closer than this to a branch cut are rejected rather
# than silently resolved to one side.
ON_CUT_TOL = 1e-13

# From this modulus on the Cauchy transform is taken as 1/z, good to 1e-12:
# the next term of z C(z) = 1 + m2/z^2 + ... is at most 1/|z|^2 since
# m2 <= 1.  The closed forms lose about |tau| |z| ulps to cancellation
# between their logarithms (1e-9 at |z| = 1e6 for tau = 2), more already.
FAR_FIELD = 1e6

# Newton on a concave function converges quadratically from the start below;
# 8 steps suffice at every tau tried.
_NEWTON_MAX_ITER = 64


class Regime(enum.Enum):
    ATTRACTIVE = "attractive"
    INTERMEDIATE = "intermediate"
    REPULSIVE = "repulsive"


class SupportShape(enum.Enum):
    FULL_INTERVAL = "full-interval"
    ONE_CUT = "one-cut"
    TWO_CUT = "two-cut"


@dataclass(frozen=True)
class Support:
    """Support of the equilibrium measure.

    `beta` is the inner endpoint scale: the support is [-beta, beta] for
    ONE_CUT, [-1, -beta] u [beta, 1] for TWO_CUT, and beta == 1.0 for
    FULL_INTERVAL.
    """

    shape: SupportShape
    beta: float

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise DomainError(f"support endpoint beta={self.beta!r} outside (0, 1]")
        if self.shape is SupportShape.FULL_INTERVAL and self.beta != 1.0:
            raise DomainError("full-interval support must have beta == 1")

    @property
    def pieces(self) -> tuple[tuple[float, float], ...]:
        """Closed intervals making up the support, in increasing order."""
        if self.shape is SupportShape.FULL_INTERVAL:
            return ((-1.0, 1.0),)
        if self.shape is SupportShape.ONE_CUT:
            return ((-self.beta, self.beta),)
        return ((-1.0, -self.beta), (self.beta, 1.0))


@dataclass(frozen=True)
class EquilibriumReport:
    """Summary of the equilibrium problem at a single tau."""

    tau: float
    regime: Regime
    beta: float
    omega: float


def classify_regime(tau: float) -> Regime:
    """Classify tau into attractive / intermediate / repulsive.

    The boundary values tau = -1 and tau = 2/(pi-2) belong to the
    intermediate regime (its formulas are the continuous limits there).
    """
    tau = float(tau)
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau!r}")
    if tau < -1.0:
        return Regime.ATTRACTIVE
    if tau <= TAU_CRITICAL:
        return Regime.INTERMEDIATE
    return Regime.REPULSIVE


@lru_cache(maxsize=1024)
def solve_beta_repulsive(tau: float) -> float:
    """Endpoint beta of the two-cut support: the root of E(beta) = 1 + 1/tau.

    Newton's method in m = beta^2, with dE/dm = (E - K)/(2m).  E is
    decreasing and concave in m, so from m = (1 - 2e-12)^2, just inside the
    modulus cap, the iterates descend monotonically onto the root; the
    first step that no longer decreases m ends the iteration.  Memoized for
    the 1024 most recent taus (pure function; concurrent duplicate inserts
    are idempotent).
    """
    if classify_regime(tau) is not Regime.REPULSIVE:
        raise DomainError(f"solve_beta_repulsive requires tau > {TAU_CRITICAL}, got {tau!r}")
    target = 1.0 + 1.0 / tau
    b = 1.0 - 2e-12
    if complete_E(b) > target:
        raise DomainError(f"tau={tau!r} puts beta within 2e-12 of 1")
    m = b * b
    for _ in range(_NEWTON_MAX_ITER):
        e = complete_E(b)
        m_next = m - 2.0 * m * (e - target) / (e - complete_K(b))
        if not m_next < m:
            return b
        m = m_next
        b = math.sqrt(m)
    raise ConvergenceError(f"beta Newton iteration did not settle for tau={tau!r}")


def _attractive_kc(tau: float) -> float:
    """Complementary endpoint sqrt(1 - beta^2) = (1 + tau)/tau of the one cut.

    Formed from tau directly: 1 - beta*beta cancels to 0 as tau -> -1,
    where beta rounds to 1 well before tau reaches the boundary.
    """
    return (1.0 + tau) / tau


def support(tau: float) -> Support:
    """Support of the equilibrium measure at tau."""
    regime = classify_regime(tau)
    if regime is Regime.INTERMEDIATE:
        return Support(SupportShape.FULL_INTERVAL, 1.0)
    if regime is Regime.ATTRACTIVE:
        beta = math.sqrt(1.0 - _attractive_kc(tau) ** 2)
        return Support(SupportShape.ONE_CUT, beta)
    return Support(SupportShape.TWO_CUT, solve_beta_repulsive(tau))


# ---------------------------------------------------------------------------
# Branch-cut machinery
# ---------------------------------------------------------------------------

def _descalar(out):
    return complex(out) if out.ndim == 0 else out


def _shift(z: complex, d: float) -> complex:
    """z + d keeping the sign of a zero imaginary part.

    Complex addition computes imag as imag(z) + 0.0, which rounds -0.0 up to
    +0.0 and silently moves a below-cut boundary point to the upper side.
    Shifting the real component alone keeps conjugate pairs conjugate.
    """
    return complex(z.real + d, z.imag)


def _shift_arr(z, d: float):
    out = np.empty_like(z)
    out.real = z.real + d
    out.imag = z.imag
    return out


def _sqrt_cut_arr(z, a: float):
    # Both factors must sit on the same side of the real axis; see _shift.
    return np.sqrt(_shift_arr(z, -a)) * np.sqrt(_shift_arr(z, a))


def sqrt_cut(z, a: float):
    """(z - a)^{1/2} (z + a)^{1/2} with branch cut exactly on [-a, a].

    The product of principal square roots is odd, behaves like z at
    infinity, is positive real for z > a and negative real for z < -a.
    A naive principal sqrt of z^2 - a^2 would put a spurious cut on the
    imaginary axis instead.
    """
    return _descalar(_sqrt_cut_arr(np.asarray(z, dtype=complex), a))


def phi_joukowski(z):
    """Inverse Joukowski map z + (z^2 - 1)^{1/2}, mapping C \\ [-1,1] to |w| > 1."""
    z = np.asarray(z, dtype=complex)
    return _descalar(z + _sqrt_cut_arr(z, 1.0))


def ratio_root(z, beta: float):
    """((z^2 - beta^2)/(z^2 - 1))^{1/2} with cuts only on [-1,-beta] u [beta,1].

    Both half-power factors jump across (-beta, beta) simultaneously, so the
    ratio is analytic there (and equals the positive root, beta at z = 0);
    it tends to 1 at infinity.
    """
    z = np.asarray(z, dtype=complex)
    return _descalar(_sqrt_cut_arr(z, beta) / _sqrt_cut_arr(z, 1.0))


def _finite_point(z, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{what} needs a finite point, got z={z!r}")
    return z


def _reject_on_cut(z: complex, sup: Support, what: str) -> None:
    if abs(z.imag) > ON_CUT_TOL:
        return
    x = z.real
    for lo, hi in sup.pieces:
        if lo - ON_CUT_TOL <= x <= hi + ON_CUT_TOL:
            raise DomainError(
                f"{what} is not defined within {ON_CUT_TOL:g} of the support cut "
                f"[{lo}, {hi}]; got z={z!r}")


# ---------------------------------------------------------------------------
# Background-measure functions (uniform charge on [-1, 1])
# ---------------------------------------------------------------------------

def _zlogz(w: complex) -> complex:
    """w log w with the 0 log 0 = 0 convention."""
    if w == 0:
        return 0.0j
    return w * cmath.log(w)


def lebesgue_g(z) -> complex:
    """Complex logarithmic primitive for the uniform measure on [-1, 1].

    g(z) = (z+1)/2 log(z+1) - (z-1)/2 log(z-1) - 1, normalized so that
    g(z) = log z + O(1/z) at infinity.
    """
    z = complex(z)
    return 0.5 * _zlogz(_shift(z, 1.0)) - 0.5 * _zlogz(_shift(z, -1.0)) - 1.0


def lebesgue_cauchy(z) -> complex:
    """Cauchy transform of the uniform measure: (1/2) log((z+1)/(z-1))."""
    z = complex(z)
    return 0.5 * (cmath.log(_shift(z, 1.0)) - cmath.log(_shift(z, -1.0)))


def _entropy_bracket(x: float) -> float:
    """(1+x) log(1+x) + (1-x) log(1-x) on [-1, 1], with 0 log 0 = 0."""
    xp, xm = 1.0 + x, 1.0 - x
    a = xp * math.log(xp) if xp > 0.0 else 0.0
    b = xm * math.log(xm) if xm > 0.0 else 0.0
    return a + b


def lebesgue_potential(z) -> float:
    """Logarithmic potential of the uniform measure on [-1, 1].

    Equals 1 - (1/2)[(1+x)log(1+x) + (1-x)log(1-x)] on the interval itself
    and -Re g elsewhere; the two agree at the endpoints (value 1 - log 2).
    """
    z = complex(z)
    if abs(z.imag) <= ON_CUT_TOL and -1.0 <= z.real <= 1.0:
        return 1.0 - 0.5 * _entropy_bracket(z.real)
    return -lebesgue_g(z).real


def external_field(tau: float, z) -> float:
    """External field tau * V(x) acting on the unit charge."""
    return tau * lebesgue_potential(z)


# ---------------------------------------------------------------------------
# Density and edge behavior
# ---------------------------------------------------------------------------

def density(tau: float, x):
    """Equilibrium density at points of the open support interior.

    Accepts a float or ndarray; every point must lie strictly inside the
    support (endpoint evaluations raise DomainError: the density is either
    singular or defined only one-sidedly there).

    Closed forms: arcsine-plus-constant in the intermediate regime, an
    arctangent profile on the single cut in the attractive regime, and an
    elliptic-kernel profile on the two cuts in the repulsive regime.
    """
    regime = classify_regime(tau)
    sup = support(tau)
    beta = sup.beta
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    if regime is Regime.INTERMEDIATE:
        ok = (arr > -1.0) & (arr < 1.0)
    elif regime is Regime.ATTRACTIVE:
        ok = (arr > -beta) & (arr < beta)
    else:
        ok = ((arr > beta) & (arr < 1.0)) | ((arr > -1.0) & (arr < -beta))
    if not np.all(ok):
        bad = arr[~ok][0]
        raise DomainError(f"x={bad!r} is outside the open support interior at tau={tau!r}")

    if regime is Regime.INTERMEDIATE:
        vals = (1.0 + tau) / (math.pi * np.sqrt(1.0 - arr * arr)) - 0.5 * tau
    elif regime is Regime.ATTRACTIVE:
        # pi/2 - arctan(sqrt((1-b^2)/(b^2-x^2))) rewritten through the
        # complementary arctangent: no cancellation at the soft edges.
        vals = (-tau / math.pi) * np.arctan(
            np.sqrt((beta * beta - arr * arr) / _attractive_kc(tau) ** 2))
    else:
        a = np.sqrt(1.0 - arr * arr)
        vals = (tau / math.pi) * np.abs(arr) * np.sqrt(
            (arr * arr - beta * beta)) / a * integral_I(a, beta)
    if scalar:
        return float(vals[0])
    return vals


def _density_offset(tau: float, edge: float, off):
    """Density at distance `off` inward from the support endpoint `edge`.

    Quadrature rules that cluster nodes at an endpoint know the offset to
    machine precision, while the abscissa edge +- off rounds it away; the
    edge-sensitive factors 1 - x^2 and beta^2 - x^2 are therefore built
    from the offset directly.  Offsets must be positive and stay within
    the piece adjacent to the edge; callers own that.
    """
    off = np.asarray(off, dtype=float)
    regime = classify_regime(tau)
    beta = support(tau).beta
    if regime is Regime.INTERMEDIATE:
        one_minus = off * (2.0 - off)
        return (1.0 + tau) / (math.pi * np.sqrt(one_minus)) - 0.5 * tau
    if regime is Regime.ATTRACTIVE:
        gap = off * (2.0 * beta - off)
        return (-tau / math.pi) * np.arctan(np.sqrt(gap / _attractive_kc(tau) ** 2))
    if abs(edge) == 1.0:
        absx = 1.0 - off
        one_minus = off * (2.0 - off)
        x2mb2 = absx * absx - beta * beta
    else:
        absx = beta + off
        one_minus = (1.0 - absx) * (1.0 + absx)
        x2mb2 = off * (2.0 * beta + off)
    a = np.sqrt(one_minus)
    return (tau / math.pi) * absx * np.sqrt(x2mb2) / a * integral_I(a, beta)


def edge_coefficient(tau: float, edge: str) -> float:
    """Leading edge constant of the density at the named edge type.

    * attractive, "soft":   density ~ coef * sqrt(beta^2 - x^2) at +-beta;
      coef = (-tau/pi) / sqrt(1 - beta^2) > 0.
    * intermediate, "hard": density * sqrt(1 - x^2) -> (1 + tau)/pi at +-1.
    * repulsive, "hard":    density * sqrt(1 - x^2) -> (tau/pi) K(beta)
      sqrt(1 - beta^2) at +-1.
    * repulsive, "soft":    density ~ coef * sqrt(x - beta) at beta+; no
      trustworthy closed form is available, so the constant is estimated
      numerically by Richardson extrapolation of density(beta + d)/sqrt(d).
    """
    regime = classify_regime(tau)
    sup = support(tau)
    beta = sup.beta
    if regime is Regime.INTERMEDIATE:
        if edge != "hard":
            raise DomainError("intermediate regime has only hard edges at +-1")
        return (1.0 + tau) / math.pi
    if regime is Regime.ATTRACTIVE:
        if edge != "soft":
            raise DomainError("attractive regime has only soft edges at +-beta")
        return (-tau / math.pi) / _attractive_kc(tau)
    if edge == "hard":
        return (tau / math.pi) * complete_K(beta) * math.sqrt(1.0 - beta * beta)
    if edge == "soft":
        d = 1e-5 * (1.0 - beta)
        c1 = density(tau, beta + d) / math.sqrt(d)
        c2 = density(tau, beta + 2.0 * d) / math.sqrt(2.0 * d)
        return 2.0 * c1 - c2
    raise DomainError(f"unknown edge type {edge!r}")


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------

def _cauchy_intermediate(tau: float, z: complex) -> complex:
    return (1.0 + tau) / sqrt_cut(z, 1.0) - 0.5 * tau * (
        cmath.log(_shift(z, 1.0)) - cmath.log(_shift(z, -1.0)))


def _cauchy_attractive(tau: float, beta: float, z: complex) -> complex:
    s = _attractive_kc(tau)
    r = sqrt_cut(z, beta)
    # The two expressions are identical; each is cancellation-free on its
    # half-plane (r + s degenerates near z = -1, r - s near z = +1).
    if z.real >= 0.0:
        return tau * cmath.log((r + s) / _shift(z, 1.0))
    return tau * cmath.log(_shift(z, -1.0) / (r - s))


def _gap_kernel_integral(z: complex, beta: float) -> complex:
    """∫_{-beta}^{beta} sqrt((1-x^2)/(beta^2-x^2)) dx/(z-x) for z off [-beta,beta].

    Evaluated by subtracting the value-matched pure-Chebyshev kernel, whose
    integral has the closed form pi / sqrt_cut(z, beta); the remainder is a
    smooth integrand under x = beta sin(theta), so fixed Gauss-Legendre
    converges spectrally even for z arbitrarily close to the cut.
    """
    s1z = cmath.sqrt(1.0 - z * z)
    theta, w = gl_map(-0.5 * math.pi, 0.5 * math.pi, 128)
    root = np.sqrt(1.0 - (beta * np.sin(theta)) ** 2)
    smooth = np.sum(w * (z + beta * np.sin(theta)) / (root + s1z))
    return smooth + math.pi * s1z / sqrt_cut(z, beta)


def _cauchy_repulsive_gap(tau: float, beta: float, x: float) -> complex:
    # On the real gap the transform is real and analytic; the principal-value
    # reduction of the kernel integral gives 2x I(sqrt(1-x^2), beta).
    r = math.sqrt((beta * beta - x * x) / (1.0 - x * x))
    pv = 2.0 * x * integral_I(math.sqrt(1.0 - x * x), beta)
    val = 0.5 * tau * r * pv - 0.5 * tau * math.log((1.0 + x) / (1.0 - x))
    return complex(val)


def _cauchy_repulsive(tau: float, beta: float, z: complex) -> complex:
    if abs(z.imag) <= ON_CUT_TOL and abs(z.real) < beta:
        return _cauchy_repulsive_gap(tau, beta, z.real)
    q = _gap_kernel_integral(z, beta)
    return complex(0.5 * tau * ratio_root(z, beta) * q - 0.5 * tau * (
        cmath.log(_shift(z, 1.0)) - cmath.log(_shift(z, -1.0))))


def cauchy(tau: float, z) -> complex:
    """Cauchy transform ∫ dμ(x)/(z - x) of the equilibrium measure.

    Defined at finite points off the support; points within 1e-13 of a cut
    are rejected.  Behaves like 1/z at infinity (and is 1/z from
    |z| >= FAR_FIELD on) and maps conjugates to conjugates.
    """
    z = _finite_point(z, "cauchy transform")
    sup = support(tau)
    _reject_on_cut(z, sup, "cauchy transform")
    if abs(z) >= FAR_FIELD:
        return 1.0 / z
    regime = classify_regime(tau)
    if regime is Regime.INTERMEDIATE:
        return _cauchy_intermediate(tau, z)
    if regime is Regime.ATTRACTIVE:
        return _cauchy_attractive(tau, sup.beta, z)
    return _cauchy_repulsive(tau, sup.beta, z)


# ---------------------------------------------------------------------------
# g-function, potential, equilibrium constant
# ---------------------------------------------------------------------------

def g_function(tau: float, z) -> complex:
    """Primitive of the Cauchy transform, normalized to log z + O(1/z).

    Closed forms exist in the attractive and intermediate regimes only; in
    the repulsive regime there is no closed form and the evaluation is
    rejected.  Like any complex logarithm, the result carries log-monodromy
    cuts extending along the negative real axis.
    """
    z = complex(z)
    sup = support(tau)
    _reject_on_cut(z, sup, "g-function")
    regime = classify_regime(tau)
    if regime is Regime.INTERMEDIATE:
        return (1.0 + tau) * cmath.log(0.5 * phi_joukowski(z)) - tau * lebesgue_g(z)
    if regime is Regime.ATTRACTIVE:
        beta = sup.beta
        s = _attractive_kc(tau)
        c = _cauchy_attractive(tau, beta, z)
        r = sqrt_cut(z, beta)
        return (z * c
                + (1.0 + tau) * cmath.log(0.5 * beta * phi_joukowski(z / beta))
                - tau * cmath.log((r + z * s) / (1.0 + s))
                - 1.0)
    raise DomainError("no closed-form g-function in the repulsive regime")


def potential(tau: float, z) -> float:
    """Logarithmic potential ∫ log(1/|z - x|) dμ(x) of the equilibrium measure.

    On the support the closed interval formula applies; elsewhere the
    potential is -Re g.  The repulsive regime has no closed form anywhere
    and delegates to the quadrature oracle.  z must be finite.
    """
    z = _finite_point(z, "potential")
    regime = classify_regime(tau)
    if regime is Regime.REPULSIVE:
        from .oracle import potential_quad
        return potential_quad(tau, z)
    sup = support(tau)
    beta = sup.beta if regime is Regime.ATTRACTIVE else 1.0
    if abs(z.imag) <= ON_CUT_TOL and -beta <= z.real <= beta:
        x = z.real
        return 0.5 * tau * (_entropy_bracket(x) - 2.0) + omega(tau)
    return -g_function(tau, z).real


@lru_cache(maxsize=1024)
def _omega_repulsive(tau: float) -> float:
    from .series import omega_integral, omega_series
    series_val = omega_series(tau, 1e-12).value
    integral_val = omega_integral(tau)
    if abs(series_val - integral_val) > 1e-8:
        raise ConsistencyError(
            f"omega routes disagree at tau={tau!r}: series {series_val!r} "
            f"vs integral {integral_val!r}")
    return series_val


def omega(tau: float) -> float:
    """Equilibrium constant: the level of potential + external field on the support.

    Closed forms in the attractive and intermediate regimes.  In the
    repulsive regime the value is computed from the coefficient series and
    cross-checked against an independent double-integral route; the two must
    agree to 1e-8 or a ConsistencyError is raised.
    """
    regime = classify_regime(tau)
    if regime is Regime.INTERMEDIATE:
        return (1.0 + tau) * math.log(2.0)
    if regime is Regime.ATTRACTIVE:
        beta = support(tau).beta
        return ((1.0 + tau) * math.log(2.0) - math.log(beta) + 1.0 + tau
                - tau * math.log(1.0 + _attractive_kc(tau)))
    return _omega_repulsive(tau)


def report(tau: float) -> EquilibriumReport:
    """Bundle regime, endpoint and equilibrium constant for one tau."""
    sup = support(tau)
    return EquilibriumReport(tau=float(tau), regime=classify_regime(tau),
                             beta=sup.beta, omega=omega(tau))
