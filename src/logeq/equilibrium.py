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
logarithmic potential, and the equilibrium constant omega (on two cuts one
theta-rule integral, checked by the double integral of `series`).  Each
function of a point takes one point (giving a Python float or complex) or
an array (giving an array of its shape, rejected if any entry is invalid).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import ConsistencyError, ConvergenceError, DomainError
from .specfun import _theta_nodes, integral_I, integral_I_cheb

# Upper boundary of the intermediate regime; 2/(pi-2) ~ 1.7519.
TAU_CRITICAL = 2.0 / (math.pi - 2.0)

# Newton on a concave function converges quadratically from the start below;
# 7 steps suffice at every tau tried.
_NEWTON_MAX_ITER = 64


class Regime(enum.Enum):
    ATTRACTIVE = "attractive"
    INTERMEDIATE = "intermediate"
    REPULSIVE = "repulsive"


@dataclass(frozen=True)
class Support:
    """Support of the equilibrium measure; the regime fixes its topology.

    `beta` is the inner endpoint scale: the support is [-beta, beta] in the
    attractive regime (one cut), [-1, -beta] u [beta, 1] in the repulsive
    regime (two cuts), and beta == 1.0 in the intermediate regime (the full
    interval).  `kc` = sqrt(1 - beta^2), read by consumers in place of
    beta: 0 on the full interval, (1 + tau)/tau on one cut, the k'^2 root on two.
    """

    regime: Regime
    beta: float
    kc: float

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0 and 0.0 <= self.kc <= 1.0
                and abs(self.beta ** 2 + self.kc ** 2 - 1.0) <= 1e-15
                and (self.regime is Regime.INTERMEDIATE) == (self.kc == 0.0)):
            raise DomainError(f"beta={self.beta!r}, kc={self.kc!r} is no {self.regime.value} "
                              "endpoint: beta^2 + kc^2 = 1, kc = 0 on the full interval only")

    @property
    def half_length(self) -> float:
        """Half the length of each piece; kc^2/(2 (1 + beta)) on two cuts."""
        if self.regime is Regime.REPULSIVE:
            return 0.5 * self.kc * self.kc / (1.0 + self.beta)
        return self.beta

    @property
    def pieces(self) -> tuple[tuple[float, float], ...]:
        """Closed intervals making up the support, in increasing order."""
        if self.regime is Regime.INTERMEDIATE:
            return ((-1.0, 1.0),)
        if self.regime is Regime.ATTRACTIVE:
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


def _memo_tau(func):
    """Memoize for the 1024 most recent taus, keyed on float(tau): a numpy
    tau shares its float's entry, and a tau that raises leaves none."""
    cached = lru_cache(maxsize=1024)(func)
    call = wraps(func)(lambda tau: cached(float(tau)))
    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


@_memo_tau
def solve_beta_repulsive(tau: float) -> tuple[float, float]:
    """(beta, kc): the two-cut endpoint, root of E(beta) = 1 + 1/tau, and
    its complementary modulus kc = sqrt(1 - beta^2).

    Newton in m = kc^2, which holds what beta rounds away as tau grows, on
    E - 1 = m ∫ cos^2 phi/(r + sin phi) dphi = 1/tau with slope
    (1/2) ∫ cos^2 phi/r dphi, r = sqrt(m + beta^2 sin^2 phi), on the nodes
    of `theta_rule`.  E is concave in m: from half the fixed point of
    m = 4/(tau (log(16/m) - 1)), left of the root, the steps are positive
    until the last (5-7 steps).  The smaller of beta^2 and m takes each
    step, the other is 1 minus it.  DomainError once beta rounds to 1
    (tau above ~1.8e15).  Memoized for the 1024 most recent taus.
    """
    if classify_regime(tau) is not Regime.REPULSIVE:
        raise DomainError(f"solve_beta_repulsive requires tau > {TAU_CRITICAL}, got {tau!r}")
    m = 1.0
    for _ in range(4):
        m = min(1.0, 4.0 / (tau * (math.log(16.0 / m) - 1.0)))
    kc2, b2 = 0.5 * m, 1.0 - 0.5 * m
    for _ in range(_NEWTON_MAX_ITER):
        # r from kc2 itself, not theta_rule's square of a rounded sqrt
        nodes = _theta_nodes(math.sqrt(b2), math.sqrt(kc2))
        # b2 sin sin, not b2 sin^2: a product in another order moves beta
        # by an ulp at ~2% of taus
        r = np.sqrt(kc2 + b2 * nodes.sin * nodes.sin)
        step = ((1.0 / tau - kc2 * float((nodes.w_cos2 / (r + nodes.sin)).sum()))
                / (0.5 * float((nodes.w_cos2 / r).sum())))
        if kc2 <= b2:
            kc2, b2 = kc2 + step, 1.0 - (kc2 + step)
        else:
            kc2, b2 = 1.0 - (b2 - step), b2 - step
        if not step > 0.0:
            break
    else:
        raise ConvergenceError(f"k'^2 Newton iteration did not settle for tau={tau!r}")
    if b2 == 1.0:
        raise DomainError(f"tau={tau!r} puts the two-cut endpoint beta within rounding "
                          "of 1: beta < 1 is a double only up to tau ~ 1.8e15")
    return math.sqrt(b2), math.sqrt(kc2)


@_memo_tau
def support(tau: float) -> Support:
    """Support of the equilibrium measure at tau, with beta and kc; one
    memoized Support per tau serves every route."""
    regime = classify_regime(tau)
    if regime is Regime.INTERMEDIATE:
        return Support(regime, 1.0, 0.0)
    if regime is Regime.ATTRACTIVE:
        # beta^2 = 1 - ((1 + tau)/tau)^2 = a (2 - a) with a = -1/tau: the
        # difference 1 - s^2 cancels as tau -> -inf, and rounds to 0 from
        # tau ~ -9e15 on, where beta ~ sqrt(2/|tau|) is a normal double.
        # Next to tau = -1 it rounds to at most 1; kc keeps what beta loses.
        a = -1.0 / tau
        return Support(regime, math.sqrt(a * (2.0 - a)), (1.0 + tau) / tau)
    return Support(regime, *solve_beta_repulsive(tau))


# ---------------------------------------------------------------------------
# Branch-cut machinery
# ---------------------------------------------------------------------------

def _descalar(out):
    return out.item() if out.ndim == 0 else out


def _shift(z, d: float):
    """z + d keeping the sign of a zero imaginary part.

    Complex addition computes imag as imag(z) + 0.0, which rounds -0.0 up to
    +0.0 and silently moves a below-cut boundary point to the upper side.
    Shifting the real component alone keeps conjugate pairs conjugate.
    """
    out = np.empty_like(z)
    out.real = z.real + d
    out.imag = z.imag
    return out


def _sqrt_cut_arr(z, a: float):
    # Both factors must sit on the same side of the real axis; see _shift.
    return np.sqrt(_shift(z, -a)) * np.sqrt(_shift(z, a))


def sqrt_cut(z, a: float):
    """(z - a)^{1/2} (z + a)^{1/2} with branch cut exactly on [-a, a].

    The product of principal square roots is odd, behaves like z at
    infinity, is positive real for z > a and negative real for z < -a.
    A naive principal sqrt of z^2 - a^2 would put a spurious cut on the
    imaginary axis instead.
    """
    if not math.isfinite(a):
        raise DomainError(f"sqrt_cut needs a finite a, got {a!r}")
    flat, shape = _points(z, "sqrt_cut")
    return _descalar(_sqrt_cut_arr(flat, a).reshape(shape))


def _points(z, what: str, cuts=()):
    """z as a flat complex array (a scalar runs through the array code too)
    and its shape.  DomainError if an entry is not finite or exactly on a
    cut: Im z = +-0.0 and Re z in one of the closed intervals `cuts`."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if not np.isfinite(flat).all():
        bad = flat[~np.isfinite(flat)][0]
        raise DomainError(f"{what} needs finite points, got z={complex(bad)!r}")
    real = flat[flat.imag == 0.0]
    if cuts and real.size:
        lo, hi = np.array(cuts).T
        x = real.real[:, None]
        hit = (lo <= x) & (x <= hi)
        if hit.any():
            i, j = np.argwhere(hit)[0]
            raise DomainError(
                f"{what} is not defined on the support cut "
                f"[{cuts[j][0]}, {cuts[j][1]}]; got z={complex(real[i])!r}")
    return flat, z.shape


# ---------------------------------------------------------------------------
# Background-measure functions (uniform charge on [-1, 1])
# ---------------------------------------------------------------------------

def _entropy_bracket(x):
    """(1+x) log(1+x) + (1-x) log(1-x) on [-1, 1], with 0 log 0 = 0."""
    xp, xm = 1.0 + x, 1.0 - x
    return xp * np.log(np.where(xp > 0.0, xp, 1.0)) + xm * np.log(np.where(xm > 0.0, xm, 1.0))


def _lebesgue_cauchy(z):
    # (1/2) log((z+1)/(z-1)).  From |z| = 2 on as atanh(1/z), which does not
    # cancel at large |z|; unlike 1/z, np.reciprocal keeps the sign of a
    # zero imaginary part.  Closer in as the difference of the logarithms:
    # 1/z rounds before atanh sees it, which costs ~1e-16/|z - 1| relative
    # next to an edge.  _shift keeps conjugates conjugate on the real axis.
    out = np.arctanh(np.reciprocal(z))
    near = np.abs(z) < 2.0
    if near.any():
        zn = z[near]
        out[near] = 0.5 * (np.log(_shift(zn, 1.0)) - np.log(_shift(zn, -1.0)))
    return out


def _lebesgue_g(z):
    # From |z| = 2 on, z _lebesgue_cauchy(z) + log sqrt_cut(z, 1): no term
    # cancels at large |z|.  Closer in, the defining form: next to +-1 the
    # far form's two terms cancel ~log(1/|z -+ 1|) ulps.
    out = np.empty_like(z)
    near = np.abs(z) < 2.0
    zf = z[~near]
    out[~near] = zf * _lebesgue_cauchy(zf) + np.log(_sqrt_cut_arr(zf, 1.0)) - 1.0
    zp, zm = _shift(z[near], 1.0), _shift(z[near], -1.0)
    out[near] = 0.5 * (zp * np.log(zp) - zm * np.log(zm)) - 1.0
    return out


def lebesgue_g(z):
    """Complex logarithmic primitive for the uniform measure on [-1, 1].

    g(z) = (z+1)/2 log(z+1) - (z-1)/2 log(z-1) - 1 off [-1, 1], normalized
    so that g(z) = log z + O(1/z) at infinity.
    """
    flat, shape = _points(z, "lebesgue_g", ((-1.0, 1.0),))
    return _descalar(_lebesgue_g(flat).reshape(shape))


def lebesgue_cauchy(z):
    """Cauchy transform (1/2) log((z+1)/(z-1)) of the uniform measure, off [-1, 1]."""
    flat, shape = _points(z, "lebesgue_cauchy", ((-1.0, 1.0),))
    return _descalar(_lebesgue_cauchy(flat).reshape(shape))


def lebesgue_potential(z):
    """Logarithmic potential of the uniform measure on [-1, 1].

    Equals 1 - (1/2)[(1+x)log(1+x) + (1-x)log(1-x)] at real points of the
    interval (Im z = +-0.0) and -Re g elsewhere, however close to it; the
    two agree at the endpoints (value 1 - log 2).
    """
    z, shape = _points(z, "lebesgue_potential")
    out = np.empty(z.shape)
    on = (z.imag == 0.0) & (np.abs(z.real) <= 1.0)
    out[on] = 1.0 - 0.5 * _entropy_bracket(z.real[on])
    if not on.all():
        out[~on] = -_lebesgue_g(z[~on]).real
    return _descalar(out.reshape(shape))


def external_field(tau: float, z):
    """External field tau * V(x) acting on the unit charge."""
    if not math.isfinite(tau):
        raise DomainError(f"external_field needs a finite tau, got {tau!r}")
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
    elliptic-kernel profile on the two cuts in the repulsive regime,
    (tau/pi) |x| sqrt(x^2 - beta^2)/a I(a, beta) with a = sqrt(1 - x^2).
    There I comes from the cached per-beta Chebyshev interpolant
    `integral_I_cheb` (24 quadratures per beta, then a short recurrence per
    point); the result is good to ~1e-14 relative up to both edges.  Past
    the midpoint of a piece x^2 - beta^2 comes from the offset to the outer
    edge (_beyond_beta), within ~3e-16 of the density at the true beta.
    """
    sup = support(tau)
    beta, kc = sup.beta, sup.kc
    shape = np.shape(x)
    arr = np.asarray(x, dtype=float).ravel()

    # one 1-D test per piece: np.any over a short last axis costs as much
    # as the two-cut density itself
    ok = np.zeros(arr.shape, bool)
    for lo, hi in sup.pieces:
        ok |= (lo < arr) & (arr < hi)
    if not ok.all():
        bad = arr[~ok][0]
        raise DomainError(f"x={bad!r} is outside the open support interior at tau={tau!r}")

    # 1 - x^2 and beta^2 - x^2 as a difference times a sum: as differences
    # of squares they cancel next to the edges.
    absx = np.abs(arr)
    if sup.regime is Regime.INTERMEDIATE:
        vals = (1.0 + tau) / (math.pi * np.sqrt((1.0 - absx) * (1.0 + absx))) - 0.5 * tau
    elif sup.regime is Regime.ATTRACTIVE:
        # pi/2 - arctan(sqrt((1-b^2)/(b^2-x^2))) rewritten through the
        # complementary arctangent: no cancellation at the soft edges.
        vals = (-tau / math.pi) * np.arctan(np.sqrt((beta - absx) * (beta + absx) / kc ** 2))
    else:
        vals = _repulsive_density(tau, sup, absx, _beyond_beta(sup, absx) * (absx + beta),
                                  (1.0 - absx) * (1.0 + absx))
    return _descalar(vals.reshape(shape))


def _beyond_beta(sup: Support, x):
    """x - beta for an array of real x, on two cuts.  Past the midpoint of
    the piece [beta, 1] it is w - (1 - x), w the width of the piece, as
    _density_offset(tau, 1.0, 1 - x) forms it: the double beta misses the
    inner edge by up to half an ulp, while 1 - x is exact."""
    return np.where(x > 0.5 * (1.0 + sup.beta), 2.0 * sup.half_length - (1.0 - x), x - sup.beta)


def _density_offset(tau: float, edge: float, off):
    """Density at distance `off` inward from the support endpoint `edge`.

    Quadrature rules that cluster nodes at an endpoint know the offset to
    machine precision, while the abscissa edge +- off rounds it away; the
    edge-sensitive factors 1 - x^2 and beta^2 - x^2 are therefore built
    from the offset directly.  Offsets must be positive and stay within
    the piece adjacent to the edge; callers own that.
    """
    off = np.asarray(off, dtype=float)
    sup = support(tau)
    beta = sup.beta
    if sup.regime is Regime.INTERMEDIATE:
        one_minus = off * (2.0 - off)
        return (1.0 + tau) / (math.pi * np.sqrt(one_minus)) - 0.5 * tau
    if sup.regime is Regime.ATTRACTIVE:
        gap = off * (2.0 * beta - off)
        return (-tau / math.pi) * np.arctan(np.sqrt(gap / sup.kc ** 2))
    width = 2.0 * sup.half_length  # not 1 - beta, which rounds it away
    if abs(edge) == 1.0:
        absx = 1.0 - off
        return _repulsive_density(tau, sup, absx, (width - off) * (absx + beta),
                                  off * (2.0 - off))
    absx = beta + off
    return _repulsive_density(tau, sup, absx, off * (2.0 * beta + off),
                              (width - off) * (1.0 + absx))


def _repulsive_density(tau: float, sup: Support, absx, x2mb2, one_minus):
    # x^2 - beta^2 and 1 - x^2 come formed so that neither cancels near
    # its edge: from an edge offset, or as a difference times a sum.
    a = np.sqrt(one_minus)
    return (tau / math.pi) * absx * np.sqrt(x2mb2) / a * integral_I_cheb(a, sup.beta, sup.kc)


def edge_coefficient(tau: float, edge: str) -> float:
    """Leading edge constant of the density at the named edge type.

    * attractive, "soft":   density ~ coef * sqrt(beta^2 - x^2) at +-beta;
      coef = (-tau/pi) / k' > 0.
    * intermediate, "hard": density * sqrt(1 - x^2) -> (1 + tau)/pi at +-1.
    * repulsive, "hard":    density * sqrt(1 - x^2) -> (tau/pi) K(beta) k'
      at +-1, with K(beta) = I(0, beta).
    * repulsive, "soft":    density ~ coef * sqrt(x - beta) at beta+;
      coef = (tau/pi) beta sqrt(2 beta) I(k', beta)/k', the density's own
      limit.  I(k', beta) = (K - E)/beta^2, so this is
      (tau/pi) (K - E) sqrt(2 beta)/(beta k') without the cancellation of
      K - E at small beta.  k' is `Support.kc`.
    """
    sup = support(tau)
    beta, kc = sup.beta, sup.kc
    if sup.regime is Regime.INTERMEDIATE:
        if edge != "hard":
            raise DomainError("intermediate regime has only hard edges at +-1")
        return (1.0 + tau) / math.pi
    if sup.regime is Regime.ATTRACTIVE:
        if edge != "soft":
            raise DomainError("attractive regime has only soft edges at +-beta")
        return (-tau / math.pi) / kc
    if edge == "hard":
        return (tau / math.pi) * integral_I(0.0, beta, kc) * kc
    if edge == "soft":
        return (tau / math.pi) * beta * math.sqrt(2.0 * beta) * integral_I(kc, beta, kc) / kc
    raise DomainError(f"unknown edge type {edge!r}")


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------

# Points per block of the direct sum: complex (points x nodes) temporaries,
# at most ~1 MiB (480 nodes where beta is the last double below 1).
_KERNEL_BLOCK = 128


def _cauchy_attractive(tau: float, beta: float, z):
    # tau log((r + s)/(z + 1)), s = (1 + tau)/tau, through beta^2 =
    # -(2 tau + 1)/tau^2.  |tau (r + z)| >= |tau| beta > 1 keeps the argument
    # inside atanh's unit disk, and nothing cancels at any |z|.
    r = _sqrt_cut_arr(z, beta)
    return 2.0 * tau * np.arctanh(np.reciprocal(r + z) / tau)


def _cauchy_repulsive(tau: float, sup: Support, z):
    # tau (rho q(z)/2 - atanh(1/z)), rho = sqrt_cut(z, beta)/sqrt_cut(z, 1)
    # and q the integral of sqrt((1-x^2)/(beta^2-x^2))/(z-x) over the gap
    # [-beta, beta].  Both factors of rho jump across the gap, so rho is
    # analytic there.
    beta, kc = sup.beta, sup.kc
    # z -+ beta as `density` forms them, from the outer edge past the
    # midpoint of a piece (the order of the factors: see _sqrt_cut_arr)
    minus, plus = _shift(z, -beta), _shift(z, beta)
    if (np.abs(z.real) > 0.5 * (1.0 + beta)).any():
        minus.real, plus.real = _beyond_beta(sup, z.real), -_beyond_beta(sup, -z.real)
    rho = np.sqrt(minus) * np.sqrt(plus) / _sqrt_cut_arr(z, 1.0)
    out = np.empty(z.shape, complex)
    near = np.abs(z) < 2.0
    if near.any():
        # Closer in, the real-gap form continued into the plane: there q is
        # 2x I(sqrt(1 - x^2), beta) and atanh(1/x) reads atanh x.  Formed as
        # a product (see _shift), sqrt(1 - z^2) has a real part that is a
        # sum of two nonnegative products, >= 0 as integral_I requires.
        zn = z[near]
        s1z = np.sqrt(_shift(-zn, 1.0)) * np.sqrt(_shift(zn, 1.0))
        out[near] = tau * (zn * rho[near] * integral_I(s1z, beta, kc) - np.arctanh(zn))
    if not near.all():
        # From |z| = 2 on, q directly under x = beta sin(theta), the nodes
        # +-y of theta_rule paired: q/2 = sum w root/(z - y^2/z).
        zf = z[~near]
        nodes = _theta_nodes(beta, kc)
        w_root, y2 = nodes.w * nodes.root(beta, kc), (beta * nodes.cos) ** 2
        half_q = np.empty(zf.shape, complex)
        for i in range(0, zf.size, _KERNEL_BLOCK):
            zb = zf[i:i + _KERNEL_BLOCK, None]
            half_q[i:i + _KERNEL_BLOCK] = (w_root / (zb - y2 / zb)).sum(axis=-1)
        out[~near] = tau * (rho[~near] * half_q - np.arctanh(np.reciprocal(zf)))
    # Real on the real axis outside [-1, 1] (Schwarz reflection), where both
    # forms cancel two imaginary terms only to rounding.
    out.imag[(z.imag == 0.0) & (np.abs(z.real) > 1.0)] = 0.0
    return out


def cauchy(tau: float, z):
    """Cauchy transform ∫ dμ(x)/(z - x) of the equilibrium measure.

    Takes a point off the support or an array of them; only points exactly
    on a cut (Im z = +-0.0) are rejected, and a point however close to one
    answers.  One closed form per regime, at every modulus:
    (1 + tau)/sqrt_cut(z, 1) - tau atanh(1/z) on the full interval,
    2 tau atanh(1/(tau (sqrt_cut(z, beta) + z))) on one cut.  On two,
    tau (z rho integral_I(sqrt(1 - z^2), beta) - atanh z) with
    rho = sqrt_cut(z, beta)/sqrt_cut(z, 1) for |z| < 2, the real gap
    included, and from |z| = 2 on tau rho q/2 - tau atanh(1/z), q the
    gap-kernel integral on the rule of `theta_rule`.  Relative error within 1e-12
    from |z| = 2 to 1e300 for tau in [-1e8, 10]; the two-cut terms cancel
    by a factor ~1 + tau, which sets the error up to tau = 1e7.  Maps
    conjugates to conjugates.
    """
    sup = support(tau)
    z, shape = _points(z, "cauchy transform", sup.pieces)
    if sup.regime is Regime.INTERMEDIATE:
        out = (1.0 + tau) / _sqrt_cut_arr(z, 1.0) - tau * _lebesgue_cauchy(z)
    elif sup.regime is Regime.ATTRACTIVE:
        out = _cauchy_attractive(tau, sup.beta, z)
    else:
        out = _cauchy_repulsive(tau, sup, z)
    return _descalar(out.reshape(shape))


# ---------------------------------------------------------------------------
# g-function, potential, equilibrium constant
# ---------------------------------------------------------------------------

def _g_function(tau: float, sup: Support, z):
    if sup.regime is Regime.INTERMEDIATE:
        return ((1.0 + tau) * np.log(0.5 * (z + _sqrt_cut_arr(z, 1.0)))
                - tau * _lebesgue_g(z))
    if sup.regime is Regime.ATTRACTIVE:
        # (1 + tau) log((z + r)/2) - tau log((r + zs)/(1 + s)) cancels two
        # terms of size tau; with 1 - s = -1/tau and z - r = beta^2/(z + r)
        # it is log((z + r)/2) + tau log1p(d), d as below, s = k'.  numpy's
        # complex log1p drops Re log1p(d) at |d| ~ 1e-19: it is taken as
        # log|1 + d|, from 2a + a^2 + b^2, d = a + ib.  beta^2/tau would
        # underflow past tau ~ -1e200, where |z| ~ beta keeps tau d ~ 1.
        beta, s = sup.beta, sup.kc
        r = _sqrt_cut_arr(z, beta)
        d = -(beta / (z + r)) * (beta / (r + z * s)) / (2.0 * tau)
        a, b = d.real, d.imag
        log1p_d = 0.5 * np.log1p(a * (2.0 + a) + b * b) + 1j * np.arctan2(b, 1.0 + a)
        return z * _cauchy_attractive(tau, beta, z) + np.log(0.5 * (z + r)) + tau * log1p_d - 1.0
    raise DomainError("no closed-form g-function in the repulsive regime")


def g_function(tau: float, z):
    """Primitive of the Cauchy transform, normalized to log z + O(1/z).

    Takes a point or an array, like `cauchy`.  Closed forms exist in the
    attractive and intermediate regimes only; in the repulsive regime there
    is no closed form and the evaluation is rejected.  Like any complex
    logarithm, the result carries log-monodromy cuts extending along the
    negative real axis.
    """
    sup = support(tau)
    z, shape = _points(z, "g-function", sup.pieces)
    return _descalar(_g_function(tau, sup, z).reshape(shape))


def potential(tau: float, z):
    """Logarithmic potential ∫ log(1/|z - x|) dμ(x) of the equilibrium measure.

    Takes a finite point (giving a float) or an array of them (giving an
    array of its shape).  At real points of the support it is
    omega - tau V(x), the equilibrium condition, in every regime.  Elsewhere
    it is -Re g, however close to the support; two cuts have no closed g,
    and there the quadrature oracle answers off the support.
    """
    sup = support(tau)
    z, shape = _points(z, "potential")
    out = np.empty(z.shape)
    lo, hi = sup.pieces[-1]  # the measure is even
    on = (z.imag == 0.0) & (lo <= np.abs(z.real)) & (np.abs(z.real) <= hi)
    if on.any():
        out[on] = 0.5 * tau * (_entropy_bracket(z.real[on]) - 2.0) + omega(tau)
    if sup.regime is Regime.REPULSIVE and not on.all():
        from .oracle import potential_quad
        out[~on] = potential_quad(tau, z[~on])
    elif not on.all():  # the g-function costs ~40 us even on no points
        # Re g is continuous across the real axis, also over the support,
        # where the interval formula would move a point by ~sqrt|Im z|.
        out[~on] = -_g_function(tau, sup, z[~on]).real
    return _descalar(out.reshape(shape))


def _omega_theta(tau: float) -> float:
    """The two-cut omega, the two-cut g-function taken at z = 1:

        (tau + 1) log 2 - (1 + tau delta) log k'
            - tau ∫_0^{pi/2} beta sin(phi) log(r + beta sin(phi)) dphi,

    k' = `Support.kc`, delta = k'^2/(1 + beta) = 1 - beta and
    r = sqrt(k'^2 + beta^2 sin^2 phi), on the nodes of `theta_rule`; no
    term cancels as beta -> 1."""
    sup = support(tau)
    nodes = _theta_nodes(sup.beta, sup.kc)
    bs = sup.beta * nodes.sin
    return ((tau + 1.0) * math.log(2.0) - (1.0 + tau * 2.0 * sup.half_length) * math.log(sup.kc)
            - tau * float((nodes.w * bs * np.log(nodes.root(sup.beta, sup.kc) + bs)).sum()))


@_memo_tau
def _omega_repulsive(tau: float) -> tuple[float, float]:
    """The two-cut omega by the theta formula, and by `omega_integral`
    checking it: (theta, integral)."""
    from .series import omega_integral
    return _omega_theta(tau), omega_integral(tau)


def omega(tau: float) -> float:
    """Equilibrium constant: the level of potential + external field on the support.

    Closed forms in the attractive and intermediate regimes.  In the
    repulsive regime one integral on the rule of `theta_rule` answers at
    every tau, within 6e-16 relative of 30-digit values up to tau = 1e14.
    `omega_integral` checks it: the two must agree to 1e-8 (1e-12 relative
    once |omega| > 1e4) or a ConsistencyError is raised.  Valid for every
    finite tau up to ~1.8e15; above, beta rounds to 1 and DomainError is
    raised.
    """
    tau = float(tau)  # a numpy tau answers a float, as on two cuts
    sup = support(tau)
    if sup.regime is Regime.INTERMEDIATE:
        return (1.0 + tau) * math.log(2.0)
    if sup.regime is Regime.ATTRACTIVE:
        return ((1.0 + tau) * math.log(2.0) - math.log(sup.beta) + 1.0 + tau
                - tau * math.log(1.0 + sup.kc))
    value, check = _omega_repulsive(tau)
    # Both routes sum terms of size ~tau: past |omega| = 1e4 (tau ~ 3.3e4)
    # the gate is relative, 1e-12, about 900 times their largest measured
    # relative spread (1.1e-15 over 3000 log-uniform tau up to 3.4e10).
    if abs(value - check) > max(1e-8, 1e-12 * abs(value)):
        raise ConsistencyError(
            f"omega routes disagree at tau={tau!r}: theta {value!r} "
            f"vs integral {check!r}")
    return value


def report(tau: float) -> EquilibriumReport:
    """Bundle regime, endpoint and equilibrium constant for one tau."""
    sup = support(tau)
    return EquilibriumReport(tau=float(tau), regime=sup.regime,
                             beta=sup.beta, omega=omega(tau))
