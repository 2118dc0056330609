"""Series and integral routes to the two-cut equilibrium constant.

The equilibrium constant in the repulsive regime has no closed form.
`omega` answers by a single integral on the theta rule (in `equilibrium`)
and checks it against the direct double-integral route here,
`omega_integral`, at every tau.  The convergent power series in beta^2,
whose coefficients c_k are moments of sqrt((1 - beta^2 s^2)/(1 - s^2)), is
a third, independent route: `logeq omega --method series` and the tests
read it, `omega` does not.

Coefficients come from Miller's backward run of their three-term
recurrence, normalised by the closed forms of c_0 and c_1; direct
quadrature of the defining integral gates those two closed forms and is
the in-package reference for every c_k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import gl_map, graded_rule
from .equilibrium import Regime, classify_regime, support
from .errors import ConsistencyError, DomainError
from .specfun import _theta_nodes, complete_E

# Relative tolerance at which a closed-form coefficient is declared
# inconsistent with its defining integral.
_COEFF_RTOL = 1e-8

# Longest backward run c_recurrence takes on.  omega_series needs ~40 000
# steps at its term budget; a loose tolerance at large tau would ask for
# millions (-39/log(beta) past K) with only a few terms to sum.
_RECURRENCE_MAX_STEPS = 100_000

# Largest term count omega_series takes on.  Its estimate is 6 636 at
# tau = 100 and grows like 1/(1 - beta^2), as does the length of the
# backward recurrence behind it (~20 ms at tau = 100 on a 2-vCPU machine).
_SERIES_MAX_TERMS = 10_000


@dataclass(frozen=True, eq=False)
class CoeffTable:
    """Coefficients c_0..c_K of the moment sequence at a fixed beta.

    c_k = integral_0^1 sqrt((1 - beta^2 s^2)/(1 - s^2)) s^k ds.  The table
    validates its own structure on construction: c_0 must equal E(beta),
    all entries are positive, and the sequence decreases in steps of two
    (the integrand is monotone in s^k on [0, 1]).
    """

    beta: float
    values: np.ndarray
    K: int

    def __post_init__(self):
        v = self.values
        if len(v) != self.K + 1:
            raise ConsistencyError(f"coefficient table length {len(v)} != K+1 = {self.K + 1}")
        if abs(v[0] - complete_E(self.beta)) > 1e-12:
            raise ConsistencyError(
                f"c_0 = {v[0]!r} does not equal E({self.beta!r}) = {complete_E(self.beta)!r}")
        if not np.all(v > 0.0):
            raise ConsistencyError("coefficient table contains non-positive entries")
        if not np.all(v[2:] < v[:-2]):
            raise ConsistencyError("coefficient table violates c_{k+2} < c_k")


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus truncation diagnostics."""

    value: float
    terms_used: int
    last_term: float


def c_quadrature(beta: float, k: int) -> float:
    """Direct quadrature of c_k: ground truth for the other routes.

    Substituting s = sin(theta) removes the endpoint singularity, leaving
    the entire integrand sqrt(1 - beta^2 sin^2 theta) sin^k theta on
    [0, pi/2].  The order grows with k because sin^k concentrates its mass
    in a window of width ~ 1/sqrt(k) at pi/2.
    """
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta={beta!r} outside [0, 1)")
    if k < 0:
        raise DomainError(f"k={k!r} must be nonnegative")
    order = 128 if k <= 200 else 256
    theta, w = gl_map(0.0, 0.5 * math.pi, order)
    s = np.sin(theta)
    return float(np.sum(w * np.sqrt(1.0 - (beta * s) ** 2) * s ** k))


def check_initial_coeff(beta: float, k: int, value: float) -> float:
    """Gate a closed-form coefficient value against direct quadrature.

    Returns the value if it matches c_quadrature(beta, k) to relative
    1e-8, otherwise raises ConsistencyError.  This is the guard that keeps
    a wrong closed form (for instance a mistranscribed c_1) out of the
    series machinery.
    """
    ref = c_quadrature(beta, k)
    if abs(value - ref) > _COEFF_RTOL * max(1.0, abs(ref)):
        raise ConsistencyError(
            f"closed-form c_{k}({beta!r}) = {value!r} disagrees with its "
            f"defining integral {ref!r}")
    return value


def c_init(beta: float, kc: float, tau: float) -> tuple[float, float]:
    """Closed forms for c_0 and c_1, each gated against quadrature.

    Requires tau and beta to describe the same equilibrium, i.e.
    E(beta) = 1 + 1/tau within 1e-9; kc = sqrt(1 - beta^2) is its
    `Support.kc`.  Note the logarithm coefficient in c_1 is kc^2/(4 beta):
    the 1/4 is forced by the beta -> 0 limit c_1 -> 1.
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta={beta!r} outside (0, 1)")
    if abs(complete_E(beta) - (1.0 + 1.0 / tau)) > 1e-9:
        raise DomainError(
            f"tau={tau!r} and beta={beta!r} are inconsistent: "
            f"E(beta)={complete_E(beta)!r} != 1 + 1/tau = {1.0 + 1.0 / tau!r}")
    c0 = complete_E(beta)
    # log((1+b)/(1-b)) = 2 atanh(b), |1/4 coefficient| -> 1/2 atanh prefactor.
    c1 = 0.5 + kc * kc / (2.0 * beta) * math.atanh(beta)
    for k, val in ((0, c0), (1, c1)):
        check_initial_coeff(beta, k, val)
    return c0, c1


def c_recurrence(beta: float, kc: float, tau: float, K: int) -> CoeffTable:
    """Coefficient table c_0..c_K by Miller's backward recurrence.

    c_k is the minimal solution of

        beta^2 (k+3) c_{k+2} = [k + beta^2 (k+2)] c_k - (k-1) c_{k-2}:

    the other solution grows like beta^-k, so run forward the recurrence
    gains ~1/beta^2 of roundoff per step.  Run backward it divides only by
    k - 1 and is stable at every beta (W. Gautschi, "Computational aspects
    of three-term recurrence relations", SIAM Review 9, 1967).  It runs on
    the differences d_k = c_k - c_{k+2} > 0,

        (k-1) d_{k-2} = kc^2 c_k + beta^2 (k+3) d_k,   kc^2 = 1 - beta^2,
        c_{k-2} = c_k + d_{k-2},

    where every term is positive: nothing cancels as beta -> 1, where the
    three-term form loses up to 1e-11 relative (tau = 100).  Each parity
    chain starts from c_{N+2} = 0, c_N = 1 at an N where the other solution
    has fallen below 1e-17 of c_k for every k <= K, and is scaled by its
    first entry from c_init: c_0 = E(beta) and the closed c_1.  A run
    longer than 100 000 steps (beta near 1) raises DomainError.
    """
    if K < 3:
        raise DomainError(f"K={K!r} must be at least 3")
    c0, c1 = c_init(beta, kc, tau)
    n = K + 40 + math.ceil(math.log(1e-17) / math.log(beta))
    if n > _RECURRENCE_MAX_STEPS:
        raise DomainError(
            f"c_recurrence needs {n} steps at beta={beta!r}, K={K!r}, over its "
            f"budget of {_RECURRENCE_MAX_STEPS}; use c_quadrature")
    b2, kc2 = beta * beta, kc * kc
    c = [1.0] * (n + 1)
    d = [1.0] * (n + 1)
    for k in range(n, 1, -1):
        d[k - 2] = (kc2 * c[k] + b2 * (k + 3) * d[k]) / (k - 1)
        c[k - 2] = c[k] + d[k - 2]
    values = np.array(c[:K + 1])
    values[0::2] *= c0 / values[0]
    values[1::2] *= c1 / values[1]
    return CoeffTable(beta=beta, values=values, K=K)


def _series_prefactor(beta: float, kc: float, tau: float) -> float:
    # (1 - beta)/(1 + beta) = kc^2/(1 + beta)^2
    return 0.5 * (1.0 + tau) * (math.log(4.0 / (kc * kc))
                                + 2.0 * beta * math.log(kc / (1.0 + beta)))


def omega_series(tau: float, tol: float) -> SeriesResult:
    """Equilibrium constant by its power series in beta^2.

    value = (1+tau)/2 log(4/(1-beta^2) ((1-beta)/(1+beta))^beta)
            + tau sum_{k>=1} c_{2k-1} c_{2k} beta^{2k}.

    Terms are positive and decay at least geometrically with ratio beta^2,
    so the tail after a term is at most last_term * beta^2 / (1 - beta^2);
    the sum stops once both that bound and the last term are below tol.
    The coefficients come from c_recurrence at every beta.  The number of
    terms, and the length of that recurrence, grow like 1/(1 - beta^2):
    past 10 000 terms (tau above ~140) DomainError points to omega_integral.
    A sum still short of tol after those terms raises ConsistencyError.
    """
    if classify_regime(tau) is not Regime.REPULSIVE:
        raise DomainError(f"omega_series requires tau > 2/(pi-2), got {tau!r}")
    if not 1e-14 <= tol < math.inf:
        raise DomainError(f"tol={tol!r} is not finite or below the attainable floor 1e-14")
    sup = support(tau)
    beta, kc = sup.beta, sup.kc
    b2 = beta * beta
    # a term times this is the larger of the term and the tail bound after it
    tail = max(1.0, b2 / (kc * kc))
    # Geometric bound on the index where that drops below tol for
    # tau c_{2k-1} c_{2k} beta^{2k} (coefficients are bounded by c_1 c_2 < 2.5).
    k_max = max(3, math.ceil(math.log(tol / (2.5 * tau * tail)) / (2.0 * math.log(beta))) + 8)
    if k_max > _SERIES_MAX_TERMS:
        raise DomainError(
            f"omega_series needs ~{k_max} terms at tau={tau!r} (beta^2={b2!r}), "
            f"over its budget of {_SERIES_MAX_TERMS}; use omega_integral")
    c = c_recurrence(beta, kc, tau, 2 * k_max).values
    total = _series_prefactor(beta, kc, tau)
    pw = 1.0
    for k in range(1, k_max + 1):
        pw *= b2
        term = float(tau * c[2 * k - 1] * c[2 * k] * pw)
        total += term
        if term * tail < tol:
            return SeriesResult(value=float(total), terms_used=k, last_term=term)
    # CoeffTable has checked c_{2k-1} c_{2k} <= c_1 c_0 <= pi/2, inside the
    # bound behind k_max: a sum still short of tol is a fault, not a case.
    raise ConsistencyError(
        f"omega_series did not reach tol={tol!r} in {k_max} terms at tau={tau!r}")


# The outer nodes of omega_integral for one panel count of u, x = 1 + u^2
# on [1, 2] and x = 1/t on [2, inf), as what its integrands read: x - 1 on
# both ranges, u^2, 1 + u^2, sqrt(2 + u^2), u sqrt(2 + u^2) = sqrt(x^2 - 1),
# 2 w_u, 2 w_u u, t, w_t and sqrt(1 - t^2) (read-only arrays).
_OuterRule = namedtuple("_OuterRule", "x_minus_1 u2 x_a sq u_sq w2 w2u t w_t s1")


@lru_cache(maxsize=32)
def _outer_rule(n_panels: int) -> _OuterRule:
    u, w_u = graded_rule(1.0, n_panels, 16)
    t, w_t = gl_map(0.0, 0.5, 64)
    u2 = u * u
    sq = np.sqrt(2.0 + u2)
    rule = _OuterRule(np.concatenate((u2, 1.0 / t - 1.0)), u2, 1.0 + u2, sq, u * sq,
                      w_u * 2.0, w_u * 2.0 * u, t, w_t, np.sqrt(1.0 - t * t))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def omega_integral(tau: float) -> float:
    """Equilibrium constant by the direct double-integral route.

    omega = W1 + W2 with

      W1 = tau (1-beta^2)/2 * int_1^inf J0(x) / (sqrt(x^2-1)
             (sqrt(x^2-1) + sqrt(x^2-beta^2))) dx,
      W2 = tau beta/2 * int_1^inf J1(x) / x dx,

    where Jm(x) = int_{-1}^{1} sqrt((1-beta^2 s^2)/(1-s^2)) s^m/(x - beta s) ds.

    Under s = sin(theta) the inner integrals lose their endpoint
    singularity, and each half of [-pi/2, pi/2] is taken in the distance
    phi to its end, so that 1 - beta^2 s^2 and x - beta s are sums of
    nonnegative terms built from 1 - beta = kc^2/(1 + beta) (`Support.kc`),
    x - 1 and phi: nothing cancels as x -> 1 and beta -> 1.  The outer
    integrals are split at x = 2: on [1, 2] the substitution x = 1 + u^2
    absorbs the 1/sqrt(x^2-1) edge, and on [2, inf) the map t = 1/x
    compactifies the tail.  The integrands
    keep layers of width sqrt(1 - beta) at u = 0 and phi = 0, where both
    rules put geometric panels.  Within 1.5e-15 relative of `omega`'s
    theta formula from TAU_CRITICAL to 1e14 (beta up to 1 - 5.5e-16).
    """
    if classify_regime(tau) is not Regime.REPULSIVE:
        raise DomainError(f"omega_integral requires tau > 2/(pi-2), got {tau!r}")
    sup = support(tau)
    beta, kc = sup.beta, sup.kc
    delta = 2.0 * sup.half_length  # 1 - beta, from kc
    # Inner rule: phi in [0, pi/2] for each half, theta = +-(pi/2 - phi).
    nodes = _theta_nodes(beta, kc)
    w_root = nodes.w * nodes.root(beta, kc)
    w_root = np.concatenate((w_root, w_root))
    gap = delta + beta * nodes.one_minus_s  # x - beta sin(theta) at x = 1

    # Outer nodes: the u panels halve until the innermost is below the
    # layer width sqrt(1 - beta).
    o = _outer_rule(math.ceil(-0.5 * math.log2(delta)))
    # Row sums, not a matrix product: BLAS would add its buffers to the RSS.
    kernel = w_root / (o.x_minus_1[:, None] + gap)
    j0, j1 = kernel.sum(axis=1), (kernel * nodes.sin_s).sum(axis=1)
    n = o.u2.size
    j0a, j1a, j0b, j1b = j0[:n], j1[:n], j0[n:], j1[n:]

    # sqrt(x^2 - beta^2) from x - beta = u^2 + 1 - beta
    w1a = (o.w2 * j0a / (o.sq * (o.u_sq + np.sqrt((o.u2 + delta) * (o.x_a + beta))))).sum()
    s2 = np.sqrt(1.0 - (beta * o.t) ** 2)
    w1b = (o.w_t * j0b / (o.s1 * (o.s1 + s2))).sum()
    w1 = 0.5 * tau * kc * kc * (w1a + w1b)
    # J1(x)/x dx is 2u J1(1 + u^2)/(1 + u^2) du, and J1(1/t)/t dt on the tail.
    w2a = (o.w2u * j1a / o.x_a).sum()
    w2b = (o.w_t * j1b / o.t).sum()
    w2 = 0.5 * tau * beta * (w2a + w2b)
    return float(w1 + w2)
