"""Series and integral routes to the two-cut equilibrium constant.

The equilibrium constant in the repulsive regime has no closed form.  Two
independent evaluations are provided: a convergent power series in beta^2
whose coefficients c_k are moments of sqrt((1 - beta^2 s^2)/(1 - s^2)), and
a direct double-integral route.  Their agreement is the main correctness
check for this regime.

Coefficients come from three mutually checking sources: a three-term
recurrence (fast, but unstable forward for small beta), a Gauss
hypergeometric closed form, and direct quadrature of the defining integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import composite_nodes, geometric_breaks, gl_map
from .equilibrium import Regime, classify_regime, solve_beta_repulsive
from .errors import ConsistencyError, DomainError
from .specfun import complete_E, complete_K, hyp2F1_ck

# Relative tolerance at which two coefficient routes are declared
# inconsistent (the constructor gate and the recurrence checkpoints).
_COEFF_RTOL = 1e-8

# The recurrence divides by beta^2; at or below this beta^2 the closed form
# gives the coefficients instead.
_RECURRENCE_MIN_B2 = 1e-10

# Largest term count omega_series takes on.  Its estimate is 6 636 at
# tau = 100 and grows like 1/(1 - beta^2), as does the cost of each
# closed-form coefficient (14 s at tau = 100 on a 2-vCPU machine).
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


def c_init(beta: float, tau: float) -> tuple[float, float, float]:
    """Closed forms for c_0, c_1, c_2, each gated against quadrature.

    Requires tau and beta to describe the same equilibrium, i.e.
    E(beta) = 1 + 1/tau within 1e-9.  Note the logarithm coefficient in
    c_1 is (1 - beta^2)/(4 beta): the 1/4 is forced by both the beta -> 0
    limit c_1 -> 1 and the hypergeometric closed form.
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta={beta!r} outside (0, 1)")
    if abs(complete_E(beta) - (1.0 + 1.0 / tau)) > 1e-9:
        raise DomainError(
            f"tau={tau!r} and beta={beta!r} are inconsistent: "
            f"E(beta)={complete_E(beta)!r} != 1 + 1/tau = {1.0 + 1.0 / tau!r}")
    b2 = beta * beta
    e, kk = complete_E(beta), complete_K(beta)
    c0 = e
    # log((1+b)/(1-b)) = 2 atanh(b), |1/4 coefficient| -> 1/2 atanh prefactor.
    c1 = 0.5 + (1.0 - b2) / (2.0 * beta) * math.atanh(beta)
    # The E/K form of c_2 divides an O(beta^2) combination of O(1) terms by
    # 3 beta^2, losing ~16 - 2 log10(1/beta) digits; below beta = 0.02 the
    # equivalent hypergeometric form is used instead.
    if beta >= 0.02:
        c2 = ((2.0 * b2 - 1.0) * e + (1.0 - b2) * kk) / (3.0 * b2)
    else:
        c2 = c_closed_form(beta, 2)
    for k, val in ((0, c0), (1, c1), (2, c2)):
        check_initial_coeff(beta, k, val)
    return c0, c1, c2


def c_closed_form(beta: float, k: int) -> float:
    """Hypergeometric closed form for c_k, stable at every k.

    c_k = sqrt(pi) Gamma((k+1)/2) / (2 Gamma(k/2 + 1)) * 2F1(-1/2, (k+1)/2;
    k/2 + 1; beta^2); the Gamma ratio is evaluated in log space.
    """
    pref = math.exp(0.5 * math.log(math.pi) + math.lgamma(0.5 * (k + 1))
                    - math.log(2.0) - math.lgamma(0.5 * k + 1.0))
    return pref * hyp2F1_ck(k, beta * beta)


def c_recurrence(beta: float, tau: float, K: int) -> CoeffTable:
    """Coefficient table c_0..c_K by forward three-term recurrence.

    The recurrence is exact but amplifies roundoff by a factor ~ 1/beta^2
    per step, so every 10th coefficient is checkpointed against the
    hypergeometric closed form at relative 1e-8.  A failed checkpoint
    invalidates its whole unvalidated block (error growth is monotone
    across a block, so the checkpoint is the block's worst entry only when
    it passes); from the start of that block onward the table is filled
    directly from the closed form instead.
    """
    if K < 3:
        raise DomainError(f"K={K!r} must be at least 3")
    b2 = beta * beta
    if b2 <= _RECURRENCE_MIN_B2:
        raise DomainError(
            f"beta={beta!r} too small for the recurrence (divides by beta^2); "
            "use the closed form or quadrature instead")
    c = np.empty(K + 1)
    c[0], c[1], c[2] = c_init(beta, tau)
    if K >= 3:
        c[3] = ((1.0 + 3.0 * b2) * c[1] - 1.0) / (4.0 * b2)
    fallback_from = None
    for k in range(2, K - 1):
        # beta^2 (k+3) c_{k+2} = [k + beta^2 (k+2)] c_k - (k-1) c_{k-2}
        c[k + 2] = ((k + b2 * (k + 2)) * c[k] - (k - 1) * c[k - 2]) / (b2 * (k + 3))
        if (k + 2) % 10 == 0:
            ref = c_closed_form(beta, k + 2)
            if abs(c[k + 2] - ref) > _COEFF_RTOL * abs(ref):
                fallback_from = k + 2 - 9
                break
    if fallback_from is not None:
        for j in range(fallback_from, K + 1):
            c[j] = c_closed_form(beta, j)
    return CoeffTable(beta=beta, values=c, K=K)


def _series_prefactor(beta: float, tau: float) -> float:
    b2 = beta * beta
    return 0.5 * (1.0 + tau) * (math.log(4.0 / (1.0 - b2))
                                + beta * math.log((1.0 - beta) / (1.0 + beta)))


def omega_series(tau: float, tol: float) -> SeriesResult:
    """Equilibrium constant by its power series in beta^2.

    value = (1+tau)/2 log(4/(1-beta^2) ((1-beta)/(1+beta))^beta)
            + tau sum_{k>=1} c_{2k-1} c_{2k} beta^{2k}.

    Terms are positive and decay at least geometrically with ratio beta^2,
    so the tail after a term is at most last_term * beta^2 / (1 - beta^2);
    the sum stops once both that bound and the last term are below tol.
    The coefficients come from the recurrence, or from the closed form where
    beta^2 <= 1e-10.  The number of terms grows like 1/(1 - beta^2): past
    10 000 of them (tau above ~140) DomainError points to omega_integral.
    """
    if classify_regime(tau) is not Regime.REPULSIVE:
        raise DomainError(f"omega_series requires tau > 2/(pi-2), got {tau!r}")
    if tol < 1e-14:
        raise DomainError(f"tol={tol!r} below the attainable floor 1e-14")
    beta = solve_beta_repulsive(tau)
    b2 = beta * beta
    # a term times this is the larger of the term and the tail bound after it
    tail = max(1.0, b2 / (1.0 - b2))
    # Geometric bound on the index where that drops below tol for
    # tau c_{2k-1} c_{2k} beta^{2k} (coefficients are bounded by c_1 c_2 < 2.5).
    k_max = max(3, math.ceil(math.log(tol / (2.5 * tau * tail)) / (2.0 * math.log(beta))) + 8)
    total = _series_prefactor(beta, tau)
    while True:
        if k_max > _SERIES_MAX_TERMS:
            raise DomainError(
                f"omega_series needs ~{k_max} terms at tau={tau!r} (beta^2={b2!r}), "
                f"over its budget of {_SERIES_MAX_TERMS}; use omega_integral")
        if b2 <= _RECURRENCE_MIN_B2:
            c = [c_closed_form(beta, j) for j in range(2 * k_max + 1)]
        else:
            c = c_recurrence(beta, tau, 2 * k_max).values
        term = math.inf
        pw = 1.0
        k = 0
        while k < k_max:
            k += 1
            pw *= b2
            term = float(tau * c[2 * k - 1] * c[2 * k] * pw)
            total += term
            if term * tail < tol:
                return SeriesResult(value=float(total), terms_used=k, last_term=term)
        # The geometric estimate fell short (it never should by much);
        # restart with a larger table.
        total = _series_prefactor(beta, tau)
        k_max *= 2


@lru_cache(maxsize=64)
def _graded_rule(span: float, n_panels: int, order: int):
    """Gauss-Legendre nodes and weights on [0, span], in panels halving
    n_panels times toward 0 (read-only, cached)."""
    x, w = composite_nodes(geometric_breaks(0.0, span, toward=0.0, n_panels=n_panels), order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    nonnegative terms built from 1 - beta, x - 1 and phi: nothing cancels
    as x -> 1 and beta -> 1.  The outer integrals are split at x = 2: on
    [1, 2] the substitution x = 1 + u^2 absorbs the 1/sqrt(x^2-1) edge, and
    on [2, inf) the map t = 1/x compactifies the tail.  The integrands
    keep layers of width sqrt(1 - beta) at u = 0 and phi = 0, where both
    rules put geometric panels.  Relative error ~1e-14 for tau from
    TAU_CRITICAL to 1e5 (beta up to 1 - 1.4e-6); beta is solvable up to
    tau ~ 3.5e10.
    """
    if classify_regime(tau) is not Regime.REPULSIVE:
        raise DomainError(f"omega_integral requires tau > 2/(pi-2), got {tau!r}")
    beta = solve_beta_repulsive(tau)
    omb = 1.0 - beta
    # both rules halve their panels until the innermost is below the layer
    # width sqrt(1 - beta), which takes log2(span) + depth halvings
    depth = -0.5 * math.log2(omb)

    # Inner rule: phi in [0, pi/2] for each half, theta = +-(pi/2 - phi).
    phi, w_phi = _graded_rule(0.5 * math.pi, math.ceil(depth + math.log2(0.5 * math.pi)), 16)
    cos_phi = np.cos(phi)
    sin_s = np.concatenate((cos_phi, -cos_phi))
    # 1 - sin(theta) on the upper half and the lower half
    one_minus_s = np.concatenate((2.0 * np.sin(0.5 * phi) ** 2, 1.0 + cos_phi))
    root = np.sqrt(omb * (1.0 + beta) + (beta * np.sin(phi)) ** 2)
    w_root = np.tile(w_phi * root, 2)
    gap = omb + beta * one_minus_s  # x - beta sin(theta) at x = 1

    # Outer nodes: x = 1 + u^2 on [1, 2], x = 1/t on [2, inf).
    u, w_u = _graded_rule(1.0, math.ceil(depth), 16)
    t, w_t = gl_map(0.0, 0.5, 64)
    x_minus_1 = np.concatenate((u * u, 1.0 / t - 1.0))
    # Row sums, not a matrix product: BLAS would add its buffers to the RSS.
    kernel = w_root / (x_minus_1[:, None] + gap)
    j0, j1 = np.sum(kernel, axis=1), np.sum(kernel * sin_s, axis=1)
    j0a, j1a, j0b, j1b = j0[:u.size], j1[:u.size], j0[u.size:], j1[u.size:]

    x_a = 1.0 + u * u
    sq = np.sqrt(2.0 + u * u)
    # sqrt(x^2 - 1) = u sqrt(2 + u^2), sqrt(x^2 - beta^2) from x - beta = u^2 + 1 - beta
    w1a = np.sum(w_u * 2.0 * j0a / (sq * (u * sq + np.sqrt((u * u + omb) * (x_a + beta)))))
    s1 = np.sqrt(1.0 - t * t)
    s2 = np.sqrt(1.0 - (beta * t) ** 2)
    w1b = np.sum(w_t * j0b / (s1 * (s1 + s2)))
    w1 = 0.5 * tau * omb * (1.0 + beta) * (w1a + w1b)
    # J1(x)/x dx is 2u J1(1 + u^2)/(1 + u^2) du, and J1(1/t)/t dt on the tail.
    w2a = np.sum(w_u * 2.0 * u * j1a / x_a)
    w2b = np.sum(w_t * j1b / t)
    w2 = 0.5 * tau * beta * (w2a + w2b)
    return float(w1 + w2)
