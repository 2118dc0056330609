"""Independent verification oracles for the equilibrium solution.

Nothing in this module reuses the closed-form potential or the series
route it is checking: integrals are evaluated by singularity-aware
quadrature of the density, principal values by analytic subtraction, and
the equilibrium data (beta, omega) are rediscovered from the variational
definition alone by a discrete energy minimizer over the probability
simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve as linalg_solve

from ._quad import composite_nodes, geometric_breaks, gl_map
from .equilibrium import (Regime, Support, SupportShape, _density_offset,
                          cauchy, classify_regime, density, external_field,
                          omega, support)
from .errors import ConsistencyError, ConvergenceError, DomainError


@dataclass(frozen=True)
class GridMeasure:
    """Probability measure carried by a finite node grid on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n, w = self.nodes, self.weights
        if len(n) != len(w):
            raise ConsistencyError("nodes and weights differ in length")
        if np.any(w < 0.0):
            raise ConsistencyError("negative weight in grid measure")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ConsistencyError(f"weights sum to {float(np.sum(w))!r}, not 1")
        if np.any(np.diff(n) <= 0.0) or n[0] < -1.0 or n[-1] > 1.0:
            raise ConsistencyError("nodes must increase within [-1, 1]")


@dataclass(frozen=True)
class DiscreteSolution:
    """Output of the discrete energy minimizer."""

    measure: GridMeasure
    omega_est: float
    beta_est: float
    energy: float
    iterations: int
    energy_trace: tuple


@dataclass(frozen=True)
class VerificationReport:
    """Numerical residuals of the defining properties at one tau.

    All residuals are nonnegative when their computation succeeds;
    inequality_margin is signed (negative means the variational inequality
    is violated).  A component that fails to evaluate is reported as an
    infinity of the failing sign rather than raising.
    """

    tau: float
    mass_error: float
    flatness_error: float
    inequality_margin: float
    sp_error: float
    cross_route_omega_spread: float

    @property
    def passes(self) -> bool:
        spread_tol = 1e-8 if classify_regime(self.tau) is Regime.REPULSIVE else 1e-6
        return (self.mass_error <= 1e-8
                and self.flatness_error <= 1e-6
                and self.inequality_margin >= -1e-9
                and self.sp_error <= 1e-4
                and self.cross_route_omega_spread <= spread_tol)


# ---------------------------------------------------------------------------
# Principal values
# ---------------------------------------------------------------------------

def pv_integral(kernel: str, beta: float, x: float) -> float:
    """Principal value of a singular kernel integral over [-beta, beta].

    kernel "chebyshev": p.v. of 1/(sqrt(beta^2-y^2)(x-y)); the exact value
    is zero, and it is computed here (not asserted) by subtracting the
    constant 1/sqrt(beta^2-x^2), whose principal value against 1/(x-y) is
    log((beta+x)/(beta-x)), and integrating the rationalized remainder.

    kernel "full": p.v. of sqrt((1-y^2)/(beta^2-y^2))/(x-y); the
    value-matched multiple sqrt(1-x^2) of the Chebyshev kernel (principal
    value zero) is subtracted, and the remainder is regular:

        (x + y) / (sqrt(beta^2-y^2) (sqrt(1-y^2) + sqrt(1-x^2))).

    Both remainders lose the endpoint singularity under y = beta sin(theta).
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta={beta!r} outside (0, 1)")
    if not (-beta < x < beta):
        raise DomainError(f"x={x!r} outside the open interval (-{beta}, {beta})")
    theta, w = gl_map(-0.5 * math.pi, 0.5 * math.pi, 128)
    y = beta * np.sin(theta)
    rx = math.sqrt(beta * beta - x * x)
    if kernel == "chebyshev":
        # p.v. int dy/(sqrt(beta^2-y^2)(x-y))
        #   = log((beta+x)/(beta-x))/rx - int (x+y) dtheta / (rx (beta cos + rx))
        singular = math.log((beta + x) / (beta - x)) / rx
        smooth = np.sum(w * (x + y) / (rx * (beta * np.cos(theta) + rx)))
        return float(singular - smooth)
    if kernel == "full":
        s1x = math.sqrt(1.0 - x * x)
        return float(np.sum(w * (x + y) / (np.sqrt(1.0 - y * y) + s1x)))
    raise DomainError(f"unknown kernel {kernel!r}")


# ---------------------------------------------------------------------------
# Quadrature of the equilibrium measure
# ---------------------------------------------------------------------------

# Edge-rule breaks for span 1: times a span, geometric_breaks' floats for it.
_EDGE_BREAKS = geometric_breaks(0.0, 1.0, toward=0.0, n_panels=20)
_EDGE_BREAKS.flags.writeable = False

# Points per chunk of potential_quad, so its node arrays stay small.
_Z_CHUNK = 16


def _edge_segment(edge: float, inner):
    """Quadrature between a support edge and interior points (one row of
    nodes per point of `inner`), in the edge variable t with x = edge + s t^2,
    returned as (off, s, w) where off = t^2.  The offset is handed back
    instead of the abscissa so density and kernel values can be formed from
    it directly; building x first would round the offset away near the edge
    and lose the sliver there (which carries ~sqrt(off) of mass)."""
    inner = np.asarray(inner, float)
    s = np.where(inner > edge, 1.0, -1.0)[..., None]
    span = np.sqrt(np.abs(inner - edge))
    t, wt = composite_nodes(span[..., None] * _EDGE_BREAKS, 16)
    return t * t, s, 2.0 * t * wt


def _log_segment(x_star, other):
    """Nodes on [x_star, other] (either order; one row per pair) refined
    toward x_star, where the integrand carries the log(1/|z - x|)
    near-singularity.

    The refinement depth adapts to each segment so the innermost nodes stay
    representably distinct from x_star; for the very short segments that
    arise when z sits within ~1e-10 of a support edge the panels would
    otherwise shrink below the floating-point grid."""
    lo, hi = np.minimum(x_star, other), np.maximum(x_star, other)
    floor = 4096.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x_star))
    depth = np.log2(np.maximum(hi - lo, 2.0 * floor) / floor).astype(int)
    breaks = geometric_breaks(lo, hi, toward=x_star, n_panels=np.minimum(34, depth))
    return composite_nodes(breaks, 16)


def measure_quadrature(tau: float, f=None) -> complex | float:
    """Integral of f against the equilibrium measure, to ~1e-9.

    f is a vectorized callable of a real ndarray (default: constant 1, so
    the result is the total mass).  Substitutions absorb the edge behavior
    of the density: x = beta sin(theta) on the attractive cut,
    x = cos(phi) on the full interval, and on each repulsive piece the
    edge segments of potential_quad, split at the midpoint.
    """
    regime = classify_regime(tau)
    beta = support(tau).beta

    if f is None:
        f = lambda x: np.ones_like(x)

    if regime is Regime.ATTRACTIVE:
        theta, w = gl_map(-0.5 * math.pi, 0.5 * math.pi, 128)
        x = beta * np.sin(theta)
        jac = beta * np.cos(theta)
        total = np.sum(w * f(x) * density(tau, x) * jac)
    elif regime is Regime.INTERMEDIATE:
        phi, w = gl_map(0.0, math.pi, 128)
        x = np.cos(phi)
        # density * jacobian = (1+tau)/pi - (tau/2) sin(phi): no edge blowup
        total = np.sum(w * f(x) * ((1.0 + tau) / math.pi - 0.5 * tau * np.sin(phi)))
    else:
        total = 0.0
        for edge in (beta, 1.0):
            off, s, w = _edge_segment(edge, 0.5 * (beta + 1.0))
            x, rho = edge + s * off, _density_offset(tau, edge, off)
            total += np.sum(w * f(x) * rho) + np.sum(w * f(-x) * rho)
    total = complex(total)
    return total if total.imag != 0.0 else total.real


# ---------------------------------------------------------------------------
# Potential by quadrature
# ---------------------------------------------------------------------------

def _log_kernel_sums(tau: float, sup: Support, z: np.ndarray) -> np.ndarray:
    """Quadrature of log|z - x| against the measure, for each point of z (1-D)."""
    total = np.zeros(z.shape)
    x_re, zc = z.real, z[:, None]
    for lo, hi in sup.pieces:
        inside = (lo < x_re) & (x_re < hi)
        mid = 0.5 * (lo + hi)
        m_l = np.where(inside, 0.5 * (lo + x_re), mid)
        m_r = np.where(inside, 0.5 * (x_re + hi), mid)
        for edge, inner in ((lo, m_l), (hi, m_r)):
            off, s, w = _edge_segment(edge, inner)
            rho = _density_offset(tau, edge, off)
            total += np.sum(w * rho * np.log(np.abs((zc - edge) - s * off)), axis=-1)
        if not np.any(inside):
            continue
        zi, x_star = zc[inside], x_re[inside]
        # Flooring the distance at a couple of ulps only matters when a
        # node rounds onto z itself; the true contribution of that node's
        # panel is below the floor's error.
        floor = 2.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(zi))
        for other in (m_l[inside], m_r[inside]):
            x, w = _log_segment(x_star, other)
            d = np.maximum(np.abs(zi - x), floor)
            total[inside] += np.sum(w * density(tau, x) * np.log(d), axis=-1)
    return total


def potential_quad(tau: float, z):
    """Logarithmic potential of the equilibrium measure, by quadrature only.

    z is a finite point (giving a float) or an array of them (giving an
    array of its shape).  Splits each support piece at the projection of z
    when that falls inside (the integrable log singularity), applies
    square-root substitutions at the edges, and refines panels
    geometrically toward both kinds of difficulty.  Accuracy ~1e-9 against
    a 1e-7 contract.  Works in every regime; this is the verification route
    for the closed forms (and the only potential route in the repulsive
    regime).
    """
    z = np.asarray(z, dtype=complex)
    bad = z[~np.isfinite(z)]
    if bad.size:
        raise DomainError(f"potential_quad needs finite points, got z={complex(bad[0])!r}")
    sup, flat = support(tau), z.ravel()
    out = np.empty(flat.shape)
    for i in range(0, flat.size, _Z_CHUNK):
        out[i:i + _Z_CHUNK] = -_log_kernel_sums(tau, sup, flat[i:i + _Z_CHUNK])
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


# ---------------------------------------------------------------------------
# Discrete energy minimizer
# ---------------------------------------------------------------------------

def _interaction_matrix(nodes: np.ndarray) -> np.ndarray:
    """Discrete logarithmic interaction with regularized diagonal.

    Off the diagonal A_ij = log(1/|x_i - x_j|).  The diagonal uses the
    exact self-energy of a uniform unit charge on the node's own cell of
    width h, which is log(1/h) + 3/2: without it the quadratic form is
    indefinite on the simplex and the minimizer collapses onto spikes.
    """
    n = len(nodes)
    diff = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(diff, 1.0)
    a = -np.log(diff)
    h = np.empty(n)
    h[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    h[0] = 0.5 * (nodes[1] - nodes[0])
    h[-1] = 0.5 * (nodes[-1] - nodes[-2])
    np.fill_diagonal(a, -np.log(h) + 1.5)
    return a


def _corrective_solve(a, b, active, w, energy):
    """Equality-constrained Newton step on the active set.

    Solves the KKT system for min w'Aw + 2b'w s.t. sum w = 1 restricted to
    the active nodes, dropping any that go negative; returns an improved
    (w, energy) or None if the solve is infeasible or not an improvement.
    """
    active = np.flatnonzero(active)
    while len(active) >= 2:
        m = len(active)
        kkt = np.empty((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * a[np.ix_(active, active)]
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        kkt[m, m] = 0.0
        rhs = np.empty(m + 1)
        rhs[:m] = -2.0 * b[active]
        rhs[m] = 1.0
        try:
            sol = linalg_solve(kkt, rhs, assume_a="sym")
        except Exception:
            return None
        w_s = sol[:m]
        if np.all(w_s >= -1e-15):
            w_new = np.zeros_like(w)
            w_new[active] = np.clip(w_s, 0.0, None)
            w_new /= np.sum(w_new)
            e_new = float(w_new @ (a @ w_new) + 2.0 * (b @ w_new))
            if e_new <= energy + 1e-12:
                return w_new, e_new
            return None
        keep = w_s > -1e-15
        if np.all(keep):
            return None
        active = active[keep]
    return None


def discrete_minimize(tau: float, n_nodes: int, max_iters: int) -> DiscreteSolution:
    """Minimize the discrete weighted energy over the probability simplex.

    Nodes are Chebyshev-Lobatto points on [-1, 1].  The objective
    w'Aw + 2 b'w (A the regularized log interaction, b the external field
    at the nodes) is minimized by pairwise Frank-Wolfe steps with exact
    line search, with periodic fully-corrective KKT solves on the carrying
    set.  Terminates when the Frank-Wolfe duality gap drops below 1e-6;
    raises ConvergenceError if max_iters steps do not get there.

    omega_est is the minimum of the discrete total potential over carrying
    nodes, matching the equality branch of the variational conditions, and
    beta_est is the carrying node closest to the support edge implied by
    the regime (outermost for one-cut, innermost gap edge for two-cut).
    """
    if n_nodes < 100:
        raise DomainError(f"n_nodes={n_nodes!r} too coarse; need at least 100")
    if max_iters < 1:
        raise DomainError("max_iters must be positive")
    regime = classify_regime(tau)
    j = np.arange(n_nodes, dtype=float)
    nodes = np.sort(np.cos(math.pi * j / (n_nodes - 1)))
    nodes[0], nodes[-1] = -1.0, 1.0
    a = _interaction_matrix(nodes)
    b = np.array([external_field(tau, x) for x in nodes])

    w = np.full(n_nodes, 1.0 / n_nodes)
    grad = 2.0 * (a @ w + b)
    energy = float(w @ (a @ w) + 2.0 * (b @ w))
    trace = [energy]
    gap_tol = 1e-6
    corrective_at = {200, 700, 1500, 2600, 4000}
    gap = math.inf
    iters_done = 0

    for it in range(1, max_iters + 1):
        iters_done = it
        gap = float(grad @ w - np.min(grad))
        if gap <= gap_tol:
            break
        if it % 250 == 0:
            grad = 2.0 * (a @ w + b)
            energy = float(w @ (a @ w) + 2.0 * (b @ w))
        if it in corrective_at or (it == max_iters and gap > gap_tol):
            improved = _corrective_solve(a, b, w > 1e-14, w, energy)
            if improved is not None:
                w, energy = improved
                grad = 2.0 * (a @ w + b)
                trace.append(energy)
                gap = float(grad @ w - np.min(grad))
                if gap <= gap_tol:
                    break
                continue
        s = int(np.argmin(grad))
        carrying = w > 0.0
        masked = np.where(carrying, grad, -np.inf)
        v = int(np.argmax(masked))
        d_grad = grad[s] - grad[v]
        if d_grad >= 0.0:
            # s is already the worst direction among carriers: stationary
            # up to the gap measure; let the gap check conclude.
            trace.append(energy)
            continue
        q = a[s, s] + a[v, v] - 2.0 * a[s, v]
        if q <= 0.0:
            t = w[v]
        else:
            t = min(max(-d_grad / (2.0 * q), 0.0), w[v])
        # exact energy decrement for the pairwise move t (e_s - e_v)
        energy += t * d_grad + t * t * q
        w[s] += t
        w[v] -= t
        if w[v] < 1e-17:
            w[v] = 0.0
        grad += 2.0 * t * (a[:, s] - a[:, v])
        trace.append(energy)

    if gap > gap_tol:
        raise ConvergenceError(
            f"Frank-Wolfe gap {gap:.3e} still above {gap_tol:g} after "
            f"{iters_done} iterations (tau={tau!r}, n={n_nodes})")

    grad = 2.0 * (a @ w + b)
    energy = float(w @ (a @ w) + 2.0 * (b @ w))
    carrying = w > 10.0 / n_nodes ** 2
    pot = 0.5 * grad  # A w + b: discrete total potential at the nodes
    omega_est = float(np.min(pot[carrying]))
    carried = np.abs(nodes[carrying])
    if regime is Regime.REPULSIVE:
        beta_est = float(np.min(carried))
    else:
        beta_est = float(np.max(carried))
    w = np.clip(w, 0.0, None)
    w /= np.sum(w)
    return DiscreteSolution(
        measure=GridMeasure(nodes=nodes, weights=w),
        omega_est=omega_est, beta_est=beta_est, energy=energy,
        iterations=iters_done, energy_trace=tuple(trace))


# ---------------------------------------------------------------------------
# Full verification sweep
# ---------------------------------------------------------------------------

# Offsets of the boundary values in _sp_density, in units of its scale h,
# and the weights of the quadratic extrapolation from them to eps = 0.
_SP_EPS = (1e-3, 1e-4, 1e-5)
_SP_WEIGHTS = tuple(math.prod((0.0 - e) / (e_i - e) for e in _SP_EPS if e != e_i)
                    for e_i in _SP_EPS)


def _sp_density(tau: float, x: float) -> float:
    """Density recovered from one-sided Cauchy boundary values.

    Evaluates -Im C(x + i eps)/pi on eps = (1e-3, 1e-4, 1e-5) h and removes
    the eps dependence by quadratic extrapolation to eps = 0.  The scale
    h = min(1, w/2) follows the width w of the support piece holding x:
    fixed offsets reach past the range where the quadratic model holds
    once the pieces get narrow (two-cut tau above ~8.7, one-cut tau near
    -1e8).
    """
    h = min(1.0, 0.5 * next(hi - lo for lo, hi in support(tau).pieces if lo < x < hi))
    vals = [-cauchy(tau, complex(x, e * h)).imag / math.pi for e in _SP_EPS]
    return sum(li * v for li, v in zip(_SP_WEIGHTS, vals))


def _support_grid(sup: Support, n_total: int, inset_frac: float) -> np.ndarray:
    pieces = sup.pieces
    per = n_total // len(pieces)
    pts = []
    for lo, hi in pieces:
        ins = inset_frac * (hi - lo)
        pts.append(np.linspace(lo + ins, hi - ins, per))
    return np.concatenate(pts)


def _gap_grid(tau: float, sup: Support, n_total: int) -> np.ndarray:
    """Off-support probe points, inset from soft edges where the margin
    vanishes with a 3/2 power (the inset keeps it above quadrature noise)."""
    beta = sup.beta
    if sup.shape is SupportShape.ONE_CUT:
        ins = 1e-3 * (1.0 - beta)
        half = n_total // 2
        right = np.linspace(beta + ins, 1.0, half)
        return np.concatenate([-right[::-1], right])
    ins = 1e-3 * (2.0 * beta)
    return np.linspace(-beta + ins, beta - ins, n_total)


def verify(tau: float) -> VerificationReport:
    """Check the defining properties of the computed equilibrium at tau.

    Every component uses an evaluation route independent of the closed
    forms it checks (quadrature of the density, boundary-value
    extrapolation, series-vs-integral spread).  Components that raise are
    recorded as infinities; this function does not throw.
    """
    regime = classify_regime(tau)
    sup = support(tau)

    try:
        mass_error = abs(float(measure_quadrature(tau)) - 1.0)
    except Exception:
        mass_error = math.inf

    try:
        w = omega(tau)
        xs = _support_grid(sup, 200, 1e-3)
        field = [external_field(tau, x) for x in xs]
        flatness_error = np.max(np.abs(potential_quad(tau, xs) + field - w))
    except Exception:
        flatness_error = math.inf

    try:
        if regime is Regime.INTERMEDIATE:
            inequality_margin = 0.0
        else:
            w = omega(tau)
            xs = _gap_grid(tau, sup, 200)
            field = [external_field(tau, x) for x in xs]
            inequality_margin = np.min(potential_quad(tau, xs) + field - w)
    except Exception:
        inequality_margin = -math.inf

    try:
        xs = _support_grid(sup, 20, 0.05)
        sp_error = max(abs(_sp_density(tau, x) - density(tau, x)) for x in xs)
    except Exception:
        sp_error = math.inf

    try:
        if regime is Regime.REPULSIVE:
            from .series import omega_integral, omega_series
            cross = abs(omega_series(tau, 1e-12).value - omega_integral(tau))
        else:
            lo, hi = sup.pieces[0]
            x0 = lo + 0.55 * (hi - lo)
            cross = abs(potential_quad(tau, x0) + external_field(tau, x0) - omega(tau))
    except Exception:
        cross = math.inf

    return VerificationReport(
        tau=float(tau), mass_error=float(mass_error),
        flatness_error=float(flatness_error),
        inequality_margin=float(inequality_margin),
        sp_error=float(sp_error), cross_route_omega_spread=float(cross))
