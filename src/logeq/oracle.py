"""Independent verification oracles for the equilibrium solution.

Nothing in this module reuses the closed-form potential or the series
route it is checking: integrals are evaluated by singularity-aware
quadrature of the density (product integration at the log singularity of
the potential, good to ~1e-15 against the closed forms), principal values
by analytic subtraction, and the equilibrium data (beta, omega) are
rediscovered from the variational definition alone: the discrete energy
is minimized over the probability simplex by one active-set loop of KKT
solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import composite_nodes, geometric_breaks, gl_map, gl_rule, graded_rule
from .equilibrium import (Regime, Support, _density_offset,
                          _descalar, _omega_repulsive, _points, cauchy,
                          classify_regime, density, external_field, omega,
                          support)
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
        # each test states what must hold, so that a NaN fails it
        if not np.all(w >= 0.0):
            raise ConsistencyError("negative or NaN weight in grid measure")
        if not abs(float(np.sum(w)) - 1.0) <= 1e-12:
            raise ConsistencyError(f"weights sum to {float(np.sum(w))!r}, not 1")
        if not (np.all(np.diff(n) > 0.0) and -1.0 <= n[0] and n[-1] <= 1.0):
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
    infinity of the failing sign rather than raising.  Flatness, the
    inequality and the one-piece spread come from one quadrature call on
    the x > 0 half of the problem (U, V and the quadrature are even to
    within 2 ulps), so one failure there reads as an infinity in each.
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

# Points per block of potential_quad, and per chunk of a block on the
# shared rows, so that its node arrays stay small.
_BLOCK, _Z_CHUNK = 256, 32

# From this modulus on, log|z - x| rounds to log|z| for every x in [-1, 1]
# (|x/z| <= 1e-100), and squared distances could overflow further out:
# potential_quad returns -log|z| there.
_FAR_POINT = 1e100

# Nodes of the innermost panel next to a point on a piece, where the product
# rule below takes log|x - Re z| exactly.
_LOG_ORDER = 24

# Most halvings toward a point on a piece.  Only a point with |Im z| below
# 2^-60 of its distance to an edge reaches it; the innermost panel, left to
# the plain rule, then carries less than 1e-16 of the potential.
_MAX_DEPTH = 60

# Rungs of the row potential_quad shares between points: dyadic panels from
# each edge of a piece of half-length L down to L 2^-_RUNGS, then an edge
# rule halving as many times, its innermost panel ending at L 2^-30.
_RUNGS = 10


@lru_cache(maxsize=1)
def _product_log_rule():
    """Gauss-Legendre nodes u and weights w on [0, 1], and product weights v
    with sum(v p(u)) = ∫_0^1 p(u) log u du for every polynomial p of degree
    below _LOG_ORDER (read-only, cached).

    v = w sum_k (2k + 1) m_k P_k(2u - 1), from the moments
    m_k = ∫_0^1 P_k(2u - 1) log u du = (-1)^(k+1)/(k (k + 1)), and -1 at
    k = 0 (product integration: K. E. Atkinson, The Numerical Solution of
    Integral Equations of the Second Kind, 1997, §4.2).  That sum relies on
    the discrete orthogonality of the P_k under w, which the rounded rule
    keeps only to ~1e-15; one correction by the moment residuals restores
    the moments to ~1e-17.  Row sums, not matrix products: no BLAS buffers.
    """
    x, w = gl_rule(_LOG_ORDER)
    k = np.arange(1, _LOG_ORDER)
    moments = np.concatenate(([-1.0], (-1.0) ** (k + 1) / (k * (k + 1.0))))
    u, w = 0.5 * (x + 1.0), 0.5 * w
    # P_k(x), k < _LOG_ORDER, by their three-term recurrence
    p = np.empty((_LOG_ORDER, x.size))
    p[0], p[1] = 1.0, x
    for i in range(2, _LOG_ORDER):
        p[i] = (p[i - 1] * x * (2 * i - 1) - p[i - 2] * (i - 1)) / i
    scaled = (2.0 * np.arange(_LOG_ORDER) + 1.0)[:, None] * p
    v = w * np.sum(moments[:, None] * scaled, axis=0)
    residual = moments - np.sum(v * p, axis=1)
    v += w * np.sum(residual[:, None] * scaled, axis=0)
    for a in (u, w, v):
        a.flags.writeable = False
    return u, w, v


@lru_cache(maxsize=64)
def _unit_row(depth: int, order: int = 16):
    """Offsets from an edge, and weights, of the row of a half-piece of unit
    length (read-only, cached): an edge rule on [0, 2^-depth] in t, the
    offset being t^2, halving _RUNGS times toward the edge, then panels
    D_i = [2^-i, 2^(1-i)], i = depth, ..., 1.  An abscissa would round the
    offset away near the edge, and lose the sliver there (~sqrt(offset) of
    mass): values are formed from offsets."""
    t, w = graded_rule(0.5 ** (0.5 * depth), _RUNGS, order)
    d, w_d = composite_nodes(0.5 ** np.arange(depth, -1, -1.0), order)
    off, w = np.concatenate((t * t, d)), np.concatenate((2.0 * t * w, w_d))
    off.flags.writeable = w.flags.writeable = False
    return off, w


def measure_quadrature(tau: float, f=None) -> complex | float:
    """Integral of f against the equilibrium measure, to ~1e-9.

    f is a vectorized callable of a real ndarray (default: constant 1, so
    the result is the total mass).  Each support piece is split at its
    midpoint into two edge rules (_unit_row), in every regime, with 64 nodes
    per panel: the outer panel spans 3/4 of a half-piece, and f may vary
    there (1/(z - x) at 0.05 from the cut is good to ~1e-14).  The density
    depends on an edge only through |edge| (the measure is even): it is
    taken once per |edge|, f at every node.
    """
    if f is None:
        f = lambda x: np.ones_like(x)
    sup, (off, w) = support(tau), _unit_row(0, 64)
    total, x_off, x_w = 0.0, sup.half_length * off, sup.half_length * w
    moduli = {abs(edge) for piece in sup.pieces for edge in piece}
    rho = {a: _density_offset(tau, a, x_off) for a in moduli}
    for lo, hi in sup.pieces:
        for edge, s in ((lo, 1.0), (hi, -1.0)):
            total += np.sum(x_w * f(edge + s * x_off) * rho[abs(edge)])
    total = complex(total)
    return total if total.imag != 0.0 else total.real


# ---------------------------------------------------------------------------
# Potential by quadrature
# ---------------------------------------------------------------------------

def _edge_sums(edge, off, s, w, z: np.ndarray, cut) -> np.ndarray:
    """Sum of w log|z - x| over the nodes x = edge + s off of a row shared by
    all points of z, the density folded into w (rows of several edges may
    stack before the last two axes of w), but the nodes from cut[0] up to
    cut[1] (per row and point).  log|z - x| is taken, in place on real
    arrays, as log((s off - (Re z - edge))^2 + (Im z)^2) / 2: exact
    distances next to the edge."""
    out, node = np.empty(np.shape(w)[:-2] + z.shape), np.arange(np.size(off))
    for i in range(0, z.size, _Z_CHUNK):
        c = slice(i, i + _Z_CHUNK)
        d2 = s * off - (z[c].real[:, None] - edge)
        d2 *= d2
        if z[c].imag.any():
            d2 += z[c].imag[:, None] ** 2
        if cut[1, ..., c].any():
            # log 1 = 0: a node left out adds nothing
            np.putmask(d2, (cut[0, ..., c, None] <= node) & (node < cut[1, ..., c, None]), 1.0)
        d2 = np.log(d2, out=d2)
        d2 *= w
        out[..., c] = 0.5 * np.sum(d2, axis=-1)
    return out


def _graded_toward_zero(span, target):
    """A rule on [0, span] (one row per entry of span) for a log singularity
    within `target` of 0, as (r, w, w_log): 16-node panels halve toward 0
    until the innermost, [0, h], is no longer than target (at most
    _MAX_DEPTH times), and [0, h] takes the _LOG_ORDER nodes of
    _product_log_rule, first in each row.  w holds the plain weights, w_log
    the product weights of log r on [0, h]."""
    # a difference of logarithms: span / target overflows for a subnormal target
    depth = np.clip(np.ceil(np.log2(span) - np.log2(target)), 0, _MAX_DEPTH).astype(int)
    h = span * 0.5 ** depth
    # zero-width panels at h pad the rows that need fewer halvings
    breaks = np.maximum(geometric_breaks(span, depth), h[..., None])
    r, w = composite_nodes(breaks, 16)
    u, w_in, v_in = _product_log_rule()
    h = h[..., None]
    r = np.concatenate((h * u, r), axis=-1)
    w = np.concatenate((h * w_in, w), axis=-1)
    return r, w, h * (w_in * np.log(h) + v_in)


def _edge_panel_sums(tau: float, edge: float, s, h: float, z: np.ndarray) -> np.ndarray:
    """Quadrature of log|z - x| over the innermost panel of an edge rule,
    x = edge + s t^2 for t in [0, h], for points z off the piece within h^2
    of the edge, where the kernel is singular at |t| = sqrt|z - edge|: panels
    halve toward t = 0 down to that distance, and a point on the edge takes
    log t^2 by product weights (2t rho(t^2) is smooth in t at every edge)."""
    zeta = z - edge
    at_edge = np.abs(zeta) == 0.0
    # a point on the edge needs no halving: the product weights take it
    t, w, w_log = _graded_toward_zero(np.full(z.shape, h),
                                      np.sqrt(np.where(at_edge, h * h, np.abs(zeta))))
    off = t * t
    w *= 0.5 * np.log((s * off - zeta.real[:, None]) ** 2 + (zeta.imag ** 2)[:, None])
    w[:, :_LOG_ORDER] = np.where(at_edge[:, None], 2.0 * w_log, w[:, :_LOG_ORDER])
    return np.sum(2.0 * t * w * _density_offset(tau, edge, off), axis=-1)


def _span_rule(far: float, half: float, delta, j, z: np.ndarray):
    """Offsets from the nearer edge, and weights with log|z - x| folded in,
    of the rule for the span a point of z on rung j, delta from that edge,
    leaves out of the shared row: from the start of D_j to the far end of
    D_(j-2), or of the far edge's D_1 if j <= 2.  It splits at x* = Re z,
    each side graded toward x* down to delta/2 toward the edge and delta
    away from it, or |Im z| if less; the edges lie delta/4 or more away."""
    to_far = np.where(j >= 3, np.ldexp(half, 3 - j) - delta, np.abs(far - z.real) - 0.5 * half)
    target = np.stack((0.5 * delta, delta))
    r, w, w_log = _graded_toward_zero(
        np.stack((delta - np.ldexp(half, -j), to_far)),
        np.where(z.imag == 0.0, target, np.minimum(target, np.abs(z.imag))))
    y2 = (z.imag ** 2)[:, None]
    w *= 0.5 * np.log(r * r + y2)
    w[..., :_LOG_ORDER] = np.where(y2 == 0.0, w_log, w[..., :_LOG_ORDER])
    return delta[:, None] + np.array([-1.0, 1.0])[:, None, None] * r, w


def _log_kernel_sums(tau: float, sup: Support, z: np.ndarray) -> np.ndarray:
    """Quadrature of log|z - x| against the measure, for each point of z (1-D).

    Each piece of half-length L has a row shared by the points of a block of
    _BLOCK: _unit_row(_RUNGS) from each edge, scaled by L, the density
    folded in once.  A point on the piece, delta from its nearer edge, on
    the rung j with L 2^-j <= delta/2 < L 2^(1-j), leaves out D_j, D_(j-1),
    D_(j-2) and (j <= 2) the far edge's D_1 for _span_rule, so that every
    panel it keeps lies at least half its length away; past rung _RUNGS it
    takes the row of its rung for the nearer edge.  A point off the piece
    near an edge trades the innermost edge panel (_edge_panel_sums).  The
    density depends on an edge only through |edge| (the measure is even):
    one call per |edge| serves rows and spans.  A point's sum moves with
    the other points of its block by an ulp or two: rows graded toward a
    point are padded to the deepest of the block, which changes the order
    of their sums."""
    if z.size > _BLOCK:
        return np.concatenate([_log_kernel_sums(tau, sup, z[i:i + _BLOCK])
                               for i in range(0, z.size, _BLOCK)])
    (off_unit, w_unit), s = _unit_row(_RUNGS), np.array([1.0, -1.0])[:, None, None]
    n, size = off_unit.size - 16 * _RUNGS, off_unit.size  # D_i starts at n + 16 (depth - i)
    total, pieces, spans, folded = np.zeros(z.shape), [], {}, {}
    half = sup.half_length  # from kc: hi - lo rounds the two-cut width away
    for lo, hi in sup.pieces:
        inside = (lo < z.real) & (z.real < hi)
        cut = np.zeros((2, 2, z.size), int)  # nodes left out: (start, stop), edge, point
        on, upper = np.flatnonzero(inside), np.zeros(0, int)
        if on.size:
            upper = (z.real[on] > 0.5 * (lo + hi)).astype(int)
            delta = np.where(upper, hi - z.real[on], z.real[on] - lo)
            # the rung from the exponent of delta/2L, which rounding can carry up
            j = 1 - np.frexp(0.5 * delta / half)[1]
            j += np.ldexp(half, -j) > 0.5 * delta
            start = n + 16 * (_RUNGS - j)
            cut[:, upper, on] = np.where(j > _RUNGS, [[0], [size]],
                                         (start, start + 16 * np.minimum(j, 3)))
            cut[:, 1 - upper, on] = np.where(j <= 2, [[size - 16], [size]], 0)
        h = math.sqrt(half * 0.5 ** (3 * _RUNGS))  # innermost edge panel: [0, h] in t
        for k, (near, far) in enumerate(((lo, hi), (hi, lo))):
            close = (np.abs(z - near) < h * h) & ~inside
            if close.any():
                cut[1, k, close] = 16
                total[close] += _edge_panel_sums(tau, near, s[k], h, z[close])
            group = spans.setdefault((abs(near), half), (near, []))[1]
            pts = upper == k
            if not pts.any():
                continue
            group.append((on[pts], *_span_rule(far, half, delta[pts], j[pts], z[on[pts]])))
            # past rung _RUNGS, the row of the point's rung, less D_rung .. D_(rung-2)
            for rung in np.unique(j[pts & (j > _RUNGS)]) if j[pts].max() > _RUNGS else ():
                row, w_row = (half * a for a in _unit_row(rung))
                w_row *= _density_offset(tau, near, row)
                idx = on[pts & (j == rung)]
                skip = np.broadcast_to([[n], [n + 48]], (2, idx.size))
                total[idx] += _edge_sums(near, row, s[k], w_row, z[idx], skip)
        pieces.append((np.array([lo, hi])[:, None, None], half, cut))
    for key, (edge, group) in spans.items():
        rho = _density_offset(tau, edge, np.concatenate(
            [key[1] * off_unit] + [off.ravel() for _, off, _ in group]))
        folded[key], end = key[1] * w_unit * rho[:size], size
        for idx, off, w in group:
            end += off.size
            total[idx] += np.sum(w * rho[end - off.size:end].reshape(off.shape), axis=(0, -1))
    for edges, half, cut in pieces:
        w = np.stack([folded[abs(edge), half] for edge in edges.flat])[:, None]
        total += np.sum(_edge_sums(edges, half * off_unit, s, w, z, cut), axis=0)
    return total


def potential_quad(tau: float, z):
    """Logarithmic potential of the equilibrium measure, by quadrature only.

    z is a finite point (giving a float) or an array of them (giving an
    array of its shape); the rules are those of _log_kernel_sums.  Against
    the closed forms (tau from -8 to 2/(pi - 2)) the error is
    ~3e-16 max(1, |tau|) on the support, an ulp from an edge too, and
    ~3e-15 off it, 2e-13 at complex points within 1e-2 of an edge;
    two-cut, U + tau V stays within 3e-13 of omega on the support from
    tau = 2 to 1e3.  The verification route for the closed forms, and the
    only potential route in the repulsive regime.  From |z| = 1e100 on the
    value is -log|z|, exact.
    """
    flat, shape = _points(z, "potential_quad")
    out = np.empty(flat.shape)
    far = np.abs(flat) >= _FAR_POINT
    out[far] = -np.log(np.abs(flat[far]))
    out[~far] = -_log_kernel_sums(tau, support(tau), flat[~far])
    return _descalar(out.reshape(shape))


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


def discrete_minimize(tau: float, n_nodes: int, max_iters: int) -> DiscreteSolution:
    """Minimize the discrete weighted energy over the probability simplex.

    Nodes are Chebyshev-Lobatto points on [-1, 1].  The objective
    w'Aw + 2 b'w (A the regularized log interaction, b the external field
    at the nodes) is a convex quadratic, minimized by an active-set loop
    (Nocedal & Wright, Numerical Optimization, §16.5).  Every node starts
    active; each step solves the KKT system of the objective under
    sum w = 1 on the active nodes.  A solve with negative weights drops
    those nodes.  A nonnegative one ends the loop once its Frank-Wolfe
    duality gap, grad'w - min(grad), is at most 1e-6, and otherwise brings
    back the nodes whose gradient lies below the carried mean.  max_iters
    caps the solves (ConvergenceError past it), `iterations` counts them,
    and `energy_trace` holds the energy of each nonnegative iterate.

    omega_est is the minimum of the discrete total potential over carrying
    nodes, matching the equality branch of the variational conditions, and
    beta_est is the carrying node closest to the support edge implied by
    the regime (outermost for one-cut, innermost gap edge for two-cut).
    """
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 100:
        raise DomainError(f"n_nodes={n_nodes!r} must be an integer of at least 100")
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 1:
        raise DomainError(f"max_iters={max_iters!r} must be a positive integer")
    regime = classify_regime(tau)
    j = np.arange(n_nodes, dtype=float)
    nodes = np.sort(np.cos(math.pi * j / (n_nodes - 1)))
    nodes[0], nodes[-1] = -1.0, 1.0
    a = _interaction_matrix(nodes)
    b = external_field(tau, nodes)

    # b less its minimum, a shift the multiplier of sum w = 1 takes up: with
    # b itself the solves hold that constraint only to ~|tau| eps
    rhs = -2.0 * (b - np.min(b))
    active, trace, gap, gap_tol = np.ones(n_nodes, bool), [], math.inf, 1e-6
    for iters in range(1, max_iters + 1):
        idx = np.flatnonzero(active)
        m = idx.size
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * a[np.ix_(idx, idx)]
        kkt[m, m] = 0.0
        w_act = np.linalg.solve(kkt, np.append(rhs[idx], 1.0))[:m]
        if np.any(w_act < 0.0):
            active[idx[w_act < 0.0]] = False
            continue
        w = np.zeros(n_nodes)
        w[idx] = w_act
        pot = a @ w + b  # discrete total potential at the nodes: grad / 2
        trace.append(float(w @ (pot + b)))
        excess = pot - np.min(pot)
        gap = 2.0 * float(w @ excess)  # grad'w - min(grad), as sum w = 1
        if gap <= gap_tol:
            break
        active |= excess < 0.5 * gap  # below the carried mean
    else:
        raise ConvergenceError(
            f"active-set gap {gap:.3e} still above {gap_tol:g} after "
            f"{max_iters} KKT solves (tau={tau!r}, n={n_nodes})")

    carrying = w > 10.0 / n_nodes ** 2
    omega_est = float(np.min(pot[carrying]))
    carried = np.abs(nodes[carrying])
    if regime is Regime.REPULSIVE:
        beta_est = float(np.min(carried))
    else:
        beta_est = float(np.max(carried))
    return DiscreteSolution(
        measure=GridMeasure(nodes=nodes, weights=w),
        omega_est=omega_est, beta_est=beta_est, energy=trace[-1],
        iterations=iters, energy_trace=tuple(trace))


# ---------------------------------------------------------------------------
# Full verification sweep
# ---------------------------------------------------------------------------

def _sp_density(tau: float, x):
    """Density recovered from the one-sided Cauchy boundary value
    -Im C(x + i0)/pi (Sokhotski-Plemelj) at the points of x (an array), in
    one cauchy call.  `cauchy` answers at any Im z != 0, so the boundary
    value is read at Im z = 1e-300."""
    return -cauchy(tau, x + 1e-300j).imag / math.pi


def _support_grid(sup: Support, n_total: int, inset_frac: float) -> np.ndarray:
    pieces = sup.pieces
    per = n_total // len(pieces)
    pts = []
    for lo, hi in pieces:
        ins = inset_frac * (hi - lo)
        pts.append(np.linspace(lo + ins, hi - ins, per))
    return np.concatenate(pts)


def _gap_grid(sup: Support, n: int) -> np.ndarray:
    """n off-support probe points at x > 0, the right half of a grid
    symmetric to within an ulp (none on the full interval), inset from soft
    edges where the margin vanishes with a 3/2 power (the inset keeps it
    above quadrature noise)."""
    beta = sup.beta
    if sup.regime is Regime.INTERMEDIATE:
        return np.empty(0)
    if sup.regime is Regime.ATTRACTIVE:
        ins = 1e-3 * sup.kc ** 2 / (1.0 + beta)  # 1e-3 (1 - beta)
        return np.linspace(beta + ins, 1.0, n)
    ins = 1e-3 * (2.0 * beta)
    return np.linspace(-beta + ins, beta - ins, 2 * n)[n:]


def verify(tau: float) -> VerificationReport:
    """Check the defining properties of the computed equilibrium at tau.

    Every component uses an evaluation route independent of the closed
    forms it checks (quadrature of the density, the Cauchy boundary value,
    the spread between omega's two routes).  In the repulsive regime that
    spread is the one omega gated, read from its cache: the theta formula
    against `omega_integral`, at every tau.

    Flatness and the variational inequality are sampled at x > 0 only: the
    field and the measure are even, and `potential_quad` is even to within
    2 ulps, so a point's mirror image adds nothing.  The 100 support points
    (right half of the piece, or the right piece), the 100 gap points and
    the spread point lo + 0.55 (hi - lo) of the one-piece regimes go into
    one `potential_quad` call.  The 20 Sokhotski-Plemelj points cover both
    halves: `cauchy` is not even by construction.

    Components that raise are recorded as infinities.  One failure of the
    shared quadrature reads as an infinity in each field that needs it:
    flatness, the inequality (except on the full interval, which has no
    gap and reports 0) and, on one piece, the spread.  Only `support(tau)`
    itself raises through: DomainError for a tau that is not finite, or
    past ~1.8e15 where the two-cut beta rounds to 1.
    """
    sup = support(tau)

    try:
        mass_error = abs(float(measure_quadrature(tau)) - 1.0)
    except Exception:
        mass_error = math.inf

    on = _support_grid(sup, 200, 1e-3)[100:]  # the right half of one piece, or the right piece
    gap = _gap_grid(sup, 100)
    lo, hi = sup.pieces[0]
    spread_at = [] if sup.regime is Regime.REPULSIVE else [lo + 0.55 * (hi - lo)]
    flatness_error, cross = math.inf, math.inf
    inequality_margin = -math.inf if gap.size else 0.0  # the full interval has no gap
    try:
        xs = np.concatenate((on, gap, spread_at))
        residual = potential_quad(tau, xs) + external_field(tau, xs) - omega(tau)
        on_res, gap_res, spread_res = np.split(residual, [on.size, on.size + gap.size])
        flatness_error = np.max(np.abs(on_res))
        if gap.size:
            inequality_margin = np.min(gap_res)
        if spread_res.size:
            cross = abs(spread_res[0])
    except Exception:
        pass  # each field that needs the quadrature keeps its infinity

    try:
        xs = _support_grid(sup, 20, 0.05)
        sp_error = np.max(np.abs(_sp_density(tau, xs) - density(tau, xs)))
    except Exception:
        sp_error = math.inf

    if sup.regime is Regime.REPULSIVE:
        try:
            value, check = _omega_repulsive(tau)
            cross = abs(value - check)
        except Exception:
            cross = math.inf

    return VerificationReport(
        tau=float(tau), mass_error=float(mass_error),
        flatness_error=float(flatness_error),
        inequality_margin=float(inequality_margin),
        sp_error=float(sp_error), cross_route_omega_spread=float(cross))
