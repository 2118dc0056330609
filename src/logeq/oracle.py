"""Independent verification oracles for the equilibrium solution.

Nothing in this module reuses the closed-form potential or the series
route it is checking: integrals are evaluated by singularity-aware
quadrature of the density (product integration at the log singularity of
the potential, good to ~1e-15 against the closed forms), and the
equilibrium data (beta, omega) are rediscovered from the variational
definition alone: the discrete energy is minimized over the probability
simplex by one active-set loop of KKT solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import composite_nodes, gl_rule, graded_rule
from .equilibrium import (Regime, Support, _beyond_beta, _density_offset,
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
# Quadrature of the equilibrium measure
# ---------------------------------------------------------------------------

# Points per block of potential_quad, and per chunk of a block in the
# kernel of the shared rows, whose two buffers hold the squared distances
# of a chunk to the nodes of one row and of its mirror image.
_BLOCK, _Z_CHUNK = 256, 128

# From this multiple of the outer edge of the support on, potential_quad
# returns -log|z|: the measure is even, so it has no first moment, and the
# first correction, O(|x/z|^2) <= 1e-100, rounds away.  Below it, a product
# of two squared distances in units of that edge stays below ~1e200.
_FAR_POINT = 1e50

# Nodes of the innermost panel next to a point on a piece, where the product
# rule below takes log|x - Re z| exactly.
_LOG_ORDER = 24

# Most halvings toward a point on a piece.  Only a point with |Im z| below
# 2^-60 of its distance to an edge reaches it; the innermost panel, left to
# the plain rule, then carries less than 1e-16 of the potential.
_MAX_DEPTH = 60

# Rungs of the row potential_quad shares between points: dyadic panels from
# each edge of a piece of half-length L down to L 2^-_RUNGS, then an edge
# rule in t = sqrt(offset), which halves toward the edge at most as many
# times (_edge_halvings).
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
def _unit_row(depth: int, order: int = 16, halvings: int = _RUNGS):
    """Offsets from an edge, and weights, of the row of a half-piece of unit
    length (read-only, cached): an edge rule on [0, 2^-depth] in the offset,
    that is on [0, 2^(-depth/2)] in t, the offset being t^2, in panels of
    `order` nodes halving `halvings` times toward the edge, then panels
    D_i = [2^-i, 2^(1-i)], i = depth, ..., 1, which start at node
    order (halvings + 1).  An abscissa would round the offset away near the
    edge, and lose the sliver there (~sqrt(offset) of mass): values are
    formed from offsets."""
    t, w = graded_rule(0.5 ** (0.5 * depth), halvings, order)
    d, w_d = composite_nodes(0.5 ** np.arange(depth, -1, -1.0), order)
    off, w = np.concatenate((t * t, d)), np.concatenate((2.0 * t * w, w_d))
    off.flags.writeable = w.flags.writeable = False
    return off, w


def measure_quadrature(tau: float, f=None) -> complex | float:
    """Integral of f against the equilibrium measure, to ~1e-9.

    f is a vectorized callable of a real ndarray (default: constant 1, so
    the result is the total mass).  Each support piece is split at its
    midpoint into two edge rules (_unit_row) of 64-node panels, halving once
    more than potential_quad's (_edge_halvings), at most _RUNGS times: 128
    nodes per half-piece at every tau but next to -1 and just above the
    critical tau, up to 704.  The outer panel spans 3/4 of a half-piece, and
    f may vary there: 1/(z - x) at 0.1 from the cut is good to ~1e-14, at
    0.05 to ~1e-7.  The density depends on an edge only through |edge| (the
    measure is even): it is taken once per |edge|, f at every node.
    """
    if f is None:
        f = lambda x: np.ones_like(x)
    sup = support(tau)
    off, w = _unit_row(0, 64, min(_RUNGS, _edge_halvings(sup) + 1))
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

def _flat_ranges(start, stop, n: int) -> np.ndarray:
    """Flat indices i n + k, in increasing order, of the nodes k from
    start[i] up to stop[i] of each row i of n nodes."""
    length = stop - start
    first = np.arange(start.size) * n + start - (np.cumsum(length) - length)
    return np.repeat(first, length) + np.arange(length.sum())


def _edge_sums(off, w, pos, y, cut, unit: float) -> np.ndarray:
    """Sum of w log|z - x| over the nodes of rows shared by all points z,
    but the nodes each point leaves out.  Row p has the nodes x = e + off[p]
    from its edge e, the density folded into w[p].  As the measure is even,
    it also stands for the mirror image of the row of -e: factor f of row p
    sees the point pos[p, f] from e (f = 0 for z, f = 1 for -z), Im z = y,
    and leaves out the nodes cut[0, p, f] up to cut[1, p, f] of that point.
    Each node takes one log of the product over the factors of its squared
    distances (off - pos)^2 + y^2, exact next to the edge.  They are taken
    in units of `unit`, a power of two near the outer edge of the support,
    so that the product neither overflows nor underflows; log unit per unit
    of weight kept is added back."""
    (n_rows, n_factors, m), n = pos.shape, off.shape[-1]
    off, pos, y2 = off / unit, pos / unit, (y / unit) ** 2
    # flat indices of the nodes left out, in (row, factor, point, node) order
    left_out = _flat_ranges(cut[0].ravel(), cut[1].ravel(), n)
    out, buf = np.zeros(m), np.empty((n_factors, min(m, _Z_CHUNK), n))
    for c in range(0, m, _Z_CHUNK):
        k = min(m - c, _Z_CHUNK)
        imag = y2[c:c + k, None] if y2[c:c + k].any() else None
        for p in range(n_rows):
            for f, d2 in enumerate(buf[:, :k]):
                np.subtract(off[p], pos[p, f, c:c + k, None], out=d2)
                d2 *= d2
                if imag is not None:
                    d2 += imag
                # log 1 = 0: a node left out adds nothing
                first = ((p * n_factors + f) * m + c) * n
                lo, hi = np.searchsorted(left_out, (first, first + k * n))
                d2.reshape(-1)[left_out[lo:hi] - first] = 1.0
            d2 = buf[0, :k]
            for f in range(1, n_factors):
                d2 *= buf[f, :k]
            d2 = np.log(d2, out=d2)
            d2 *= w[p]
            out[c:c + k] += d2.sum(axis=-1)
    out *= 0.5
    if unit != 1.0:
        cum = np.zeros((n_rows, n + 1))
        np.cumsum(w, axis=-1, out=cum[:, 1:])
        p = np.arange(n_rows)[:, None, None]
        kept = n_factors * w.sum() - (cum[p, cut[1]] - cum[p, cut[0]]).sum(axis=(0, 1))
        out += math.log(unit) * kept
    return out


@lru_cache(maxsize=64)
def _graded_unit(depth: int):
    """Nodes and weights on [0, 1] for a log singularity at 0 (read-only,
    cached): the _LOG_ORDER nodes of _product_log_rule on [0, 2^-depth]
    first, then 16-node panels [2^-i, 2^(1-i)], i = depth, ..., 1."""
    u, w_in, _ = _product_log_rule()
    r, w = composite_nodes(0.5 ** np.arange(depth, -1, -1.0), 16)
    r, w = np.concatenate((np.ldexp(u, -depth), r)), np.concatenate((np.ldexp(w_in, -depth), w))
    r.flags.writeable = w.flags.writeable = False
    return r, w


def _graded_groups(span, target):
    """Rules on [0, span] (one row per entry of span) for a log singularity
    within `target` of 0: panels halve toward 0 until the innermost, [0, h],
    is no longer than target (at most _MAX_DEPTH times), and [0, h] takes
    the product rule.  Yields, per number of halvings, (rows, r, w, w_log):
    the entries of span that take it, their nodes and plain weights
    (_graded_unit scaled by span, [0, h] first), and the product weights of
    log r on [0, h]."""
    # a difference of logarithms: span / target overflows for a subnormal target
    depth = np.clip(np.ceil(np.log2(span) - np.log2(target)), 0, _MAX_DEPTH).astype(int)
    _, w_in, v_in = _product_log_rule()
    for d in np.flatnonzero(np.bincount(depth)):
        rows = np.flatnonzero(depth == d)
        (r, w), s = _graded_unit(int(d)), span[rows, None]
        h = np.ldexp(s, -d)
        yield rows, s * r, s * w, h * (w_in * np.log(h) + v_in)


def _edge_panel_rule(s: float, h: float, pos, y):
    """Rules for the innermost panel of an edge rule, x = edge + s t^2 for t
    in [0, h], for points z = edge + pos + i y off the piece within h^2 of
    the edge, as groups (point, offsets, weights) of one depth each with
    2t log|z - x| folded in.  The kernel is singular at |t| = sqrt|z - edge|:
    panels halve toward t = 0 down to that distance, and a point on the edge
    takes log t^2 by product weights.  h is no wider than the density's edge
    layer (_edge_halvings), or it is the narrowest panel, so 2t rho(t^2) is
    smooth in t on [0, h]: h^2 is L 2^-_RUNGS at every tau but next to -1
    and just above the critical tau, down to L 2^-30 there."""
    dist = np.hypot(pos, y)
    at_edge, groups = dist == 0.0, []
    # a point on the edge needs no halving: the product weights take it
    for rows, t, w, w_log in _graded_groups(np.full(dist.shape, h),
                                            np.sqrt(np.where(at_edge, h * h, dist))):
        off = t * t
        w *= np.log(np.hypot(s * off - pos[rows, None], y[rows, None]))
        w[:, :_LOG_ORDER] = np.where(at_edge[rows, None], 2.0 * w_log, w[:, :_LOG_ORDER])
        groups.append((rows, off, 2.0 * t * w))
    return groups


def _span_rule(half: float, delta, j, y):
    """Rules for the spans that points on a piece leave out of the shared
    row, as groups (point, offsets, weights) of one depth each: offsets from
    the nearer edge, and weights with log|z - x| folded in.  A point on rung
    j, delta from that edge, Im z = y, leaves out from the start of D_j to
    the far end of D_(j-2), or if j <= 2 of the far edge's D_1, 3L/2 from
    the nearer edge in the width 2L of the piece that the density takes.
    The span splits at x* = Re z, each side graded toward x* down to
    delta/2 toward the edge and delta away from it, or |y| if less; the
    edges lie delta/4 or more away."""
    to_far = np.where(j >= 3, np.ldexp(half, 3 - j), 1.5 * half) - delta
    point, side = np.tile(np.arange(delta.size), 2), np.repeat([-1.0, 1.0], delta.size)
    target, y = np.concatenate((0.5 * delta, delta)), y[point]
    groups = []
    for rows, r, w, w_log in _graded_groups(
            np.concatenate((delta - np.ldexp(half, -j), to_far)),
            np.where(y == 0.0, target, np.minimum(target, np.abs(y)))):
        k, y_rows = point[rows], y[rows, None]
        # hypot(r, 0) is r; a squared distance could underflow
        w *= np.log(np.hypot(r, y_rows) if y_rows.any() else r)
        np.copyto(w[:, :_LOG_ORDER], w_log, where=y_rows == 0.0)
        groups.append((k, delta[k, None] + side[rows, None] * r, w))
    return groups


def _edge_halvings(sup: Support) -> int:
    """Halvings toward an edge of the edge rule of potential_quad's rows, on
    [0, t_edge] in t = sqrt(offset), t_edge = sqrt(L 2^-_RUNGS) for pieces
    of half-length L: as many as take its innermost panel down to the width
    in t of the density's edge layer, and at most _RUNGS.  2t rho(t^2) is
    smooth on the full interval (no layer, no halving); on one cut it holds
    arctan(t sqrt(2 beta - t^2)/kc), a layer kc/sqrt(2 beta) wide; on two
    cuts sqrt(2 beta + t^2) at the inner edge, and at the outer one the
    width ~kc of the piece in t: min(kc, sqrt(2 beta)).  The layer is thin
    only next to tau = -1 (kc -> 0) and just above the critical tau
    (beta -> 0)."""
    if sup.regime is Regime.INTERMEDIATE:
        return 0
    if sup.regime is Regime.ATTRACTIVE:
        layer = sup.kc / math.sqrt(2.0 * sup.beta)
    else:
        layer = min(sup.kc, math.sqrt(2.0 * sup.beta))
    t_edge = math.sqrt(sup.half_length * 0.5 ** _RUNGS)
    return min(max(math.ceil(math.log2(t_edge / layer)), 0), _RUNGS)


def _log_kernel_sums(tau: float, sup: Support, z: np.ndarray) -> np.ndarray:
    """Quadrature of log|z - x| against the measure, for each point of z (1-D).

    Each piece of half-length L has a row shared by the points of a block of
    _BLOCK: _unit_row(_RUNGS) from each edge, its edge rule halving
    _edge_halvings(sup) times, scaled by L, the density folded in once.
    The measure is even, so the row of an edge e is the mirror image of the
    row of -e: the rows of the right piece with e > 0 serve every point
    twice, as z and as -z, and one _edge_sums call takes one log per pair of
    mirror nodes.  A point on a piece, delta from its nearer edge, on the
    rung j with L 2^-j <= delta/2 < L 2^(1-j), leaves out D_j, D_(j-1),
    D_(j-2) and (j <= 2) the far edge's D_1 for _span_rule, so that every
    panel it keeps lies at least half its length away; past rung _RUNGS it
    trades the nearer edge's row for the row of its rung less those panels.
    A point off the piece within the innermost edge panel, L 2^-_RUNGS
    4^-halvings from an edge, trades that panel for _edge_panel_rule.  Each
    private rule is a group (points, offsets, weights), log|z - x| folded
    in.  The density depends on an edge only through |edge|: one call per
    |edge| serves its row and all their groups, and one np.bincount adds up
    the groups.  On two cuts, a point past the midpoint of a piece lies
    w - (1 - |x|) from its inner edge (_beyond_beta), and spans are laid out
    in the width w of the piece from kc: the double beta misses the inner
    edge by up to half an ulp.  Every rule a point takes is its own, so its
    sum does not depend on the other points of its block."""
    if z.size > _BLOCK:
        return np.concatenate([_log_kernel_sums(tau, sup, z[i:i + _BLOCK])
                               for i in range(0, z.size, _BLOCK)])
    halvings, m = _edge_halvings(sup), z.size
    off_unit, w_unit = _unit_row(_RUNGS, halvings=halvings)
    size = off_unit.size
    n = size - 16 * _RUNGS  # D_i starts at n + 16 (_RUNGS - i)
    # half from kc: hi - lo rounds the two-cut width away
    half, (lo, hi), y = sup.half_length, sup.pieces[-1], z.imag
    rows = ((lo, 1.0), (hi, -1.0)) if lo > 0.0 else ((hi, -1.0),)
    # innermost edge panel: [0, h] in t, [0, L 2^-_RUNGS 4^-halvings] in the offset
    h = math.sqrt(half * 0.5 ** (_RUNGS + 2 * halvings))
    # the points z and their mirror images -z, flat: a point of z is k mod m
    q = np.concatenate((z.real, -z.real))
    pos_lo = _beyond_beta(sup, q) if lo > 0.0 else q - lo
    pos = np.stack([pos_lo if e == lo else q - hi for e, _ in rows])  # from each row's edge
    inside = (lo < q) & (q < hi)
    on = np.flatnonzero(inside)
    # z takes a tie at the midpoint to the lower edge, so -z to the upper
    upper = (q[on] > 0.5 * (lo + hi)) | ((q[on] == 0.5 * (lo + hi)) & (on >= m))
    # from the nearer edge, at most L: on two cuts beta's rounding can put the
    # double midpoint ~1e-16 off the piece's, most of L past tau ~ 1e14
    delta = np.minimum(np.where(upper, hi - q[on], pos_lo[on]), half)
    # the rung from the exponent of delta/2L, which rounding can carry up
    j = 1 - np.frexp(0.5 * delta / half)[1]
    j += np.ldexp(half, -j) > 0.5 * delta
    start = n + 16 * (_RUNGS - j)
    near_cut = np.where(j > _RUNGS, [[0], [size]], (start, start + 16 * np.minimum(j, 3)))
    far_cut = np.where(j <= 2, [[size - 16], [size]], 0)
    cut = np.zeros((2, len(rows), 2 * m), int)  # nodes left out: (start, stop), row, point
    yy, folded, points, sums = np.concatenate((y, y)), [], [np.zeros(0, int)], [np.zeros(0)]
    for p, (e, s) in enumerate(rows):
        near = upper == (e == hi)
        cut[:, p, on] = np.where(near, near_cut, far_cut)
        flat, j_near = on[near], j[near]
        idx = flat % m
        groups = [(idx[k], off, w) for k, off, w in _span_rule(half, delta[near], j_near, y[idx])]
        # past rung _RUNGS, the row of the point's rung, less D_rung .. D_(rung-2)
        for rung in np.flatnonzero(np.bincount(j_near[j_near > _RUNGS])):
            row, w_row = _unit_row(int(rung), halvings=halvings)
            d_rung = row.size - 16 * rung  # D_rung starts after the edge rule
            row, w_row = (half * np.delete(a, np.s_[d_rung:d_rung + 48]) for a in (row, w_row))
            k = np.flatnonzero(j_near == rung)
            groups.append((idx[k], row, w_row * np.log(
                np.hypot(s * row - pos[p, flat[k], None], y[idx[k], None]))))
        close = np.flatnonzero((np.hypot(pos[p], yy) < h * h) & ~inside)
        if close.size:
            cut[1, p, close] = 16
            groups += [(close[k] % m, off, w)
                       for k, off, w in _edge_panel_rule(s, h, pos[p, close], yy[close])]
        rho = _density_offset(tau, e, np.concatenate(
            [half * off_unit] + [off.ravel() for _, off, _ in groups]))
        folded.append(half * w_unit * rho[:size])
        end = size
        for k, off, w in groups:
            w *= rho[end:end + off.size].reshape(off.shape)
            end += off.size
            points.append(k)
            sums.append(w.sum(axis=-1))
    unit = 2.0 ** math.ceil(math.log2(hi))  # the outer edge, rounded up to a power of two
    off = np.array([s for _, s in rows])[:, None] * (half * off_unit)
    return (np.bincount(np.concatenate(points), np.concatenate(sums), minlength=m)
            + _edge_sums(off, np.stack(folded), pos.reshape(len(rows), 2, m), y,
                         cut.reshape(2, len(rows), 2, m), unit))


def potential_quad(tau: float, z):
    """Logarithmic potential of the equilibrium measure, by quadrature only.

    z is a finite point (giving a float) or an array of them (giving an
    array of its shape); the rules are those of _log_kernel_sums.  The edge
    rule they share is graded to the density's edge layer: 176 nodes per
    edge, of them 16 in t = sqrt(offset) next to the edge, except next to
    tau = -1 and just above the critical tau, where it halves toward the
    edge up to _RUNGS times, 336 nodes in all (_edge_halvings).  Against
    the closed forms (tau from -8 to 2/(pi - 2)) the error is
    ~3e-16 max(1, |tau|) on the support, an ulp from an edge too, and
    ~3e-15 off it, 2e-13 at complex points within 1e-2 of an edge;
    two-cut, U + tau V stays within 3e-13 of omega on the support from
    tau = 2 to 1e3.  The verification route for the closed forms, and the
    only potential route in the repulsive regime.  From |z| = 1e50 times
    the outer edge of the support on (1 on two cuts and the full interval,
    beta on one cut) the value is -log|z|, exact.
    """
    flat, shape = _points(z, "potential_quad")
    sup, out = support(tau), np.empty(flat.shape)
    far = np.abs(flat) >= _FAR_POINT * sup.pieces[-1][1]
    out[far] = -np.log(np.abs(flat[far]))
    out[~far] = -_log_kernel_sums(tau, sup, flat[~far])
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
