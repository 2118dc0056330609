"""Deterministic Gauss-Legendre quadrature helpers.

Every integral in the package is evaluated with fixed nodes and fixed panel
layouts, so repeated runs are bit-identical.  Endpoint square-root behavior
is always removed by substitution *before* panelling; what panelling is for
is the milder leftovers (logarithmic points, steep but analytic layers),
handled by panels halving toward the offending point, which every caller
first maps to 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError


@lru_cache(maxsize=64)
def gl_rule(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] (read-only,
    cached).

    The arithmetic of numpy's leggauss, so bitwise its rule: the eigenvalues
    of the symmetric Jacobi matrix of P_order (Golub & Welsch, Math. Comp.
    23, 1969), one Newton step, and weights 1/(P_(order-1) P_order') scaled
    to sum to 2, both symmetrised.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise DomainError(f"a Gauss-Legendre rule needs an integer order >= 1, got {order!r}")
    n = int(order)
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    jacobi = np.zeros((n, n))
    jacobi.flat[1::n + 1] = jacobi.flat[n::n + 1] = off
    x = np.linalg.eigvalsh(jacobi)
    # Legendre coefficients of P_n and of P_n' = sum (2k + 1) P_k over
    # k = n - 1, n - 3, ..., the latter padded by a zero on top, which
    # leaves its Clenshaw sum bitwise unchanged
    c = np.zeros((n + 1, 2, 1))
    c[n, 0] = 1.0
    c[n - 1::-2, 1, 0] = 2 * np.arange(n - 1, -1, -2) + 1
    p, dp = _legendre_sum(x, c)
    x = x - p / dp
    fm = _legendre_sum(x, c[1:, 0])           # P_(n-1)
    fm /= np.abs(fm).max()
    dp /= np.abs(dp).max()
    w = 1 / (fm * dp)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre_sum(x, c):
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in the operation order of
    numpy's legval; c[k] broadcasts against x."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def gl_map(a: float, b: float, order: int):
    """Gauss-Legendre nodes and weights mapped to the interval [a, b]."""
    x, w = gl_rule(order)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def geometric_breaks(span, n_panels):
    """Panel breakpoints on [0, span] halving n_panels times toward 0.

    The innermost panel is [0, span * 2**-n_panels].  Both arguments may be
    arrays of one broadcast shape S, giving S + (max(n_panels) + 2,) breaks:
    a row with fewer panels is padded with zero-width (zero-weight) panels
    at 0.
    """
    span, n = np.broadcast_arrays(np.asarray(span, float), np.asarray(n_panels))
    k = np.arange(np.max(n), -1, -1)
    offs = np.where(k > n[..., None], 0.0, span[..., None] * 0.5 ** k)
    return np.concatenate((np.zeros(offs.shape[:-1] + (1,)), offs), axis=-1)


def composite_nodes(breaks, order: int):
    """Stacked GL nodes/weights for the consecutive panels in `breaks`.

    Breaks of shape S + (P + 1,) give nodes and weights of shape
    S + (P * order,), equal to those of `gl_map` panel by panel."""
    breaks = np.asarray(breaks, float)
    x, w = gl_rule(order)
    lo, hi = breaks[..., :-1, None], breaks[..., 1:, None]
    half = 0.5 * (hi - lo)
    shape = breaks.shape[:-1] + (-1,)
    return (0.5 * (lo + hi) + half * x).reshape(shape), (half * w).reshape(shape)


@lru_cache(maxsize=64)
def graded_rule(span: float, n_panels: int, order: int):
    """Gauss-Legendre nodes and weights on [0, span], in panels halving
    n_panels times toward 0 (read-only, cached)."""
    x, w = composite_nodes(geometric_breaks(span, n_panels), order)
    x.flags.writeable = w.flags.writeable = False
    return x, w
