"""Deterministic Gauss-Legendre quadrature helpers.

Every integral in the package is evaluated with fixed nodes and fixed panel
layouts, so repeated runs are bit-identical.  Endpoint square-root behavior
is always removed by substitution *before* panelling; what panelling is for
is the milder leftovers (logarithmic points, steep but analytic layers),
handled by geometric refinement toward the offending point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gl_rule(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] (cached)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_map(a: float, b: float, order: int):
    """Gauss-Legendre nodes and weights mapped to the interval [a, b]."""
    x, w = gl_rule(order)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def geometric_breaks(a, b, toward, n_panels=34, ratio: float = 0.5):
    """Panel breakpoints on [a, b] shrinking geometrically toward one endpoint.

    `toward` must equal `a` or `b`.  The innermost panel has width
    (b - a) * ratio**n_panels; with the default 34 halvings a logarithmic
    endpoint contributes only ~1e-11 absolute error under a modest rule.

    All four arguments may be arrays of one broadcast shape S, giving
    S + (max(n_panels) + 2,) breaks: a row with fewer panels is padded with
    zero-width (zero-weight) panels at its `toward` end.
    """
    a, b, toward, n = np.broadcast_arrays(
        *(np.asarray(v, float) for v in (a, b, toward, n_panels)))
    at_a = toward == a
    if not np.all(at_a | (toward == b)):
        raise ValueError("`toward` must be an endpoint of [a, b]")
    k = np.arange(np.max(n), -1, -1)
    offs = np.where(k > n[..., None], 0.0, (b - a)[..., None] * ratio ** k)
    a, b = a[..., None], b[..., None]
    return np.where(at_a[..., None], np.concatenate((a, a + offs), axis=-1),
                    np.concatenate((b - offs[..., ::-1], b), axis=-1))


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
