"""Deterministic Gauss-Legendre quadrature helpers.

Every integral in the package is evaluated with fixed nodes and fixed panel
layouts, so repeated runs are bit-identical.  Endpoint square-root behavior
is always removed by substitution *before* panelling; what panelling is for
is the milder leftovers (logarithmic points, steep but analytic layers),
handled by panels halving toward the offending point, which every caller
first maps to 0.  The rules themselves are not computed: they are read from
the frozen table of `_gl_table`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._gl_table import RULES
from .errors import DomainError


@lru_cache(maxsize=64)
def gl_rule(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] (read-only,
    cached).

    Read from the frozen table of `_gl_table`: every node and weight is the
    double nearest to its 40-digit value.  The table holds the positive half
    of each rule, so the rule is even bit for bit.  Only the tabulated orders
    exist; any other order is a DomainError.
    """
    if not isinstance(order, (int, np.integer)) or int(order) not in RULES:
        raise DomainError(f"Gauss-Legendre rules are tabulated for orders "
                          f"{sorted(RULES)}, got {order!r}")
    x, w = (np.array(text.split(), float) for text in RULES[int(order)])
    x, w = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


# Every tabulated rule is read at import, so that no quadrature call pays for
# parsing the table.
for _order in RULES:
    gl_rule(_order)


def gl_map(a: float, b: float, order: int):
    """Gauss-Legendre nodes and weights mapped to the interval [a, b]."""
    x, w = gl_rule(order)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def geometric_breaks(span: float, n_panels: int):
    """Panel breakpoints on [0, span] halving n_panels times toward 0: the
    innermost panel is [0, span * 2**-n_panels]."""
    return np.concatenate(([0.0], span * 0.5 ** np.arange(n_panels, -1, -1)))


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
