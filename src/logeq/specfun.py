"""Complete elliptic integrals and related special values.

Everything here is hand-rolled from provably convergent schemes: the
arithmetic-geometric mean for E, one graded rule in theta for the
integrals of sqrt(1 - k^2 sin^2 theta) (`theta_rule`, which the two-cut
Cauchy transform and equilibrium constant use too), the two-parameter
integral I(a, k) by that rule (at complex a too, for the two-cut
Cauchy transform; K(k) is I(0, k)), and a cached Chebyshev interpolant
of I(., k) over the support range of a.  The modulus convention is used
throughout: the `k` arguments below multiply sin^2 inside the square
root as k^2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from ._quad import graded_rule
from .errors import DomainError

# AGM converges quadratically; 64 iterations is far beyond what doubles need.
_AGM_MAX_ITER = 64


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind.

    Uses the AGM with the classical deficit sum
    E = K (1 - Σ_n 2^{n-1} c_n²), c_0 = k, c_{n+1} = (a_n - b_n)/2.
    E(1) = 1 is returned exactly (the AGM degenerates there).

    Parameters
    ----------
    k : float
        Modulus, 0 <= k <= 1.
    """
    if not (0.0 <= k <= 1.0):
        raise DomainError(f"complete_E requires 0 <= k <= 1, got {k!r}")
    if k == 1.0:
        return 1.0
    a, b = 1.0, math.sqrt(1.0 - k * k)
    s = 0.5 * k * k
    pw = 1.0  # 2^{n-1} for n = 1
    for _ in range(_AGM_MAX_ITER):
        c = 0.5 * (a - b)
        if c == 0.0:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        s += pw * c * c
        pw *= 2.0
        # Stop above the a-b cancellation floor (~5e-17): past it c stalls
        # while the 2^n weight keeps doubling, silently corrupting the sum.
        if c < 1e-15:
            break
    return math.pi / (2.0 * a) * (1.0 - s)


# ---------------------------------------------------------------------------
# The two-parameter kernel integral
# ---------------------------------------------------------------------------

class _ThetaNodes(namedtuple("_ThetaNodes", "phi w sin cos w_cos2 sin_s one_minus_s")):
    """The θ rule of one panel count in φ = π/2 - θ, and what the two-cut
    routes read of its nodes: w cos²φ for the k'² Newton, sin θ = ±cos φ
    and 1 - sin θ on the upper and lower halves of [-π/2, π/2] for
    `omega_integral` (read-only arrays)."""

    def root(self, k: float, kc: float) -> np.ndarray:
        return np.sqrt(kc * kc + (k * self.sin) ** 2)  # no cancellation as k -> 1


@lru_cache(maxsize=32)
def _theta_table(n_panels: int) -> _ThetaNodes:
    phi, w = graded_rule(0.5 * math.pi, n_panels, 16)
    sin, cos = np.sin(phi), np.cos(phi)
    nodes = _ThetaNodes(phi, w, sin, cos, w * cos ** 2, np.concatenate((cos, -cos)),
                        np.concatenate((2.0 * np.sin(0.5 * phi) ** 2, 1.0 + cos)))
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


def _theta_nodes(k: float, kc: float) -> _ThetaNodes:
    """The nodes of `theta_rule(k, kc)`, shared by every (k, kc) with as many panels."""
    if not (0.0 <= k <= 1.0 and 0.0 < kc <= 1.0):
        raise DomainError(f"the θ rule requires 0 <= k <= 1 and 0 < kc <= 1, got {k!r}, {kc!r}")
    return _theta_table(math.ceil(math.log2(0.5 * math.pi / kc) + 0.5 * math.log2(1.0 + k)))


def theta_rule(k: float, kc: float):
    """Nodes for the θ-integrals of √(1 - k² sin²θ) over [0, π/2], in
    φ = π/2 - θ, as (phi, w, root) with root = √(1 - k² cos²φ), given the
    complementary modulus kc = √(1 - k²), which 1 - k rounds away as k -> 1.

    16-node panels halve toward φ = 0 until the innermost is below the
    width √(1 - k) = kc/√(1 + k) of the layer there: 32 nodes at k = 0,
    480 where the two-cut beta is the last double below 1.  The nodes and
    their sines and cosines are cached per panel count; only the root,
    formed as √(kc² + (k sin φ)²), is computed per (k, kc).  DomainError
    unless 0 <= k <= 1 and 0 < kc <= 1 (k may round to 1 where kc > 0).
    """
    nodes = _theta_nodes(k, kc)
    return nodes.phi, nodes.w, nodes.root(k, kc)


# Points x theta nodes per block of integral_I: one scratch block of ~256 KiB,
# reused by every block of a call, however many points `a` holds.
_I_BLOCK = 1 << 15


def integral_I(a, k: float, kc: float):
    """I(a, k) = ∫_0^{π/2} dθ / (a + √(1 - k² sin²θ)), kc = √(1 - k²).

    Reduces to K(k) at a = 0 and to π / (2(1 + a)) at k = 0.  `a` may be a
    real or complex scalar or ndarray with Re a >= 0, which keeps the
    denominator kc or more from 0 (k and kc are scalars); the return
    matches `a` in shape and in being real or complex.  The nodes are those
    of `theta_rule(k, kc)`, graded toward θ = π/2, where the square root
    develops a boundary layer as k -> 1: within ~3e-16 relative of 30-digit
    references up to k = β(1e9) ≈ 1 - 8e-11.

    This is the direct quadrature.  The two-cut density, whose a lie in
    [0, √(1-k²)], reads `integral_I_cheb` instead, which is built from 24
    values of this function; the two-cut Cauchy transform takes it at
    a = √(1 - z²) for every |z| < 2.
    """
    a_arr = np.asarray(a)
    a_arr = a_arr.astype(np.result_type(a_arr, float), copy=False)
    if (a_arr.real < 0.0).any() or np.isnan(a_arr).any():
        raise DomainError("integral_I requires Re a >= 0, and no NaN")
    if not (0.0 <= k < 1.0 and 0.0 < kc <= 1.0):
        raise DomainError(f"integral_I requires 0 <= k < 1 and 0 < kc <= 1, got {k!r}, {kc!r}")
    _, w, root = theta_rule(k, kc)
    flat = a_arr.ravel()
    vals = np.empty(flat.shape, a_arr.dtype)
    step = max(1, _I_BLOCK // len(w))
    scratch = np.empty((min(step, flat.size), len(w)), a_arr.dtype)
    for i in range(0, flat.size, step):
        terms = scratch[:flat.size - i]
        np.add(flat[i:i + step, None], root, out=terms)
        np.divide(w, terms, out=terms)
        terms.sum(axis=-1, out=vals[i:i + step])
    if np.ndim(a) == 0:
        return vals[0].item()
    return vals.reshape(a_arr.shape)


# Terms of the Chebyshev interpolant of I(., k) on [0, k'].  Its error falls
# like 5.8^-n at every k (see integral_I_cheb); from 20 terms on it is at
# the rounding level of integral_I itself.
_I_CHEB_TERMS = 24


@lru_cache(maxsize=1)
def _cheb_cosines():
    """1 + cos θ_i at the Chebyshev points θ_i and cos(j θ_i), with j θ_i
    reduced mod 2π in integers first: a rounded θ_i times j would cost up
    to j ulps in the coefficients (read-only)."""
    n = _I_CHEB_TERMS
    odd = 2 * np.arange(n) + 1
    points = 1.0 + np.cos(odd * (0.5 * math.pi / n))
    table = np.cos((np.arange(n)[:, None] * odd) % (4 * n) * (0.5 * math.pi / n))
    points.flags.writeable = table.flags.writeable = False
    return points, table


# Built at import: the cosines, and the one-panel θ table, which the two-cut
# taus next to the critical value read.  The first two-cut call in a process
# then pays neither these builds nor numpy's one-time set-up of the graded
# rule's arithmetic: a density, Cauchy transform, potential and omega at a
# fresh tau took ~2.5x the time of the next such call, ~1.8x now (2-vCPU
# Xeon, `bench/workloads.py::phase_op`).
_cheb_cosines()
_theta_table(1)


@lru_cache(maxsize=1024)
def _I_cheb_coeffs(k: float, kc: float):
    """Chebyshev coefficients of a -> I(a, k) on [0, kc], kc = √(1-k²),
    from its values at the Chebyshev points (read-only, cached per k, kc).
    The first coefficient is stored halved, as Clenshaw's sum wants it."""
    points, table = _cheb_cosines()
    vals = integral_I(0.5 * kc * points, k, kc)
    # The rows j >= 1 of the rounded table still sum to ~-2e-16 each, not 0,
    # which would add ~-5e-15 relative at a = k'; so the mean value goes into
    # the first coefficient directly and only the deviations are transformed.
    # An elementwise table and row sums rather than a matrix product, which
    # would bring in the BLAS buffers for one 24 x 24 product per k.
    mean = vals.mean()
    c = (2.0 / _I_CHEB_TERMS) * (table * (vals - mean)).sum(axis=-1)
    c[0] = 0.5 * c[0] + mean
    c.flags.writeable = False
    return c


def _cache_line_rows(rows: int, n: int) -> np.ndarray:
    """`rows` scratch rows of n doubles, each starting on a 64-byte boundary.

    numpy's vector loops run up to ~1.9x slower on a buffer that starts
    inside a cache line, and malloc promises only 16 bytes, so without this
    the speed of a many-pass loop would be set by where the heap happened
    to put its buffers, which moves from one process to the next."""
    stride = -(-n // 8) * 8
    buf = np.empty(rows * stride + 7)
    start = (-buf.__array_interface__["data"][0] % 64) // 8
    return buf[start:start + rows * stride].reshape(rows, stride)[:, :n]


def integral_I_cheb(a, k: float, kc: float):
    """I(a, k) for 0 <= a <= kc = √(1-k²), from a cached Chebyshev interpolant.

    For fixed k, a -> I(a, k) is a Stieltjes function whose singularities
    lie on [-1, -kc].  Mapped from [0, kc] to [-1, 1] the nearest one sits
    at -3 whatever k is, so the interpolant converges like (3 + √8)^-n
    uniformly in k: with 24 terms it matches `integral_I` to ~1e-15
    relative at every two-cut k.  The coefficients come from 24
    `integral_I` values per k (cached for the 1024 most recent k); each call
    after that is a Clenshaw recurrence over the points, done in place in
    cache-line-aligned scratch rows.
    `a` is a float or an ndarray (the return matches), and is not checked
    against the range: the caller owns that.
    """
    c = _I_cheb_coeffs(k, kc)
    a_arr = np.asarray(a, dtype=float)
    t, two_t, b0, b1, b2 = _cache_line_rows(5, a_arr.size)
    np.multiply(a_arr.reshape(-1), 2.0 / kc, out=t)
    t -= 1.0
    np.multiply(t, 2.0, out=two_t)
    # b_j = c_j + 2t b_{j+1} - b_{j+2}, rotating three buffers
    b1.fill(c[-1])
    b2.fill(0.0)
    for cj in c[-2:0:-1]:
        np.multiply(two_t, b1, out=b0)
        b0 -= b2
        b0 += cj
        b1, b2, b0 = b0, b1, b2
    out = np.multiply(t, b1, out=_cache_line_rows(1, a_arr.size)[0])
    out -= b2
    out += c[0]
    out = out.reshape(a_arr.shape)
    return float(out) if out.ndim == 0 else out
