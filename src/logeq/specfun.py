"""Complete elliptic integrals and related special values.

Everything here is hand-rolled from provably convergent schemes: the
arithmetic-geometric mean for K and E, Carlson symmetric duplication for the
third-kind integral, fixed-order Gauss-Legendre for the two-parameter
integral I(a, k), and a plain power series for the hypergeometric values
feeding the coefficient tables.  The modulus convention is used throughout:
the `k` arguments below multiply sin^2 inside the square root as k^2.
"""

from __future__ import annotations

import math

import numpy as np

from ._quad import geometric_breaks, composite_nodes, gl_map
from .errors import DomainError

# Moduli this close to 1 make K blow up past any sensible use; reject them.
_K_MODULUS_CAP = 1.0 - 1e-12

# AGM converges quadratically; 64 iterations is far beyond what doubles need.
_AGM_MAX_ITER = 64


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind.

    Parameters
    ----------
    k : float
        Modulus, 0 <= k < 1 - 1e-12.

    Returns
    -------
    float
        K(k) = ∫_0^{π/2} (1 - k² sin²θ)^{-1/2} dθ, computed as
        π / (2 agm(1, √(1-k²))).
    """
    if not (0.0 <= k < _K_MODULUS_CAP):
        raise DomainError(f"complete_K requires 0 <= k < 1 - 1e-12, got {k!r}")
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= 2e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


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
# Carlson symmetric forms (duplication method, double-precision error bounds)
# ---------------------------------------------------------------------------

def _carlson_rc(x: float, y: float) -> float:
    """Degenerate symmetric integral R_C(x, y), x >= 0, y > 0."""
    third = 1.0 / 3.0
    w = 1.0
    for _ in range(1000):
        lam = 2.0 * math.sqrt(x) * math.sqrt(y) + y
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        ave = third * (x + y + y)
        s = (y - ave) / ave
        if abs(s) < 0.0012:
            break
    return w * (1.0 + s * s * (0.3 + s * (1.0 / 7.0 + s * (0.375 + s * 9.0 / 22.0)))) / math.sqrt(ave)


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Symmetric integral of the first kind R_F(x, y, z), args >= 0."""
    third = 1.0 / 3.0
    for _ in range(1000):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        ave = third * (x + y + z)
        dx = (ave - x) / ave
        dy = (ave - y) / ave
        dz = (ave - z) / ave
        if max(abs(dx), abs(dy), abs(dz)) < 0.0025:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / math.sqrt(ave)


def _carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Symmetric integral of the third kind R_J(x, y, z, p), p > 0."""
    c1, c2, c3, c4 = 3.0 / 14.0, 1.0 / 3.0, 3.0 / 22.0, 3.0 / 26.0
    total = 0.0
    fac = 1.0
    for _ in range(1000):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        alpha = (p * (sx + sy + sz) + sx * sy * sz) ** 2
        beta = p * (p + lam) ** 2
        total += fac * _carlson_rc(alpha, beta)
        fac *= 0.25
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        p = 0.25 * (p + lam)
        ave = 0.2 * (x + y + z + 2.0 * p)
        dx = (ave - x) / ave
        dy = (ave - y) / ave
        dz = (ave - z) / ave
        dp = (ave - p) / ave
        if max(abs(dx), abs(dy), abs(dz), abs(dp)) < 0.0015:
            break
    ea = dx * (dy + dz) + dy * dz
    eb = dx * dy * dz
    ec = dp * dp
    ed = ea - 3.0 * ec
    ee = eb + 2.0 * dp * (ea - ec)
    tail = (1.0 + ed * (-c1 + 0.75 * c3 * ed - 1.5 * c4 * ee)
            + eb * (0.5 * c2 + dp * (-c3 - c3 + dp * c4))
            + dp * ea * (c2 - dp * c3) - c2 * dp * ec) / (ave * math.sqrt(ave))
    return 3.0 * total + fac * tail


def complete_Pi(n: float, k: float) -> float:
    """Complete elliptic integral of the third kind.

    Π(n, k) = ∫_0^{π/2} dθ / ((1 - n sin²θ) √(1 - k² sin²θ)), evaluated
    through Carlson forms as R_F(0, 1-k², 1) + (n/3) R_J(0, 1-k², 1, 1-n).

    Parameters
    ----------
    n : float
        Characteristic, n < 1.
    k : float
        Modulus, 0 <= k < 1 - 1e-12.
    """
    if not (0.0 <= k < _K_MODULUS_CAP):
        raise DomainError(f"complete_Pi requires 0 <= k < 1 - 1e-12, got k={k!r}")
    if not n < 1.0:
        raise DomainError(f"complete_Pi requires characteristic n < 1, got {n!r}")
    kc2 = 1.0 - k * k
    val = _carlson_rf(0.0, kc2, 1.0)
    if n != 0.0:
        val += n / 3.0 * _carlson_rj(0.0, kc2, 1.0, 1.0 - n)
    return val


# ---------------------------------------------------------------------------
# The two-parameter kernel integral
# ---------------------------------------------------------------------------

# Points x theta nodes per block of integral_I: its temporaries stay near
# 256 KiB (in cache, and flat in memory) however many points `a` holds.
_I_BLOCK = 1 << 15


def integral_I(a, k: float):
    """I(a, k) = ∫_0^{π/2} dθ / (a + √(1 - k² sin²θ)).

    Reduces to K(k) at a = 0 and to π / (2(1 + a)) at k = 0.  `a` may be a
    scalar or an ndarray (k is always scalar); the return matches the shape
    of `a`.  Fixed 64-point Gauss-Legendre is exact to ~1e-15 for k <= 0.999;
    above that the quadrature switches to bisected panels piling up at
    θ = π/2 where the square root develops a boundary layer.
    """
    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr < 0.0):
        raise DomainError("integral_I requires a >= 0")
    if not (0.0 <= k < _K_MODULUS_CAP):
        raise DomainError(f"integral_I requires 0 <= k < 1 - 1e-12, got k={k!r}")
    if k <= 0.999:
        theta, w = gl_map(0.0, 0.5 * math.pi, 64)
    else:
        breaks = geometric_breaks(0.0, 0.5 * math.pi, toward=0.5 * math.pi,
                                  n_panels=30)
        theta, w = composite_nodes(breaks, 32)
    root = np.sqrt(1.0 - (k * np.sin(theta)) ** 2)
    flat = a_arr.ravel()
    vals = np.empty(flat.shape)
    step = max(1, _I_BLOCK // len(theta))
    for i in range(0, flat.size, step):
        terms = flat[i:i + step, None] + root
        np.divide(w, terms, out=terms)
        vals[i:i + step] = np.sum(terms, axis=-1)
    if np.ndim(a) == 0:
        return float(vals[0])
    return vals.reshape(a_arr.shape)


def hyp2F1_ck(k_index: int, m: float) -> float:
    """Gauss hypergeometric value 2F1(-1/2, (k+1)/2; k/2 + 1; m).

    This is the exact hypergeometric factor appearing in the closed form of
    the moment coefficients c_k; see the series module.  Plain power series,
    truncated when a term drops below 1e-16 of the running sum.  After the
    leading 1 every term is negative, so the value decreases strictly in m.

    Parameters
    ----------
    k_index : int
        The coefficient index k >= 0.
    m : float
        Series argument, 0 <= m < 1 (m = beta² in all uses here).
    """
    if k_index < 0 or k_index != int(k_index):
        raise DomainError(f"k_index must be a nonnegative integer, got {k_index!r}")
    if not (0.0 <= m < 1.0):
        raise DomainError(f"hyp2F1_ck requires 0 <= m < 1, got {m!r}")
    a = -0.5
    b = 0.5 * (k_index + 1)
    c = 0.5 * k_index + 1.0
    term = 1.0
    total = 1.0
    for n in range(100000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * m
        total += term
        if abs(term) < 1e-16 * abs(total):
            return total
    raise DomainError(f"hyp2F1_ck series did not converge for m={m!r}")
