"""Reference values computed with mpmath, apart from logeq, and the checks on them.

Every check returns a list of problems (empty when the answer is right), so
that the self-test can show each one rejecting a wrong answer.

References:

* regime: the thresholds tau = -1 and tau = 2/(pi - 2);
* beta: the one-cut closed form sqrt(1 - ((1 + tau)/tau)^2), 1 on the full
  interval, and for two-cut tau the root in m = beta^2 of
  ellipe(m) = 1 + 1/tau (E decreases strictly, so the root is unique);
* omega: (1 + tau) log 2 on the full interval, the one-cut closed form, and
  for two-cut tau the coefficient series
      (1+tau)/2 log(4/(1-b^2) ((1-b)/(1+b))^b) + tau sum_k c_{2k-1} c_{2k} b^{2k},
  with c_0..c_3 from ellipe, ellipk and atanh and the rest from the
  three-term recurrence, carried at enough digits to absorb its 1/b^2
  growth per step (selftest.py checks the c_k against mpmath.quad of their
  definition and against mpmath.hyp2f1).
"""

from __future__ import annotations

import json
import math

import mpmath as mp

REF_DPS = 30
TAU_CRITICAL = 2 / (mp.pi - 2)

OMEGA_ATOL = 1e-8          # the cross-route gate of logeq itself
FLATNESS_ATOL = 1e-7       # the accuracy contract of potential_quad
BETA_RESIDUAL = 1e-14      # |E(beta) - (1 + 1/tau)| for a two-cut beta
BETA_ATOL = 1e-13          # closed-form beta (one-cut)
CAUCHY_RTOL = 1e-12        # conjugate symmetry
CAUCHY_QUAD_RTOL = 1e-10   # cauchy against quadrature of the density
SP_ERROR_BOUND = 1e-4      # the sp_error bound of VerificationReport.passes


def regime_ref(tau: float) -> str:
    if tau < -1:
        return "attractive"
    if tau <= TAU_CRITICAL:
        return "intermediate"
    return "repulsive"


def beta_ref(tau: float):
    with mp.workdps(REF_DPS):
        regime = regime_ref(tau)
        if regime == "intermediate":
            return mp.mpf(1)
        t = mp.mpf(tau)
        if regime == "attractive":
            return mp.sqrt(1 - ((1 + t) / t) ** 2)
        target = 1 + 1 / t
        m = mp.findroot(lambda m: mp.ellipe(m) - target,
                        (mp.mpf(0), 1 - mp.mpf(10) ** -25), solver="anderson")
        return +mp.sqrt(m)


def fixed_coefficients(beta, count: int) -> tuple[list[int], int]:
    """c_0 .. c_{count-1}, each as an integer c_k 2^bits, and bits.

    c_k = int_0^1 sqrt((1 - b^2 s^2)/(1 - s^2)) s^k ds.  The recurrence runs
    on integers, about 20 times faster than in mpf for the thousands of terms
    that beta near 1 needs.
    """
    m = beta * beta
    # Forward recurrence multiplies rounding error by about 1/m per step of two.
    extra = int(math.ceil(0.5 * count * math.log10(1 / float(m)))) if m < 1 else 0
    with mp.workdps(REF_DPS + max(extra, 0) + 10):
        m = mp.mpf(m)
        b = mp.sqrt(m)
        e, kk = mp.ellipe(m), mp.ellipk(m)
        c1 = (1 + (1 - m) / b * mp.atanh(b)) / 2
        first = [e, c1, ((2 * m - 1) * e + (1 - m) * kk) / (3 * m),
                 ((1 + 3 * m) * c1 - 1) / (4 * m)]
        bits = mp.mp.prec
        one, mm = 1 << bits, int(mp.nint(mp.ldexp(m, bits)))
        c = [int(mp.nint(mp.ldexp(x, bits))) for x in first]
    for k in range(2, count - 2):
        # b^2 (k+3) c_{k+2} = [k + b^2 (k+2)] c_k - (k-1) c_{k-2}
        c.append(((k * one + mm * (k + 2)) * c[k] - (k - 1) * c[k - 2] * one) // (mm * (k + 3)))
    return c[:count], bits


def coefficients(beta, count: int) -> list:
    """c_0 .. c_{count-1} as mpf."""
    c, bits = fixed_coefficients(beta, count)
    return [mp.ldexp(mp.mpf(v), -bits) for v in c]


def omega_ref(tau: float, beta=None):
    with mp.workdps(REF_DPS):
        regime = regime_ref(tau)
        t = mp.mpf(tau)
        if regime == "intermediate":
            return (1 + t) * mp.log(2)
        b = beta_ref(tau) if beta is None else beta
        if regime == "attractive":
            return ((1 + t) * mp.log(2) - mp.log(b) + 1 + t
                    - t * mp.log(1 + mp.sqrt(1 - b * b)))
        m = b * b
        # Terms are below 2.5 tau m^k; stop once that is 1e-17, which leaves
        # a tail far below the 1e-8 gate even at m = 0.98.
        k_max = int(math.ceil(math.log(1e-17 / (2.5 * tau)) / math.log(float(m)))) + 2
        c, bits = fixed_coefficients(b, 2 * k_max + 1)
        # sum_k c_{2k-1} c_{2k} m^k, in the same fixed point.
        mm = int(mp.nint(mp.ldexp(m, bits)))
        pw, series = 1 << bits, 0
        for k in range(1, k_max + 1):
            pw = pw * mm >> bits
            series += (c[2 * k - 1] * c[2 * k] >> bits) * pw >> bits
        total = (1 + t) / 2 * mp.log(4 / (1 - m) * ((1 - b) / (1 + b)) ** b)
        return +(total + t * mp.ldexp(mp.mpf(series), -bits))


def field_ref(tau: float, x: float):
    """tau V(x) for x in [-1, 1]: V is the potential of the uniform measure."""
    with mp.workdps(REF_DPS):
        x = mp.mpf(x)
        ent = sum(y * mp.log(y) for y in (1 + x, 1 - x) if y > 0)
        return tau * (1 - ent / 2)


def cauchy_quad_ref(tau: float, z: complex):
    """Cauchy transform of a full-interval measure by quadrature of its density."""
    if regime_ref(tau) != "intermediate":
        raise ValueError("cauchy_quad_ref covers the full-interval regime only")
    with mp.workdps(20):
        t, zz = mp.mpf(tau), mp.mpc(z)
        rho = lambda x: (1 + t) / (mp.pi * mp.sqrt(1 - x * x)) - t / 2
        return complex(mp.quad(lambda x: rho(x) / (zz - x), [-1, 0, 1]))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_regime(tau, regime) -> list[str]:
    want = regime_ref(tau)
    return [] if regime == want else [f"tau={tau!r}: regime {regime!r}, expected {want!r}"]


def check_beta(tau, beta, ref=None) -> list[str]:
    regime = regime_ref(tau)
    if regime == "intermediate":
        return [] if beta == 1.0 else [f"tau={tau!r}: beta {beta!r} != 1"]
    if regime == "attractive":
        ref = beta_ref(tau) if ref is None else ref
        err = abs(float(mp.mpf(beta) - ref))
        return [] if err <= BETA_ATOL else [f"tau={tau!r}: beta off by {err:.3g}"]
    with mp.workdps(REF_DPS):
        resid = abs(float(mp.ellipe(mp.mpf(beta) ** 2) - (1 + 1 / mp.mpf(tau))))
    if not resid <= BETA_RESIDUAL:
        return [f"tau={tau!r}: E(beta) - (1 + 1/tau) = {resid:.3g} for beta={beta!r}"]
    return []


def check_omega(tau, omega, ref=None) -> list[str]:
    ref = omega_ref(tau) if ref is None else ref
    err = abs(float(mp.mpf(omega) - ref))
    return [] if err <= OMEGA_ATOL else [f"tau={tau!r}: omega off by {err:.3g}"]


def check_flatness(tau, x, potential, omega) -> list[str]:
    """potential + tau V = omega on the support."""
    err = abs(float(mp.mpf(potential) + field_ref(tau, x) - omega))
    if err <= FLATNESS_ATOL:
        return []
    return [f"tau={tau!r}: potential at x={x!r} misses omega - tau V(x) by {err:.3g}"]


def check_density(tau, values) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and v > 0.0)]
    return [] if not bad else [f"tau={tau!r}: {len(bad)} density values not positive and finite"]


def check_conjugate(tau, z, c, c_conj) -> list[str]:
    err = abs(complex(c_conj) - complex(c).conjugate())
    if err <= CAUCHY_RTOL * max(1.0, abs(c)):
        return []
    return [f"tau={tau!r}: cauchy(conj z) != conj cauchy(z) at z={z!r} (off by {err:.3g})"]


def check_verify_report(tau, fields: dict, passes: bool, two_cut: bool) -> list[str]:
    """The documented bounds of VerificationReport.passes, applied apart."""
    problems = [f"tau={tau!r}: {k} = {v!r} is not finite"
                for k, v in fields.items() if not math.isfinite(v)]
    ok = (fields["mass_error"] <= 1e-8 and fields["flatness_error"] <= 1e-6
          and fields["inequality_margin"] >= -1e-9 and fields["sp_error"] <= SP_ERROR_BOUND
          and fields["cross_route_omega_spread"] <= (1e-8 if two_cut else 1e-6))
    if not ok:
        problems.append(f"tau={tau!r}: residuals outside the verify bounds: {fields}")
    if passes is not ok:
        problems.append(f"tau={tau!r}: passes={passes!r} disagrees with the bounds")
    return problems


def _cli_value(argv, key):
    return argv[argv.index(key) + 1]


def check_cli(argv, stdout: bytes) -> list[str]:
    """Check one command's output against the references."""
    cmd = argv[0]
    tau = float(_cli_value(argv, "--tau"))
    text = stdout.decode("utf-8")
    if cmd == "density":
        lines = text.splitlines()
        n = int(_cli_value(argv, "--n"))
        if lines[0] != "x,density" or len(lines) != n + 1:
            return [f"{' '.join(argv)}: expected header and {n} rows"]
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        b = float(beta_ref(tau))
        if regime_ref(tau) == "repulsive":
            inside = lambda x: b < abs(x) < 1.0
        else:
            inside = lambda x: abs(x) < b
        outside = [x for x, _ in rows if not inside(x)]
        problems = check_density(tau, [v for _, v in rows])
        if outside:
            problems.append(f"{' '.join(argv)}: {len(outside)} rows outside the support")
        return problems
    out = json.loads(text)
    problems = [] if out["tau"] == tau else [f"{' '.join(argv)}: echoed tau {out['tau']!r}"]
    if cmd == "regime":
        problems += check_regime(tau, out["regime"])
    elif cmd == "beta":
        problems += check_regime(tau, out["regime"]) + check_beta(tau, out["beta"])
    elif cmd == "omega":
        problems += check_beta(tau, out["beta"]) + check_omega(tau, out["omega"])
    elif cmd == "potential":
        x = float(_cli_value(argv, "--x"))
        problems += check_flatness(tau, x, out["potential"], omega_ref(tau))
    elif cmd == "cauchy":
        z = complex(float(_cli_value(argv, "--re")), float(_cli_value(argv, "--im")))
        ref = cauchy_quad_ref(tau, z)
        got = complex(out["cauchy_re"], out["cauchy_im"])
        if abs(got - ref) > CAUCHY_QUAD_RTOL * max(1.0, abs(ref)):
            problems.append(f"{' '.join(argv)}: cauchy {got!r} vs quadrature {ref!r}")
    else:
        problems.append(f"no reference for command {cmd!r}")
    return problems
