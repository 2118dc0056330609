#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each accepts logeq's answer and
rejects a wrong one, and the mpmath references agree with their definitions.

    python3 bench/selftest.py

Takes a few seconds.  It is not named test_*.py, so the repository's pytest
run does not collect it.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import json

import mpmath as mp

import logeq
import refs
import run
import workloads

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def accepts(problems, what):
    expect(problems == [], f"accepts {what}" + (f": {problems}" if problems else ""))


def rejects(problems, what):
    expect(problems != [], f"rejects {what}")


def references():
    # c_k from the recurrence against quadrature of the definition and the
    # hypergeometric closed form.
    with mp.workdps(40):
        for beta in (mp.mpf("3e-5"), mp.mpf("0.42"), mp.mpf("0.95"), mp.mpf("0.988")):
            c = refs.coefficients(beta, 60)
            worst = 0
            for k in (0, 1, 2, 3, 4, 11, 37, 59):
                quad = mp.quad(lambda t: mp.sqrt(1 - (beta * mp.sin(t)) ** 2) * mp.sin(t) ** k,
                               [0, mp.pi / 2])
                hyp = (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(k + 1) / 2) / (2 * mp.gamma(mp.mpf(k) / 2 + 1))
                       * mp.hyp2f1(-mp.mpf(1) / 2, mp.mpf(k + 1) / 2, mp.mpf(k) / 2 + 1, beta ** 2))
                worst = max(worst, abs(c[k] - quad) / quad, abs(c[k] - hyp) / hyp)
            expect(worst < 1e-25, f"c_k(beta={mp.nstr(beta, 3)}) matches quad and hyp2f1 ({mp.nstr(worst, 2)})")
    # omega is continuous at both regime boundaries.
    tc = float(refs.TAU_CRITICAL)
    for lo, hi in ((-1.0 - 1e-12, -1.0), (tc, tc + 1e-12)):
        gap = abs(float(refs.omega_ref(hi) - refs.omega_ref(lo)))
        expect(gap < 1e-9, f"omega_ref continuous across tau={lo:.6g} ({gap:.2g})")
    # beta solves its equation.
    b = refs.beta_ref(5.0)
    expect(abs(float(mp.ellipe(b * b) - mp.mpf(6) / 5)) < 1e-25, "beta_ref(5) solves E(beta) = 1 + 1/tau")


def checks():
    for tau in (-3.0, 0.5, 3.0):
        rep = logeq.report(tau)
        w, b = rep.omega, rep.beta
        accepts(refs.check_regime(tau, rep.regime.value), f"regime at tau={tau}")
        rejects(refs.check_regime(tau, "repulsive" if tau < 1 else "attractive"),
                f"a wrong regime at tau={tau}")
        accepts(refs.check_beta(tau, b), f"beta at tau={tau}")
        accepts(refs.check_omega(tau, w), f"omega at tau={tau}")
        rejects(refs.check_omega(tau, w + 1e-6), f"omega off by 1e-6 at tau={tau}")
        x = rep.beta * 0.5 if tau < -1 else (0.2 if tau < 1.75 else 0.5 * (1 + b))
        p = logeq.potential(tau, x)
        accepts(refs.check_flatness(tau, x, p, refs.omega_ref(tau)), f"potential at tau={tau}")
        rejects(refs.check_flatness(tau, x, p + 1e-6, refs.omega_ref(tau)),
                f"potential off by 1e-6 at tau={tau}")
        z = complex(0.3, 0.6)
        c, cc = logeq.cauchy(tau, z), logeq.cauchy(tau, z.conjugate())
        accepts(refs.check_conjugate(tau, z, c, cc), f"cauchy symmetry at tau={tau}")
        rejects(refs.check_conjugate(tau, z, c, c), f"cauchy(conj z) = cauchy(z) at tau={tau}")
    rejects(refs.check_beta(3.0, (1 - logeq.support(3.0).beta ** 2) ** 0.5),
            "beta from the complementary modulus at tau=3")
    rejects(refs.check_beta(3.0, logeq.support(3.0).beta + 1e-9), "beta off by 1e-9 at tau=3")
    rejects(refs.check_beta(-3.0, logeq.support(-3.0).beta + 1e-10), "beta off by 1e-10 at tau=-3")
    rejects(refs.check_beta(0.5, 0.999), "beta != 1 on the full interval")
    rejects(refs.check_density(3.0, [0.1, -1e-3, 0.2]), "a negative density value")
    rejects(refs.check_density(3.0, [0.1, float("nan")]), "a NaN density value")

    fields = {"mass_error": 1e-12, "flatness_error": 1e-12, "inequality_margin": 1e-3,
              "sp_error": 1e-9, "cross_route_omega_spread": 1e-12}
    accepts(refs.check_verify_report(3.0, fields, True, True), "a passing verify report")
    rejects(refs.check_verify_report(3.0, dict(fields, sp_error=2e-4), True, True),
            "passes=True with sp_error over its bound")
    rejects(refs.check_verify_report(3.0, dict(fields, flatness_error=float("nan")), False, True),
            "a NaN residual")
    rep = logeq.verify(10.0)
    f10 = {k: getattr(rep, k) for k in fields}
    rejects(refs.check_verify_report(10.0, f10, rep.passes, True),
            "verify(10): the sp_density fault the benchmark counts as a failure")

    # A failed operation is allowed only on the input of a named fault, and
    # only with that fault's failure.
    fault = workloads.Item(10.0, workloads.SP_DENSITY_FAULT)
    accepts(run.check("verify", [run.Record(fault, rep, None, 1.0, True)], logeq),
            "verify(10) failing on sp_error, its named fault")
    rejects(run.check("verify", [run.Record(workloads.Item(10.0), rep, None, 1.0, True)], logeq),
            "verify(10) failing where no fault is named")
    rejects(run.check("verify", [run.Record(fault, None, "ConsistencyError: x", 1.0, True)], logeq),
            "the sp_density input raising instead")
    tau_near = workloads.TAU_CRITICAL + 5e-12
    near = workloads.Item(tau_near, workloads.NEAR_CRITICAL_FAULT, complex(0.3, 0.7))
    domain = "DomainError: beta^2 too small"
    accepts(run.check("phase_sweep", [run.Record(near, None, domain, 1.0, True)], logeq),
            "a near-critical tau raising DomainError, its named fault")
    rejects(run.check("phase_sweep", [run.Record(workloads.Item(3.0, z=0.3 + 0.6j), None, domain,
                                                 1.0, True)], logeq),
            "a DomainError where no fault is named")
    rejects(run.check("phase_sweep", [run.Record(near, None, "ConsistencyError: x", 1.0, True)],
                      logeq), "the near-critical input failing with another error")


def cli():
    def out(**kw):
        return json.dumps(kw).encode()

    b3 = logeq.support(3.0).beta
    w5 = logeq.omega(5.0)
    accepts(refs.check_cli(("beta", "--tau", "3.0"), out(tau=3.0, regime="repulsive", beta=b3)),
            "cli beta")
    rejects(refs.check_cli(("beta", "--tau", "3.0"), out(tau=3.0, regime="repulsive", beta=b3 * 1.001)),
            "cli beta off by 0.1%")
    accepts(refs.check_cli(("omega", "--tau", "5.0", "--method", "series"),
                           out(tau=5.0, regime="repulsive", beta=logeq.support(5.0).beta, omega=w5,
                               method="series")), "cli omega")
    rejects(refs.check_cli(("omega", "--tau", "5.0", "--method", "series"),
                           out(tau=5.0, regime="repulsive", beta=logeq.support(5.0).beta,
                               omega=w5 + 1e-6, method="series")), "cli omega off by 1e-6")
    z = complex(0.25, 0.5)
    c = logeq.cauchy(0.7, z)
    argv = ("cauchy", "--tau", "0.7", "--re", "0.25", "--im", "0.5")
    accepts(refs.check_cli(argv, out(tau=0.7, re=0.25, im=0.5, cauchy_re=c.real, cauchy_im=c.imag)),
            "cli cauchy against quadrature")
    rejects(refs.check_cli(argv, out(tau=0.7, re=0.25, im=0.5, cauchy_re=c.real, cauchy_im=-c.imag)),
            "cli cauchy on the wrong branch")
    x = [-0.99, -0.95, -0.9, -0.85, -0.8, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99]
    rho = logeq.density(3.0, x)
    table = "x,density\n" + "".join(f"{a!r},{float(v)!r}\n" for a, v in zip(x, rho))
    accepts(refs.check_cli(("density", "--tau", "3.0", "--n", "11"), table.encode()), "cli density")
    shifted = table.replace(f"{x[0]!r},", f"{-b3 * 0.5!r},", 1)
    rejects(refs.check_cli(("density", "--tau", "3.0", "--n", "11"), shifted.encode()),
            "a cli density row in the gap")
    cmd = ("regime", "--tau", "-2.0")
    same = out(tau=-2.0, regime="attractive")
    recs = [run.Record(cmd, (0, same, b""), None, 1.0, False),
            run.Record(cmd, (0, same + b" ", b""), None, 1.0, False)]
    rejects(run.check("cli_cold", recs, logeq), "cli outputs that differ between repeats")
    recs = [run.Record(cmd, (1, same, b"boom"), None, 1.0, True)]
    rejects(run.check("cli_cold", recs, logeq), "a cli command exiting 1")

    item = workloads.Item(3.0, z=complex(0.3, 0.6))
    good = run.Record(item, workloads.phase_op(logeq, item), None, 0.0, False)
    accepts(run.check("phase_sweep", [good], logeq), "a phase_sweep answer")
    good.output.omega += 1e-6
    rejects(run.check("phase_sweep", [good], logeq), "a phase_sweep answer with omega off by 1e-6")


if __name__ == "__main__":
    references()
    checks()
    cli()
    print(f"{len(FAILURES)} failures")
    sys.exit(1 if FAILURES else 0)
