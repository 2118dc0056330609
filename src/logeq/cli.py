"""Command-line front end.

Exposes the equilibrium computations as small commands that print JSON
objects (scalar queries) or CSV tables (density and figure data) on
stdout, or to a file via --out.  Output is deterministic: identical
invocations produce byte-identical bytes.

Examples:
  python -m logeq.cli regime --tau -2
  python -m logeq.cli beta --tau 2
  python -m logeq.cli density --tau 2 --n 101 --grid chebyshev
  python -m logeq.cli cauchy --tau -2 --re 0.5 --im 0.8
  python -m logeq.cli potential --tau 0 --x 0.25
  python -m logeq.cli omega --tau 2 --method series
  python -m logeq.cli verify --tau 2
  python -m logeq.cli figure --name extfield --tau -2 --out extfield.csv

Exit codes: 0 success, 1 verification failure or cross-route
inconsistency, 2 usage error, 3 domain error (point on a cut, method
invalid for the regime, and so on).
"""

import argparse
import json
import math
import re
import sys

import numpy as np

from .equilibrium import (Regime, cauchy, classify_regime, density,
                          external_field, omega, potential, support)
from .errors import ConsistencyError, DomainError
from .oracle import verify
from .series import omega_integral, omega_series


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form; integer-valued floats drop the '.0'."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _rows(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError("--n must be >= 2")
    return value


def _point(args, parser) -> complex:
    """Evaluation point from --x (real shorthand) or --re/--im."""
    if args.x is not None and (args.re is not None or args.im is not None):
        parser.error("give either --x or --re/--im, not both")
    if args.x is not None:
        return complex(args.x, 0.0)
    if args.re is None:
        parser.error("an evaluation point is required: --x X or --re RE [--im IM]")
    return complex(args.re, 0.0 if args.im is None else args.im)


def _density_table(tau: float, n: int, grid: str):
    """Sample points of the open support interior and the density there.

    Uniform grids inset each endpoint by 1e-6 of the piece width (the
    density is only defined on the open interior); Chebyshev grids use the
    Gauss-Chebyshev nodes mapped to the piece, which are interior already.
    A two-cut support splits the budget n//2 / (n - n//2) between pieces.
    """
    pieces = support(tau).pieces
    counts = (n,) if len(pieces) == 1 else (n // 2, n - n // 2)
    xs = []
    for (lo, hi), m in zip(pieces, counts):
        if grid == "chebyshev":
            j = np.arange(1, m + 1)
            x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(
                (2.0 * j - 1.0) * np.pi / (2.0 * m))
            xs.append(np.sort(x))
        else:
            inset = 1e-6 * (hi - lo)
            xs.append(np.linspace(lo + inset, hi - inset, m))
    x = np.concatenate(xs)
    return x, density(tau, x)


def _csv(header: str, cols) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in zip(*cols))
    return "\n".join(lines) + "\n"


def _cmd_regime(args, parser) -> dict:
    return {"tau": args.tau, "regime": classify_regime(args.tau).value}


def _cmd_beta(args, parser) -> dict:
    sup = support(args.tau)
    return {"tau": args.tau, "regime": sup.regime.value, "beta": sup.beta}


def _cmd_cauchy(args, parser) -> dict:
    z = _point(args, parser)
    value = cauchy(args.tau, z)
    return {"tau": args.tau, "re": z.real, "im": z.imag,
            "cauchy_re": value.real, "cauchy_im": value.imag}


def _cmd_potential(args, parser) -> dict:
    z = _point(args, parser)
    return {"tau": args.tau, "re": z.real, "im": z.imag,
            "potential": potential(args.tau, z)}


def _cmd_omega(args, parser) -> dict:
    if args.tol is not None and args.method != "series":
        parser.error("--tol applies only to --method series")
    regime = classify_regime(args.tau)
    if args.method == "closed" and regime is Regime.REPULSIVE:
        raise DomainError(
            "the repulsive regime has no closed form; use series or integral")
    if args.method == "series":
        value = omega_series(args.tau, 1e-12 if args.tol is None else args.tol).value
    elif args.method == "integral":
        value = omega_integral(args.tau)
    else:
        value = omega(args.tau)
    return {"tau": args.tau, "regime": regime.value,
            "beta": support(args.tau).beta,
            "omega": value, "method": args.method}


def _cmd_verify(args, parser) -> dict:
    report = verify(args.tau)
    return {"tau": report.tau,
            "mass_error": report.mass_error,
            "flatness_error": report.flatness_error,
            "inequality_margin": report.inequality_margin,
            "sp_error": report.sp_error,
            "cross_route_omega_spread": report.cross_route_omega_spread,
            "pass": report.passes}


def _cmd_density(args, parser) -> str:
    return _csv("x,density", _density_table(args.tau, args.n, args.grid))


def _cmd_figure(args, parser) -> str:
    if args.name == "extfield":
        x = np.linspace(-1.0, 1.0, args.n)
        return _csv("x,value", (x, external_field(args.tau, x)))
    tau_fig = -2.0 if args.name == "fig2" else 2.0
    return _csv("x,value", _density_table(tau_fig, args.n, "uniform"))


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logeq",
        description="Logarithmic equilibrium on [-1, 1] with a uniform "
                    "background field of strength tau: regime and support "
                    "queries, density tables, Cauchy transform, potential, "
                    "equilibrium constant, and verification reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    # options that several commands share, declared once
    tau = argparse.ArgumentParser(add_help=False)
    tau.add_argument("--tau", type=_finite, required=True, help="field strength")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--x", type=_finite, help="real evaluation point")
    point.add_argument("--re", type=_finite, help="real part of the point")
    point.add_argument("--im", type=_finite, help="imaginary part (default 0)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--n", type=_rows, default=201, help="number of rows (default 201)")
    table.add_argument("--out", help="write CSV here instead of stdout")

    def command(name, func, parents, summary):
        p = sub.add_parser(name, parents=parents, help=summary)
        # usage errors found after parsing are reported by this parser;
        # argparse takes an argument for a value, not an option, when it
        # looks like a negative number, and its own test knows only "-123"
        # and "-1.5", so "--tau -1e8" would read "-1e8" as an option
        p.set_defaults(func=func, parser=p)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        return p

    command("regime", _cmd_regime, [tau], "classify tau into its regime")
    command("beta", _cmd_beta, [tau], "support endpoint parameter beta")
    command("cauchy", _cmd_cauchy, [tau, point], "Cauchy transform at a point off the support")
    command("potential", _cmd_potential, [tau, point], "logarithmic potential at a point")
    p = command("omega", _cmd_omega, [tau], "equilibrium constant")
    p.add_argument("--method", choices=("auto", "closed", "series", "integral"),
                   default="auto",
                   help="closed form (non-repulsive), series/integral "
                        "(repulsive), or auto (default)")
    p.add_argument("--tol", type=_finite,
                   help="series tail tolerance (series method only; default 1e-12)")
    command("verify", _cmd_verify, [tau], "run the verification suite at one tau")
    p = command("density", _cmd_density, [tau, table], "CSV table of the equilibrium density")
    p.add_argument("--grid", choices=("uniform", "chebyshev"), default="uniform",
                   help="sample layout (default uniform)")
    p = command("figure", _cmd_figure, [table], "CSV data behind the reference figures")
    p.add_argument("--name", choices=("fig2", "fig3", "extfield"), required=True,
                   help="fig2: density at tau=-2; fig3: density at tau=2; "
                        "extfield: tau*V(x) on [-1, 1]")
    p.add_argument("--tau", type=_finite, default=-2.0,
                   help="field strength for extfield (fig2/fig3 fix their own)")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    """Run one command and write what it returns, a JSON payload (dict) or
    CSV text, to stdout or to --out.  Exit code 1 for a failed verification."""
    args = _build_parser().parse_args(argv)
    try:
        result = args.func(args, args.parser)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = result if isinstance(result, str) else json.dumps(result) + "\n"
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 0 if isinstance(result, str) or result.get("pass", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
