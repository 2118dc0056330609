"""Generator of `src/logeq/_gl_table.py`, the frozen Gauss-Legendre rules.

    python tests/gauss_legendre_table.py > src/logeq/_gl_table.py

Each node is a root of P_n found by Newton's method in 40-digit mpmath
arithmetic, from the start cos(pi (4i - 1)/(4n + 2)); its weight is
2/((1 - x^2) P_n'(x)^2).  Both are rounded once, to the nearest double, and
written in their shortest round-trip decimal form.  `test_quad.py` checks
that the committed table is this script's output, bit for bit.
"""

import mpmath

ORDERS = (16, 24, 64, 128, 256)
DIGITS = 40
_PER_LINE = 4


def _legendre(n, x):
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    p0, p1 = mpmath.mpf(1), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


def half_rule(n):
    """The positive nodes of the order-n rule, increasing, and their weights,
    each correctly rounded to a double (n even)."""
    nodes, weights = [], []
    with mpmath.workdps(DIGITS):
        tol = mpmath.mpf(10) ** (-DIGITS // 2 - 5)
        for i in range(n // 2, 0, -1):
            x = mpmath.cos(mpmath.pi * (4 * i - 1) / (4 * n + 2))
            while True:
                p, dp = _legendre(n, x)
                x -= p / dp
                if abs(p / dp) < tol:
                    break
            _, dp = _legendre(n, x)
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return nodes, weights


def _block(values):
    rows = (" ".join(repr(v) for v in values[i:i + _PER_LINE])
            for i in range(0, len(values), _PER_LINE))
    return '"""\n' + "\n".join(rows) + '\n"""'


def render(rules):
    """The source text of `_gl_table.py`, from {n: half_rule(n)}."""
    out = ['"""Gauss-Legendre rules on [-1, 1], correctly rounded to double.',
           "",
           "Generated by tests/gauss_legendre_table.py (mpmath, "
           f"{DIGITS} digits); do not edit.",
           "RULES[n] holds two strings: the n/2 positive nodes of the order-n rule,",
           "increasing, and their weights.  The negative half is the mirror image.",
           '"""', "", "RULES = {"]
    for n, (nodes, weights) in rules.items():
        out.append(f"    {n}: ({_block(nodes)}, {_block(weights)}),")
    out.append("}")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    print(render({n: half_rule(n) for n in ORDERS}), end="")
