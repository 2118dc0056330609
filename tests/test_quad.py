"""The batched quadrature core.

Panels built for many intervals at once must be the floats that the
one-interval helpers give, and potential_quad over an array of points must
agree with the same points taken one at a time.
"""

import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from logeq._quad import composite_nodes, geometric_breaks, gl_map, gl_rule
from logeq.equilibrium import (TAU_CRITICAL, Regime, Support, external_field, omega,
                               potential, support)
from logeq.errors import DomainError
from logeq.oracle import (_FAR_POINT, _RUNGS, _edge_halvings, _product_log_rule,
                          _support_grid, _unit_row, potential_quad)
from logeq.specfun import integral_I, theta_rule

TABULATED = (16, 24, 64, 128, 256)


def _gl_map_stack(breaks, order):
    pairs = [gl_map(lo, hi, order) for lo, hi in zip(breaks[:-1], breaks[1:])]
    return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])


@pytest.mark.parametrize("order", [16, 64])
def test_composite_nodes_equal_gl_map_stack(order):
    breaks = geometric_breaks(0.7123, 25)
    x, w = composite_nodes(breaks, order)
    x_ref, w_ref = _gl_map_stack(breaks, order)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(w, w_ref)


def test_composite_nodes_rows_equal_gl_map_stacks():
    rows = np.array([geometric_breaks(s, 20) for s in (1e-9, 0.37, 1.0, 2.5)])
    x, w = composite_nodes(rows, 16)
    assert x.shape == w.shape == (4, 21 * 16)
    for row, xr, wr in zip(rows, x, w):
        x_ref, w_ref = _gl_map_stack(row, 16)
        assert np.array_equal(xr, x_ref)
        assert np.array_equal(wr, w_ref)


def test_gl_rule_matches_numpy_leggauss():
    # numpy's leggauss gives the nodes to within an ulp, but its weights are
    # off by up to 2.1e-11 relative at n = 256 (ulp-sized node errors, seen
    # through a weight formula steep at the outermost nodes).
    from numpy.polynomial.legendre import leggauss
    for n in TABULATED:
        x, w = gl_rule(n)
        x_ref, w_ref = leggauss(n)
        assert x.shape == w.shape == (n,)
        assert np.max(np.abs(x - x_ref)) <= 2.3e-16, n
        assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-9, n
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
        assert abs(math.fsum(w) - 2.0) <= 1e-15, n


def test_gl_rule_is_the_generated_table():
    # The committed table is the generator's output, bit for bit; the
    # generator rounds each 40-digit node and weight once, to the nearest
    # double.
    here = os.path.dirname(os.path.abspath(__file__))
    spec = importlib.util.spec_from_file_location(
        "gauss_legendre_table", os.path.join(here, "gauss_legendre_table.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.ORDERS == TABULATED
    rules = {n: gen.half_rule(n) for n in TABULATED}
    for n, (nodes, weights) in rules.items():
        x, w = gl_rule(n)
        assert x[n // 2:].tolist() == nodes and w[n // 2:].tolist() == weights, n
    table = os.path.join(os.path.dirname(here), "src", "logeq", "_gl_table.py")
    with open(table, encoding="utf-8") as handle:
        assert handle.read() == gen.render(rules)


# The outermost node and weight of each order, 40 digits (mpmath's legendre
# at 60 digits, Newton from cos(3 pi/(4n + 2))).
OUTERMOST = {
    16: ("0.9894009349916499325961541734503326274263", "0.02715245941175409485178057245601810351227"),
    24: ("0.9951872199970213601799974097007368118746", "0.01234122979998719954680566707003729157591"),
    64: ("0.9993050417357721394569056243456363119697", "0.001783280721696432947296079144971933179959"),
    128: ("0.9998248879471319144736080829818741716017", "0.0004493809602920903763942922399887226543195"),
    256: ("0.9999560500189922307348012101684159360759", "0.0001127890178222721755125388772498376055902"),
}


@pytest.mark.parametrize("order", TABULATED)
def test_gl_rule_outermost_node_and_weight_are_correctly_rounded(order):
    # the weight formula is steepest here: an ulp in the node moves the
    # weight by ~ulp/(1 - x), which leggauss's arithmetic left in its weights
    from mpmath import mpf, workdps
    x, w = gl_rule(order)
    with workdps(40):
        node, weight = (float(mpf(text)) for text in OUTERMOST[order])
    assert x[-1] == node and w[-1] == weight


def test_gl_rule_does_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gl_rule reached numpy.linalg")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    gl_rule.cache_clear()
    try:
        for n in TABULATED:
            x, w = gl_rule(n)
            assert x.shape == w.shape == (n,)
    finally:
        gl_rule.cache_clear()


def test_gl_rule_rejects_orders_that_are_not_tabulated():
    for order in (1, 2, 15, 17, 32, 160, 300, np.int64(100)):
        with pytest.raises(DomainError, match="tabulated"):
            gl_rule(order)


@pytest.mark.parametrize("order", [0, -3, 2.5, 16.0, "16", None])
def test_gl_rule_rejects_orders_that_are_not_positive_integers(order):
    with pytest.raises(DomainError):
        gl_rule(order)


def test_gl_rule_arrays_are_read_only():
    # the cached rule is shared by every later panel of its order
    x, w = gl_rule(16)
    with pytest.raises(ValueError):
        w *= 2.0
    with pytest.raises(ValueError):
        x[0] = 0.0


_NO_POLYNOMIAL = """
import contextlib, io, sys
import logeq
from logeq import cli
for tau in (-3.0, 0.4, 3.5):
    logeq.verify(tau)
logeq.report(5.0)
logeq.c_quadrature(0.5, 300)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["beta", "--tau", "3"], ["omega", "--tau", "5", "--method", "series"],
                 ["density", "--tau", "3", "--n", "201"],
                 ["potential", "--tau", "3", "--x", "0.9"]):
        assert cli.main(argv) == 0, argv
assert "numpy.polynomial" not in sys.modules
"""


def test_no_route_imports_numpy_polynomial():
    # numpy.polynomial's import alone cost 2-4 ms on the first quadrature
    # call of every process.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _NO_POLYNOMIAL],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("k", [0.4, 0.9995])
def test_integral_I_blocks_match_one_broadcast(k):
    # more points than one block holds, in a 2-D layout
    a = np.linspace(0.0, 3.0, 7 * 80).reshape(7, -1)
    kc = math.sqrt(1.0 - k * k)
    _, w, root = theta_rule(k, kc)
    ref = np.sum(w / (a[..., None] + root), axis=-1)
    got = integral_I(a, k, kc)
    assert got.shape == a.shape
    assert np.array_equal(got, ref)
    assert isinstance(integral_I(0.25, k, kc), float)


@pytest.mark.parametrize("order", [16, 64])
def test_unit_row_integrates_polynomials(order):
    # one unit row per depth, scaled to each half-piece: in the offset x its
    # weights integrate x^k on [0, half], and its offsets rise from the edge
    for depth in (0, 1, 10, 54):
        off, w = _unit_row(depth, order)
        assert np.all(np.diff(off) > 0.0) and 0.0 < off[0] and off[-1] < 1.0
        for half in (0.2, 0.5 + 1e-9, 0.7123):
            for k in range(4):
                exact = half ** (k + 1) / (k + 1)
                got = np.sum(half * w * (half * off) ** k)
                assert abs(got - exact) <= 1e-14 * exact, (depth, half, k)


@pytest.mark.parametrize("halvings", [0, 3, 10])
def test_unit_row_layout_follows_its_halvings(halvings):
    # the edge rule takes 16 (halvings + 1) nodes below 2^-depth, and D_depth
    # starts right after it, for the shared row and for deep rows alike
    for depth in (10, 11, 31):
        off, w = _unit_row(depth, halvings=halvings)
        start = 16 * (halvings + 1)
        assert off.size == start + 16 * depth
        assert off[start - 1] < 0.5 ** depth < off[start]
        assert abs(np.sum(w) - 1.0) <= 1e-15


# Both ends of each slot of the verify workload: intermediate, one-cut and
# two-cut, the last one tau in [9.5, 11.5)
VERIFY_SLOT_ENDS = (-0.95, -0.3, 0.4, 1.1, 1.7, -1.6, -1.1, -3.0, -6.0, -12.0,
                    1.9, 2.8, 4.0, 5.5, 7.0, 9.5, 11.5)


@pytest.mark.parametrize("tau", VERIFY_SLOT_ENDS)
def test_edge_rule_takes_no_halving_at_the_verify_taus(tau):
    # the density's edge layer is no thinner than the edge rule's one panel:
    # 176 nodes per edge in the shared row
    halvings = _edge_halvings(support(tau))
    assert halvings == 0
    assert _unit_row(_RUNGS, halvings=halvings)[0].size == 176


@pytest.mark.parametrize("tau", [-1.001, -1.0 - 1e-6, TAU_CRITICAL + 1e-9, TAU_CRITICAL + 1e-12])
def test_edge_rule_halves_where_the_edge_layer_is_thin(tau):
    # next to tau = -1 kc -> 0, just above the critical tau beta -> 0
    halvings = _edge_halvings(support(tau))
    assert 0 < halvings <= _RUNGS
    if tau == -1.0 - 1e-6:
        assert halvings == _RUNGS


def _probe_points(tau):
    pieces = support(tau).pieces
    pts = []
    for lo, hi in pieces:
        pts += [lo + 1e-10, hi - 1e-10, lo + 0.31 * (hi - lo), lo - 1e-10, hi + 1e-10]
    if len(pieces) == 2:
        beta = pieces[1][0]
        pts += [0.0, 0.5 * beta, -0.9 * beta]
    pts += [1.7, -2.2, complex(0.4, 0.9), complex(pieces[0][0], 1e-3),
            complex(-0.2, -0.05)]
    return pts


@pytest.mark.parametrize("tau", [-2.0, 0.5, 2.0, 5.0])
def test_potential_quad_batch_matches_points(tau):
    zs = _probe_points(tau)
    one_by_one = np.array([potential_quad(tau, z) for z in zs])
    batch = potential_quad(tau, np.array(zs, dtype=complex))
    assert batch.shape == (len(zs),)
    assert np.all(np.abs(batch - one_by_one) <= 1e-13)
    # a real array is accepted as well, and the shape of z is kept
    reals = np.array([z for z in zs if isinstance(z, float)])
    grid = potential_quad(tau, reals[:6].reshape(2, 3))
    assert grid.shape == (2, 3)
    assert np.all(np.abs(grid.ravel() - potential_quad(tau, reals[:6])) <= 1e-13)


def test_potential_quad_scalar_in_float_out():
    assert type(potential_quad(2.0, 0.9)) is float
    assert type(potential_quad(-2.0, complex(0.3, 0.1))) is float
    assert type(potential_quad(0.5, np.float64(0.2))) is float
    assert potential_quad(0.5, np.array([0.2])).shape == (1,)
    assert potential_quad(0.5, np.array([])).shape == (0,)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(0.3, math.nan),
                               np.array([0.1, math.inf]), np.array([[0.2], [math.nan]])])
def test_potential_quad_rejects_non_finite_points(z):
    with pytest.raises(DomainError):
        potential_quad(0.5, z)


@pytest.mark.parametrize("tau", [-2.0, 0.5, 2.0])
def test_potential_quad_far_points(tau):
    # Far out the potential is -log|z| to double precision, and no squared
    # distance overflows on the way there.
    zs = np.array([1e99, -1e100, 1e200j, 1.7e308])
    got = potential_quad(tau, zs)
    assert np.all(np.abs(got + np.log(np.abs(zs))) <= 1e-12 * np.abs(got))


def test_product_log_rule_integrates_log_moments():
    # exact for p(u) log u with deg p < 24: ∫_0^1 u^k log u du = -1/(k+1)^2
    u, w, v = _product_log_rule()
    assert u.shape == w.shape == v.shape == (24,)
    for k in range(24):
        assert abs(np.sum(v * u ** k) + 1.0 / (k + 1) ** 2) <= 1e-15, k
        assert abs(np.sum(w * u ** k) - 1.0 / (k + 1)) <= 1e-15, k


@pytest.mark.parametrize("tau", [-1.001, -2.0, -8.0, -0.5, 0.5, TAU_CRITICAL])
def test_potential_quad_on_the_support_matches_closed_form(tau):
    # the product rule takes the log point exactly, also 1e-10 from a hard
    # edge, where the density is largest
    sup = support(tau)
    lo, hi = sup.pieces[0]
    xs = np.concatenate([_support_grid(sup, 200, 1e-3), [lo + 1e-10, hi - 1e-10]])
    err = np.abs(potential_quad(tau, xs) - potential(tau, xs))
    assert np.max(err) <= 1e-11 * max(1.0, abs(tau))


@pytest.mark.parametrize("tau", [-1.001, -2.0, -0.5, TAU_CRITICAL])
def test_potential_quad_next_to_the_axis(tau):
    # complex points over a piece grade down to |Im z| and take the plain
    # rule innermost; the closed form takes -Re g at every point off the
    # axis, however close.  The last two stop the grading at its cap, one
    # of them subnormal.
    xs = _support_grid(support(tau), 20, 1e-3)
    for eps in np.append(10.0 ** -np.arange(2, 16), [1e-300, 1e-320]):
        z = xs + 1j * eps
        err = np.abs(potential_quad(tau, z) - potential(tau, z))
        assert np.max(err) <= 1e-10, eps


@pytest.mark.parametrize("tau", [-2.0, -0.5, 0.5])
def test_potential_quad_off_an_edge_within_its_edge_panel(tau):
    # With no halving, the innermost edge panel reaches L 2^-10 from the
    # edge: a point off the piece between L 2^-30 and L 2^-10 of an edge
    # takes its own graded rule there in place of the panel.  Real points,
    # points on the normal through the edge and points at 45 and 17 degrees
    # outward, against the closed form, to its off-support accuracy.
    sup = support(tau)
    assert _edge_halvings(sup) == 0
    d = sup.half_length * 2.0 ** -np.arange(10.5, 30.5, 0.75)
    z = []
    for e, s in ((sup.pieces[0][0], -1.0), (sup.pieces[0][1], 1.0)):
        for turn in (1.0, np.exp(0.25j * np.pi), np.exp(0.3j), 1j, -1j):
            z.append(e + s * d * turn)
    z = np.concatenate(z)
    ref = potential(tau, z)
    err = np.abs(potential_quad(tau, z) - ref)
    assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 3e-15


def test_two_cut_flatness_next_to_the_edges():
    tau = 3.0
    w = omega(tau)
    xs = []
    for lo, hi in support(tau).pieces:
        for off in (1e-9, 1e-6):
            xs += [lo + off, hi - off]
        # one ulp inside: every node stays off the edge
        xs += [np.nextafter(lo, hi), np.nextafter(hi, lo)]
    xs = np.array(xs)
    assert np.max(np.abs(potential_quad(tau, xs) + external_field(tau, xs) - w)) <= 1e-10


def _seam_points(lo, hi):
    # delta = L 2^-k from either edge, where the rung of a point flips (past
    # k = 9 the point takes the row of its own rung), and the midpoint, each
    # with its neighbours an ulp to either side
    half = 0.5 * (hi - lo)
    xs = np.array([0.5 * (lo + hi)] + [e + s * np.ldexp(half, -k)
                                       for k in range(14) for e, s in ((lo, 1.0), (hi, -1.0))])
    return np.concatenate([np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf)])


@pytest.mark.parametrize("tau", [-8.0, -2.0, -1.001, 0.5, TAU_CRITICAL])
def test_potential_quad_at_the_rung_seams(tau):
    lo, hi = support(tau).pieces[0]
    xs = _seam_points(lo, hi)
    err = np.abs(potential_quad(tau, xs) - potential(tau, xs))
    assert np.max(err) <= 1e-11 * max(1.0, abs(tau))


@pytest.mark.parametrize("tau", [2.0, 3.0, 30.0, 1e3])
def test_two_cut_flatness_at_the_rung_seams(tau):
    xs = np.concatenate([_seam_points(lo, hi) for lo, hi in support(tau).pieces])
    err = np.abs(potential_quad(tau, xs) + external_field(tau, xs) - omega(tau))
    assert np.max(err) <= 1e-12


@pytest.mark.parametrize("tau", [2.0, 3.0, 30.0, 1e3])
def test_two_cut_potential_on_the_support_is_the_equilibrium_level(tau):
    # on two cuts `potential` answers omega - tau V(x) on the support, as in
    # the other regimes; potential_quad is the independent reference
    xs = []
    for lo, hi in support(tau).pieces:
        xs += [np.linspace(lo, hi, 100), [np.nextafter(lo, hi), np.nextafter(hi, lo)]]
    xs = np.concatenate(xs)
    u, ref = potential(tau, xs), potential_quad(tau, xs)
    assert np.all(np.abs(u - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("tau", [-2.0, 0.5, TAU_CRITICAL, 2.0, 3.0, 30.0, 1e3])
def test_potential_quad_batch_with_a_point_an_ulp_inside_an_edge(tau):
    # the deep point takes the row of its own rung; the others keep theirs
    sup = support(tau)
    lo, hi = sup.pieces[-1]
    xs = np.concatenate([[np.nextafter(hi, lo)], _support_grid(sup, 40, 1e-3),
                         [np.nextafter(lo, hi)]])
    batch = potential_quad(tau, xs)
    assert np.all(np.abs(batch - [potential_quad(tau, x) for x in xs]) <= 1e-13)
    if sup.regime is Regime.REPULSIVE:
        err = np.abs(batch + external_field(tau, xs) - omega(tau))
        assert np.max(err) <= 1e-12
    else:
        err = np.abs(batch - potential(tau, xs))
        assert np.max(err) <= 1e-11 * max(1.0, abs(tau))


def _count_density_points(monkeypatch):
    import logeq.oracle as oracle_mod
    counts = {"density": 0, "all": 0, "calls": 0}
    real_density, real_offset = oracle_mod.density, oracle_mod._density_offset

    def density(tau, x):
        counts["density"] += np.size(x)
        counts["all"] += np.size(x)
        return real_density(tau, x)

    def offset(tau, edge, off):
        counts["all"] += np.size(off)
        counts["calls"] += 1
        return real_offset(tau, edge, off)

    monkeypatch.setattr(oracle_mod, "density", density)
    monkeypatch.setattr(oracle_mod, "_density_offset", offset)
    return counts


def test_potential_quad_density_evaluations(monkeypatch):
    # The rows of the pieces are shared by all points; a point on a piece
    # adds only the ~110 nodes of the span it leaves out of them, and one
    # density call per |edge| and block of 256 points takes rows and spans
    # together, none through the public density.  Points off a piece take
    # its row whole, so the gap grid costs the same for 20 points as for 200.
    counts = _count_density_points(monkeypatch)
    tau = 3.0 + 1e-7 * math.pi
    sup = support(tau)
    potential_quad(tau, _support_grid(sup, 200, 1e-3))
    assert counts["density"] == 0
    assert counts["all"] <= 50_000
    assert counts["calls"] <= 12
    gap = []
    for n in (20, 200):
        counts["all"] = 0
        beta = sup.beta
        potential_quad(tau, np.linspace(-0.999 * beta, 0.999 * beta, n))
        gap.append(counts["all"])
    assert 0 < gap[0] == gap[1]


@pytest.mark.parametrize("tau", [-2.0, -1e8, 0.5, 3.0, 1e7])
def test_potential_quad_at_the_far_point(tau):
    # From _FAR_POINT times the outer edge of the support on the value is
    # -log|z|; just below it the quadrature, whose products of two squared
    # distances stay finite, gives the same to the last digits.
    far = _FAR_POINT * support(tau).pieces[-1][1]
    below = far * (1.0 - 2.0 ** -20)
    zs = np.array([below, -below, complex(0.6 * below, 0.8 * below), 1j * below,
                   far, -far, complex(-0.6 * far, 0.8 * far)])
    got = potential_quad(tau, zs)
    want = -np.log(np.abs(zs))
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("tau", [-8.0, -1e8, -1e100, -1e300])
def test_potential_quad_on_a_narrow_cut(tau):
    # One cut of half-width beta ~ sqrt(2/|tau|), down to 1.4e-150, where
    # squared distances underflow: the shared rows take distances in units
    # of a power of two near beta, the spans and edge panels take logs of
    # distances.  U(0) = log 2 - log beta + 1 - tau log1p(1/(2 tau)), and on
    # the support U(x) - U(0) = -tau (V(x) - V(0)), V(x) - V(0) =
    # -x atanh x - log1p(-x^2)/2; U is even, bit for bit.
    beta = support(tau).beta
    u0 = math.log(2.0) - math.log(beta) + 1.0 - tau * math.log1p(0.5 / tau)
    x = beta * np.array([0.0, 0.3, 0.77, 1.0 - 1e-10, 1.0])
    u = potential_quad(tau, x)
    assert abs(u[0] - u0) <= 1e-15 * abs(u0)
    remainder = u - u[0] - tau * (x * np.arctanh(x) + 0.5 * np.log1p(-x * x))
    assert np.max(np.abs(remainder)) <= 4.0 * np.spacing(u0)
    zs = np.concatenate((x, beta * np.array([1.0 + 1e-12, 1.5, 1e3 + 1j, 1.0 + 1e-12 + 1e-13j])))
    got = potential_quad(tau, zs)
    assert np.all(np.isfinite(got)) and np.array_equal(got, potential_quad(tau, -zs))


# U(1) on two cuts in remainder form, U(1) = log(2/k') + 1 - tau int_0^(pi/2)
# sin phi log1p(k'^2 cos^2 phi / (2 sin phi (R + sin phi))) dphi with
# R = sqrt(k'^2 + beta^2 sin^2 phi), k'^2 the root of E(sqrt(1 - k'^2)) =
# 1 + 1/tau: mpmath at 40 digits.
OUTER_EDGE_U = [(1e5, 7.6305431596756480384), (1e7, 10.069249606392695036),
                (1e10, 13.673924076482364076), (1e12, 16.055858068721904481),
                (1e14, 18.426596797239899706)]


@pytest.mark.parametrize("tau, ref", OUTER_EDGE_U)
def test_two_cut_potential_at_the_outer_edge(monkeypatch, tau, ref):
    # The rows of the inner edges reach a point past the middle of a piece
    # from its outer edge, w - (1 - x) with w from kc: moving beta by an
    # ulp, which rounds it anyway, leaves the potential there where it is.
    import logeq.oracle as oracle_mod
    u = potential_quad(tau, 1.0)
    assert abs(u - ref) <= 2e-15 * ref
    sup = support(tau)
    for direction in (math.inf, -math.inf):
        moved = Support(sup.regime, math.nextafter(sup.beta, direction), sup.kc)
        monkeypatch.setattr(oracle_mod, "support", lambda t: moved)
        assert abs(potential_quad(tau, 1.0) - u) <= 1e-14 * abs(u)


@pytest.mark.parametrize("tau", [1e13, 1.49e14, 2.1e14, 354636506318314.44])
def test_two_cut_flatness_on_pieces_a_few_doubles_wide(tau):
    # Past tau ~ 1e13 a piece holds a few dozen doubles or fewer, and the
    # rounding of beta is a good part of its width: a point takes its span
    # from the width that kc gives, as the density does, and never more
    # than half of it from its nearer edge.  Every double of the piece and
    # its mirror image is finite and flat to a few tau eps, the rounding
    # of tau V.
    lo, hi = support(tau).pieces[-1]
    xs = [np.nextafter(lo, hi)]
    while xs[-1] < hi and len(xs) < 100:
        xs.append(np.nextafter(xs[-1], hi))
    xs = np.array(xs[:-1])
    xs = np.concatenate((xs, -xs))
    err = np.abs(potential_quad(tau, xs) + external_field(tau, xs) - omega(tau))
    assert np.max(err) <= 8.0 * tau * np.finfo(float).eps


def test_the_deep_rung_path_leaves_numpy_ma_unimported():
    # A point past rung _RUNGS picks the rows of its rung by a bincount:
    # np.unique would import numpy.ma, ~10 ms on the first call in a process.
    code = ("import sys; from logeq.oracle import potential_quad, verify; "
            "potential_quad(0.5, 1 - 1e-6); verify(3.0); print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "False"
