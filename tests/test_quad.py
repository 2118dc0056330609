"""The batched quadrature core.

Panels built for many intervals at once must be the floats that the
one-interval helpers give, and potential_quad over an array of points must
agree with the same points taken one at a time.
"""

import math

import numpy as np
import pytest

from logeq._quad import composite_nodes, geometric_breaks, gl_map
from logeq.equilibrium import (TAU_CRITICAL, Regime, external_field, omega,
                               potential, support)
from logeq.errors import DomainError
from logeq.oracle import _product_log_rule, _support_grid, _unit_row, potential_quad
from logeq.specfun import integral_I, theta_rule


def _gl_map_stack(breaks, order):
    pairs = [gl_map(lo, hi, order) for lo, hi in zip(breaks[:-1], breaks[1:])]
    return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])


@pytest.mark.parametrize("order", [16, 32])
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


def test_geometric_breaks_rows_equal_scalar_calls():
    span = np.array([0.7, 0.2, 1e-9])
    n = np.array([34, 34, 30])
    rows = geometric_breaks(span, n)
    assert rows.shape == (3, 36)
    for i in range(2):
        assert np.array_equal(rows[i], geometric_breaks(span[i], 34))
        assert rows[i, 1] == span[i] * 2.0 ** -34 and rows[i, -1] == span[i]
    # the shallower row: its own breaks, after zero-width panels at 0
    ref = geometric_breaks(span[2], 30)
    assert np.array_equal(rows[2, 4:], ref)
    assert np.all(rows[2, :5] == 0.0)
    _, w = composite_nodes(rows[2], 16)
    assert np.all(w[:4 * 16] == 0.0)


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
    # From |z| = 1e100 on the potential is -log|z| to double precision; the
    # quadrature just below that agrees, and no squared distance overflows
    # further out.
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
