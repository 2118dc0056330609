"""The batched quadrature core.

Panels built for many intervals at once must be the floats that the
one-interval helpers give, and potential_quad over an array of points must
agree with the same points taken one at a time.
"""

import math

import numpy as np
import pytest

from logeq._quad import composite_nodes, geometric_breaks, gl_map
from logeq.equilibrium import support
from logeq.errors import DomainError
from logeq.oracle import potential_quad
from logeq.specfun import integral_I


def _gl_map_stack(breaks, order):
    pairs = [gl_map(lo, hi, order) for lo, hi in zip(breaks[:-1], breaks[1:])]
    return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])


@pytest.mark.parametrize("order", [16, 32])
def test_composite_nodes_equal_gl_map_stack(order):
    breaks = geometric_breaks(-0.3, 0.7123, toward=0.7123, n_panels=25)
    x, w = composite_nodes(breaks, order)
    x_ref, w_ref = _gl_map_stack(breaks, order)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(w, w_ref)


def test_composite_nodes_rows_equal_gl_map_stacks():
    rows = np.array([geometric_breaks(0.0, s, toward=0.0, n_panels=20)
                     for s in (1e-9, 0.37, 1.0, 2.5)])
    x, w = composite_nodes(rows, 16)
    assert x.shape == w.shape == (4, 21 * 16)
    for row, xr, wr in zip(rows, x, w):
        x_ref, w_ref = _gl_map_stack(row, 16)
        assert np.array_equal(xr, x_ref)
        assert np.array_equal(wr, w_ref)


def test_geometric_breaks_rows_equal_scalar_calls():
    lo = np.array([-0.9, 0.1, 0.5])
    hi = np.array([-0.2, 0.3, 0.5 + 1e-9])
    toward = np.array([-0.2, 0.1, 0.5])
    n = np.array([34, 34, 30])
    rows = geometric_breaks(lo, hi, toward=toward, n_panels=n)
    assert rows.shape == (3, 36)
    for i in range(2):
        assert np.array_equal(rows[i], geometric_breaks(lo[i], hi[i], toward[i], 34))
    # the shallower row: its own breaks, after zero-width panels at `toward`
    ref = geometric_breaks(lo[2], hi[2], toward[2], 30)
    assert np.array_equal(rows[2, 4:], ref)
    assert np.all(rows[2, :5] == lo[2])
    _, w = composite_nodes(rows[2], 16)
    assert np.all(w[:4 * 16] == 0.0)


def test_geometric_breaks_rejects_interior_target():
    with pytest.raises(ValueError):
        geometric_breaks(0.0, 1.0, toward=0.5)
    with pytest.raises(ValueError):
        geometric_breaks(np.zeros(2), np.ones(2), toward=np.array([0.0, 0.5]))


@pytest.mark.parametrize("k", [0.4, 0.9995])
def test_integral_I_blocks_match_one_broadcast(k):
    # more points than one block holds, in a 2-D layout
    a = np.linspace(0.0, 3.0, 7 * 80).reshape(7, -1)
    if k <= 0.999:
        theta, w = gl_map(0.0, 0.5 * math.pi, 64)
    else:
        breaks = geometric_breaks(0.0, 0.5 * math.pi, toward=0.5 * math.pi,
                                  n_panels=30)
        theta, w = composite_nodes(breaks, 32)
    root = np.sqrt(1.0 - (k * np.sin(theta)) ** 2)
    ref = np.sum(w / (a[..., None] + root), axis=-1)
    got = integral_I(a, k)
    assert got.shape == a.shape
    assert np.array_equal(got, ref)
    assert isinstance(integral_I(0.25, k), float)


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
