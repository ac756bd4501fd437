import numpy as np
import pytest

from cmclab import wente as wn
from cmclab.polar_grid import PolarGrid, get_grid

from conftest import fitted_slope


# -- Jacobian right-hand side ---------------------------------------------------

def test_jacobian_unit():
    grid = get_grid(16, 32)
    z = grid.nodes_complex()
    a = wn.ScalarField(z.real, grid)
    b = wn.ScalarField(z.imag, grid)
    assert np.abs(wn.jacobian_rhs(a, b).values - 1.0).max() < 1e-12


def test_jacobian_antisymmetry_bitwise():
    grid = get_grid(32, 32)
    a = wn.random_band_limited(grid, 5)
    b = wn.random_band_limited(grid, 6)
    ab = wn.jacobian_rhs(a, b).values
    ba = wn.jacobian_rhs(b, a).values
    assert np.array_equal(ab, -ba)
    assert np.abs(wn.jacobian_rhs(a, a).values).max() == 0.0


def test_jacobian_polynomial():
    grid = get_grid(16, 32)
    z = grid.nodes_complex()
    a = wn.ScalarField(z.real**2, grid)
    b = wn.ScalarField(z.imag, grid)
    assert np.abs(wn.jacobian_rhs(a, b).values - 2 * z.real).max() < 1e-11


# -- Poisson solver ----------------------------------------------------------------

def test_poisson_radial_solution():
    grid = get_grid(64, 64)
    z = grid.nodes_complex()
    u = wn.poisson_solve_disk(wn.ScalarField(np.ones(z.shape), grid))
    exact = (1 - np.abs(z) ** 2) / 4
    assert np.abs(u.values - exact).max() < 1e-12
    assert abs(np.abs(u.values).max() - 0.25) < 1e-4


def test_poisson_cache_keyed_by_grid_size(monkeypatch):
    # short-lived grids free their ids for reuse: a cache keyed by object
    # identity hands a new grid the matrices of a dead one of another size
    monkeypatch.setattr(wn, "_SOLVER_CACHE", {})
    sizes = (16, 24, 32)
    for i in range(200):
        grid = PolarGrid(sizes[i % 3], 32)
        z = grid.nodes_complex()
        u = wn.poisson_solve_disk(wn.ScalarField(np.ones(z.shape), grid))
        assert np.abs(u.values - (1 - np.abs(z) ** 2) / 4).max() < 1e-12
        del grid, z, u
    assert len(wn._SOLVER_CACHE) <= 3


def test_poisson_zero_rhs():
    grid = get_grid(16, 32)
    u = wn.poisson_solve_disk(wn.ScalarField(np.zeros((17, 32)), grid))
    assert np.abs(u.values).max() < 1e-14


def test_poisson_discrete_residual():
    grid = get_grid(64, 64)
    rhs = wn.random_band_limited(grid, 3)
    u = wn.poisson_solve_disk(rhs)
    resid = grid.laplacian(u.values) - rhs.values[: grid.n_r]
    assert np.abs(resid).max() < 1e-10 * (1 + np.abs(rhs.values).max())


def test_poisson_mms_convergence():
    # manufactured solution with transcendental radial profile:
    # u = sin(pi r^2) + (1/2) sin(pi r^2) r^2 cos(2 theta), zero at r = 1
    errs = []
    for n in (32, 64, 128):
        grid = get_grid(n, 2 * n)
        z = grid.nodes_complex()
        r, th = np.abs(z), np.angle(z)
        s = np.pi * r**2
        f = np.sin(s) * r**2
        fp = 2 * np.pi * r**3 * np.cos(s) + 2 * r * np.sin(s)
        fpp = (-4 * np.pi**2 * r**4 * np.sin(s) + 10 * np.pi * r**2 * np.cos(s)
               + 2 * np.sin(s))
        g = np.sin(s)
        gp = 2 * np.pi * r * np.cos(s)
        gpp = -4 * np.pi**2 * r**2 * np.sin(s) + 2 * np.pi * np.cos(s)
        lap_std = 0.5 * (fpp + fp / r - 4 * f / r**2) * np.cos(2 * th) + gpp + gp / r
        exact = g + 0.5 * f * np.cos(2 * th)
        u = wn.poisson_solve_disk(wn.ScalarField(-lap_std, grid))
        errs.append(np.abs(u.values - exact).max())
    assert fitted_slope(errs) >= 1.9


# -- Wente bounds -------------------------------------------------------------------

def test_wente_analytic_instance():
    grid = get_grid(256, 256)
    z = grid.nodes_complex()
    a = wn.ScalarField(z.real, grid)
    b = wn.ScalarField(z.imag, grid)
    res = wn.wente_check(a, b)
    # analytic: u = (1 - r^2)/4, ||grad a|| ||grad b|| = pi, Dirichlet
    # energy pi/8, so the ratios are 0.5 and sqrt(2/3)
    assert abs(res.ratio_inf - 0.5) < 0.005
    assert abs(res.ratio_grad - np.sqrt(2.0 / 3.0)) < 0.005


def test_wente_equal_arguments():
    grid = get_grid(32, 32)
    a = wn.random_band_limited(grid, 2)
    res = wn.wente_check(a, a)
    assert res.ratio_inf == 0.0 and res.ratio_grad == 0.0


def test_wente_sweep_within_bounds():
    rows = wn.wente_sweep(n_instances=25, n_r=128, n_theta=128, seed0=0)
    assert rows[:, 1].max() <= 1.02
    assert rows[:, 2].max() <= 1.02


# -- trilinear estimate -----------------------------------------------------------------

def test_trilinear_null_lagrangian():
    grid = get_grid(64, 64)
    v = wn.random_band_limited(grid, 7, components=3, zero_boundary=True)
    const = wn.VectorField(np.broadcast_to(np.array([0.3, -1.0, 2.0]),
                                           v.values.shape).copy(), grid)
    res = wn.trilinear_check(const, v)
    assert abs(res.lhs) < 1e-10 * (1 + np.abs(const.values).max())


def test_trilinear_zero_v():
    grid = get_grid(32, 32)
    u = wn.random_band_limited(grid, 4, components=3)
    v = wn.VectorField(np.zeros(u.values.shape), grid)
    res = wn.trilinear_check(u, v)
    assert res.lhs == 0.0 and res.c_estimate == 0.0


def test_trilinear_requires_zero_boundary():
    grid = get_grid(32, 32)
    u = wn.random_band_limited(grid, 4, components=3)
    with pytest.raises(ValueError):
        wn.trilinear_check(u, u)


def test_trilinear_sweep_stable_and_dual_bounded():
    s1 = wn.trilinear_sweep(n_instances=30, n_r=64, n_theta=64, seed0=0)
    s2 = wn.trilinear_sweep(n_instances=30, n_r=128, n_theta=128, seed0=0)
    c1, c2 = s1[:, 1].max(), s2[:, 1].max()
    assert abs(c1 - c2) / c2 < 0.10
    # duality with the gradient Wente bound caps every instance
    assert c2 <= np.sqrt(3 / (16 * np.pi)) * 1.02
    assert c2 <= wn.DEFAULT_TRILINEAR_C0


def test_field_validation():
    grid = get_grid(16, 32)
    with pytest.raises(ValueError):
        wn.ScalarField(np.zeros((17, 32, 3)), grid)
    with pytest.raises(ValueError):
        wn.VectorField(np.full((17, 32, 3), np.inf), grid)
