import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmclab import balance as bal
from cmclab import implicit_domains as dom
from cmclab.errors import DegenerateGradient, NonConvergence

from conftest import fitted_slope


# -- projection --------------------------------------------------------------

def test_project_ball_radial(unit_ball):
    q = dom.project_to_boundary(unit_ball, np.array([0.0, 0.0, 0.5]))
    assert np.allclose(q, [0, 0, 1], atol=1e-12)


def test_project_fixed_point(unit_ball):
    q = dom.project_to_boundary(unit_ball, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(q, [0, 0, 1], atol=1e-12)


def test_project_ellipsoid_axis(ellipsoid_211):
    # axis symmetry: the 1-D restriction phi(t, 0, 0) has its zero at t = 2
    q = dom.project_to_boundary(ellipsoid_211, np.array([3.0, 0.0, 0.0]))
    assert np.allclose(q, [2, 0, 0], atol=1e-10)


def test_projection_postconditions(ellipsoid_211):
    # points in a shell around the boundary (the documented precondition:
    # inside the tubular neighborhood of the level set)
    rng = np.random.default_rng(4)
    direction = rng.normal(size=(40, 3))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    on_surface = dom.project_to_boundary(ellipsoid_211, direction * np.array([2, 1.5, 1]))
    p = on_surface + rng.uniform(-0.15, 0.15, size=(40, 1)) * direction
    q = dom.project_to_boundary(ellipsoid_211, p)
    assert np.abs(ellipsoid_211.phi(q)).max() < 1e-11
    d = q - p
    g = ellipsoid_211.grad_phi(q)
    keep = np.linalg.norm(d, axis=-1) > 1e-10
    sin_angle = np.linalg.norm(np.cross(d[keep], g[keep]), axis=-1) / (
        np.linalg.norm(d[keep], axis=-1) * np.linalg.norm(g[keep], axis=-1))
    assert sin_angle.max() < 1e-8


def test_projection_nonconvergence_carries_solver_state(ellipsoid_211):
    # the first row is on the boundary and passes at once; the others need
    # more than one Newton step
    p = np.array([[2.0, 0.0, 0.0], [3.0, 1.0, 1.0], [0.5, 2.0, 2.0]])
    with pytest.raises(NonConvergence) as info:
        dom.project_to_boundary(ellipsoid_211, p, max_iter=1)
    err = info.value
    assert err.iterations == 1
    assert err.unconverged == 2
    assert 0 < err.distance < np.inf and 0 < err.line_residual < np.inf
    msg = str(err)
    assert "after 1 Newton steps" in msg and "2 of 3 rows unconverged" in msg
    assert f"{err.distance:.3g}" in msg and f"{err.line_residual:.3g}" in msg


# points outside the surface, from closed-form surface points scaled out

_SURFACES = {
    "ellipsoid": (dom.ellipsoid(2.0, 1.5, 1.0), lambda u: u * np.array([2.0, 1.5, 1.0])),
    "bumpy": (dom.bumpy_ball(1.0, 0.05),
              lambda u: u * (1.0 + 0.05 * np.prod(u, axis=-1, keepdims=True))),
}

_directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)
_outside = st.lists(st.tuples(_directions, st.floats(0.01, 0.5)), min_size=1, max_size=12)


def _outside_points(kind, draws):
    norms = np.array([np.linalg.norm(u) for u, _ in draws])
    assume(norms.min() > 1e-3)
    u = np.array([u for u, _ in draws]) / norms[:, None]
    out = 1.0 + np.array([delta for _, delta in draws])[:, None]
    return _SURFACES[kind][1](u) * out


@pytest.mark.parametrize("kind", sorted(_SURFACES))
@settings(max_examples=40, deadline=None)
@given(draws=_outside)
def test_projection_batch_rows_match_single(kind, draws):
    domain = _SURFACES[kind][0]
    p = _outside_points(kind, draws)
    q = dom.project_to_boundary(domain, p)
    for i in range(len(p)):
        assert np.array_equal(q[i], dom.project_to_boundary(domain, p[i]))


@pytest.mark.parametrize("kind", sorted(_SURFACES))
@settings(max_examples=40, deadline=None)
@given(draws=_outside)
def test_projection_idempotent(kind, draws):
    domain = _SURFACES[kind][0]
    q = dom.project_to_boundary(domain, _outside_points(kind, draws))
    again = dom.project_to_boundary(domain, q)
    assert np.abs(again - q).max() <= 1e-13 * domain.diagonal


@settings(max_examples=100, deadline=None)
@given(normals=st.lists(_directions, min_size=1, max_size=8))
def test_tangent_basis_orthonormal(normals):
    n = np.array(normals)
    norms = np.linalg.norm(n, axis=-1, keepdims=True)
    assume(norms.min() > 1e-3)
    n = n / norms
    basis = dom.tangent_basis(n)
    gram = np.einsum("pai,pbi->pab", basis, basis)
    assert np.abs(gram - np.eye(2)).max() <= 1e-14
    assert np.abs(np.einsum("pai,pi->pa", basis, n)).max() <= 1e-14


# -- normals and curvature ----------------------------------------------------

def test_boundary_normals_trivial(unit_ball, ellipsoid_211):
    assert np.allclose(dom.boundary_normal(unit_ball, np.array([0.0, 0, 1])), [0, 0, 1])
    assert np.allclose(dom.boundary_normal(unit_ball, np.array([1.0, 0, 0])), [1, 0, 0])
    assert np.allclose(dom.boundary_normal(ellipsoid_211, np.array([2.0, 0, 0])), [1, 0, 0])


def test_degenerate_gradient_raises():
    d = dom.ball(1.0)
    with pytest.raises(DegenerateGradient):
        dom.boundary_normal(d, np.array([0.0, 0.0, 0.0]))


def test_mean_curvature_values(unit_ball, ellipsoid_211):
    assert np.isclose(dom.mean_curvature(unit_ball, np.array([0.0, 0, 1.0])), 1.0)
    big = dom.ball(2.0)
    assert np.isclose(dom.mean_curvature(big, np.array([0.0, 0, 2.0])), 0.5)
    # axis endpoint: principal curvatures a/b^2 and a/c^2
    expect = 0.5 * (2 / 1.5**2 + 2 / 1.0**2)
    assert np.isclose(dom.mean_curvature(ellipsoid_211, np.array([2.0, 0, 0])), expect,
                      rtol=1e-12)


def test_shape_operator_symmetric_and_tangent(ellipsoid_211):
    rng = np.random.default_rng(11)
    q = dom.project_to_boundary(ellipsoid_211, rng.normal(size=(25, 3)))
    S, _ = dom.shape_operator(ellipsoid_211, q)
    assert np.abs(S[:, 0, 1] - S[:, 1, 0]).max() < 1e-8
    n = dom.boundary_normal(ellipsoid_211, q)
    basis = dom.tangent_basis(n)
    dots = np.abs(np.einsum("pi,pai->pa", n, basis))
    assert dots.max() < 1e-10


def test_scaling_law():
    for factory, q0 in ((dom.ball, np.array([0.0, 0, 1.0])),):
        d1 = factory(1.0)
        d3 = factory(3.0)
        h1 = dom.mean_curvature(d1, q0)
        h3 = dom.mean_curvature(d3, 3.0 * q0)
        assert np.isclose(h3, h1 / 3.0, atol=1e-8)
    # scaled ellipsoid via semi-axes
    e1 = dom.ellipsoid(2, 1.5, 1)
    e2 = dom.ellipsoid(4, 3, 2)
    q = dom.project_to_boundary(e1, np.array([1.0, 0.9, 0.4]))
    assert np.isclose(dom.mean_curvature(e2, 2 * q), dom.mean_curvature(e1, q) / 2,
                      atol=1e-8)


# -- surface gradient of H ----------------------------------------------------

def _parametric_grad_h(a, b, c, q, h=1e-5):
    """Independent oracle: finite differences of closed-form H in the
    spherical parametrization, raised with the parametric metric."""
    semi = np.array([a, b, c], float)

    def point(th, ph):
        return semi * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                np.cos(th)])

    def H_of(th, ph):
        p = point(th, ph)
        g = 2 * p / semi**2
        gn = np.linalg.norm(g)
        hess_tr = np.sum(2 / semi**2)
        g_h_g = np.sum(g * (2 / semi**2) * g)
        return (hess_tr * gn**2 - g_h_g) / (2 * gn**3)

    th = np.arccos(np.clip(q[2] / c, -1, 1))
    ph = np.arctan2(q[1] / b, q[0] / a)
    e_th = (point(th + h, ph) - point(th - h, ph)) / (2 * h)
    e_ph = (point(th, ph + h) - point(th, ph - h)) / (2 * h)
    dH = np.array([(H_of(th + h, ph) - H_of(th - h, ph)) / (2 * h),
                   (H_of(th, ph + h) - H_of(th, ph - h)) / (2 * h)])
    G = np.array([[e_th @ e_th, e_th @ e_ph], [e_ph @ e_th, e_ph @ e_ph]])
    coeff = np.linalg.solve(G, dH)
    return coeff[0] * e_th + coeff[1] * e_ph


def test_surface_grad_h_sphere_zero(unit_ball):
    g = dom.surface_grad_H(unit_ball, np.array([0.0, 0, 1.0]))
    assert np.linalg.norm(g) < 1e-9


def test_surface_grad_h_vertex_critical(ellipsoid_211):
    g = dom.surface_grad_H(ellipsoid_211, np.array([2.0, 0.0, 0.0]))
    assert np.linalg.norm(g) < 1e-6


def test_surface_grad_h_direction_matches_parametric_oracle(ellipsoid_211):
    q = dom.project_to_boundary(ellipsoid_211, np.array([1.0, 1.0, 0.5]))
    got = dom.surface_grad_H(ellipsoid_211, q)
    want = _parametric_grad_h(2, 1.5, 1, q)
    cos = got @ want / (np.linalg.norm(got) * np.linalg.norm(want))
    assert np.arccos(np.clip(cos, -1, 1)) < 1e-2
    assert np.isclose(np.linalg.norm(got), np.linalg.norm(want), rtol=1e-3)


def test_surface_grad_h_tangent(ellipsoid_211):
    rng = np.random.default_rng(2)
    q = dom.project_to_boundary(ellipsoid_211, rng.normal(size=(20, 3)))
    g = dom.surface_grad_H(ellipsoid_211, q)
    n = dom.boundary_normal(ellipsoid_211, q)
    bound = 1e-8 * np.linalg.norm(g, axis=-1) + 1e-12
    assert np.all(np.abs(np.sum(g * n, axis=-1)) <= bound)


def test_grad_h_step_refinement(ellipsoid_211):
    # halving the step changes the reported gradient at second order
    q = dom.project_to_boundary(ellipsoid_211, np.array([1.0, 1.0, 0.5]))
    exact = _parametric_grad_h(2, 1.5, 1, q, h=1e-6)
    errs = [np.linalg.norm(dom.surface_grad_H(ellipsoid_211, q, step=s) - exact)
            for s in (4e-3, 2e-3, 1e-3)]
    assert fitted_slope(errs) >= 1.9


# -- normal jets ----------------------------------------------------------------

def test_jet_unit_ball_identity(unit_ball):
    jet = dom.normal_jet(unit_ball, np.array([0.0, 0, 1.0]))
    for i in range(2):
        assert np.allclose(jet.d_normal[:, i], jet.tangent_basis[i], atol=1e-12)
    # Taylor coefficient of the sphere normal: -(1/2) delta_ij q
    for i in range(2):
        for j in range(2):
            expect = -0.5 * np.array([0, 0, 1.0]) if i == j else np.zeros(3)
            assert np.allclose(jet.d2_normal[:, i, j], expect, atol=1e-6)


def test_jet_scaling(unit_ball):
    big = dom.ball(2.0)
    jet = dom.normal_jet(big, np.array([0.0, 0, 2.0]))
    for i in range(2):
        assert np.allclose(jet.d_normal[:, i], 0.5 * jet.tangent_basis[i], atol=1e-12)


def test_jet_ellipsoid_axis(ellipsoid_211):
    jet = dom.normal_jet(ellipsoid_211, np.array([2.0, 0, 0]))
    # deterministic basis at N = e_x is (e_y, e_z)
    assert np.allclose(jet.tangent_basis, [[0, 1, 0], [0, 0, 1]], atol=1e-14)
    assert np.allclose(jet.d_normal[:, 0], [0, 2 / 1.5**2, 0], atol=1e-12)
    assert np.allclose(jet.d_normal[:, 1], [0, 0, 2.0], atol=1e-12)


def test_jet_second_order_symmetry_and_cross_route(ellipsoid_211):
    q = dom.project_to_boundary(ellipsoid_211, np.array([1.0, 0.8, 0.6]))
    jet = dom.normal_jet(ellipsoid_211, q)
    assert np.abs(jet.d2_normal - np.transpose(jet.d2_normal, (0, 2, 1))).max() < 1e-12
    # independent route: second differences of N along projected tangent steps
    h = 1e-4 * ellipsoid_211.diagonal

    def n_at(v):
        p = dom.project_to_boundary(
            ellipsoid_211, q + v[0] * jet.tangent_basis[0] + v[1] * jet.tangent_basis[1])
        return dom.boundary_normal(ellipsoid_211, p)

    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        second = 0.5 * (n_at(e) - 2 * jet.normal + n_at(-e)) / h**2
        assert np.allclose(second, jet.d2_normal[:, i, i], atol=1e-5)
    e = np.array([h, h])
    mixed = 0.5 * (n_at(e) - n_at([h, -h]) - n_at([-h, h]) + n_at(-e)) / (4 * h**2)
    assert np.allclose(mixed, jet.d2_normal[:, 0, 1], atol=1e-5)


# -- critical points ------------------------------------------------------------

def test_critical_points_ball_flag(unit_ball):
    res = dom.find_critical_points(unit_ball, n_seeds=16, tol=1e-8)
    assert res.h_constant
    assert np.isclose(res.h_value, 1.0)


def test_critical_points_ellipsoid(ellipsoid_211):
    res = dom.find_critical_points(ellipsoid_211, n_seeds=48, tol=1e-6)
    assert not res.h_constant
    pts = np.array([cp.point for cp in res.points])
    expect = np.array([[-2, 0, 0], [0, -1.5, 0], [0, 0, -1], [0, 0, 1],
                       [1e-9, 1.5, 0], [2, 0, 0]], float)
    assert len(pts) == 6
    for e in [[2, 0, 0], [-2, 0, 0], [0, 1.5, 0], [0, -1.5, 0], [0, 0, 1], [0, 0, -1]]:
        assert np.min(np.linalg.norm(pts - np.array(e, float), axis=-1)) < 1e-5
    # closed-form axis-endpoint curvatures: H is largest at the long-axis
    # tips (a/b^2 + a/c^2)/2 = 13/9 and smallest at the short-axis tips
    by_h = sorted(res.points, key=lambda cp: cp.h_value)
    assert np.isclose(by_h[-1].h_value, 13 / 9, rtol=1e-9)
    assert np.isclose(by_h[0].h_value, 25 / 72, rtol=1e-9)
    assert abs(by_h[-1].point[0]) == pytest.approx(2.0, abs=1e-6)
    labels = sorted(cp.label for cp in res.points)
    assert labels == ["max", "max", "min", "min", "saddle", "saddle"]


def _serial_tangent_field_zeros(domain, field_fn, seeds, tol, step=None, max_iter=60):
    """Reference: the one-seed-at-a-time Newton loop the batched search replaced."""
    h = domain.fd_step() if step is None else float(step)
    dedup = 1e-3 * domain.diagonal
    found = []
    for seed in np.atleast_2d(seeds):
        q = dom.project_to_boundary(domain, seed)
        for _ in range(max_iter):
            n = dom.boundary_normal(domain, q)
            basis = dom.tangent_basis(n)
            f0 = field_fn(q[None])[0]
            g0 = basis @ f0
            if np.linalg.norm(f0) < tol:
                break
            J = np.zeros((2, 2))
            for j in range(2):
                fp = field_fn(dom.project_to_boundary(domain, q + h * basis[j])[None])[0]
                fm = field_fn(dom.project_to_boundary(domain, q - h * basis[j])[None])[0]
                J[:, j] = basis @ (fp - fm) / (2 * h)
            try:
                dv = np.linalg.solve(J, -g0)
            except np.linalg.LinAlgError:
                break
            norm_dv = np.linalg.norm(dv)
            cap = 0.05 * domain.diagonal
            if norm_dv > cap:
                dv *= cap / norm_dv
            q = dom.project_to_boundary(domain, q + dv[0] * basis[0] + dv[1] * basis[1])
        else:
            continue
        if np.linalg.norm(field_fn(q[None])[0]) >= tol:
            continue
        if not any(np.linalg.norm(q - prev) < dedup for prev in found):
            found.append(q)
    return found


_FIELDS = {
    "grad_H": lambda domain: (lambda pts: dom.surface_grad_H(domain, pts)),
    "reduced_force": lambda domain: (lambda pts: bal.reduced_force(domain, pts)),
}


def _assert_same_zeros(got, want, domain):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.linalg.norm(a - b) <= 1e-9 * domain.diagonal


@pytest.mark.parametrize("kind", sorted(_SURFACES))
@pytest.mark.parametrize("field", sorted(_FIELDS))
def test_tangent_field_zeros_matches_serial_reference(kind, field):
    domain = _SURFACES[kind][0]
    field_fn = _FIELDS[field](domain)
    seeds = dom.boundary_seeds(domain, 24)
    got = dom.tangent_field_zeros(domain, field_fn, seeds, 1e-6)
    assert len(got) >= 5
    _assert_same_zeros(got, _serial_tangent_field_zeros(domain, field_fn, seeds, 1e-6), domain)


def test_tangent_field_zeros_singular_seed(ellipsoid_211):
    # the field is constant near seed 0, so its difference Jacobian there is
    # exactly zero: that seed leaves, and the other seeds run as without it
    seeds = dom.boundary_seeds(ellipsoid_211, 16)
    grad_fn = _FIELDS["grad_H"](ellipsoid_211)

    def field_fn(pts):
        f = grad_fn(pts)
        f[np.linalg.norm(pts - seeds[0], axis=-1) < 0.01] = [0.0, 0.0, 1.0]
        return f

    got = dom.tangent_field_zeros(ellipsoid_211, field_fn, seeds, 1e-6)
    _assert_same_zeros(got, dom.tangent_field_zeros(ellipsoid_211, grad_fn, seeds[1:], 1e-6),
                       ellipsoid_211)
    _assert_same_zeros(got, _serial_tangent_field_zeros(ellipsoid_211, field_fn, seeds, 1e-6),
                       ellipsoid_211)


def test_domain_from_config():
    d = dom.domain_from_config({"kind": "ellipsoid", "semi_axes": [2, 1.5, 1]})
    assert "ellipsoid" in d.name
    d = dom.domain_from_config({"kind": "ball", "radius": 2.0})
    assert np.isclose(dom.mean_curvature(d, np.array([0.0, 0, 2.0])), 0.5)
    with pytest.raises(ValueError):
        dom.domain_from_config({"kind": "torus"})


def test_bumpy_ball_derivatives_consistent():
    bb = dom.bumpy_ball(1.0, 0.07)
    rng = np.random.default_rng(0)
    p = rng.normal(size=(10, 3))
    p = 1.05 * p / np.linalg.norm(p, axis=-1, keepdims=True)
    h = 1e-6
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        fd_grad = (bb.phi(p + dp) - bb.phi(p - dp)) / (2 * h)
        assert np.allclose(fd_grad, bb.grad_phi(p)[:, i], atol=1e-8)
        fd_hess = (bb.grad_phi(p + dp) - bb.grad_phi(p - dp)) / (2 * h)
        assert np.allclose(fd_hess, bb.hess_phi(p)[:, :, i], atol=1e-7)
    hess = bb.hess_phi(p)
    assert np.abs(hess - np.swapaxes(hess, -1, -2)).max() == 0.0
