"""Balancing-formula machinery at the container boundary.

The flux identity for a constant-mean-curvature piece S spanned by a surface
Sigma reads  oint_{dS} eta ds = 2 H0 int_Sigma nu dsigma  (eta the outward
unit conormal of S, nu the spanning-surface normal).  Applied at a boundary
concentration point and expanded to second order in the normal jet, it
reduces to a tangent "force" proportional to the surface gradient of the
boundary mean curvature; its zeros are the admissible concentration points.

Orientation convention (fixed once): the spanning surface is parametrized
over the polar grid with its ring traversed in the same direction as the
trace, and the vector area element is taken as (X_theta ^ X_rho) drho dtheta.
With that choice the upper-unit-hemisphere test reproduces the flux identity
with positive sign.
"""

import math
from dataclasses import dataclass

import numpy as np

from .disk_maps import DiskMap
from .errors import BoundaryMismatch
from .implicit_domains import (boundary_normal, boundary_seeds, mean_curvature,
                               normal_differential, normal_jet, project_to_boundary,
                               surface_grad_H, tangent_basis, tangent_field_zeros,
                               tangent_stencil)
from .polar_grid import get_grid


@dataclass(frozen=True)
class CapConfiguration:
    """Limit configuration at a boundary point: unit circles and their disks.

    ``centers`` are tangent-plane coordinates (shape (l, 2)); radii default
    to one (the limit value) but may be perturbed for sensitivity tests.
    """

    centers: np.ndarray
    radii: np.ndarray = None
    base_point: np.ndarray = None

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, float))
        object.__setattr__(self, "centers", centers)
        radii = np.ones(len(centers)) if self.radii is None else np.asarray(self.radii, float)
        if np.any(radii <= 0):
            raise ValueError("circle radii must be positive")
        object.__setattr__(self, "radii", radii)

    @property
    def hemisphere_count(self):
        return len(self.centers)

    def is_limit(self, tol=1e-12):
        return bool(np.all(np.abs(self.radii - 1.0) < tol))


@dataclass(frozen=True)
class BalanceReport:
    boundary_integral: np.ndarray
    cap_integral: np.ndarray
    first_order: np.ndarray
    barycenter: np.ndarray
    barycenter_degenerate: bool
    second_order_projected: np.ndarray
    reduced_force: np.ndarray


# ---------------------------------------------------------------------------
# test surfaces: spherical caps and their flat spanning disks
# ---------------------------------------------------------------------------

def spherical_cap_map(height, n_r=128, n_theta=256, from_south=False):
    """Unit-sphere cap above z = height as a DiskMap (H target 1).

    Geodesic polar parametrization from the pole, so the boundary ring lands
    on the latitude circle z = height.  ``from_south`` parametrizes the
    complementary cap from the south pole with the mirrored angle, which is
    the boundary orientation the outward-oriented closed sphere induces on
    the lower piece.
    """
    alpha = math.acos(height)

    def fn(z):
        r = np.abs(z)
        if from_south:
            th = -np.angle(z)
            phi = np.pi - r * (np.pi - alpha)
        else:
            th = np.angle(z)
            phi = r * alpha
        return np.stack([np.sin(phi) * np.cos(th), np.sin(phi) * np.sin(th),
                         np.cos(phi)], axis=-1)

    grid = get_grid(n_r, n_theta)
    return DiskMap(values=fn(grid.nodes_complex()), h_target=1.0)


def flat_disk_map(radius, height, n_r=128, n_theta=256, center_xy=(0.0, 0.0),
                  mirror=False):
    """Planar disk of given radius at z = height (spanning surface).

    ``mirror`` reverses the angular traversal to pair with a ``from_south``
    cap.
    """
    cx, cy = center_xy

    def fn(z):
        zz = np.conj(z) if mirror else z
        return np.stack([cx + radius * zz.real, cy + radius * zz.imag,
                         np.full(z.shape, float(height))], axis=-1)

    grid = get_grid(n_r, n_theta)
    return DiskMap(values=fn(grid.nodes_complex()), h_target=1.0)


# ---------------------------------------------------------------------------
# the flux identity
# ---------------------------------------------------------------------------

def _hausdorff(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))


def balancing_residual(boundary, cap, h0, tol=1e-6):
    """Flux defect 2 H0 int nu dsigma - oint eta ds of a trace/cap pair.

    The boundary integral uses the trapezoid rule on the closed polyline
    with the trace's unit conormal; the cap integral uses the midpoint rule
    on the vector area element (X_theta ^ X_rho) drho dtheta.  Raises
    BoundaryMismatch when the cap ring and the trace differ by more than
    ``tol`` in Hausdorff distance or are traversed in opposite directions.
    """
    pts = boundary.points
    ring = cap.values[-1]
    scale = 1.0 + np.abs(pts).max()
    if _hausdorff(pts, ring) > tol * scale:
        raise BoundaryMismatch("cap boundary does not coincide with the trace")
    t_trace = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    t_ring = np.roll(ring, -1, axis=0) - np.roll(ring, 1, axis=0)
    if float(np.mean(np.sum(t_trace * t_ring, axis=-1))) < 0:
        raise BoundaryMismatch("cap ring and trace are traversed in opposite directions")

    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=-1)
    ds = 0.5 * (seg + np.roll(seg, 1))
    boundary_integral = np.sum(boundary.conormal * ds[:, None], axis=0)

    grid = cap.grid
    x_rho = grid.radial_derivative(cap.values, 1)[: grid.n_r]
    x_th = grid.theta_derivative(cap.values)[: grid.n_r]
    vec_area = np.cross(x_th, x_rho)
    cap_integral = np.sum(vec_area, axis=(0, 1)) * grid.dr * grid.dtheta
    return 2.0 * h0 * cap_integral - boundary_integral


def first_order_term(cfg, n_at_c):
    """(2 * total cap area - total boundary length) * N at the base point."""
    areas = np.pi * cfg.radii**2
    lengths = 2 * np.pi * cfg.radii
    return (2.0 * areas.sum() - lengths.sum()) * np.asarray(n_at_c, float)


def weighted_barycenter(cap_regions, boundary_curves):
    """Center solving 2 int_caps (z - c) dv - int_curves (z - c) dsigma = 0.

    ``cap_regions`` and ``boundary_curves`` are sequences of (center, radius)
    with centers in tangent-plane coordinates.  When the net weight
    2|caps| - |curves| vanishes (the limit configuration) every c solves the
    equation; the flagged fallback is the area-weighted mean of cap centers.
    """
    cap_centers = np.atleast_2d(np.asarray([c for c, _ in cap_regions], float))
    cap_radii = np.asarray([r for _, r in cap_regions], float)
    crv_centers = np.atleast_2d(np.asarray([c for c, _ in boundary_curves], float))
    crv_radii = np.asarray([r for _, r in boundary_curves], float)
    areas = np.pi * cap_radii**2
    lengths = 2 * np.pi * crv_radii
    net = 2.0 * areas.sum() - lengths.sum()
    moment = 2.0 * (areas[:, None] * cap_centers).sum(axis=0) \
        - (lengths[:, None] * crv_centers).sum(axis=0)
    if abs(net) < 1e-9:
        fallback = (areas[:, None] * cap_centers).sum(axis=0) / areas.sum()
        return fallback, True
    return moment / net, False


def projected_second_order(jet, cfg, c=None, n_rad=64, n_ang=256):
    """Second-order flux terms over the limit circles, projected off the normal.

    For each circle: 2 int_disk d2N(z - c_i)(z - c_i) dv minus
    oint d2N(z - c_i)(z - c_i) dsigma, by Gauss-Legendre x trapezoid
    quadrature; the result is projected orthogonally to jet.normal.  At unit
    radius the reference center ``c`` is immaterial (odd moments vanish and
    2|disk| = |circle|), so it is accepted only for interface symmetry.
    """
    B = jet.d2_normal  # (3, 2, 2)
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(n_rad)
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    total = np.zeros(3)
    for center, radius in zip(cfg.centers, cfg.radii):
        rad = 0.5 * radius * (gauss_x + 1.0)
        wts = 0.5 * radius * gauss_w
        v = rad[:, None, None] * unit[None, :, :]
        integrand = np.einsum("kij,rti,rtj->rtk", B, v, v)
        disk = np.sum(integrand * (rad[:, None] * wts[:, None])[..., None],
                      axis=(0, 1)) * (2 * np.pi / n_ang)
        vb = radius * unit
        circ_integrand = np.einsum("kij,ti,tj->tk", B, vb, vb)
        circle = circ_integrand.sum(axis=0) * (2 * np.pi / n_ang) * radius
        total += 2.0 * disk - circle
    n = jet.normal
    return total - np.dot(total, n) * n


# ---------------------------------------------------------------------------
# Gauss-map identity
# ---------------------------------------------------------------------------

def gauss_map_identity_residual(patch, domain, ablate_grad_term=False):
    """Sup-norm of Delta N - |grad N|^2 N + |grad X|^2 grad H over the patch.

    ``patch`` must be a conformally parametrized piece of the boundary
    surface (see isothermal_spheroid_patch); N, H and grad H come from the
    domain's implicit geometry composed with the patch.  The identity holds
    exactly in the conformal gauge with the conventions used here (exterior
    normal, sphere has H = +1), so the discrete residual converges at
    second order; dropping the grad H term (``ablate_grad_term``) leaves an
    O(1) defect wherever H is not critical.
    """
    grid = patch.grid
    X = patch.values
    feet = project_to_boundary(domain, X.reshape(-1, 3))
    n_field = boundary_normal(domain, feet).reshape(X.shape)
    grad_h = surface_grad_H(domain, feet).reshape(X.shape)
    lap_n = grid.laplacian(n_field)
    n_x, n_y = grid.gradient(n_field)
    grad_n2 = np.sum(n_x**2 + n_y**2, axis=-1)
    x_x, x_y = grid.gradient(X)
    grad_x2 = np.sum(x_x**2 + x_y**2, axis=-1)
    n_r = grid.n_r
    resid = lap_n - grad_n2[:n_r, :, None] * n_field[:n_r]
    if not ablate_grad_term:
        resid = resid + grad_x2[:n_r, :, None] * grad_h[:n_r]
    return float(np.linalg.norm(resid, axis=-1).max())


def isothermal_spheroid_patch(a, c, v0, chart_radius, n_r=64, n_theta=64,
                              theta0=0.0):
    """Conformal patch of the spheroid x^2/a^2 + y^2/a^2 + z^2/c^2 = 1.

    Surfaces of revolution carry explicit isothermal coordinates: with
    profile angle v (from the north pole), ds = m(v)/(a sin v) dv makes
    (s, theta) conformal.  The chart covers the disk of the given radius in
    the (s, theta) plane centered at (s(v0), theta0).  v(s) is recovered per
    node by Newton on the Gauss-Legendre quadrature of s(v), which keeps the
    chart smooth to machine precision (no interpolation seams for the
    second-derivative stencils to amplify).
    """

    def speed(v):
        return np.sqrt(a**2 * np.cos(v) ** 2 + c**2 * np.sin(v) ** 2) / (a * np.sin(v))

    gauss_x, gauss_w = np.polynomial.legendre.leggauss(24)

    def s_of(v):
        mid = 0.5 * (v + v0)
        half = 0.5 * (v - v0)
        nodes = mid[..., None] + half[..., None] * gauss_x
        return half * np.sum(gauss_w * speed(nodes), axis=-1)

    grid = get_grid(n_r, n_theta)
    z = grid.nodes_complex()
    s = chart_radius * z.real
    v = v0 + s / speed(np.asarray(v0))
    for _ in range(60):
        f = s_of(v) - s
        if np.abs(f).max() < 1e-15 * max(1.0, chart_radius):
            break
        v = v - f / speed(v)
    th = theta0 + chart_radius * z.imag
    values = np.stack([a * np.sin(v) * np.cos(th), a * np.sin(v) * np.sin(th),
                       c * np.cos(v)], axis=-1)
    return DiskMap(values=values, h_target=1.0)


# ---------------------------------------------------------------------------
# the reduced force
# ---------------------------------------------------------------------------

def _trace_d2_normal(domain, pts, step=None):
    """Tangential trace sum_i d2N(t_i, t_i) at boundary points (vectorized)."""
    pts = np.atleast_2d(np.asarray(pts, float))
    h = domain.fd_step() if step is None else float(step)
    n = boundary_normal(domain, pts)
    basis = tangent_basis(n)
    M0 = normal_differential(domain, pts)
    Ms = normal_differential(domain, tangent_stencil(domain, pts, basis, h))
    Ms = Ms.reshape(2, 2, len(pts), 3, 3)
    trace_raw = np.zeros((len(pts), 3))
    for i in range(2):
        dM = (Ms[i, 0] - Ms[i, 1]) / (2 * h)
        trace_raw += np.einsum("pij,pj->pi", dM, basis[:, i])
    # chart curvature correction: subtract (S_11 + S_22) * dN(N) = 2 H dN(N)
    MN = np.einsum("pij,pj->pi", M0, n)
    trace = 0.5 * (trace_raw - 2.0 * mean_curvature(domain, pts)[:, None] * MN)
    return trace, n


def reduced_force(domain, q, l=1):
    """Tangential balancing force pi * l * proj(trace of d2N) at q.

    Collinear with the surface gradient of H (the documented normalization
    makes it equal to pi * l * grad H up to jet discretization error); exact
    tangency is enforced by projecting last.  Scales exactly linearly in l.
    """
    q = np.asarray(q, float)
    single = q.ndim == 1
    trace, n = _trace_d2_normal(domain, q)
    proj = trace - np.sum(trace * n, axis=-1, keepdims=True) * n
    out = l * (math.pi * proj)  # exact linearity in l
    return out[0] if single else out


def reduced_force_zeros(domain, l=1, n_seeds=48, tol=1e-6):
    """Zero set of the reduced force by seeded Newton on the boundary."""
    return tangent_field_zeros(domain, lambda pts: reduced_force(domain, pts, l),
                               boundary_seeds(domain, n_seeds), tol)


def balance_report(domain, q, l=1, cap_cfg=None, cap_height=0.0, n_r=64, n_theta=128):
    """Assemble the balance data at a boundary point.

    The flux integrals come from the reference spherical-cap/spanning-disk
    pair at ``cap_height``; the expansion terms use the exact limit
    configuration (l unit circles at the tangent-plane origin) unless
    ``cap_cfg`` overrides it.
    """
    from .disk_maps import boundary_trace

    q = np.asarray(q, float)
    jet = normal_jet(domain, q)
    cfg = cap_cfg or CapConfiguration(centers=np.zeros((l, 2)))
    pairs = [(tuple(cc), rr) for cc, rr in zip(cfg.centers, cfg.radii)]
    bary, degenerate = weighted_barycenter(pairs, pairs)

    cap = spherical_cap_map(cap_height, n_r=n_r, n_theta=n_theta)
    rim = math.sqrt(1.0 - cap_height**2)
    disk = flat_disk_map(rim, cap_height, n_r=n_r, n_theta=n_theta)
    trace = boundary_trace(cap)
    seg = np.linalg.norm(np.roll(trace.points, -1, axis=0) - trace.points, axis=-1)
    ds = 0.5 * (seg + np.roll(seg, 1))
    boundary_integral = np.sum(trace.conormal * ds[:, None], axis=0)
    grid = disk.grid
    x_rho = grid.radial_derivative(disk.values, 1)[: grid.n_r]
    x_th = grid.theta_derivative(disk.values)[: grid.n_r]
    cap_integral = 2.0 * np.sum(np.cross(x_th, x_rho), axis=(0, 1)) * grid.dr * grid.dtheta

    return BalanceReport(
        boundary_integral=boundary_integral,
        cap_integral=cap_integral,
        first_order=first_order_term(cfg, jet.normal),
        barycenter=np.asarray(bary),
        barycenter_degenerate=degenerate,
        second_order_projected=projected_second_order(jet, cfg),
        reduced_force=reduced_force(domain, q, l),
    )
