"""Implicit container domains and the differential geometry of their boundaries.

A domain is the sublevel set {phi < 0} of a smooth level-set function with
analytic first and second derivatives.  All boundary geometry used elsewhere
comes from here: exterior unit normal, shape operator, mean curvature H and
its surface gradient, first/second normal jets, and critical points of H.

Orientation: the unit sphere with exterior normal has H = +1 (H is half the
trace of dN restricted to the tangent plane).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateGradient, NonConvergence

_PHI_TOL = 1e-13       # relative distance tolerance for boundary projection


@dataclass(frozen=True)
class ImplicitDomain:
    """Smooth domain {phi < 0} with analytic level-set derivatives.

    phi, grad_phi, hess_phi accept point arrays of shape (..., 3) and return
    shapes (...,), (..., 3) and (..., 3, 3); hess_phi must be symmetric.
    ``bounding_box`` is a (2, 3) array [min_corner, max_corner] containing
    the boundary surface.
    """

    phi: Callable
    grad_phi: Callable
    hess_phi: Callable
    bounding_box: np.ndarray
    name: str = "domain"

    @property
    def diagonal(self):
        box = np.asarray(self.bounding_box, float)
        return float(np.linalg.norm(box[1] - box[0]))

    def fd_step(self):
        """Default tangential finite-difference step for surface derivatives."""
        return 1e-4 * self.diagonal


@dataclass(frozen=True)
class NormalJet:
    """Second-order expansion data of the exterior normal at a boundary point.

    ``d_normal`` maps tangent-basis coordinates to R^3 (columns are dN(t_i)).
    ``d2_normal[:, i, j]`` is the quadratic Taylor coefficient: along the
    surface, N(x(v)) = normal + d_normal v + d2_normal(v, v) + O(|v|^3).
    """

    base_point: np.ndarray
    normal: np.ndarray
    tangent_basis: np.ndarray  # shape (2, 3)
    d_normal: np.ndarray       # shape (3, 2)
    d2_normal: np.ndarray      # shape (3, 2, 2), symmetric in the last two


# ---------------------------------------------------------------------------
# built-in domains
# ---------------------------------------------------------------------------

def ball(radius=1.0, center=(0.0, 0.0, 0.0)):
    radius = float(radius)
    c = np.asarray(center, float)

    def phi(p):
        d = np.asarray(p, float) - c
        return np.sum(d * d, axis=-1) - radius**2

    def grad(p):
        return 2.0 * (np.asarray(p, float) - c)

    def hess(p):
        p = np.asarray(p, float)
        out = np.zeros(p.shape + (3,))
        out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = 2.0
        return out

    box = np.array([c - 1.5 * radius, c + 1.5 * radius])
    return ImplicitDomain(phi, grad, hess, box, name=f"ball(R={radius:g})")


def ellipsoid(a, b, c):
    semi = np.asarray([a, b, c], float)

    def phi(p):
        q = np.asarray(p, float) / semi
        return np.sum(q * q, axis=-1) - 1.0

    def grad(p):
        return 2.0 * np.asarray(p, float) / semi**2

    def hess(p):
        p = np.asarray(p, float)
        out = np.zeros(p.shape + (3,))
        for i in range(3):
            out[..., i, i] = 2.0 / semi[i] ** 2
        return out

    box = np.array([-1.5 * semi, 1.5 * semi])
    label = ", ".join(f"{v:g}" for v in semi)
    return ImplicitDomain(phi, grad, hess, box, name=f"ellipsoid({label})")


def bumpy_ball(radius=1.0, amplitude=0.05):
    """Ball of radius R with a degree-3 harmonic bump: r = R(1 + eps*xyz/r^3).

    Level set phi = |x| - R(1 + eps * xyz/|x|^3); non-symmetric test domain.
    """
    R, eps = float(radius), float(amplitude)

    def _r(p):
        return np.sqrt(np.sum(p * p, axis=-1))

    def phi(p):
        p = np.asarray(p, float)
        r = _r(p)
        f = p[..., 0] * p[..., 1] * p[..., 2] / r**3
        return r - R * (1.0 + eps * f)

    def grad(p):
        p = np.asarray(p, float)
        r = _r(p)[..., None]
        x, y, z = p[..., 0:1], p[..., 1:2], p[..., 2:3]
        u = np.concatenate([y * z, x * z, x * y], axis=-1)
        f = (x * y * z)[..., 0][..., None]
        grad_f = u / r**3 - 3.0 * f * p / r**5
        return p / r - R * eps * grad_f

    def hess(p):
        p = np.asarray(p, float)
        r = _r(p)[..., None, None]
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        u = np.stack([y * z, x * z, x * y], axis=-1)
        f = (x * y * z)[..., None, None]
        eye = np.broadcast_to(np.eye(3), p.shape + (3,))
        pp = p[..., :, None] * p[..., None, :]
        up = u[..., :, None] * p[..., None, :]
        C = np.zeros(p.shape + (3,))
        C[..., 0, 1] = C[..., 1, 0] = z
        C[..., 0, 2] = C[..., 2, 0] = y
        C[..., 1, 2] = C[..., 2, 1] = x
        hess_f = (C / r**3 - 3.0 * (up + np.swapaxes(up, -1, -2)) / r**5
                  - 3.0 * f * (eye / r**5 - 5.0 * pp / r**7))
        hess_r = eye / r - pp / r**3
        return hess_r - R * eps * hess_f

    half = 1.5 * R * (1 + abs(eps))
    box = np.array([[-half] * 3, [half] * 3])
    return ImplicitDomain(phi, grad, hess, box, name=f"bumpy_ball(R={R:g},eps={eps:g})")


def domain_from_config(cfg):
    """Build a domain from its structured-text description.

    Schema: {"kind": "ball", "radius": R[, "center": [x,y,z]]},
            {"kind": "ellipsoid", "semi_axes": [a, b, c]},
            {"kind": "bumpy_ball", "radius": R, "amplitude": eps}.
    """
    kind = cfg.get("kind")
    if kind == "ball":
        return ball(cfg.get("radius", 1.0), cfg.get("center", (0, 0, 0)))
    if kind == "ellipsoid":
        return ellipsoid(*cfg["semi_axes"])
    if kind == "bumpy_ball":
        return bumpy_ball(cfg.get("radius", 1.0), cfg.get("amplitude", 0.05))
    raise ValueError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# pointwise boundary geometry
# ---------------------------------------------------------------------------

def tangent_basis(normal):
    """Deterministic orthonormal tangent basis at unit normal(s).

    Takes the coordinate axis least aligned with N (lowest index on ties),
    Gram-Schmidts it against N, and completes with the cross product.
    Returns shape (..., 2, 3).
    """
    n = np.asarray(normal, float)
    idx = np.argmin(np.abs(n), axis=-1)
    e = np.zeros_like(n)
    np.put_along_axis(e, idx[..., None], 1.0, axis=-1)
    t1 = e - np.sum(e * n, axis=-1, keepdims=True) * n
    t1 = t1 / np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = np.cross(n, t1)
    return np.stack([t1, t2], axis=-2)


def project_to_boundary(domain, p, max_iter=50):
    """Project points onto {phi = 0} along the gradient line (Newton).

    Solves phi(q) = 0, q - p = t * grad_phi(q); the returned foot point
    satisfies |phi(q)| ~ 1e-13 * scale with q - p parallel to grad_phi(q).
    Each row stops once its own residuals pass, so row i of a batch is
    bit-equal to projecting p[i] alone.  Raises NonConvergence, with the
    solver state at exit, if rows still fail after ``max_iter`` Newton steps
    or hit a singular step.
    """
    p = np.asarray(p, float)
    single = p.ndim == 1
    q = np.atleast_2d(p).copy()
    p2 = np.atleast_2d(p)
    tol = _PHI_TOL * domain.diagonal
    # warm start: a few first-order steps along the instantaneous gradient
    for _ in range(8):
        g = domain.grad_phi(q)
        gg = np.sum(g * g, axis=-1, keepdims=True)
        if np.any(gg < 1e-24):
            raise DegenerateGradient("vanishing grad_phi during projection")
        q = q - domain.phi(q)[..., None] * g / gg
    g = domain.grad_phi(q)
    t = np.sum((q - p2) * g, axis=-1) / np.sum(g * g, axis=-1)
    live = np.arange(len(q))  # rows still taking Newton steps

    def failure(reason, it, dist, line):
        d, r = float(np.max(dist)), float(np.max(line))
        return NonConvergence(f"boundary projection {reason} after {it} Newton steps: "
                              f"{len(dist)} of {len(q)} rows unconverged, worst distance "
                              f"{d:.3g}, worst line residual {r:.3g} (tolerance {tol:.3g})",
                              iterations=it, unconverged=len(dist), distance=d, line_residual=r)

    for it in range(max_iter + 1):
        g = domain.grad_phi(q[live])
        f_top = domain.phi(q[live])
        f_low = q[live] - p2[live] - t[live, None] * g
        dist = np.abs(f_top) / np.linalg.norm(g, axis=-1)
        line = np.linalg.norm(f_low, axis=-1)
        keep = ~((dist < tol) & (line < tol))
        if not keep.any():
            break
        if it == max_iter:
            raise failure("did not converge", it, dist[keep], line[keep])
        live, g, f_top, f_low = live[keep], g[keep], f_top[keep], f_low[keep]
        H = domain.hess_phi(q[live])
        J = np.zeros((len(live), 4, 4))
        J[:, 0, :3] = g
        J[:, 1:, :3] = np.eye(3)[None] - t[live, None, None] * H
        J[:, 1:, 3] = -g
        F = np.concatenate([f_top[:, None], f_low], axis=1)
        try:
            step = np.linalg.solve(J, F[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise failure("hit a singular system", it, dist[keep], line[keep]) from exc
        q[live] -= step[:, :3]
        t[live] -= step[:, 3]
    return q[0] if single else q


def boundary_normal(domain, q):
    """Exterior unit normal grad_phi/|grad_phi| at boundary point(s)."""
    g = domain.grad_phi(np.asarray(q, float))
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(norm < 1e-12):
        raise DegenerateGradient("grad_phi below 1e-12 at boundary point")
    return g / norm


def shape_operator(domain, q):
    """Shape operator S = dN on the tangent plane and the mean curvature.

    Returns (S, H) with S a (..., 2, 2) symmetric matrix in the deterministic
    tangent basis and H = trace(S)/2 (unit sphere, exterior normal: H = +1).
    """
    q = np.asarray(q, float)
    g = domain.grad_phi(q)
    norm = np.linalg.norm(g, axis=-1)
    if np.any(norm < 1e-12):
        raise DegenerateGradient("grad_phi below 1e-12 at boundary point")
    n = g / norm[..., None]
    basis = tangent_basis(n)
    H = domain.hess_phi(q)
    # S_ab = <t_a, Hess t_b> / |grad phi|
    Ht = np.einsum("...ij,...aj->...ai", H, basis)
    S = np.einsum("...ai,...bi->...ab", basis, Ht) / norm[..., None, None]
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    mean_curv = 0.5 * (S[..., 0, 0] + S[..., 1, 1])
    return S, mean_curv


def mean_curvature(domain, q):
    return shape_operator(domain, q)[1]


def surface_grad_H(domain, q, step=None):
    """Intrinsic gradient of the boundary mean curvature.

    Central differences of H along geodesic-projected tangent steps; the
    result lies in the tangent plane by construction.
    """
    q = np.asarray(q, float)
    single = q.ndim == 1
    q2 = np.atleast_2d(q)
    h = domain.fd_step() if step is None else float(step)
    basis = tangent_basis(boundary_normal(domain, q2))
    H = mean_curvature(domain, tangent_stencil(domain, q2, basis, h)).reshape(2, 2, -1)
    dH = (H[:, 0] - H[:, 1]) / (2 * h)
    grad = dH[0][:, None] * basis[:, 0] + dH[1][:, None] * basis[:, 1]
    return grad[0] if single else grad


def tangent_stencil(domain, q, basis, h):
    """Feet of q + h t_0, q - h t_0, q + h t_1, q - h t_1 (blocks in that order,
    shape (4k, 3)) for boundary points q (k, 3), from one projection."""
    steps = [q + h * basis[:, 0], q - h * basis[:, 0], q + h * basis[:, 1], q - h * basis[:, 1]]
    return project_to_boundary(domain, np.concatenate(steps))


def normal_differential(domain, points):
    """Ambient matrix (I - N N^T) Hess phi / |grad phi| of dN at each point."""
    g = domain.grad_phi(points)
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    n = g / norm
    M = domain.hess_phi(points) / norm[..., None]
    return M - n[..., :, None] * np.einsum("...i,...ij->...j", n, M)[..., None, :]


def normal_jet(domain, q, step=None):
    """First and second normal jets at a boundary point.

    dN is analytic from grad_phi/hess_phi; the second jet combines central
    differences of dN along projected tangent steps with the analytic
    curvature correction for the projection chart, then symmetrizes.
    """
    q = np.asarray(q, float)
    if q.ndim != 1:
        raise ValueError("normal_jet expects a single point")
    h = domain.fd_step() if step is None else float(step)
    n = boundary_normal(domain, q)
    basis = tangent_basis(n)
    M0 = normal_differential(domain, q[None])[0]
    d_normal = np.stack([M0 @ basis[0], M0 @ basis[1]], axis=-1)
    Ms = normal_differential(domain, tangent_stencil(domain, q[None], basis[None], h))
    # raw[:, i, j] ~ directional derivative along t_j of dN applied to t_i
    raw = np.zeros((3, 2, 2))
    for j in range(2):
        dM = (Ms[2 * j] - Ms[2 * j + 1]) / (2 * h)
        for i in range(2):
            raw[:, i, j] = dM @ basis[i]
    raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    # chart curvature correction: the projection chart bends by -S_ij * N,
    # adding -S_ij * (dN N) to the full second derivative of N o x
    S, _ = shape_operator(domain, q)
    MN = M0 @ n
    d2 = 0.5 * (raw - S[None, :, :] * MN[:, None, None])
    d2 = 0.5 * (d2 + np.transpose(d2, (0, 2, 1)))
    return NormalJet(q, n, basis, d_normal, d2)


# ---------------------------------------------------------------------------
# critical points of H
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    point: np.ndarray
    h_value: float
    label: str  # "min" | "max" | "saddle" | "degenerate"


@dataclass(frozen=True)
class CriticalPointSearch:
    points: list
    h_constant: bool
    h_value: float = float("nan")


def fibonacci_sphere(n):
    """Deterministic quasi-uniform sample of the unit sphere."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    golden = np.pi * (1 + np.sqrt(5.0))
    theta = golden * i
    return np.stack([np.sin(phi) * np.cos(theta),
                     np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=-1)


def boundary_seeds(domain, n):
    """Seed mesh on the boundary: ``n`` Fibonacci-sphere points scaled to the
    bounding box (its centre, half its longest side), projected once."""
    box = np.asarray(domain.bounding_box, float)
    center = 0.5 * (box[0] + box[1])
    radius = 0.5 * np.max(box[1] - box[0])
    return project_to_boundary(domain, center + radius * fibonacci_sphere(n))


def tangent_field_zeros(domain, field_fn, seeds, tol, step=None, max_iter=60):
    """Newton search for zeros of a tangent vector field on the boundary.

    ``seeds`` are (k, 3) boundary points.  ``field_fn`` maps a (m, 3) batch of
    boundary points to (m, 3) tangent vectors row by row, each row independent
    of the others, so all live seeds share each call.  Seeds with a singular
    Jacobian or that use up ``max_iter`` steps are dropped.  Returns the zeros
    in seed order, deduplicated (radius 1e-3 * diagonal, first one kept).
    """
    h = domain.fd_step() if step is None else float(step)
    cap = 0.05 * domain.diagonal
    q = np.array(seeds, float).reshape(-1, 3)
    kept = np.zeros(len(q), bool)  # left the loop with |f| < tol
    live = np.arange(len(q))
    for _ in range(max_iter):
        f0 = field_fn(q[live])
        done = np.linalg.norm(f0, axis=-1) < tol
        kept[live[done]] = True
        live, f0 = live[~done], f0[~done]
        if live.size == 0:
            break
        basis = tangent_basis(boundary_normal(domain, q[live]))
        g0 = np.einsum("pai,pi->pa", basis, f0)
        J = _tangent_jacobian(domain, field_fn, q[live], basis, h)
        solved = np.ones(len(live), bool)
        try:
            dv = np.linalg.solve(J, -g0[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # row by row, so a singular seed leaves without stopping the others
            dv = np.zeros_like(g0)
            for i in range(len(live)):
                try:
                    dv[i] = np.linalg.solve(J[i], -g0[i])
                except np.linalg.LinAlgError:
                    solved[i] = False
        # a singular seed leaves with |f| >= tol, so it is not kept
        live, basis, dv = live[solved], basis[solved], dv[solved]
        norm_dv = np.linalg.norm(dv, axis=-1)
        dv *= (cap / np.maximum(norm_dv, cap))[:, None]
        q[live] = project_to_boundary(
            domain, q[live] + dv[:, 0:1] * basis[:, 0] + dv[:, 1:2] * basis[:, 1])
    dedup = 1e-3 * domain.diagonal
    found = []
    for i in np.flatnonzero(kept):
        if not any(np.linalg.norm(q[i] - prev) < dedup for prev in found):
            found.append(q[i])
    return found


def _tangent_jacobian(domain, field_fn, q, basis, h):
    """2x2 Jacobians J[p, a, j] = d<t_a, f>/dt_j of a tangent field at points q,
    by central differences over one ``tangent_stencil`` and one ``field_fn`` call."""
    f = field_fn(tangent_stencil(domain, q, basis, h)).reshape(2, 2, len(q), 3)
    return np.einsum("pai,jpi->paj", basis, f[:, 0] - f[:, 1]) / (2 * h)


def find_critical_points(domain, n_seeds=64, tol=1e-6):
    """Critical points of the boundary mean curvature from seeded Newton runs.

    Seeds come from ``boundary_seeds``.  When H is constant over the seeds
    the search is degenerate and reports h_constant.
    """
    if n_seeds < 8:
        raise ValueError("n_seeds must be >= 8")
    seeds = boundary_seeds(domain, n_seeds)
    h_seeds = mean_curvature(domain, seeds)
    if np.ptp(h_seeds) < 1e-9 * (1.0 + np.abs(h_seeds).max()):
        return CriticalPointSearch(points=[], h_constant=True, h_value=float(np.mean(h_seeds)))

    grad_fn = lambda pts: surface_grad_H(domain, pts)
    zeros = tangent_field_zeros(domain, grad_fn, seeds, tol)
    q = np.array(zeros).reshape(-1, 3)
    hess = _tangent_jacobian(domain, grad_fn, q, tangent_basis(boundary_normal(domain, q)),
                             domain.fd_step())
    eigs = np.linalg.eigvalsh(0.5 * (hess + np.swapaxes(hess, -1, -2)))  # ascending
    floor = 1e-6 * np.maximum(1.0, np.abs(eigs).max(axis=-1, keepdims=True))
    signs = np.sign(eigs) * (np.abs(eigs) > floor)
    labels = {(1, 1): "min", (-1, -1): "max", (-1, 1): "saddle"}
    points = [CriticalPoint(point, float(h_value), labels.get(tuple(sign), "degenerate"))
              for point, h_value, sign in zip(zeros, mean_curvature(domain, q), signs)]
    points.sort(key=lambda cp: tuple(np.round(cp.point, 9)))
    return CriticalPointSearch(points=points, h_constant=False)
