"""Bubble extraction from concentrating disk maps.

The loop alternates a weighted-gradient candidate statistic with damped
Gauss-Newton fits of simple (degree-1) bubbles: the statistic
min_i d_i(z) |grad(u - sum_i omega_i)(z)| with d_i = sqrt(lambda_i^2 +
|a_i - z|^2) picks the next concentration point, the reciprocal residual
gradient sets its scale, the limit domain is classified by how the scale
compares with the distance to the disk boundary, and fitting proceeds until
the statistic drops below threshold, the bubble budget (total energy / 4 pi)
is spent, or the cap on bubbles is hit.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bubbles import (RationalBubble, bubble_energy, concentration, eval_bubble,
                      inv_stereographic)
from .disk_maps import DiskMap, dirichlet_energy, gradient
from .errors import BelowThreshold, BudgetExceeded, FitDiverged
from .wente import DEFAULT_TRILINEAR_C0

SIMPLE_GRAD_FACTOR = 2.0 * math.sqrt(2.0)  # max |grad| of a simple bubble is this / scale


@dataclass(frozen=True)
class ExtractionConfig:
    """Thresholds and knobs of the extraction loop.

    ``weighted_sup_tol`` of None resolves to 0.05 * (initial statistic);
    ``concentration_nu`` must stay below 1/(2 C0) with C0 the empirical
    trilinear constant, mirroring the smallness threshold that makes the
    concentration-compactness step work.
    """

    max_bubbles: int = 8
    weighted_sup_tol: Optional[float] = None
    separation_min: float = 20.0
    concentration_nu: float = 0.5
    fit_window: float = 4.0
    domain_cut: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.concentration_nu <= 0 or self.concentration_nu >= 1.0 / (2 * DEFAULT_TRILINEAR_C0):
            raise ValueError(
                f"concentration_nu must lie in (0, {1.0 / (2 * DEFAULT_TRILINEAR_C0):g})")
        if self.separation_min < 2.0:
            raise ValueError("separation_min below 2 is unreachable (identical bubbles score 2)")


@dataclass(frozen=True)
class FittedBubble:
    bubble: RationalBubble
    center: complex
    scale: float
    kind: str
    energy_removed: float
    family_energy: float
    fit_residual: float
    axis: Optional[np.ndarray] = None        # hemisphere axis (half_plane only)
    circle_center: Optional[np.ndarray] = None

    @property
    def image_center(self):
        return self.bubble.shift


@dataclass(frozen=True)
class BubbleDecomposition:
    bubbles: tuple
    residual_energy: float
    initial_energy: float
    weighted_sup: float
    weighted_sup_tol: float
    pairwise_separation: np.ndarray
    coverage_gap: float
    hemisphere_count: int
    flags: tuple = ()
    initial_statistic: Optional[np.ndarray] = None  # statistic field of u itself


def _conc(b):
    if isinstance(b, FittedBubble):
        return b.center, b.scale
    if isinstance(b, RationalBubble):
        return concentration(b)
    a, lam = b
    return complex(a), float(lam)


def _bubble_of(b):
    return b.bubble if isinstance(b, FittedBubble) else b


def residual_map(disk_map, bubbles):
    """u minus the summed bubble fields, sampled on the same grid."""
    values = disk_map.values.copy()
    if bubbles:
        z = disk_map.grid.nodes_complex()
        for b in bubbles:
            values -= eval_bubble(_bubble_of(b), z)
    return DiskMap(values=values, h_target=disk_map.h_target, meta=dict(disk_map.meta))


def weighted_sup_field(disk_map, bubbles):
    """The candidate statistic field, its sup, argmax node and |grad R| there."""
    resid = residual_map(disk_map, bubbles)
    u_x, u_y = gradient(resid)
    grad_norm = np.sqrt(np.sum(u_x**2 + u_y**2, axis=-1))
    z = disk_map.grid.nodes_complex()
    if bubbles:
        weight = np.full(z.shape, np.inf)
        for b in bubbles:
            a, lam = _conc(b)
            weight = np.minimum(weight, np.sqrt(lam**2 + np.abs(a - z) ** 2))
    else:
        weight = np.ones(z.shape)  # min over the empty set: plain sup |grad u|
    stat = weight * grad_norm
    flat = int(np.argmax(stat))
    idx = np.unravel_index(flat, stat.shape)
    return stat, float(stat[idx]), complex(z[idx]), float(grad_norm[idx])


def weighted_sup_statistic(disk_map, bubbles):
    """Sup of the weighted-gradient statistic and its argmax point."""
    _, value, z_at, _ = weighted_sup_field(disk_map, bubbles)
    return value, z_at


def next_candidate(disk_map, bubbles, weighted_sup_tol):
    """Next concentration candidate (argmax point, reciprocal gradient scale).

    Raises BelowThreshold when the statistic is already under the threshold
    (extraction complete).
    """
    _, value, z_at, grad_at = weighted_sup_field(disk_map, bubbles)
    if value < weighted_sup_tol:
        raise BelowThreshold(f"statistic {value:.3g} < tol {weighted_sup_tol:.3g}")
    return z_at, 1.0 / grad_at


def classify_limit_domain(a, lam, domain_cut=10.0):
    """Whole plane vs half-plane from the rescaled distance to the disk edge."""
    return "half_plane" if (1.0 - abs(a)) / lam < domain_cut else "plane"


def separation_statistic(b_i, b_j):
    """d_i(a_j)/lambda_j + d_j(a_i)/lambda_i with d_i = sqrt(lam_i^2 + |a_i - x|^2)."""
    a_i, l_i = _conc(b_i)
    a_j, l_j = _conc(b_j)
    d_i_at_j = math.sqrt(l_i**2 + abs(a_i - a_j) ** 2)
    d_j_at_i = math.sqrt(l_j**2 + abs(a_j - a_i) ** 2)
    return d_i_at_j / l_j + d_j_at_i / l_i


def concentration_function(resid, t, center_stride=None):
    """C(t) = sup over grid centers of the residual energy in B(center, t).

    The energy density is |grad R|^2 times the cell areas.  On ring r_j the
    nodes with |z - c| < t form one angular arc about arg c,
    cos(theta - arg c) > (r_j^2 + |c|^2 - t^2) / (2 r_j |c|) (the grid is
    cell-centered, so |c| > 0).  Each ring gets prefix sums of the density
    along theta over the ring doubled, so a wrapping arc is one contiguous
    range and costs two lookups.  Each arccos end point snaps to its nearest
    node, which the exact predicate |c - z| < t keeps or drops, so ties and
    rounding resolve as a direct count over the nodes would.  Cost: O(nodes)
    set-up, then O(centers x rings).

    Nondecreasing in t (strict inequality dist < t, so C(0) = 0 and t >= 2
    captures the whole disk).  ``center_stride`` subsamples the candidate
    centers for very large grids (default: choose the smallest stride
    keeping at most ~16k centers).
    """
    if not t > 0:
        return 0.0  # no node is at distance < t
    grid = resid.grid
    u_x, u_y = gradient(resid)
    dens = np.sum(u_x**2 + u_y**2, axis=-1) * np.asarray(grid.area_weights)
    z = grid.nodes_complex()
    n_rings, n = z.shape
    if center_stride is None:
        center_stride = max(1, int(math.ceil(z.size / 16384)))
    centers = z.ravel()[::center_stride]
    # ring tables over nodes k = 0 .. 2n+1 (k taken mod n), so a wrapping arc
    # is one contiguous range; flat index row + k is node k of a ring, and
    # prefix[row + b] - prefix[row + a] sums its nodes a .. b-1
    width = 2 * n + 2
    cols = np.arange(width) % n
    nodes = z[:, cols].ravel()
    prefix = np.zeros((n_rings, width))
    np.cumsum(dens[:, cols[:-1]], axis=1, out=prefix[:, 1:])
    prefix = prefix.ravel()
    row = np.arange(n_rings) * width
    r = grid.r
    best = 0.0
    chunk = max(1, 2**18 // n_rings)  # centers per (centers x rings) block
    for i in range(0, len(centers), chunk):
        c = centers[i : i + chunk, None]
        rho = np.abs(c)
        half = np.arccos(np.clip((r**2 + rho**2 - t**2) / (2 * r * rho), -1.0, 1.0))
        half /= grid.dtheta
        mid = np.angle(c) / grid.dtheta + n  # in [n/2, 3n/2], so 0 <= lo, hi <= 2n
        # every node but the nearest to an end point lies at least half a node
        # spacing from it, far beyond the arccos rounding, so only that one
        # needs the exact predicate
        lo = row + np.rint(mid - half).astype(np.int64)
        hi = row + np.rint(mid + half).astype(np.int64)
        lo += np.abs(c - nodes.take(lo)) >= t
        hi -= np.abs(c - nodes.take(hi)) >= t
        end = lo + np.clip(hi - lo + 1, 0, n)
        sums = (prefix.take(end) - prefix.take(lo)).sum(axis=1)
        best = max(best, float(sums.max()))
    return best


# ---------------------------------------------------------------------------
# bubble fitting
# ---------------------------------------------------------------------------

def _model(params, z):
    """Simple-bubble model c + pi^{-1}((alpha z + beta)/(gamma z + delta))."""
    c = params[:3]
    alpha = params[3] + 1j * params[4]
    beta = params[5] + 1j * params[6]
    gamma = params[7] + 1j * params[8]
    delta = params[9] + 1j * params[10]
    P = alpha * z + beta
    Q = gamma * z + delta
    pq = P * np.conj(Q)
    denom = np.abs(P) ** 2 + np.abs(Q) ** 2
    pts = np.stack([2 * pq.real, 2 * pq.imag, np.abs(P) ** 2 - np.abs(Q) ** 2], axis=-1)
    return c + pts / denom[..., None]


def _normalize_mobius(params):
    v = params[3:]
    coeffs = v[0::2] + 1j * v[1::2]
    norm = np.linalg.norm(coeffs)
    if norm == 0:
        return params
    coeffs = coeffs / norm
    lead = coeffs[np.argmax(np.abs(coeffs))]
    coeffs = coeffs * np.conj(lead) / abs(lead)
    out = params.copy()
    out[3::2] = coeffs.real
    out[4::2] = coeffs.imag
    return out


def _gauss_newton(params, z_w, data, max_iter=40):
    """Damped (Levenberg) Gauss-Newton on the windowed misfit."""
    params = _normalize_mobius(params.copy())
    target = data.reshape(-1)

    def cost_of(p):
        return _model(p, z_w).reshape(-1) - target

    res = cost_of(params)
    cost = float(res @ res)
    damp = 1e-6
    for _ in range(max_iter):
        J = np.zeros((res.size, params.size))
        for k in range(params.size):
            eps = 1e-6 * max(1.0, abs(params[k]))
            pp = params.copy(); pp[k] += eps
            pm = params.copy(); pm[k] -= eps
            J[:, k] = (cost_of(pp) - cost_of(pm)) / (2 * eps)
        g = J.T @ res
        JtJ = J.T @ J
        improved = False
        for _ in range(12):
            try:
                step = np.linalg.solve(JtJ + damp * np.eye(params.size), -g)
            except np.linalg.LinAlgError:
                damp *= 10
                continue
            trial = _normalize_mobius(params + step)
            r_trial = cost_of(trial)
            c_trial = float(r_trial @ r_trial)
            if c_trial < cost:
                params, res, cost = trial, r_trial, c_trial
                damp = max(damp / 3, 1e-12)
                improved = True
                break
            damp *= 10
        if not improved or cost < 1e-24 * max(1.0, float(target @ target)):
            break
    return params, cost


def _window_nodes(disk_map, a, radius, cap=2000):
    z = disk_map.grid.nodes_complex()
    mask = np.abs(z - a) <= radius
    idx = np.flatnonzero(mask.ravel())
    if len(idx) > cap:
        stride = int(math.ceil(len(idx) / cap))
        idx = idx[::stride]
    return z.ravel()[idx], disk_map.values.reshape(-1, 3)[idx]


def fit_bubble(disk_map, a, lam, kind, fit_window=4.0, seed=0, restarts=5):
    """Fit a simple bubble near candidate (a, lam) by damped Gauss-Newton.

    ``lam`` is the reciprocal-gradient candidate scale; the window radius is
    fit_window * (2 sqrt 2 lam) (the canonical scale of a simple bubble).
    The model is the 11-parameter family shift + pi^{-1}(Mobius(z)); the fit
    is canonicalized so the stored (center, scale) are the gauge-invariant
    concentration data.  Raises FitDiverged when the relative windowed
    residual exceeds 0.2.

    Returns (bubble, rel_residual, axis, circle_center); the last two are the
    fitted hemisphere plane data (half_plane kind) or None.
    """
    scale_est = SIMPLE_GRAD_FACTOR * lam
    radius = fit_window * scale_est
    z_w, data = _window_nodes(disk_map, a, radius)
    if len(z_w) < 24:
        raise FitDiverged("fit window contains too few nodes")
    spread = data - data.mean(axis=0)
    data_scale = float(np.sqrt(np.sum(spread**2)))
    if data_scale == 0:
        raise FitDiverged("fit window is constant")

    # analytic initialization from value and gradient at the candidate node
    grid = disk_map.grid
    z_all = grid.nodes_complex()
    flat = int(np.argmin(np.abs(z_all.ravel() - a)))
    idx = np.unravel_index(flat, z_all.shape)
    u_x, u_y = gradient(disk_map)
    ux0, uy0 = u_x[idx], u_y[idx]
    u0 = disk_map.values[idx]
    nu = np.cross(ux0, uy0)
    nu_norm = np.linalg.norm(nu)
    if nu_norm < 1e-14:
        nu = np.array([0.0, 0.0, 1.0])
    else:
        nu = nu / nu_norm

    rng = np.random.default_rng(seed)
    inits = []
    for sign in (+1.0, -1.0):
        c0 = u0 - sign * nu
        e = u0 - c0
        e = e / np.linalg.norm(e)
        if e[2] > 1.0 - 1e-12:
            mu0 = 1e8 + 0j
        else:
            mu0 = (e[0] + 1j * e[1]) / (1.0 - e[2])
        # Jacobian of pi^{-1} at mu0 to match the data gradient
        eps = 1e-6 * max(1.0, abs(mu0))
        D = np.stack([
            (inv_stereographic(mu0 + eps) - inv_stereographic(mu0 - eps)) / (2 * eps),
            (inv_stereographic(mu0 + 1j * eps) - inv_stereographic(mu0 - 1j * eps)) / (2 * eps),
        ], axis=-1)
        sol, *_ = np.linalg.lstsq(D, ux0, rcond=None)
        mu1 = sol[0] + 1j * sol[1]
        if mu1 == 0:
            mu1 = 1.0 / scale_est
        alpha = mu1
        beta = mu0 - mu1 * a
        params = np.array([c0[0], c0[1], c0[2],
                           alpha.real, alpha.imag, beta.real, beta.imag,
                           0.0, 0.0, 1.0, 0.0])
        inits.append(params)
    best_params, best_cost = None, np.inf
    attempt = 0
    for base in inits:
        params, cost = _gauss_newton(base, z_w, data)
        if cost < best_cost:
            best_params, best_cost = params, cost
        if math.sqrt(best_cost) / data_scale < 1e-6:
            break
        attempt += 1
    while attempt < restarts + 2 and math.sqrt(best_cost) / data_scale >= 1e-6:
        base = inits[attempt % 2].copy()
        base[:3] += 0.2 * rng.standard_normal(3)
        base[3:] *= 1.0 + 0.3 * rng.standard_normal(8)
        params, cost = _gauss_newton(base, z_w, data)
        if cost < best_cost:
            best_params, best_cost = params, cost
        attempt += 1
    rel = math.sqrt(best_cost) / data_scale
    if rel > 0.2:
        raise FitDiverged(f"relative fit residual {rel:.3g} > 0.2")

    c = best_params[:3].copy()
    alpha = best_params[3] + 1j * best_params[4]
    beta = best_params[5] + 1j * best_params[6]
    gamma = best_params[7] + 1j * best_params[8]
    delta = best_params[9] + 1j * best_params[10]
    raw = RationalBubble(p_coeffs=[beta, alpha], q_coeffs=[delta, gamma],
                         shift=c, center=0.0, scale=1.0, kind=kind)
    a_star, lam_star = concentration(raw)
    p = np.array([beta + alpha * a_star, alpha * lam_star], complex)
    q = np.array([delta + gamma * a_star, gamma * lam_star], complex)
    bubble = RationalBubble(p_coeffs=p, q_coeffs=q, shift=c,
                            center=a_star, scale=lam_star, kind=kind)
    axis = circle_center = None
    if kind == "half_plane":
        # trace on the limit half-plane boundary: the tangent line to the
        # disk rim at the concentration point (the arc itself deviates from
        # the line at second order and maps to a slightly tilted circle)
        n_dir = a / abs(a) if a != 0 else 1.0 + 0.0j
        ts = np.linspace(-radius, radius, 65)
        line = a + 1j * n_dir * ts
        pts = eval_bubble(bubble, line)
        rel_pts = pts - pts.mean(axis=0)
        _, _, vt = np.linalg.svd(rel_pts, full_matrices=False)
        axis = vt[2]
        if np.dot(axis, data.mean(axis=0) - pts.mean(axis=0)) < 0:
            axis = -axis
        # circle center: the image-sphere center offset to the trace plane
        plane_offset = float((pts.mean(axis=0) - c) @ axis)
        circle_center = c + plane_offset * axis
    return bubble, rel, axis, circle_center


# ---------------------------------------------------------------------------
# image coverage
# ---------------------------------------------------------------------------

def _distance_to_image(fb, points):
    """Distance from points to a fitted bubble's image (sphere or hemisphere)."""
    c = np.asarray(fb.bubble.shift, float)
    rel = points - c
    dist_sphere = np.abs(np.linalg.norm(rel, axis=-1) - 1.0)
    if fb.kind != "half_plane" or fb.axis is None:
        return dist_sphere
    h = rel @ fb.axis
    tangential = rel - h[..., None] * fb.axis
    t_norm = np.linalg.norm(tangential, axis=-1)
    dist_circle = np.sqrt((t_norm - 1.0) ** 2 + h**2)
    return np.where(h >= 0, dist_sphere, dist_circle)


def coverage_gap(disk_map, bubbles):
    """One-sided gap from the image samples to the union of bubble images.

    For an empty decomposition the declared set is the single mean image
    point, so a nonconstant map reports a gap on the scale of its radius.
    """
    pts = disk_map.values.reshape(-1, 3)
    if not bubbles:
        return float(np.linalg.norm(pts - pts.mean(axis=0), axis=-1).max())
    dist = np.full(len(pts), np.inf)
    for b in bubbles:
        if isinstance(b, FittedBubble):
            fb = b
        else:
            axis = np.asarray(b.pole, float) if b.kind == "half_plane" else None
            fb = FittedBubble(bubble=b, center=0j, scale=1.0, kind=b.kind,
                              energy_removed=0.0, family_energy=0.0,
                              fit_residual=0.0, axis=axis)
        dist = np.minimum(dist, _distance_to_image(fb, pts))
    return float(dist.max())


# ---------------------------------------------------------------------------
# the extraction loop
# ---------------------------------------------------------------------------

def extract(disk_map, cfg=None):
    """Decompose a disk map into simple bubbles (see module docstring).

    Deterministic for fixed input and cfg.seed.  Raises BudgetExceeded when
    the accepted bubbles claim more energy than the map contains.
    """
    cfg = cfg or ExtractionConfig()
    total_energy = dirichlet_energy(disk_map)
    # quantization budget: each bubble costs >= 4 pi up to the boundary
    # clipping slack, so round rather than floor (a hemisphere planted on
    # the rim carries slightly less than 4 pi inside the disk)
    budget = int(math.floor(total_energy / (4 * math.pi) + 0.5))
    flags = []
    accepted = []
    resid_energy = total_energy
    initial_stat, stat_value, z_at, grad_at = weighted_sup_field(disk_map, accepted)
    tol = cfg.weighted_sup_tol if cfg.weighted_sup_tol is not None else 0.05 * stat_value
    fit_seed = cfg.seed
    while len(accepted) < min(cfg.max_bubbles, budget):
        if stat_value < tol:
            break
        a, lam = z_at, 1.0 / grad_at
        kind = classify_limit_domain(a, SIMPLE_GRAD_FACTOR * lam, cfg.domain_cut)
        try:
            bubble, rel, axis, circle_center = fit_bubble(
                disk_map, a, lam, kind, fit_window=cfg.fit_window, seed=fit_seed)
        except FitDiverged:
            flags.append("fit_diverged")
            break
        fit_seed += 1
        trial = accepted + [FittedBubble(bubble=bubble, center=bubble.center,
                                         scale=bubble.scale, kind=kind,
                                         energy_removed=0.0, family_energy=0.0,
                                         fit_residual=rel, axis=axis,
                                         circle_center=circle_center)]
        new_resid_energy = dirichlet_energy(residual_map(disk_map, trial))
        if new_resid_energy > resid_energy + 1e-9:
            flags.append("no_improvement")
            break
        removed = resid_energy - new_resid_energy
        fitted = replace(trial[-1], energy_removed=removed,
                         family_energy=bubble_energy(bubble)[0])
        # separation dichotomy: conflicting pairs re-fit as a single bubble
        conflict = next((i for i, other in enumerate(accepted)
                         if separation_statistic(other, fitted) < cfg.separation_min), None)
        if conflict is not None:
            flags.append("merged_pair")
            other = accepted.pop(conflict)
            resid_energy += other.energy_removed
            mid = 0.5 * (other.center + fitted.center)
            lam_m = max(other.scale, fitted.scale, abs(other.center - fitted.center)) / SIMPLE_GRAD_FACTOR
            kind_m = classify_limit_domain(mid, SIMPLE_GRAD_FACTOR * lam_m, cfg.domain_cut)
            try:
                bubble, rel, axis, circle_center = fit_bubble(
                    disk_map, mid, lam_m, kind_m, fit_window=cfg.fit_window, seed=fit_seed)
            except FitDiverged:
                flags.append("fit_diverged")
                break
            fit_seed += 1
            trial = accepted + [FittedBubble(bubble=bubble, center=bubble.center,
                                             scale=bubble.scale, kind=kind_m,
                                             energy_removed=0.0, family_energy=0.0,
                                             fit_residual=rel, axis=axis,
                                             circle_center=circle_center)]
            new_resid_energy = dirichlet_energy(residual_map(disk_map, trial))
            removed = resid_energy - new_resid_energy
            fitted = replace(trial[-1], energy_removed=removed,
                             family_energy=bubble_energy(bubble)[0])
        accepted.append(fitted)
        resid_energy = new_resid_energy
        _, stat_value, z_at, grad_at = weighted_sup_field(disk_map, accepted)
    claimed = sum(fb.energy_removed for fb in accepted)
    if claimed > total_energy * 1.05 + 1e-9:
        raise BudgetExceeded(
            f"fitted bubbles claim {claimed:.4g} of {total_energy:.4g} available")
    k = len(accepted)
    sep = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                sep[i, j] = separation_statistic(accepted[i], accepted[j])
    return BubbleDecomposition(
        bubbles=tuple(accepted),
        residual_energy=resid_energy,
        initial_energy=total_energy,
        weighted_sup=stat_value,
        weighted_sup_tol=tol,
        pairwise_separation=sep,
        coverage_gap=coverage_gap(disk_map, accepted),
        hemisphere_count=sum(1 for fb in accepted if fb.kind == "half_plane"),
        flags=tuple(flags),
        initial_statistic=initial_stat,
    )
