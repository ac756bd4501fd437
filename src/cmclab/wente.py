"""Sharp Wente-type inequalities on the unit disk, run as numerics.

Contains a direct Poisson solver on the polar grid with the geometer's sign
convention Delta = -(d_xx + d_yy) and zero Dirichlet data, the two sharp
bounds ||u||_inf <= (1/2pi)||grad a||_2 ||grad b||_2 and
||grad u||_2 <= sqrt(3/16pi) ||grad a||_2 ||grad b||_2 for
Delta u = a_x b_y - a_y b_x, and the trilinear estimate
|int <u, v_x ^ v_y>| <= C ||grad u||_2 ||grad v||_2^2 whose empirical
constant feeds the extraction thresholds.

Scope note: the analogous inequalities on closed surfaces (oscillation plus
gradient bounds with constant 1/(4 pi) + sqrt(3/(128 pi)) on a compact
surface, and their whole-plane corollary) are deliberately not implemented;
only the disk inequalities and the trilinear estimate enter the extraction
thresholds quantitatively.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.special import jn_zeros, jv

from .errors import SingularSystem
from .polar_grid import get_grid

# Empirical trilinear constant: running max of C estimates over the seeded
# reference sweeps (200 instances each at 128^2 and 256^2 was 0.00776,
# stable to <2% per seed across the two resolutions), rounded up a decade.
# The true constant of the estimate has no closed form; this export exists
# so extraction thresholds can require nu < 1/(2 C0).
DEFAULT_TRILINEAR_C0 = 0.01

WENTE_INF_CONSTANT = 1.0 / (2.0 * np.pi)
WENTE_GRAD_CONSTANT = float(np.sqrt(3.0 / (16.0 * np.pi)))


@dataclass
class ScalarField:
    """Scalar samples on the polar grid (cell-centered rows plus ring)."""

    values: np.ndarray
    grid: object = None

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.ndim != 2:
            raise ValueError("scalar field must have shape (n_r + 1, n_theta)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if self.grid is None:
            self.grid = get_grid(self.values.shape[0] - 1, self.values.shape[1])


@dataclass
class VectorField:
    """R^3-valued samples on the polar grid."""

    values: np.ndarray
    grid: object = None

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.ndim != 3 or self.values.shape[2] != 3:
            raise ValueError("vector field must have shape (n_r + 1, n_theta, 3)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if self.grid is None:
            self.grid = get_grid(self.values.shape[0] - 1, self.values.shape[1])


def grad_l2(field):
    """L2 norm of the gradient of a scalar or vector field."""
    grid = field.grid
    u_x, u_y = grid.gradient(field.values)
    dens = u_x**2 + u_y**2
    if dens.ndim == 3:
        dens = dens.sum(axis=-1)
    return float(np.sqrt(grid.integrate(dens)))


def jacobian_rhs(a, b):
    """Jacobian a_x b_y - a_y b_x as a scalar field (pointwise exact
    antisymmetry: swapping arguments negates the field bitwise)."""
    grid = a.grid
    a_x, a_y = grid.gradient(a.values)
    b_x, b_y = grid.gradient(b.values)
    return ScalarField(a_x * b_y - a_y * b_x, grid)


# ---------------------------------------------------------------------------
# Poisson solver: FFT in theta, banded direct solves in r
# ---------------------------------------------------------------------------

_SOLVER_CACHE = {}


def _mode_matrices(grid):
    """Banded radial matrices of -(u_rr + u_r/r) on the interior columns.

    Returns (ab_base, fold_coeffs, l_and_u) where ``fold_coeffs`` carries the
    across-origin ghost weight of row 0 that enters with the mode sign
    (-1)^m, and the Dirichlet ring column is eliminated.  Cached by grid
    size, so equal-sized grids share one entry.
    """
    key = (grid.n_r, grid.n_theta)
    if key in _SOLVER_CACHE:
        return _SOLVER_CACHE[key]
    n = grid.n_r
    d1 = grid._d1.toarray()[:n]   # rows: cell-centered nodes; cols: extended axis
    d2 = grid._d2.toarray()[:n]
    radial = -(d2 + d1 / grid.r[:n][:, None])
    fold = radial[0, 0]            # ghost column weight (row 0 only)
    interior = radial[:, 1 : n + 1]
    l = u = 2
    ab = np.zeros((l + u + 1, n))
    for i in range(n):
        for j in range(max(0, i - l), min(n, i + u + 1)):
            ab[u + i - j, j] = interior[i, j]
    out = (ab, fold, (l, u))
    _SOLVER_CACHE[key] = out
    return out


def poisson_solve_disk(rhs):
    """Solve Delta u = rhs with Delta = -(d_xx + d_yy) and u = 0 at r = 1.

    Direct solve: real FFT in theta decouples angular modes (matching the
    grid's spectral derivative), each solved by a banded LU in r with the
    across-origin fold (-1)^m at the innermost ring.  The returned field has
    zeros on the boundary ring; the discrete residual of the grid operator
    is at direct-solver level (~1e-13 relative).
    """
    grid = rhs.grid
    n, m_count = grid.n_r, grid.n_theta // 2 + 1
    ab_base, fold, (l, u) = _mode_matrices(grid)
    spec = np.fft.rfft(rhs.values[:n], axis=1)
    out_modes = np.zeros((n, m_count), complex)
    inv_r2 = 1.0 / grid.r[:n] ** 2
    for m in range(m_count):
        ab = ab_base.copy()
        ab[u, :] += m * m * inv_r2
        ab[u, 0] += fold * (-1.0) ** m
        try:
            out_modes[:, m] = sla.solve_banded((l, u), ab, spec[:, m])
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SingularSystem(f"banded solve failed at mode {m}: {exc}") from exc
    values = np.zeros((n + 1, grid.n_theta))
    values[:n] = np.fft.irfft(out_modes, n=grid.n_theta, axis=1)
    return ScalarField(values, grid)


class WenteResult(NamedTuple):
    ratio_inf: float
    ratio_grad: float
    sup_u: float
    grad_u: float
    bound_product: float


def wente_check(a, b):
    """Measured/bound ratios for both sharp Wente inequalities.

    Solves Delta u = a_x b_y - a_y b_x with zero boundary data and compares
    ||u||_inf and ||grad u||_2 against their sharp bounds; ratios at most
    1 + O(h^2) certify the inequalities on the instance.  A zero bound
    (constant a or b) reports ratios 0 by convention.
    """
    rhs = jacobian_rhs(a, b)
    u = poisson_solve_disk(rhs)
    sup_u = float(np.abs(u.values).max())
    grad_u = grad_l2(u)
    product = grad_l2(a) * grad_l2(b)
    if product <= 0.0:
        return WenteResult(0.0, 0.0, sup_u, grad_u, 0.0)
    return WenteResult(
        ratio_inf=sup_u / (WENTE_INF_CONSTANT * product),
        ratio_grad=grad_u / (WENTE_GRAD_CONSTANT * product),
        sup_u=sup_u,
        grad_u=grad_u,
        bound_product=product,
    )


class TrilinearResult(NamedTuple):
    lhs: float
    bound_factor: float
    c_estimate: float


def trilinear_check(u, v):
    """Trilinear pairing |int <u, v_x ^ v_y>| against ||grad u|| ||grad v||^2.

    ``v`` must vanish on the boundary ring.  The mean of u is routed through
    the boundary-circulation identity int v_x ^ v_y = (1/2) oint v ^ dv,
    which vanishes identically for zero boundary data, so constant u gives
    an exactly null pairing (the integrand is a null Lagrangian).
    """
    grid = u.grid
    scale = 1.0 + np.abs(v.values).max()
    if np.abs(v.values[-1]).max() > 1e-10 * scale:
        raise ValueError("trilinear_check requires v = 0 on the boundary ring")
    v_x, v_y = grid.gradient(v.values)
    cross = np.cross(v_x, v_y)
    mean_u = grid.integrate(u.values) / np.pi
    lhs = float(grid.integrate(np.sum((u.values - mean_u) * cross, axis=-1)))
    bound_factor = grad_l2(u) * grad_l2(v) ** 2
    c_est = abs(lhs) / bound_factor if bound_factor > 0 else 0.0
    return TrilinearResult(lhs=lhs, bound_factor=bound_factor, c_estimate=c_est)


# ---------------------------------------------------------------------------
# reproducible random instances
# ---------------------------------------------------------------------------

def random_band_limited(grid, seed, components=1, zero_boundary=False,
                        max_angular=3, max_radial=3):
    """Seeded band-limited Fourier-Bessel field; smooth and in H^1.

    Combines J_m(j_{m,n} r) e^{i m theta} modes (zero on the boundary) and,
    unless ``zero_boundary``, a few harmonic polynomials r^m e^{i m theta}
    with nonzero trace.  Values are normalized to unit sup norm.
    """
    rng = np.random.default_rng(seed)
    r = grid.r[:, None]
    theta = grid.theta[None, :]
    shape = (grid.n_r + 1, grid.n_theta, components)
    out = np.zeros(shape)
    for m in range(0, max_angular + 1):
        zeros_m = jn_zeros(m, max_radial)
        for n in range(max_radial):
            radial = jv(m, zeros_m[n] * r)
            c = rng.standard_normal(components)
            s = rng.standard_normal(components)
            ang = np.cos(m * theta)[..., None] * c + np.sin(m * theta)[..., None] * s
            out += radial[..., None] * ang
    if not zero_boundary:
        for m in range(1, max_angular + 1):
            c = rng.standard_normal(components)
            s = rng.standard_normal(components)
            ang = np.cos(m * theta)[..., None] * c + np.sin(m * theta)[..., None] * s
            out += (r**m)[..., None] * ang
    out /= np.abs(out).max()
    if components == 1:
        return ScalarField(out[..., 0], grid)
    return VectorField(out, grid)


def wente_sweep(n_instances=100, n_r=256, n_theta=256, seed0=0):
    """Seeded sweep of wente_check on random band-limited pairs.

    Returns an array with rows (seed, ratio_inf, ratio_grad).
    """
    grid = get_grid(n_r, n_theta)
    rows = []
    for i in range(n_instances):
        seed = seed0 + i
        a = random_band_limited(grid, 2 * seed + 1)
        b = random_band_limited(grid, 2 * seed + 2)
        res = wente_check(a, b)
        rows.append((seed, res.ratio_inf, res.ratio_grad))
    return np.array(rows)


def trilinear_sweep(n_instances=200, n_r=128, n_theta=128, seed0=0):
    """Seeded sweep of trilinear_check; returns rows (seed, c_estimate)."""
    grid = get_grid(n_r, n_theta)
    rows = []
    for i in range(n_instances):
        seed = seed0 + i
        u = random_band_limited(grid, 3 * seed + 1, components=3)
        v = random_band_limited(grid, 3 * seed + 2, components=3, zero_boundary=True)
        res = trilinear_check(u, v)
        rows.append((seed, res.c_estimate))
    return np.array(rows)
