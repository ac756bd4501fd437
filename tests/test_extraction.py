import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmclab import bubbles as bub
from cmclab import disk_maps as dm
from cmclab import extraction as ex
from cmclab.errors import BelowThreshold, FitDiverged

from conftest import planted_pair_map

TWO_SQRT2 = 2 * np.sqrt(2.0)


def planted_single(scale=0.05, n=128, noise=0.0, seed=1):
    seq = bub.SyntheticSequence(bubbles=(bub.sphere_bubble(center=0.0, scale=scale),),
                                noise_amp=noise, seed=seed)
    return bub.synth_sequence(seq, eps=1.0, n_r=n, n_theta=n)


# -- residual map ------------------------------------------------------------------

def test_residual_no_bubbles_is_identity():
    u = planted_single()
    r = ex.residual_map(u, [])
    assert np.array_equal(r.values, u.values)


def test_residual_ground_truth_cancels():
    u = planted_single()
    truth = u.meta["ground_truth"][0]["bubble"]
    r = ex.residual_map(u, [truth])
    assert dm.dirichlet_energy(r) <= 1e-4 * dm.dirichlet_energy(u)


def test_residual_partial_subtraction():
    u = planted_pair_map(0.0, 256)
    sphere_truth = u.meta["ground_truth"][0]["bubble"]
    r = ex.residual_map(u, [sphere_truth])
    # the remaining hemisphere carries about 4 pi inside the disk
    assert abs(dm.dirichlet_energy(r) / (4 * np.pi) - 1.0) < 0.1


# -- weighted statistic --------------------------------------------------------------

def test_statistic_constant_map():
    const = dm.DiskMap(values=np.ones((17, 32, 3)))
    value, _ = ex.weighted_sup_statistic(const, [])
    assert value < 1e-12
    # deterministic argmax tie-break on an exactly-tied field: first node
    zero = dm.DiskMap(values=np.zeros((17, 32, 3)))
    value, z_at = ex.weighted_sup_statistic(zero, [])
    assert value == 0.0
    assert z_at == zero.grid.nodes_complex()[0, 0]


def test_statistic_initial_peak_at_bubble_center():
    u = planted_single(scale=0.05)
    value, z_at = ex.weighted_sup_statistic(u, [])
    assert abs(z_at) <= 2.5 / 128  # within two grid cells of the origin
    assert abs(value - TWO_SQRT2 / 0.05) < 0.05 * TWO_SQRT2 / 0.05


def test_statistic_small_after_truth_subtraction():
    u = planted_single(scale=0.05)
    truth = u.meta["ground_truth"][0]["bubble"]
    value, _ = ex.weighted_sup_statistic(u, [truth])
    assert value < 0.05 * (TWO_SQRT2 / 0.05)


# -- candidates -----------------------------------------------------------------------

def test_next_candidate_scale_normalization():
    u = planted_single(scale=0.05)
    a, lam = ex.next_candidate(u, [], weighted_sup_tol=1.0)
    assert abs(a) < 2.5 / 128
    assert abs(lam - 0.05 / TWO_SQRT2) < 0.05 * 0.05 / TWO_SQRT2


def test_next_candidate_hemisphere_near_boundary():
    u = planted_pair_map(0.0, 256, hemi_scale=0.1)
    sphere_truth = u.meta["ground_truth"][0]["bubble"]
    a, lam = ex.next_candidate(u, [sphere_truth], weighted_sup_tol=1.0)
    assert abs(a - 1.0) < 2.5 * 2 * np.pi / 256
    assert (1.0 - abs(a)) / (TWO_SQRT2 * lam) < 10.0  # classified half-plane downstream


def test_next_candidate_below_threshold():
    const = dm.DiskMap(values=np.ones((17, 32, 3)))
    with pytest.raises(BelowThreshold):
        ex.next_candidate(const, [], weighted_sup_tol=1e-6)


def test_classify_limit_domain():
    assert ex.classify_limit_domain(0.0, 0.01) == "plane"
    assert ex.classify_limit_domain(0.999, 0.01) == "half_plane"
    # boundary case goes to the plane by strict inequality (dyadic floats
    # so the ratio is exactly 10)
    assert ex.classify_limit_domain(1.0 - 10.0 / 128.0, 1.0 / 128.0) == "plane"


# -- fitting ---------------------------------------------------------------------------

def test_fit_recovers_planted_sphere():
    u = planted_single(scale=0.05)
    a, lam = ex.next_candidate(u, [], weighted_sup_tol=1.0)
    bubble, rel, _, _ = ex.fit_bubble(u, a, lam, "plane", seed=0)
    truth = u.meta["ground_truth"][0]
    assert abs(bubble.center - truth["center"]) < 0.5 * truth["scale"]
    assert abs(bubble.scale - truth["scale"]) / truth["scale"] < 0.10
    assert np.abs(bubble.shift - truth["bubble"].shift).max() < 0.01
    assert rel < 1e-6


def test_fit_hemisphere_trace_is_unit_circle():
    u = planted_pair_map(0.0, 256)
    sphere_truth = u.meta["ground_truth"][0]["bubble"]
    a, lam = ex.next_candidate(u, [sphere_truth], weighted_sup_tol=1.0)
    bubble, rel, axis, circle_center = ex.fit_bubble(u, a, lam, "half_plane", seed=0)
    # trace on the limit half-plane boundary (tangent line at the rim)
    line = 1.0 + 1j * np.linspace(-0.4, 0.4, 81)
    pts = bub.eval_bubble(bubble, line)
    heights = (pts - circle_center) @ axis
    radial = np.linalg.norm(pts - circle_center - heights[:, None] * axis, axis=-1)
    assert np.abs(radial - 1.0).max() < 1e-2
    assert np.abs(heights).max() < 1e-2


def test_fit_pure_noise_diverges():
    rng = np.random.default_rng(0)
    values = 0.1 * rng.standard_normal((65, 64, 3))
    noise_map = dm.DiskMap(values=values)
    with pytest.raises(FitDiverged):
        ex.fit_bubble(noise_map, 0.0, 0.02, "plane", seed=0)


# -- separation statistic ---------------------------------------------------------------

def test_separation_examples():
    got = ex.separation_statistic((0.0, 0.1), (0.5, 0.1))
    assert np.isclose(got, 2 * np.sqrt(0.26) / 0.1)  # 10.198...
    assert np.isclose(ex.separation_statistic((0.3, 0.2), (0.3, 0.2)), 2.0)
    assert np.isclose(ex.separation_statistic((0.0, 1.0), (0.0, 0.01)), 100.01)


# -- concentration function ----------------------------------------------------------------

def test_concentration_function_limits():
    u = planted_single(scale=0.05, n=64)
    resid = ex.residual_map(u, [])
    total = dm.dirichlet_energy(u)
    assert ex.concentration_function(resid, 0.0) == 0.0
    assert np.isclose(ex.concentration_function(resid, 2.0), total, rtol=1e-12)
    # 90% of a simple bubble's energy sits within 10 lambda of its center
    lam = 0.05
    c_small = ex.concentration_function(resid, 10 * lam)
    assert c_small >= 0.9 * total
    # monotone in t
    values = [ex.concentration_function(resid, t) for t in (0.05, 0.2, 0.5, 1.0, 2.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def _dense_concentration(resid, t, center_stride=None):
    """Reference C(t): a dense centers x nodes mask, one block of centers at a time."""
    grid = resid.grid
    u_x, u_y = dm.gradient(resid)
    dens = np.sum(u_x**2 + u_y**2, axis=-1) * np.asarray(grid.area_weights)
    flat_z = grid.nodes_complex().ravel()
    flat_e = dens.ravel()
    if center_stride is None:
        center_stride = max(1, int(math.ceil(flat_z.size / 16384)))
    centers = flat_z[::center_stride]
    best = 0.0
    for i in range(0, len(centers), 512):
        inside = np.abs(centers[i : i + 512, None] - flat_z[None, :]) < t
        best = max(best, float((inside @ flat_e).max()))
    return best


def _random_map(n_r, n_theta, seed):
    values = np.random.default_rng(seed).standard_normal((n_r + 1, n_theta, 3))
    return dm.DiskMap(values=values)


# (n_r, n_theta): square grids, a ring-heavy grid whose centers span two
# blocks, and a coarse-radius grid with long rings
@pytest.mark.parametrize("shape", [(16, 16), (32, 32), (48, 48), (128, 16), (8, 64)])
def test_concentration_function_matches_dense(shape):
    n_r, n_theta = shape
    u = _random_map(n_r, n_theta, seed=n_r * n_theta)
    z = u.grid.nodes_complex()
    rng = np.random.default_rng(n_r + n_theta)
    flat = z.ravel()
    i, j = rng.integers(0, flat.size, (2, 4))
    rings = rng.integers(0, n_r + 1, (2, 2))
    ties = np.concatenate([
        np.abs(flat[i] - flat[j]),                             # node-to-node distances
        np.abs(z[rings[0], 0] - z[rings[1], n_theta // 2]),    # through the far point
    ])
    radii = [-0.5, 0.0, 2.0, 2.5, *rng.uniform(0.0, 2.0, 3), *ties]
    for t in radii:
        # the default stride is 1 on grids this small
        assert ex.concentration_function(u, t) == ex.concentration_function(u, t, 1)
        for stride in (1, 3):
            expect = _dense_concentration(u, t, stride)
            got = ex.concentration_function(u, t, stride)
            assert got == pytest.approx(expect, rel=1e-12, abs=0.0), (stride, t)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 24, 32]),
       radii=st.lists(st.floats(0.0, 2.5), min_size=2, max_size=5))
def test_concentration_function_monotone_and_bounded(seed, n, radii):
    u = _random_map(n, n, seed)
    total = ex.concentration_function(u, 2.0)
    assert total == pytest.approx(dm.dirichlet_energy(u), rel=1e-12)
    values = [ex.concentration_function(u, t) for t in sorted(radii)]
    slack = 1e-12 * total  # arcs of nested balls are summed in different orders
    assert all(a <= b + slack for a, b in zip(values, values[1:]))
    assert max(values) <= total + slack


# -- extract loop -----------------------------------------------------------------------------

def test_extract_planted_pair():
    u = planted_pair_map(0.0, 256)
    dec = ex.extract(u, ex.ExtractionConfig(seed=5))
    assert len(dec.bubbles) == 2
    assert {fb.kind for fb in dec.bubbles} == {"plane", "half_plane"}
    assert dec.hemisphere_count == 1
    for fb, truth in zip(dec.bubbles, u.meta["ground_truth"]):
        assert abs(fb.center - truth["center"]) < 0.5 * truth["scale"]
        assert abs(fb.scale - truth["scale"]) / truth["scale"] < 0.10
        target = 8 * np.pi if fb.kind == "plane" else 4 * np.pi
        assert abs(fb.family_energy / target - 1.0) < 0.05
    assert dec.pairwise_separation[0, 1] >= 20.0
    assert np.array_equal(dec.initial_statistic, ex.weighted_sup_field(u, [])[0])


def test_extract_constant_map_empty():
    const = dm.DiskMap(values=np.ones((17, 32, 3)))
    dec = ex.extract(const, ex.ExtractionConfig(seed=0))
    assert len(dec.bubbles) == 0
    assert dec.residual_energy < 1e-20


def test_extract_single_hemisphere_l_at_least_one():
    hemi = bub.bubble_from_dict({"preset": "hemisphere", "boundary_angle": 0.0,
                                 "scale": 0.1})
    seq = bub.SyntheticSequence(bubbles=(hemi,), seed=2)
    u = bub.synth_sequence(seq, eps=1.0, n_r=256, n_theta=256)
    dec = ex.extract(u, ex.ExtractionConfig(seed=2))
    assert dec.hemisphere_count >= 1
    assert len(dec.bubbles) == 1


def test_extract_monotone_residual():
    u = planted_pair_map(1e-3, 256, seed=3)
    dec = ex.extract(u, ex.ExtractionConfig(seed=3))
    assert dec.residual_energy <= dec.initial_energy + 1e-9
    running = dec.initial_energy
    for fb in dec.bubbles:
        assert fb.energy_removed >= -1e-9
        running -= fb.energy_removed
    assert np.isclose(running, dec.residual_energy, atol=1e-9)


def test_extract_deterministic():
    u = planted_pair_map(1e-3, 128, seed=4)
    d1 = ex.extract(u, ex.ExtractionConfig(seed=7))
    d2 = ex.extract(u, ex.ExtractionConfig(seed=7))
    assert len(d1.bubbles) == len(d2.bubbles)
    for a, b in zip(d1.bubbles, d2.bubbles):
        assert np.array_equal(a.bubble.p_coeffs, b.bubble.p_coeffs)
        assert np.array_equal(a.bubble.q_coeffs, b.bubble.q_coeffs)
        assert a.center == b.center and a.scale == b.scale
        assert a.energy_removed == b.energy_removed
    assert d1.residual_energy == d2.residual_energy
    assert d1.coverage_gap == d2.coverage_gap


def test_extract_quantization_invariant():
    u = planted_pair_map(1e-3, 256, seed=6)
    dec = ex.extract(u, ex.ExtractionConfig(seed=6))
    for fb in dec.bubbles:
        assert 0.9 * 4 * np.pi <= fb.energy_removed <= 1.1 * 8 * np.pi


# -- coverage --------------------------------------------------------------------------------

def test_coverage_gap_exact_bubble():
    u = planted_single(scale=0.05, n=64)
    truth = u.meta["ground_truth"][0]["bubble"]
    assert ex.coverage_gap(u, [truth]) < 1e-6


def test_coverage_gap_empty_decomposition():
    u = planted_single(scale=0.3, n=64)
    gap = ex.coverage_gap(u, [])
    assert 0.3 * dm.diameter(u) < gap < dm.diameter(u)


def test_coverage_gap_planted_pair():
    u = planted_pair_map(0.0, 256)
    dec = ex.extract(u, ex.ExtractionConfig(seed=5))
    image_cell = TWO_SQRT2 / 0.05 * (1.0 / 256)
    assert dec.coverage_gap <= 2 * image_cell


# -- config validation -------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExtractionConfig(concentration_nu=100.0)
    with pytest.raises(ValueError):
        ex.ExtractionConfig(concentration_nu=-1.0)
    with pytest.raises(ValueError):
        ex.ExtractionConfig(separation_min=1.0)
