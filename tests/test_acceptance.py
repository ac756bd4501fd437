"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and enforces the stated tolerance and runtime
budget.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from cmclab import balance as bal
from cmclab import bubbles as bub
from cmclab import cli
from cmclab import disk_maps as dm
from cmclab import extraction as ex
from cmclab import implicit_domains as dom
from cmclab import wente as wn
from cmclab.polar_grid import get_grid

from conftest import fitted_slope, planted_pair_map


class Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.t0 = time.perf_counter()
        self.failures = []

    def check(self, name, ok):
        if not ok:
            self.failures.append(name)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        if elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s > {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.number}] {status}: {self.description} "
              f"({elapsed:.1f}s)" + (f" -- {self.failures}" if self.failures else ""))
        assert not self.failures, self.failures


def test_criterion_1_energy_quantization():
    crit = Criterion(1, "bubble energies quantize to 8 pi k (plane) and 4 pi (half-plane)", 10)
    for k in (1, 2, 3):
        coeffs = np.zeros(k + 1, complex)
        coeffs[-1] = 1.0
        energy, deg = bub.bubble_energy(bub.RationalBubble(p_coeffs=coeffs, q_coeffs=[1.0]))
        crit.check(f"degree recorded k={k}", deg == k)
        crit.check(f"plane energy k={k}",
                   abs(energy / (8 * np.pi * k) - 1.0) <= 0.005)
    energy, _ = bub.bubble_energy(bub.hemisphere_bubble())
    crit.check("half-plane degree-1 energy",
               abs(energy / (4 * np.pi) - 1.0) <= 0.005)
    crit.finish()


def test_criterion_2_hemisphere_boundary_circles():
    crit = Criterion(2, "constructed and fitted hemisphere traces are unit circles", 5)

    def circle_defects(points, center, axis):
        rel = points - center
        heights = rel @ axis
        radial = np.linalg.norm(rel - heights[:, None] * axis, axis=-1)
        return np.abs(radial - 1.0).max(), np.abs(heights).max()

    constructed = bub.hemisphere_bubble(center_2d=(0.2, -0.1))
    t = np.tan(np.pi * (np.linspace(0.02, 0.98, 257) - 0.5))
    pts = bub.eval_bubble(constructed, t)
    rad, plane = circle_defects(pts, np.array([0.2, -0.1, 0.0]), np.array([0.0, 0, 1.0]))
    crit.check("constructed radius within 1e-3", rad <= 1e-3)
    crit.check("constructed planarity within 1e-3", plane <= 1e-3)

    hemi = bub.bubble_from_dict({"preset": "hemisphere", "boundary_angle": 0.0,
                                 "scale": 0.1})
    u = bub.synth_sequence(bub.SyntheticSequence(bubbles=(hemi,), seed=1),
                           eps=1.0, n_r=256, n_theta=256)
    dec = ex.extract(u, ex.ExtractionConfig(seed=1))
    crit.check("one hemisphere fitted",
               len(dec.bubbles) == 1 and dec.bubbles[0].kind == "half_plane")
    fb = dec.bubbles[0]
    # trace on the limit half-plane boundary (tangent line at the rim)
    line = fb.center + 1j * (fb.center / abs(fb.center)) * np.linspace(-0.5, 0.5, 129)
    pts = bub.eval_bubble(fb.bubble, line)
    rad, plane = circle_defects(pts, fb.circle_center, fb.axis)
    crit.check("fitted radius within 1e-3", rad <= 1e-3)
    crit.check("fitted planarity within 1e-3", plane <= 1e-3)
    crit.finish()


def test_criterion_3_balancing_formula():
    crit = Criterion(3, "cap flux residual <= 1e-5 * 2 pi at n_theta = 512", 5)
    n_r, n_theta = 512, 512
    for h in [round(0.1 * i, 1) for i in range(10)]:
        cap = bal.spherical_cap_map(h, n_r, n_theta)
        rim = np.sqrt(1.0 - h * h)
        disk = bal.flat_disk_map(rim, h, n_r, n_theta)
        trace = dm.boundary_trace(cap)
        res = bal.balancing_residual(trace, disk, 1.0)
        crit.check(f"residual at h={h}", np.linalg.norm(res) <= 1e-5 * 2 * np.pi)
        seg = np.linalg.norm(np.roll(trace.points, -1, axis=0) - trace.points, axis=-1)
        ds = 0.5 * (seg + np.roll(seg, 1))
        b_int = np.sum(trace.conormal * ds[:, None], axis=0)
        closed_form = np.array([0.0, 0.0, -2 * np.pi * (1 - h * h)])
        crit.check(f"closed form at h={h}",
                   np.abs(b_int - closed_form).max() <= 1e-5 * 2 * np.pi)
    crit.finish()


def test_criterion_4_wente_bounds():
    crit = Criterion(4, "Wente ratios <= 1.02 over 100 seeded instances at 256^2", 60)
    grid = get_grid(256, 256)
    z = grid.nodes_complex()
    res = wn.wente_check(wn.ScalarField(z.real, grid), wn.ScalarField(z.imag, grid))
    crit.check("analytic ratio_inf = 0.5000 within 1%",
               abs(res.ratio_inf / 0.5 - 1.0) <= 0.01)
    crit.check("analytic ratio_grad = sqrt(2/3) within 5e-4",
               abs(res.ratio_grad - math.sqrt(2.0 / 3.0)) <= 5e-4)
    rows = wn.wente_sweep(n_instances=100, n_r=256, n_theta=256, seed0=0)
    crit.check("all ratio_inf <= 1.02", float(rows[:, 1].max()) <= 1.02)
    crit.check("all ratio_grad <= 1.02", float(rows[:, 2].max()) <= 1.02)
    crit.finish()


def test_criterion_5_extraction_recovery():
    crit = Criterion(5, "planted sphere+hemisphere recovered at 512^2 with noise 1e-3", 120)
    u = planted_pair_map(1e-3, 512, seed=1)
    dec = ex.extract(u, ex.ExtractionConfig(seed=5))
    crit.check("exactly 2 bubbles", len(dec.bubbles) == 2)
    crit.check("hemisphere count l = 1", dec.hemisphere_count == 1)
    if len(dec.bubbles) == 2:
        for fb, truth in zip(dec.bubbles, u.meta["ground_truth"]):
            crit.check(f"{truth['kind']} kind", fb.kind == truth["kind"])
            crit.check(f"{truth['kind']} center within 0.5 lambda",
                       abs(fb.center - truth["center"]) <= 0.5 * truth["scale"])
            crit.check(f"{truth['kind']} scale within 10%",
                       abs(fb.scale - truth["scale"]) / truth["scale"] <= 0.10)
            target = 8 * np.pi if truth["kind"] == "plane" else 4 * np.pi
            crit.check(f"{truth['kind']} energy within 5%",
                       abs(fb.family_energy / target - 1.0) <= 0.05)
        crit.check("separation statistic >= 20",
                   float(dec.pairwise_separation[0, 1]) >= 20.0)
    crit.finish()


def test_criterion_6_reduced_force_grad_h():
    crit = Criterion(6, "reduced force collinear with grad H; zero sets coincide", 30)
    e = dom.ellipsoid(2.0, 1.5, 1.0)
    pts = dom.project_to_boundary(e, dom.fibonacci_sphere(100) * np.array([2, 1.5, 1]))
    force = bal.reduced_force(e, pts, 1)
    grad_h = dom.surface_grad_H(e, pts)
    fn = np.linalg.norm(force, axis=-1)
    gn = np.linalg.norm(grad_h, axis=-1)
    live = np.minimum(fn, gn) > 1e-8
    cos = np.sum(force * grad_h, axis=-1)[live] / (fn[live] * gn[live])
    angle = np.arccos(np.clip(cos, -1.0, 1.0)).max()
    crit.check("collinear within 1e-2 rad at 100 mesh points", angle <= 1e-2)
    zeros_h = dom.find_critical_points(e, n_seeds=64, tol=1e-6)
    zeros_f = bal.reduced_force_zeros(e, l=1, n_seeds=64, tol=1e-6)
    crit.check("six critical points of H", len(zeros_h.points) == 6)
    crit.check("six reduced-force zeros", len(zeros_f) == 6)
    endpoints = [[2, 0, 0], [-2, 0, 0], [0, 1.5, 0], [0, -1.5, 0], [0, 0, 1], [0, 0, -1]]
    for target in endpoints:
        target = np.array(target, float)
        crit.check(f"grad H zero at {target}", any(
            np.linalg.norm(cp.point - target) < 1e-4 for cp in zeros_h.points))
        crit.check(f"force zero at {target}", any(
            np.linalg.norm(z - target) < 1e-4 for z in zeros_f))
    crit.finish()


def test_criterion_7_gauss_map_identity():
    crit = Criterion(7, "Gauss-map identity converges at order >= 1.9; grad H term is O(1)", 30)
    sphere = dom.ellipsoid(1.0, 1.0, 1.0)
    errs = [bal.gauss_map_identity_residual(
        bal.isothermal_spheroid_patch(1.0, 1.0, 0.9, 0.2, n_r=n, n_theta=n), sphere)
        for n in (32, 64, 128)]
    crit.check("sphere order >= 1.9 over two doublings", fitted_slope(errs) >= 1.9)
    spheroid = dom.ellipsoid(2.0, 2.0, 1.0)
    errs, ablated = [], []
    for n in (32, 64, 128):
        patch = bal.isothermal_spheroid_patch(2.0, 1.0, 0.9, 0.2, n_r=n, n_theta=n)
        errs.append(bal.gauss_map_identity_residual(patch, spheroid))
        ablated.append(bal.gauss_map_identity_residual(patch, spheroid,
                                                       ablate_grad_term=True))
    crit.check("ellipsoid order >= 1.9 over two doublings", fitted_slope(errs) >= 1.9)
    crit.check("ablated residual O(1): >= 50x the full residual at finest grid",
               ablated[-1] >= 50 * errs[-1])
    crit.finish()


def test_criterion_8_second_order_moment_constant():
    crit = Criterion(8, "projected second order equals -(pi/2) trace per unit circle", 5)
    e = dom.ellipsoid(2.0, 1.5, 1.0)
    q = dom.project_to_boundary(e, np.array([1.0, 1.0, 0.5]))
    jet = dom.normal_jet(e, q)
    got = bal.projected_second_order(jet, bal.CapConfiguration(centers=np.zeros((1, 2))))
    # dense-quadrature oracle at doubled node counts
    oracle = bal.projected_second_order(
        jet, bal.CapConfiguration(centers=np.zeros((1, 2))), n_rad=128, n_ang=512)
    trace = jet.d2_normal[:, 0, 0] + jet.d2_normal[:, 1, 1]
    closed = -(np.pi / 2) * trace
    closed -= (closed @ jet.normal) * jet.normal
    crit.check("matches -(pi/2) trace within 1e-6", np.abs(got - closed).max() <= 1e-6)
    crit.check("matches dense-quadrature oracle within 1e-6",
               np.abs(got - oracle).max() <= 1e-6)
    crit.finish()


def test_criterion_9_determinism(tmp_path):
    crit = Criterion(9, "re-running every command is byte-identical", 300)
    synth_cfg = {"schema": 1, "n_r": 128, "n_theta": 128, "noise_amp": 1e-3, "seed": 3,
                 "bubbles": [{"preset": "sphere", "center": [0, 0], "scale": 0.05},
                             {"preset": "hemisphere", "boundary_angle": 0.0,
                              "scale": 0.1}]}
    sdir = tmp_path / "synth0"
    (tmp_path / "synth.json").write_text(json.dumps(synth_cfg))
    assert cli.main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--out", str(sdir)]) == 0
    configs = {
        "predict": {"schema": 1, "domain": {"kind": "ball", "radius": 1.0},
                    "n_seeds": 16, "force_mesh": 16},
        "extract": {"schema": 1, "dmap": str(sdir / "synth.dmap")},
        "balance": {"schema": 1, "heights": [0.0, 0.5], "n_r": 128, "n_theta": 256,
                    "tol": 3e-4, "force_mesh": 16, "n_seeds": 24,
                    "domain": {"kind": "ball", "radius": 1.0}},
        "wente": {"schema": 1, "instances": 3, "n_r": 64, "n_theta": 64, "seed": 5},
        "verify-bubble": {"schema": 1, "degrees": [1, 2]},
        "synth": synth_cfg,
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run_idx in (1, 2):
            out = tmp_path / f"{command}-{run_idx}"
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
            crit.check(f"{command} run {run_idx} exits 0", code == 0)
            outs.append(out)
        files = sorted(os.listdir(outs[0]))
        crit.check(f"{command} same file set", files == sorted(os.listdir(outs[1])))
        for name in files:
            same = filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
            crit.check(f"{command}/{name} byte-identical", same)
    crit.finish()
