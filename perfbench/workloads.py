"""The three benchmark workloads: generated configs, one timed pass, oracles.

A workload is built from the benchmark seed alone.  ``run_pass`` drives the
program through ``cmclab.cli.main`` (and, for extraction, one library call)
as a closed loop and returns the wall time of each step.  ``checks`` then
compares the pass's outputs with references computed apart from the program
(closed forms, planted ground truth, symmetries); it is not timed.
"""

import contextlib
import hashlib
import json
import math
import os
import time

import numpy as np
from scipy.special import jn_zeros, jv

from cmclab import balance as bal
from cmclab import bubbles as bub
from cmclab import cli
from cmclab import disk_maps as dm
from cmclab import extraction as ex
from cmclab import wente as wn
from cmclab.polar_grid import get_grid


def derive_seed(seed, label):
    """Stable 32-bit seed for one input of the workload."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _synth(spec):
    """The planted map a synth config describes, built from the public API."""
    seq = bub.SyntheticSequence(bubbles=tuple(bub.bubble_from_dict(b) for b in spec["bubbles"]),
                                noise_amp=spec["noise_amp"], seed=spec["seed"])
    return bub.synth_sequence(seq, eps=1.0, n_r=spec["n_r"], n_theta=spec["n_theta"])


def _close(p, q, tol):
    return float(np.linalg.norm(np.asarray(p, float) - np.asarray(q, float))) < tol


class Workload:
    """Base: a set of CLI commands on generated configs plus oracle checks."""

    name = None

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out = out_dir
        self.log_path = os.path.join(out_dir, "cli.log")
        self.exit_codes = {}

    def command(self, step, cmd, cfg_path, out_name):
        """One closed-loop CLI call; CLI chatter goes to the log file."""
        out = os.path.join(self.out, out_name)
        with open(self.log_path, "a") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            try:
                self.exit_codes[step] = cli.main([cmd, "--config", cfg_path, "--out", out])
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                print(f"{step}: {type(exc).__name__}: {exc}")
                self.exit_codes[step] = None

    def timed(self, times, step, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        times[step] = times.get(step, 0.0) + time.perf_counter() - t0
        return result

    def output_files(self):
        """Every file the pass wrote (for the byte-identity check)."""
        files = []
        for name in self.output_dirs:
            base = os.path.join(self.out, name)
            for fname in sorted(os.listdir(base)) if os.path.isdir(base) else []:
                files.append(os.path.join(base, fname))
        return files

    def clear_outputs(self):
        for path in self.output_files():
            os.remove(path)

    def digest(self):
        h = hashlib.sha256()
        for path in self.output_files():
            h.update(os.path.relpath(path, self.out).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def command_checks(self):
        return [(f"{step} exits 0", code == 0) for step, code in self.exit_codes.items()]


# ---------------------------------------------------------------------------
# geometry: critical points of H on the ellipsoid and the bumpy ball
# ---------------------------------------------------------------------------

SEMI_AXES = (2.0, 1.5, 1.0)


class Geometry(Workload):
    name = "geometry"
    output_dirs = ("ellipsoid", "bumpy")

    def setup(self):
        base = {"schema": 1, "n_seeds": 64, "tol": 1e-6, "l": 1, "force_mesh": 200}
        self.cfg = {
            "ellipsoid": _write_json(os.path.join(self.out, "ellipsoid.json"), dict(
                base, domain={"kind": "ellipsoid", "semi_axes": list(SEMI_AXES)})),
            "bumpy": _write_json(os.path.join(self.out, "bumpy.json"), dict(
                base, domain={"kind": "bumpy_ball", "radius": 1.0, "amplitude": 0.05})),
        }
        # dedup radius of the search: 1e-3 * bounding-box diagonal
        self.dedup = {"ellipsoid": 1e-3 * 3.0 * math.sqrt(sum(s * s for s in SEMI_AXES)),
                      "bumpy": 1e-3 * 3.0 * (1.0 + 0.05) * math.sqrt(3.0)}

    def run_pass(self):
        times = {}
        for dom in ("ellipsoid", "bumpy"):
            self.timed(times, "predict_s", self.command, f"predict {dom}", "predict",
                       self.cfg[dom], dom)
        return times

    def checks(self):
        out = self.command_checks()
        rep = {d: _read_json(os.path.join(self.out, d, "report.json")) for d in self.output_dirs}
        pts = {d: [(np.array(cp["point"]), cp["h"], cp["label"]) for cp in rep[d]["critical_points"]]
               for d in rep}
        tol = self.dedup["ellipsoid"]
        a = SEMI_AXES
        expected = []  # (point, label, H closed form) at the six axis ends
        for i, label in zip(range(3), ("max", "saddle", "min")):
            j, k = (i + 1) % 3, (i + 2) % 3
            h = 0.5 * (a[i] / a[j] ** 2 + a[i] / a[k] ** 2)
            for sign in (1.0, -1.0):
                p = np.zeros(3)
                p[i] = sign * a[i]
                expected.append((p, label, h))
        found = pts["ellipsoid"]
        match = [next((f for f in found if _close(f[0], p, tol)), None) for p, _, _ in expected]
        out.append(("ellipsoid: exactly the six axis ends",
                    len(found) == 6 and all(m is not None for m in match)))
        out.append(("ellipsoid: max/saddle/min at long/middle/short axis",
                    all(m is not None and m[2] == lab for m, (_, lab, _) in zip(match, expected))))
        out.append(("ellipsoid: H matches 1/2(a/b^2 + a/c^2)",
                    all(m is not None and abs(m[1] - h) <= 1e-6 * h
                        for m, (_, _, h) in zip(match, expected))))
        for dom in self.output_dirs:
            labels = [lab for _, _, lab in pts[dom]]
            euler = labels.count("min") - labels.count("saddle") + labels.count("max")
            out.append((f"{dom}: #min - #saddle + #max = 2",
                        euler == 2 and "degenerate" not in labels))
            zeros = [np.array(z) for z in rep[dom]["force_zeros"]]
            out.append((f"{dom}: force zeros coincide with critical points",
                        len(zeros) == len(pts[dom]) and all(
                            any(_close(z, p, self.dedup[dom]) for z in zeros)
                            for p, _, _ in pts[dom])))
        bumpy = [p for p, _, _ in pts["bumpy"]]
        for label, sym in (("cyclic (x,y,z)->(y,z,x)", lambda p: p[[1, 2, 0]]),
                           ("(x,y,z)->(-x,-y,z)", lambda p: p * np.array([-1.0, -1.0, 1.0]))):
            out.append((f"bumpy: point set closed under {label}", len(bumpy) > 0 and all(
                any(_close(sym(p), q, self.dedup["bumpy"]) for q in bumpy) for p in bumpy)))
        return out


# ---------------------------------------------------------------------------
# extraction: DMAP round trip, planted-pair extraction, concentration function
# ---------------------------------------------------------------------------

PLANTED = (("plane", 0j, 0.05), ("half_plane", 1 + 0j, 0.1))  # kind, center, scale
RADII = (0.1, 0.5, 2.0)


def _planted_spec(n, noise_seed):
    return {"schema": 1, "n_r": n, "n_theta": n, "noise_amp": 1e-3, "seed": noise_seed,
            "bubbles": [{"preset": "sphere", "center": [0.0, 0.0], "scale": 0.05},
                        {"preset": "hemisphere", "boundary_angle": 0.0, "scale": 0.1}]}


class Extraction(Workload):
    name = "extraction"
    output_dirs = ("synth", "extract")

    def setup(self):
        noise, fit = derive_seed(self.seed, "noise"), derive_seed(self.seed, "fit")
        self.synth_cfg = _planted_spec(512, noise)
        self.cfg_synth = _write_json(os.path.join(self.out, "synth.json"), self.synth_cfg)
        self.dmap_path = os.path.join(self.out, "synth", "synth.dmap")
        self.cfg_extract = _write_json(os.path.join(self.out, "extract.json"), {
            "schema": 1, "dmap": self.dmap_path, "extraction": {"seed": fit}})
        # input of the concentration step: the final residual of a 128^2 pair
        spec = _planted_spec(128, noise)
        small = _synth(spec)
        dec = ex.extract(small, ex.ExtractionConfig(seed=fit))
        self.resid = ex.residual_map(small, list(dec.bubbles))
        get_grid(512, 512)

    def run_pass(self):
        times = {}
        self.timed(times, "synth_s", self.command, "synth", "synth", self.cfg_synth, "synth")
        self.timed(times, "extract_s", self.command, "extract", "extract",
                   self.cfg_extract, "extract")
        try:
            self.conc = [self.timed(times, "concentration_s", ex.concentration_function,
                                    self.resid, t) for t in RADII]
        except Exception as exc:  # fails this pass's C(t) checks
            with open(self.log_path, "a") as log:
                print(f"concentration_function: {type(exc).__name__}: {exc}", file=log)
            self.conc = None
        return times

    def checks(self):
        out = self.command_checks()
        with open(self.dmap_path, "rb") as fh:
            raw = fh.read()
        newline = raw.index(b"\n")
        n = self.synth_cfg["n_r"]
        header_ok = raw[:newline].split()[:4] == [b"DMAP", b"1", str(n).encode(), str(n).encode()]
        payload = np.frombuffer(raw[newline + 1:], dtype="<f8")
        planted = _synth(self.synth_cfg).values.astype("<f8").ravel()
        read_back = dm.read_dmap(self.dmap_path).values.ravel()
        out.append(("DMAP read back equals the written map bit for bit",
                    header_ok and payload.tobytes() == planted.tobytes()
                    and read_back.tobytes() == planted.tobytes()))
        rep = _read_json(os.path.join(self.out, "extract", "report.json"))
        fitted = {b["kind"]: b for b in rep["bubbles"]}
        out.append(("two bubbles, l = 1, kinds plane + half_plane",
                    len(rep["bubbles"]) == 2 and rep["hemisphere_count"] == 1
                    and sorted(fitted) == ["half_plane", "plane"]))
        for kind, center, scale in PLANTED:
            fb = fitted.get(kind)
            c = complex(*fb["center"]) if fb else None
            out.append((f"{kind}: centre within 0.5 lambda, scale within 10%",
                        fb is not None and abs(c - center) <= 0.5 * scale
                        and abs(fb["scale"] - scale) <= 0.10 * scale))
            target = 8 * math.pi if kind == "plane" else 4 * math.pi
            out.append((f"{kind}: family energy within 5% of {target / math.pi:.0f} pi",
                        fb is not None and abs(fb["family_energy"] / target - 1.0) <= 0.05))
        out.append(("C(t) nondecreasing over the radii",
                    all(c1 <= c2 for c1, c2 in zip(self.conc, self.conc[1:]))))
        energy = dm.dirichlet_energy(self.resid)
        out.append(("C(2) equals the residual's Dirichlet energy",
                    abs(self.conc[RADII.index(2.0)] - energy) <= 1e-9 * abs(energy)))
        return out


# ---------------------------------------------------------------------------
# sweeps: Wente sweep and the cap-flux balance sweep on the unit ball
# ---------------------------------------------------------------------------

WENTE_TOL = 1.02
HEIGHTS = [round(0.1 * i, 1) for i in range(10)]
FLUX_TOL = 1e-5 * 2 * math.pi


class Sweeps(Workload):
    name = "sweeps"
    output_dirs = ("wente", "balance")

    def setup(self):
        self.seed0 = derive_seed(self.seed, "wente") % 1_000_000
        self.cfg_wente = _write_json(os.path.join(self.out, "wente.json"), {
            "schema": 1, "instances": 100, "n_r": 256, "n_theta": 256, "seed": self.seed0,
            "ratio_tol": WENTE_TOL, "trilinear": True})
        self.cfg_balance = _write_json(os.path.join(self.out, "balance.json"), {
            "schema": 1, "heights": HEIGHTS, "n_r": 256, "n_theta": 512, "tol": FLUX_TOL,
            "domain": {"kind": "ball", "radius": 1.0}, "l": 1, "force_mesh": 200})
        for size in ((256, 256), (256, 512), (64, 128)):
            get_grid(*size)

    def run_pass(self):
        times = {}
        self.timed(times, "wente_s", self.command, "wente", "wente", self.cfg_wente, "wente")
        self.timed(times, "balance_s", self.command, "balance", "balance",
                   self.cfg_balance, "balance")
        return times

    def checks(self):
        out = self.command_checks()
        with open(os.path.join(self.out, "wente", "sweep.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        seeds = [int(r[0]) for r in rows]
        ratios = [float(v) for r in rows for v in r[1:3]]
        out.append(("100 Wente instances, every ratio in (0, 1.02]",
                    seeds == list(range(self.seed0, self.seed0 + 100))
                    and all(0.0 < v <= WENTE_TOL for v in ratios)))
        grid = get_grid(256, 256)
        z = grid.nodes_complex()
        res = wn.wente_check(wn.ScalarField(z.real, grid), wn.ScalarField(z.imag, grid))
        # a = x, b = y: u = (1 - r^2)/4, so the ratios are 1/2 and sqrt(2/3)
        out.append(("analytic pair a = x, b = y: ratios 0.5000 and 0.8165",
                    abs(res.ratio_inf - 0.5) <= 5e-4
                    and abs(res.ratio_grad - math.sqrt(2.0 / 3.0)) <= 5e-4))
        r, theta = np.abs(z), np.angle(z)
        u = wn.poisson_solve_disk(wn.ScalarField(np.ones(z.shape), grid))
        out.append(("Poisson: rhs 1 gives (1 - r^2)/4",
                    float(np.abs(u.values - (1.0 - r**2) / 4.0).max()) <= 1e-12))
        k = float(jn_zeros(2, 1)[0])
        eigen = jv(2, k * r) * np.cos(2 * theta)
        u = wn.poisson_solve_disk(wn.ScalarField(k * k * eigen, grid))
        out.append(("Poisson: eigen rhs gives J2(j21 r) cos 2theta",
                    float(np.abs(u.values - eigen).max()) <= 1e-4))
        rep = _read_json(os.path.join(self.out, "balance", "report.json"))
        out.append(("cap-flux residuals within tolerance",
                    [h for h, _ in rep["cap_residuals"]] == HEIGHTS
                    and all(v <= FLUX_TOL for _, v in rep["cap_residuals"])))
        worst = 0.0
        for h in HEIGHTS:
            trace = dm.boundary_trace(bal.spherical_cap_map(h, n_r=256, n_theta=512))
            seg = np.linalg.norm(np.roll(trace.points, -1, axis=0) - trace.points, axis=-1)
            ds = 0.5 * (seg + np.roll(seg, 1))
            integral = np.sum(trace.conormal * ds[:, None], axis=0)
            worst = max(worst, float(np.abs(integral - [0.0, 0.0, -2 * math.pi * (1 - h * h)]).max()))
        out.append(("boundary integrals equal (0, 0, -2 pi (1 - h^2))", worst <= FLUX_TOL))
        return out


WORKLOADS = {w.name: w for w in (Geometry, Extraction, Sweeps)}
