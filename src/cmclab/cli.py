"""Batch front door: run the experiment families from JSON configs.

Subcommands::

    cmclab predict       critical points of boundary H vs reduced-force zeros
    cmclab extract       bubble extraction from a DMAP file or synthetic spec
    cmclab balance       flux-identity sweep over spherical caps + balance report
    cmclab wente         seeded sweep of the Wente bounds and trilinear constant
    cmclab verify-bubble energy quantization and hemisphere trace checks
    cmclab synth         write a synthetic concentrating map as a DMAP file

Common flags: ``--config <path>`` (JSON, schema 1), ``--out <dir>``,
``--grid <n_r>x<n_theta>`` (override), ``--seed <u64>``, ``--format
{json,csv}``.  Exit codes: 0 all checks pass, 1 checks ran and failed,
2 malformed input.  Reports embed the fully resolved config and all seeds;
identical config + seed reproduces byte-identical outputs.

Config schemas (JSON, all with ``"schema": 1``):

* predict: {"domain": {"kind": "ellipsoid", "semi_axes": [a, b, c]} |
  {"kind": "ball", "radius": R} | {"kind": "bumpy_ball", "radius": R,
  "amplitude": e}, "n_seeds": 64, "tol": 1e-6, "l": 1, "force_mesh": 200}
* extract: {"dmap": "path"} or {"synth": <synth config>}, plus optional
  "extraction": {"max_bubbles", "weighted_sup_tol", "separation_min",
  "concentration_nu", "fit_window", "domain_cut", "seed"}
* balance: {"heights": [...], "n_r": 256, "n_theta": 512, "tol": 6.2832e-5,
  "domain": {...}, "l": 1, "force_mesh": 200}
* wente: {"instances": 100, "n_r": 256, "n_theta": 256, "seed": 0,
  "ratio_tol": 1.02, "trilinear": true}
* verify-bubble: {"degrees": [1, 2, 3], "rel_tol": 0.005, "trace_tol": 1e-3}
* synth: {"bubbles": [<bubble spec>...], "epsilon": 1.0, "noise_amp": 0.0,
  "seed": 0, "n_r": 256, "n_theta": 256, "h_target": 1.0,
  "out_name": "synth.dmap"}

Bubble specs are either explicit parameter dicts (see
``bubbles.bubble_to_dict``: complex numbers as [re, im] pairs) or presets
{"preset": "sphere", "center": [re, im], "scale": s} /
{"preset": "hemisphere", "boundary_angle": t, "scale": s}.
"""

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import balance as bal
from . import bubbles as bub
from . import disk_maps as dmap
from . import extraction as ext
from . import implicit_domains as domg
from . import wente as wnt
from .errors import BudgetExceeded, CmcLabError, FormatError
from .polar_grid import get_grid

SCHEMA = 1


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def atomic_write_text(path, text):
    """Write via temp file + rename so interrupted runs leave no partials."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_bytes(path, payload):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_report(out_dir, name, report):
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    atomic_write_text(os.path.join(out_dir, name), text)


def write_csv(out_dir, name, header, rows):
    """Header plus rows of numbers, floats in repr form (exact round trip).

    ``rows`` is a float array or a sequence of rows of Python ints and floats.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    atomic_write_text(os.path.join(out_dir, name), "\n".join(lines) + "\n")


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict) or cfg.get("schema") != SCHEMA:
        raise FormatError(f'config must carry "schema": {SCHEMA}')
    return cfg


def _apply_overrides(cfg, args):
    if args.grid:
        try:
            n_r, n_theta = (int(t) for t in args.grid.lower().split("x"))
        except ValueError as exc:
            raise FormatError(f"bad --grid {args.grid!r}, want <n_r>x<n_theta>") from exc
        cfg["n_r"], cfg["n_theta"] = n_r, n_theta
        if "synth" in cfg and isinstance(cfg["synth"], dict):
            cfg["synth"]["n_r"], cfg["synth"]["n_theta"] = n_r, n_theta
    if args.seed is not None:
        cfg["seed"] = args.seed
        if "synth" in cfg and isinstance(cfg["synth"], dict):
            cfg["synth"]["seed"] = args.seed
        if "extraction" in cfg and isinstance(cfg["extraction"], dict):
            cfg["extraction"]["seed"] = args.seed
    return cfg


def _checks_report(checks):
    ok = all(c["pass"] for c in checks)
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['name']}: value={c['value']:.6g} threshold={c['threshold']:.6g}")
    return ok


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_predict(cfg, out_dir, fmt):
    domain = domg.domain_from_config(cfg.get("domain", {"kind": "ball", "radius": 1.0}))
    n_seeds = int(cfg.get("n_seeds", 64))
    tol = float(cfg.get("tol", 1e-6))
    l = int(cfg.get("l", 1))
    search = domg.find_critical_points(domain, n_seeds=n_seeds, tol=tol)
    checks = []
    mesh = domg.boundary_seeds(domain, int(cfg.get("force_mesh", 200)))
    force = bal.reduced_force(domain, mesh, l)
    grad_h = domg.surface_grad_H(domain, mesh)
    write_csv(out_dir, "force_field.csv",
              ["x", "y", "z", "fx", "fy", "fz", "force_norm", "grad_h_norm"],
              np.column_stack([mesh, force, [np.linalg.norm(f) for f in force],
                               [np.linalg.norm(g) for g in grad_h]]))
    if search.h_constant:
        report = {
            "schema": SCHEMA, "command": "predict", "config": cfg,
            "h_constant": True, "h_value": search.h_value,
            "critical_points": [], "force_zeros": [],
            "checks": [], "pass": True,
        }
        write_report(out_dir, "report.json", report)
        print("[PASS] boundary mean curvature is constant; every point is critical")
        return 0
    zeros = bal.reduced_force_zeros(domain, l=l, n_seeds=n_seeds, tol=tol)
    dedup = 1e-3 * domain.diagonal
    matched = 0
    for cp in search.points:
        if any(np.linalg.norm(cp.point - z) < dedup for z in zeros):
            matched += 1
    coincide = matched == len(search.points) and len(zeros) == len(search.points)
    checks.append({"name": "zero sets of grad H and reduced force coincide",
                   "value": float(matched), "threshold": float(len(search.points)),
                   "pass": bool(coincide)})
    report = {
        "schema": SCHEMA, "command": "predict", "config": cfg,
        "h_constant": False,
        "critical_points": [{"point": cp.point, "h": cp.h_value, "label": cp.label}
                            for cp in search.points],
        "force_zeros": [z for z in zeros],
        "checks": checks, "pass": all(c["pass"] for c in checks),
    }
    write_report(out_dir, "report.json", report)
    return 0 if _checks_report(checks) else 1


def _synth_from_config(scfg):
    bubbles = [bub.bubble_from_dict(d) for d in scfg.get("bubbles", [])]
    seq = bub.SyntheticSequence(bubbles=tuple(bubbles),
                                noise_amp=float(scfg.get("noise_amp", 0.0)),
                                seed=int(scfg.get("seed", 0)))
    return bub.synth_sequence(seq, eps=float(scfg.get("epsilon", 1.0)),
                              n_r=int(scfg.get("n_r", 256)),
                              n_theta=int(scfg.get("n_theta", 256)),
                              h_target=float(scfg.get("h_target", 1.0)))


def cmd_extract(cfg, out_dir, fmt):
    if "dmap" in cfg:
        disk_map = dmap.read_dmap(cfg["dmap"])
    elif "synth" in cfg:
        disk_map = _synth_from_config(cfg["synth"])
    else:
        raise FormatError('extract config needs "dmap" or "synth"')
    e_cfg = cfg.get("extraction", {})
    config = ext.ExtractionConfig(
        max_bubbles=int(e_cfg.get("max_bubbles", 8)),
        weighted_sup_tol=e_cfg.get("weighted_sup_tol"),
        separation_min=float(e_cfg.get("separation_min", 20.0)),
        concentration_nu=float(e_cfg.get("concentration_nu", 0.5)),
        fit_window=float(e_cfg.get("fit_window", 4.0)),
        domain_cut=float(e_cfg.get("domain_cut", 10.0)),
        seed=int(e_cfg.get("seed", cfg.get("seed", 0))),
    )
    failed = False
    try:
        dec = ext.extract(disk_map, config)
    except BudgetExceeded as exc:
        report = {"schema": SCHEMA, "command": "extract", "config": cfg,
                  "error": str(exc), "pass": False}
        write_report(out_dir, "report.json", report)
        print(f"[FAIL] {exc}")
        return 1
    z = disk_map.grid.nodes_complex()
    stride = max(1, z.size // 65536)
    flat_z, flat_s = z.ravel()[::stride], dec.initial_statistic.ravel()[::stride]
    write_csv(out_dir, "statistic.csv", ["re_z", "im_z", "weighted_grad"],
              np.column_stack([flat_z.real, flat_z.imag, flat_s]))
    bad = any(flag in ("fit_diverged",) for flag in dec.flags)
    report = {
        "schema": SCHEMA, "command": "extract", "config": cfg,
        "initial_energy": dec.initial_energy,
        "residual_energy": dec.residual_energy,
        "weighted_sup": dec.weighted_sup,
        "weighted_sup_tol": dec.weighted_sup_tol,
        "coverage_gap": dec.coverage_gap,
        "hemisphere_count": dec.hemisphere_count,
        "flags": list(dec.flags),
        "pairwise_separation": dec.pairwise_separation,
        "bubbles": [{
            "kind": fb.kind, "center": fb.center, "scale": fb.scale,
            "energy_removed": fb.energy_removed, "family_energy": fb.family_energy,
            "fit_residual": fb.fit_residual,
            "parameters": bub.bubble_to_dict(fb.bubble),
        } for fb in dec.bubbles],
        "pass": not bad,
    }
    write_report(out_dir, "report.json", report)
    print(f"[{'FAIL' if bad else 'PASS'}] extraction: {len(dec.bubbles)} bubble(s), "
          f"l={dec.hemisphere_count}, residual energy {dec.residual_energy:.4g}")
    return 1 if bad else 0


def cmd_balance(cfg, out_dir, fmt):
    heights = cfg.get("heights", [round(0.1 * i, 1) for i in range(10)])
    n_r = int(cfg.get("n_r", 256))
    n_theta = int(cfg.get("n_theta", 512))
    tol = float(cfg.get("tol", 1e-5 * 2 * math.pi))
    checks = []
    residuals = []
    for h in heights:
        cap = bal.spherical_cap_map(float(h), n_r=n_r, n_theta=n_theta)
        rim = math.sqrt(1.0 - float(h) ** 2)
        disk = bal.flat_disk_map(rim, float(h), n_r=n_r, n_theta=n_theta)
        res = bal.balancing_residual(dmap.boundary_trace(cap), disk, cap.h_target)
        norm = float(np.linalg.norm(res))
        residuals.append((h, norm))
        checks.append({"name": f"cap flux residual at h={h}", "value": norm,
                       "threshold": tol, "pass": bool(norm <= tol)})
    domain = domg.domain_from_config(cfg.get("domain", {"kind": "ellipsoid",
                                                        "semi_axes": [2, 1.5, 1]}))
    l = int(cfg.get("l", 1))
    search = domg.find_critical_points(domain, n_seeds=int(cfg.get("n_seeds", 48)))
    if search.h_constant or not search.points:
        base_point = domg.project_to_boundary(domain, domain.bounding_box[1])
    else:
        base_point = search.points[0].point
    rep = bal.balance_report(domain, base_point, l=l)
    mesh = domg.boundary_seeds(domain, int(cfg.get("force_mesh", 200)))
    force = bal.reduced_force(domain, mesh, l)
    write_csv(out_dir, "reduced_force.csv", ["x", "y", "z", "force_norm"],
              np.column_stack([mesh, [np.linalg.norm(f) for f in force]]))
    report = {
        "schema": SCHEMA, "command": "balance", "config": cfg,
        "cap_residuals": residuals,
        "balance_report": {
            "base_point": base_point,
            "boundary_integral": rep.boundary_integral,
            "cap_integral": rep.cap_integral,
            "first_order": rep.first_order,
            "barycenter": rep.barycenter,
            "barycenter_degenerate": rep.barycenter_degenerate,
            "second_order_projected": rep.second_order_projected,
            "reduced_force": rep.reduced_force,
        },
        "checks": checks, "pass": all(c["pass"] for c in checks),
    }
    write_report(out_dir, "report.json", report)
    return 0 if _checks_report(checks) else 1


def cmd_wente(cfg, out_dir, fmt):
    instances = int(cfg.get("instances", 100))
    n_r = int(cfg.get("n_r", 256))
    n_theta = int(cfg.get("n_theta", 256))
    seed0 = int(cfg.get("seed", 0))
    ratio_tol = float(cfg.get("ratio_tol", 1.02))
    grid = get_grid(n_r, n_theta)
    rows = []
    c_running = 0.0
    for i in range(instances):
        seed = seed0 + i
        a = wnt.random_band_limited(grid, 2 * seed + 1)
        b = wnt.random_band_limited(grid, 2 * seed + 2)
        res = wnt.wente_check(a, b)
        u3 = wnt.random_band_limited(grid, 3 * seed + 1, components=3)
        v3 = wnt.random_band_limited(grid, 3 * seed + 2, components=3, zero_boundary=True)
        tri = wnt.trilinear_check(u3, v3)
        c_running = max(c_running, tri.c_estimate)
        rows.append((seed, float(res.ratio_inf), float(res.ratio_grad), float(tri.c_estimate)))
    write_csv(out_dir, "sweep.csv", ["seed", "ratio_inf", "ratio_grad", "c_estimate"], rows)
    arr = np.array([(r[1], r[2]) for r in rows])
    checks = [
        {"name": "max ratio_inf", "value": float(arr[:, 0].max()),
         "threshold": ratio_tol, "pass": bool(arr[:, 0].max() <= ratio_tol)},
        {"name": "max ratio_grad", "value": float(arr[:, 1].max()),
         "threshold": ratio_tol, "pass": bool(arr[:, 1].max() <= ratio_tol)},
    ]
    report = {
        "schema": SCHEMA, "command": "wente", "config": cfg,
        "instances": instances, "trilinear_c0": c_running,
        "checks": checks, "pass": all(c["pass"] for c in checks),
    }
    write_report(out_dir, "report.json", report)
    return 0 if _checks_report(checks) else 1


def cmd_verify_bubble(cfg, out_dir, fmt):
    degrees = [int(d) for d in cfg.get("degrees", [1, 2, 3])]
    rel_tol = float(cfg.get("rel_tol", 0.005))
    trace_tol = float(cfg.get("trace_tol", 1e-3))
    checks = []
    for k in degrees:
        coeffs = np.zeros(k + 1, complex)
        coeffs[-1] = 1.0
        energy, deg = bub.bubble_energy(bub.RationalBubble(p_coeffs=coeffs, q_coeffs=[1.0]))
        rel = abs(energy - 8 * math.pi * k) / (8 * math.pi * k)
        checks.append({"name": f"plane energy, degree {k}, vs 8 pi k",
                       "value": rel, "threshold": rel_tol, "pass": bool(rel <= rel_tol)})
    hemi = bub.hemisphere_bubble()
    energy, _ = bub.bubble_energy(hemi)
    rel = abs(energy - 4 * math.pi) / (4 * math.pi)
    checks.append({"name": "half-plane energy, degree 1, vs 4 pi",
                   "value": rel, "threshold": rel_tol, "pass": bool(rel <= rel_tol)})
    t = np.tan(np.pi * (np.linspace(0.02, 0.98, 257) - 0.5))
    trace = bub.eval_bubble(hemi, t)
    radius_defect = float(np.abs(np.linalg.norm(trace[:, :2], axis=1) - 1.0).max())
    plane_defect = float(np.abs(trace[:, 2]).max())
    checks.append({"name": "hemisphere boundary circle radius", "value": radius_defect,
                   "threshold": trace_tol, "pass": bool(radius_defect <= trace_tol)})
    checks.append({"name": "hemisphere boundary planarity", "value": plane_defect,
                   "threshold": trace_tol, "pass": bool(plane_defect <= trace_tol)})
    report = {"schema": SCHEMA, "command": "verify_bubble", "config": cfg,
              "checks": checks, "pass": all(c["pass"] for c in checks)}
    write_report(out_dir, "report.json", report)
    return 0 if _checks_report(checks) else 1


def cmd_synth(cfg, out_dir, fmt):
    disk_map = _synth_from_config(cfg)
    name = cfg.get("out_name", "synth.dmap")
    path = os.path.join(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)
    header = (f"DMAP 1 {disk_map.n_r} {disk_map.n_theta} {disk_map.h_target!r}\n").encode()
    atomic_write_bytes(path, header + disk_map.values.astype("<f8").tobytes())
    truth = [{
        "kind": t["kind"], "center": t["center"], "scale": t["scale"],
        "parameters": bub.bubble_to_dict(t["bubble"]),
    } for t in disk_map.meta.get("ground_truth", [])]
    report = {"schema": SCHEMA, "command": "synth", "config": cfg,
              "dmap": name, "ground_truth": truth, "pass": True}
    write_report(out_dir, "report.json", report)
    print(f"[PASS] wrote {name} ({disk_map.n_r}x{disk_map.n_theta})")
    return 0


COMMANDS = {
    "predict": cmd_predict,
    "extract": cmd_extract,
    "balance": cmd_balance,
    "wente": cmd_wente,
    "verify-bubble": cmd_verify_bubble,
    "synth": cmd_synth,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="cmclab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--grid", help="override grid as <n_r>x<n_theta>")
    parser.add_argument("--seed", type=int, help="override seed")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="primary report format (CSV side files are always written)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, args.format)
    except (FormatError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CmcLabError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
