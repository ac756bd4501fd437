"""Outside-in tracing of cmclab: wraps public functions without touching src/.

Each target is a public function (or ``PolarGrid`` method) of a cmclab
module.  The wrapper is rebound in every ``cmclab`` module that holds the
original object, so ``project_to_boundary`` is traced whether it is called
from ``implicit_domains``, ``balance`` or ``disk_maps``.  A call records a
span ``[name, start, end, parent, pass_id]`` and bumps in-memory counters;
nothing is written until :meth:`Tracer.dump`.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _points(x):
    """Number of points in a point argument: complex entries, or (..., 3) rows."""
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    if getattr(x, "dtype", None) is not None and x.dtype.kind == "c":
        return int(x.size)
    return int(x.size // 3) if len(shape) else 1


def _points_of(index, name):
    return lambda args, kwargs, result: {"points": _points(_arg(args, kwargs, index, name))}


def _file_bytes(path_of):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(path_of(args, kwargs))}


# (metric prefix, module, attribute, per-layer fields, extra counters).
# Extra counters come from (args, kwargs, result) of each traced call.
TARGETS = [
    ("polar_grid.gradient", "polar_grid", "PolarGrid.gradient", ("calls", "self_s"), None),
    ("polar_grid.laplacian", "polar_grid", "PolarGrid.laplacian", ("calls", "self_s"), None),
    ("polar_grid.get_grid", "polar_grid", "get_grid", ("self_s",), None),
    ("disk_maps.dirichlet_energy", "disk_maps", "dirichlet_energy", ("calls", "self_s"), None),
    ("disk_maps.read_dmap", "disk_maps", "read_dmap", ("bytes", "self_s"),
     _file_bytes(lambda a, k: _arg(a, k, 0, "path"))),
    ("disk_maps.boundary_trace", "disk_maps", "boundary_trace", ("calls",), None),
    ("bubbles.eval_bubble", "bubbles", "eval_bubble", ("calls", "points", "self_s"),
     _points_of(1, "z")),
    ("bubbles.synth_sequence", "bubbles", "synth_sequence", ("self_s",), None),
    ("bubbles.bubble_energy", "bubbles", "bubble_energy", ("calls", "self_s"), None),
    ("extraction.extract", "extraction", "extract", ("self_s",),
     lambda a, k, r: {"accepted": len(r.bubbles)}),
    ("extraction.fit_bubble", "extraction", "fit_bubble", ("calls", "self_s"), None),
    ("extraction.weighted_sup_field", "extraction", "weighted_sup_field",
     ("calls", "self_s"), None),
    ("extraction.residual_map", "extraction", "residual_map", ("calls", "self_s"), None),
    ("extraction.coverage_gap", "extraction", "coverage_gap", ("self_s",), None),
    ("extraction.concentration_function", "extraction", "concentration_function",
     ("calls", "self_s"), None),
    ("wente.poisson_solve_disk", "wente", "poisson_solve_disk", ("calls", "self_s"), None),
    ("wente.random_band_limited", "wente", "random_band_limited", ("calls", "self_s"), None),
    ("wente.grad_l2", "wente", "grad_l2", ("calls", "self_s"), None),
    ("wente.jacobian_rhs", "wente", "jacobian_rhs", ("self_s",), None),
    ("wente.wente_check", "wente", "wente_check", ("self_s",), None),
    ("wente.trilinear_check", "wente", "trilinear_check", ("self_s",), None),
    ("implicit_domains.project_to_boundary", "implicit_domains", "project_to_boundary",
     ("calls", "points", "self_s", "points_per_call"), _points_of(1, "p")),
    ("implicit_domains.surface_grad_H", "implicit_domains", "surface_grad_H",
     ("calls", "points", "self_s"), _points_of(1, "q")),
    ("implicit_domains.tangent_field_zeros", "implicit_domains", "tangent_field_zeros",
     ("seeds", "self_s", "zero_yield"),
     lambda a, k, r: {"seeds": len(_arg(a, k, 2, "seeds")), "zeros": len(r)}),
    ("implicit_domains.find_critical_points", "implicit_domains", "find_critical_points",
     ("self_s",), None),
    ("balance.reduced_force", "balance", "reduced_force", ("calls", "points", "self_s"),
     _points_of(1, "q")),
    ("balance.reduced_force_zeros", "balance", "reduced_force_zeros", ("self_s",), None),
    ("balance.balancing_residual", "balance", "balancing_residual", ("calls", "self_s"), None),
    ("balance.balance_report", "balance", "balance_report", ("self_s",), None),
    ("cli.write_report", "cli", "write_report", ("bytes", "self_s"),
     _file_bytes(lambda a, k: os.path.join(_arg(a, k, 0, "out_dir"), _arg(a, k, 1, "name")))),
    ("cli.write_csv", "cli", "write_csv", ("bytes", "self_s"),
     _file_bytes(lambda a, k: os.path.join(_arg(a, k, 0, "out_dir"), _arg(a, k, 1, "name")))),
    ("cli.atomic_write_bytes", "cli", "atomic_write_bytes", ("bytes", "self_s"),
     lambda a, k, r: {"bytes": len(_arg(a, k, 1, "payload"))}),
]

# ratio fields -> (numerator counter, denominator counter), both per pass
RATIOS = {
    "implicit_domains.project_to_boundary.points_per_call":
        ("implicit_domains.project_to_boundary.points", "implicit_domains.project_to_boundary.calls"),
    "implicit_domains.tangent_field_zeros.zero_yield":
        ("implicit_domains.tangent_field_zeros.zeros", "implicit_domains.tangent_field_zeros.seeds"),
    "extraction.fit_yield":
        ("extraction.extract.accepted", "extraction.fit_bubble.calls"),
}

# field -> (unit, better)
FIELDS = {
    "calls": ("count", "lower"), "points": ("count", "lower"), "seeds": ("count", "lower"),
    "bytes": ("bytes", "lower"), "self_s": ("s", "lower"),
    "points_per_call": ("points/call", "higher"), "zero_yield": ("ratio", "higher"),
}

# every per-layer metric name -> (unit, better)
PER_LAYER = {f"{prefix}.{field}": FIELDS[field]
             for prefix, _, _, fields, _ in TARGETS for field in fields}
PER_LAYER["extraction.fit_yield"] = ("ratio", "higher")


class Tracer:
    """In-memory span and counter recorder; records only while a pass is open."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)   # (pass_id, counter) -> value
        self.pass_id = 0
        self.active = False
        self.t0 = time.perf_counter()

    def wrap(self, prefix, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [prefix, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.pass_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            pid = self.pass_id
            self.counts[(pid, prefix + ".calls")] += 1
            span[1] = time.perf_counter() - self.t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self.t0
                self.stack.pop()
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    self.counts[(pid, f"{prefix}.{key}")] += value
            return result
        return traced

    def install(self):
        """Wrap every target and rebind it wherever cmclab holds the original."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cmclab" or name.startswith("cmclab."))]
        for prefix, mod_name, attr, _, extra in TARGETS:
            owner = sys.modules[f"cmclab.{mod_name}"]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, fn_name, self.wrap(prefix, getattr(cls, fn_name), extra))
                continue
            original = getattr(owner, fn_name)
            traced = self.wrap(prefix, original, extra)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)

    def self_times(self):
        """Per (pass_id, prefix) self time: span duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, pid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            out[(pid, name)] += (end - start) - child[i]
        return out

    def per_layer(self, pass_id):
        """Every per-layer metric of one pass."""
        selfs = self.self_times()
        out = {}
        for metric, (unit, _) in PER_LAYER.items():
            if metric in RATIOS:
                num, den = (self.counts.get((pass_id, c), 0) for c in RATIOS[metric])
                value = num / den if den else 0.0
            elif metric.endswith(".self_s"):
                value = selfs.get((pass_id, metric[: -len(".self_s")]), 0.0)
            else:
                value = self.counts.get((pass_id, metric), 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def counts_by_pass(self):
        out = defaultdict(dict)
        for (pid, key), value in sorted(self.counts.items()):
            out[pid][key] = value
        return {str(pid): c for pid, c in out.items()}

    def dump(self, path, extra=None):
        payload = {"spans": self.spans, "span_fields": ["name", "start", "end", "parent", "pass_id"],
                   "counts": self.counts_by_pass()}
        payload.update(extra or {})
        with open(path, "w") as fh:
            json.dump(payload, fh)
