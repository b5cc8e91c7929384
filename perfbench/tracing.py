"""Span tracing of one op from outside the engine.

``Tracer.install`` replaces the public functions at the points where one
hybridlv module calls another (the binding each caller looks up) with
wrappers that record a span: name, start, end, parent span and op id.
No source file of the engine changes. Spans stay in memory and are written
when the run ends.

A binding that no longer exists fails the install, and a span that never
fires on a workload that needs it fails the run, so a renamed function
shows up as an error instead of as a zero.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A dotted attribute is a class method.
BINDINGS = [
    ("hybridlv.cli", "run", "cli.run"),
    ("hybridlv.cli", "load_config", "cli.load_config"),
    ("hybridlv.pde", "thomas_apply", "linalg.thomas_apply"),
    ("hybridlv.pde", "thomas_prefactor", "linalg.thomas_prefactor"),
    ("hybridlv.pde", "evolve", "pde.evolve"),
    ("hybridlv.calibration", "evolve", "pde.evolve"),
    ("hybridlv.pde", "build_coefficients", "pde.build_coefficients"),
    ("hybridlv.pde", "sde_coefficients", "models.sde_coefficients"),
    ("hybridlv.pde", "zc_price", "models.zc_price"),
    ("hybridlv.calibration", "bshw_call", "analytic.bshw_call"),
    ("hybridlv.cli", "bshw_call", "analytic.bshw_call"),
    ("hybridlv.calibration", "corrective_terms", "calibration.integral"),
    ("hybridlv.calibration", "price_calls_from_pz", "calibration.integral"),
    ("hybridlv.calibration", "dupire_vol", "calibration.extract"),
    ("hybridlv.calibration", "local_vol_stochastic_rates", "calibration.extract"),
    ("hybridlv.calibration", "calibrate", "calibration.calibrate"),
    ("hybridlv.montecarlo", "ndtri", "montecarlo.ndtri"),
    ("hybridlv.montecarlo", "simulate_paths", "montecarlo.simulate_paths"),
]

# Spans that must fire at least once per traced op of each workload.
REQUIRED = {
    "march": ["cli.run", "pde.evolve", "linalg.thomas_apply", "calibration.integral"],
    "calibrate": ["cli.run", "calibration.calibrate", "pde.evolve", "calibration.extract"],
    "mc": ["cli.run", "montecarlo.simulate_paths", "montecarlo.ndtri", "montecarlo.payoff"],
}

# Per-layer metrics: name -> (unit, better). Counts and times are per traced
# op; README.md maps each to the end-to-end metric it should move.
METRICS = {
    "linalg.apply_calls": ("count", "lower"),
    "linalg.apply_s": ("s", "lower"),
    "linalg.apply_ns_per_node": ("ns", "lower"),
    "linalg.apply_gbps_computed": ("GB/s", "higher"),
    "linalg.prefactor_calls": ("count", "lower"),
    "linalg.prefactor_s": ("s", "lower"),
    "pde.evolve_calls": ("count", "lower"),
    "pde.steps": ("count", "lower"),
    "pde.node_steps": ("count", "lower"),
    "pde.self_s": ("s", "lower"),
    "pde.coeff_builds": ("count", "lower"),
    "pde.coeff_s": ("s", "lower"),
    "pde.steps_per_build": ("ratio", "higher"),
    "pde.max_mass_drift": ("ratio", "lower"),
    "models.sde_coefficients_calls": ("count", "lower"),
    "models.sde_coefficients_s": ("s", "lower"),
    "models.zc_price_calls": ("count", "lower"),
    "models.zc_price_s": ("s", "lower"),
    "models.vol_value_calls": ("count", "lower"),
    "models.vol_value_s": ("s", "lower"),
    "analytic.bshw_call_calls": ("count", "lower"),
    "analytic.bshw_call_s": ("s", "lower"),
    "calibration.integral_calls": ("count", "lower"),
    "calibration.integral_s": ("s", "lower"),
    "calibration.extract_calls": ("count", "lower"),
    "calibration.extract_s": ("s", "lower"),
    "calibration.steps_marched": ("count", "lower"),
    "calibration.march_efficiency": ("ratio", "higher"),
    "calibration.bootstrap_self_s": ("s", "lower"),
    "montecarlo.normals_s": ("s", "lower"),
    "montecarlo.normal_draws": ("count", "lower"),
    "montecarlo.draw_reuse": ("ratio", "higher"),
    "montecarlo.path_steps": ("count", "lower"),
    "montecarlo.payoff_s": ("s", "lower"),
    "montecarlo.step_self_s": ("s", "lower"),
    "cli.config_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.self_coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

# Bytes a Thomas solve must move per node: a, cp, inv_piv and f read, x written.
APPLY_BYTES_PER_NODE = 5 * 8


class TraceError(RuntimeError):
    """The trace cannot measure this engine: a binding or span is missing."""


def _vol_classes(models):
    """``*Vol`` classes of hybridlv.models that define ``value``."""
    return [
        f"{name}.value"
        for name, obj in sorted(vars(models).items())
        if name.endswith("Vol") and isinstance(obj, type) and "value" in vars(obj)
    ]


class Tracer:
    """Records spans of the engine's cross-module calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, info]
        self._stack = []
        self._saved = []
        self.ops = []
        self.op = -1

    def begin_op(self, op: int) -> None:
        """Attribute the spans that follow to op ``op``."""
        self.op = op
        self.ops.append(op)

    # -- wrappers ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, name, fn):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                if name == "montecarlo.simulate_paths":
                    args = list(args)
                    args[3] = [self.wrap("montecarlo.payoff", p) for p in args[3]]
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][5] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install -------------------------------------------------------------

    def install(self):
        """Wrap every binding; raises :class:`TraceError` if one is missing."""
        import importlib

        import hybridlv.models

        targets = list(BINDINGS)
        vols = _vol_classes(hybridlv.models)
        if not vols:
            raise TraceError("hybridlv.models defines no *Vol class with a value method")
        targets += [("hybridlv.models", v, "models.vol_value") for v in vols]
        resolved = []
        missing = []
        for module_name, attr, span in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, leaf, None)):
                missing.append(f"{module_name}.{attr}")
                continue
            resolved.append((owner, leaf, span))
        if missing:
            raise TraceError("bindings no longer exist: " + ", ".join(missing))
        for owner, leaf, span in resolved:
            original = vars(owner).get(leaf, getattr(owner, leaf))
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(span, original))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- output --------------------------------------------------------------

    def write(self, path, origin: float) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op, info in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op, "info": info,
                }) + "\n")

    def self_times(self):
        """Per span: its duration minus the durations of its child spans."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _evolve_info(args, result):
    grid = args[1]
    return {
        "steps": len(result.diagnostics.times),
        "nodes": grid.n_s * grid.n_r,
        "n_t": grid.n_t,
        "drift": result.diagnostics.max_ratio_deviation(),
    }


def _simulate_info(args, result):
    maturity, cfg = args[1], args[2]
    n_steps = max(1, math.ceil(maturity / cfg.dt_mc - 1e-12))
    return {
        "distinct_normals": 2 * cfg.n_paths * n_steps,
        "path_steps": cfg.n_paths * (2 if cfg.antithetic else 1) * n_steps,
    }


_INFO = {
    "linalg.thomas_apply": lambda args, result: int(result.size),
    "montecarlo.ndtri": lambda args, result: int(result.size),
    "pde.evolve": _evolve_info,
    "montecarlo.simulate_paths": _simulate_info,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, workload: str, traced_walls, untraced_walls, bytes_written):
    """Per-layer metrics per traced op, from the spans of ``tracer``."""
    n_ops = len(traced_walls)
    own = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_op = defaultdict(lambda: defaultdict(int))
    for (name, _, _, _, op, _), t in zip(tracer.spans, own):
        calls[name] += 1
        self_s[name] += t
        by_op[op][name] += 1
    for op in tracer.ops:
        absent = [name for name in REQUIRED[workload] if by_op[op][name] == 0]
        if absent:
            raise TraceError(f"op {op} of {workload} recorded no span for {', '.join(absent)}")

    def inside(idx, ancestor):
        parent = tracer.spans[idx][3]
        while parent >= 0:
            if tracer.spans[parent][0] == ancestor:
                return True
            parent = tracer.spans[parent][3]
        return False

    apply_nodes = normal_draws = steps = node_steps = 0
    steps_marched = steps_needed = distinct = path_steps = 0
    drift = 0.0
    for idx, (name, _, _, _, _, info) in enumerate(tracer.spans):
        if name == "linalg.thomas_apply":
            apply_nodes += info
        elif name == "montecarlo.ndtri":
            normal_draws += info
        elif name == "montecarlo.simulate_paths":
            distinct += info["distinct_normals"]
            path_steps += info["path_steps"]
        elif name == "pde.evolve":
            steps += info["steps"]
            node_steps += info["steps"] * info["nodes"]
            drift = max(drift, info["drift"])
            if inside(idx, "calibration.calibrate"):
                steps_marched += info["steps"]
        elif name == "calibration.calibrate":
            # A linear bootstrap marches once to the last maturity.
            steps_needed += max(
                (tracer.spans[j][5]["n_t"] for j in range(idx + 1, len(tracer.spans))
                 if tracer.spans[j][0] == "pde.evolve" and tracer.spans[j][3] == idx),
                default=0,
            )

    per_op = {
        "linalg.apply_calls": calls["linalg.thomas_apply"],
        "linalg.apply_s": self_s["linalg.thomas_apply"],
        "linalg.prefactor_calls": calls["linalg.thomas_prefactor"],
        "linalg.prefactor_s": self_s["linalg.thomas_prefactor"],
        "pde.evolve_calls": calls["pde.evolve"],
        "pde.steps": steps,
        "pde.node_steps": node_steps,
        "pde.self_s": self_s["pde.evolve"],
        "pde.coeff_builds": calls["pde.build_coefficients"],
        "pde.coeff_s": self_s["pde.build_coefficients"],
        "models.sde_coefficients_calls": calls["models.sde_coefficients"],
        "models.sde_coefficients_s": self_s["models.sde_coefficients"],
        "models.zc_price_calls": calls["models.zc_price"],
        "models.zc_price_s": self_s["models.zc_price"],
        "models.vol_value_calls": calls["models.vol_value"],
        "models.vol_value_s": self_s["models.vol_value"],
        "analytic.bshw_call_calls": calls["analytic.bshw_call"],
        "analytic.bshw_call_s": self_s["analytic.bshw_call"],
        "calibration.integral_calls": calls["calibration.integral"],
        "calibration.integral_s": self_s["calibration.integral"],
        "calibration.extract_calls": calls["calibration.extract"],
        "calibration.extract_s": self_s["calibration.extract"],
        "calibration.steps_marched": steps_marched,
        "calibration.bootstrap_self_s": self_s["calibration.calibrate"],
        "montecarlo.normals_s": self_s["montecarlo.ndtri"],
        "montecarlo.normal_draws": normal_draws,
        "montecarlo.path_steps": path_steps,
        "montecarlo.payoff_s": self_s["montecarlo.payoff"],
        "montecarlo.step_self_s": self_s["montecarlo.simulate_paths"],
        "cli.config_s": self_s["cli.load_config"],
        "cli.bytes_written": sum(bytes_written),
        "cli.self_s": self_s["cli.run"],
        "trace.spans": len(tracer.spans),
    }
    metrics = {name: value / n_ops for name, value in per_op.items()}
    metrics.update({
        "linalg.apply_ns_per_node": _ratio(self_s["linalg.thomas_apply"], apply_nodes) * 1e9,
        "linalg.apply_gbps_computed": _ratio(APPLY_BYTES_PER_NODE * apply_nodes,
                                             self_s["linalg.thomas_apply"]) / 1e9,
        "pde.steps_per_build": _ratio(steps, calls["pde.build_coefficients"]),
        "pde.max_mass_drift": drift,
        "calibration.march_efficiency": _ratio(steps_needed, steps_marched),
        "montecarlo.draw_reuse": _ratio(distinct, normal_draws),
        "trace.self_coverage": _ratio(sum(own), sum(traced_walls)),
        "trace.overhead": statistics.median(traced_walls) / statistics.median(untraced_walls),
    })
    return {name: metrics[name] for name in METRICS}
