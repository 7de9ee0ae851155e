"""Span tracing of the anfem package from outside it.

`Tracer.install` replaces the public functions of each anfem module by
wrappers that record a span (name, start, end, parent) and, for some, a few
exact counts. Each name is patched in every anfem module that binds it, so a
call is seen wherever the calling module looks the name up (for example
`anfem.adaptive.bisect` and `anfem.mesh.bisect` for `bisect`). `uninstall`
puts every original back. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LOAD_FIELDS = ("g", "velocity", "grad_velocity", "pressure")


def _count_bisect(mesh, tri, marked):
    import numpy as np
    marked = np.unique(np.atleast_1d(np.asarray(marked, dtype=np.int64)))
    children = np.bincount(mesh.parent, minlength=tri.num_triangles)
    return {"elements_created": mesh.num_triangles - tri.num_triangles,
            "refined": int(np.count_nonzero(children > 1)),
            "marked": int(marked.size)}


def _count_ancestor_map(anc, coarse, fine, *_, **__):
    return {"located": fine.num_triangles}


def _count_system(_, system):
    return {"rows": system.A.shape[0] + system.B.shape[0],
            "nnz": system.A.nnz + 2 * system.B.nnz}


def _count_integrate(_, mesh, f, *args, **kwargs):
    if args:
        bary = args[0]
    else:
        integrate = sys.modules["anfem.quadrature"].integrate
        bary = kwargs.get("bary", inspect.signature(integrate)
                          .parameters["bary"].default)
    return {"points": mesh.num_triangles * len(bary)}


def _count_steps(trace, *_, **__):
    return {"steps": len(trace.records)}


def _count_marking(marked, report, theta):
    return {"marked": len(marked), "elements": len(report.eta)}


def _count_prolongation(_, v, coarse, fine, *__, **___):
    return {"fine_edges": fine.num_edges}


def _count_restriction(_, v, fine, *__, **___):
    return {"fine_edges": fine.num_edges}


def _count_csv_bytes(_, trace, path):
    return {"bytes": os.path.getsize(path)}


def _count_points(_, x, *__):
    import numpy as np
    return {"points": int(np.size(x))}


# (module, attribute, span name, counter); the attribute may be `Class.method`
SPANS = [
    ("anfem.mesh", "bisect", "mesh.bisect", _count_bisect),
    ("anfem.mesh", "nesting_sets", "mesh.nesting_sets", None),
    ("anfem.mesh", "ancestor_map", "mesh.ancestor_map", _count_ancestor_map),
    ("anfem.mesh", "Triangulation.__post_init__", "mesh.topology", None),
    ("anfem.domains", "unit_square", "domains.build", None),
    ("anfem.domains", "l_shape", "domains.build", None),
    ("anfem.domains", "diamond", "domains.build", None),
    ("anfem.domains", "get_domain", "domains.build", None),
    ("anfem.spaces", "assemble_saddle", "spaces.assemble_saddle", None),
    ("anfem.spaces", "solve_saddle", "spaces.solve_saddle", _count_system),
    ("anfem.spaces", "broken_grad_norm_sq", "spaces.invariant_checks", None),
    ("anfem.spaces", "max_element_divergence", "spaces.invariant_checks",
     None),
    ("anfem.spaces", "galerkin_residual", "spaces.invariant_checks", None),
    ("anfem.spaces", "velocity_error_sq", "spaces.error_norms", None),
    ("anfem.spaces", "pressure_error_sq", "spaces.error_norms", None),
    ("anfem.estimator", "estimate", "estimator.estimate", None),
    ("anfem.estimator", "estimate_frozen", "estimator.estimate_frozen", None),
    ("anfem.quadrature", "integrate", "quadrature.integrate",
     _count_integrate),
    ("anfem.adaptive", "anfem_loop", "adaptive.loop", _count_steps),
    ("anfem.adaptive", "uniform_trace", "adaptive.loop", _count_steps),
    ("anfem.adaptive", "dorfler_mark", "adaptive.dorfler_mark",
     _count_marking),
    ("anfem.adaptive", "AdaptiveTrace.to_csv", "cli.write", _count_csv_bytes),
    ("anfem.transfer", "naive_prolongation", "transfer.naive_prolongation",
     _count_prolongation),
    ("anfem.transfer", "mixed_prolongation", "transfer.mixed_prolongation",
     _count_prolongation),
    ("anfem.transfer", "restriction", "transfer.restriction",
     _count_restriction),
    ("anfem.transfer", "prolongation_defect_constant",
     "transfer.defect_constant", None),
    ("anfem.transfer", "conservative_interpolation",
     "transfer.conservative_interpolation", None),
    ("anfem.counterexample", "scaling_study", "counterexample.scaling_study",
     None),
    ("anfem.counterexample", "build_family", "counterexample.build_family",
     None),
    ("anfem.cli", "main", "cli.main", None),
]

# factories whose LoadFunction result gets its callables traced
LOAD_FACTORIES = ("smooth1", "lshape_singular", "get_solution")

# per-layer metric -> (span name, "s" for inclusive time or a count key)
SPAN_METRICS = {
    "mesh.nesting_sets_s": ("mesh.nesting_sets", "s"),
    "mesh.ancestor_map_s": ("mesh.ancestor_map", "s"),
    "mesh.located_elements": ("mesh.ancestor_map", "located"),
    "spaces.solve_saddle_s": ("spaces.solve_saddle", "s"),
    "spaces.assemble_saddle_s": ("spaces.assemble_saddle", "s"),
    "spaces.system_rows": ("spaces.solve_saddle", "rows"),
    "spaces.system_nnz": ("spaces.solve_saddle", "nnz"),
    "mesh.bisect_s": ("mesh.bisect", "s"),
    "mesh.topology_s": ("mesh.topology", "s"),
    "mesh.elements_created": ("mesh.bisect", "elements_created"),
    "estimator.estimate_s": ("estimator.estimate", "s"),
    "estimator.estimate_frozen_s": ("estimator.estimate_frozen", "s"),
    "quadrature.points": ("quadrature.integrate", "points"),
    "problems.load_eval_s": ("problems.load_eval", "s"),
    "problems.load_points": ("problems.load_eval", "points"),
    "adaptive.dorfler_mark_s": ("adaptive.dorfler_mark", "s"),
    "adaptive.steps": ("adaptive.loop", "steps"),
    "spaces.invariant_checks_s": ("spaces.invariant_checks", "s"),
    "spaces.error_norms_s": ("spaces.error_norms", "s"),
    "transfer.naive_prolongation_s": ("transfer.naive_prolongation", "s"),
    "transfer.mixed_prolongation_s": ("transfer.mixed_prolongation", "s"),
    "transfer.restriction_s": ("transfer.restriction", "s"),
    "transfer.defect_constant_s": ("transfer.defect_constant", "s"),
    "counterexample.scaling_study_s": ("counterexample.scaling_study", "s"),
    "counterexample.build_family_s": ("counterexample.build_family", "s"),
    "cli.write_s": ("cli.write", "s"),
    "cli.bytes_written": ("cli.write", "bytes"),
}
SETUP_METRICS = {
    "problems.build_s": ("problems.build", "s"),
    "domains.build_s": ("domains.build", "s"),
}

RATIOS = ("mesh.closure_ratio", "adaptive.marked_fraction",
          "trace.top_level_coverage")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in RATIOS:
        return "ratio"
    return "bytes" if name == "cli.bytes_written" else "count"


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, counts]
        self._open = []       # indices of the spans not yet ended
        self._restore = []    # (owner, attribute, original value)

    def _wrap(self, name, fn, counter=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if counter is not None:
                span[4] = counter(result, *args, **kwargs)
            return result
        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "anfem" or n.startswith("anfem.")]
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._set(module, attr, wrapper)

    def trace_load(self, load):
        """Trace the callables of one LoadFunction until `uninstall`."""
        if any(owner is load for owner, _, _ in self._restore):
            return load
        for field in LOAD_FIELDS:
            fn = getattr(load, field)
            if fn is not None:
                self._set(load, field,
                          self._wrap("problems.load_eval", fn, _count_points))
        return load

    def install(self, loads=()):
        for module_name, attr, name, counter in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._set(owner, attr,
                          self._wrap(name, getattr(owner, attr), counter))
            else:
                original = getattr(owner, attr)
                self._patch_everywhere(original,
                                       self._wrap(name, original, counter))
        problems = sys.modules["anfem.problems"]
        for attr in LOAD_FACTORIES:
            original = getattr(problems, attr)

            def factory(*args, _original=original, **kwargs):
                return self.trace_load(_original(*args, **kwargs))
            self._patch_everywhere(original, self._wrap(
                "problems.build", functools.wraps(original)(factory)))
        for load in loads:
            self.trace_load(load)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def mark(self) -> int:
        """Index of the next span, to split the recorded spans into phases."""
        return len(self.spans)

    # -- metrics -------------------------------------------------------------
    def _outermost(self, name, lo, hi):
        """Spans of `name` in [lo, hi) not nested in a span of the same name."""
        out = []
        for i in range(lo, hi):
            span = self.spans[i]
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out.append(span)
        return out

    def _total(self, name, key, lo, hi):
        if key == "s":
            return sum(s[2] - s[1] for s in self._outermost(name, lo, hi))
        return sum(s[4][key] for s in self.spans[lo:hi]
                   if s[0] == name and s[4])

    def layer_metrics(self, setup, rep, rep_wall_s) -> dict:
        """Per-layer metrics. `setup` and `rep` are (start, end) span index
        ranges of the traced set-up and the traced workload repetition."""
        lo, hi = rep
        out = {k: self._total(n, key, lo, hi)
               for k, (n, key) in SPAN_METRICS.items()}
        out.update({k: self._total(n, key, *setup)
                    for k, (n, key) in SETUP_METRICS.items()})
        out["transfer.fine_edges"] = sum(
            self._total(n, "fine_edges", lo, hi) for n in (
                "transfer.naive_prolongation", "transfer.mixed_prolongation",
                "transfer.restriction"))
        out["mesh.nesting_calls"] = sum(
            1 for s in self.spans[lo:hi] if s[0] == "mesh.ancestor_map")
        out["quadrature.integrate_calls"] = sum(
            1 for s in self.spans[lo:hi] if s[0] == "quadrature.integrate")
        refined = self._total("mesh.bisect", "refined", lo, hi)
        marked = self._total("mesh.bisect", "marked", lo, hi)
        out["mesh.closure_ratio"] = refined / marked if marked else 0.0
        elements = self._total("adaptive.dorfler_mark", "elements", lo, hi)
        out["adaptive.marked_fraction"] = self._total(
            "adaptive.dorfler_mark", "marked", lo, hi) / elements \
            if elements else 0.0
        child_time = [0.0] * hi
        for s in self.spans[lo:hi]:
            if s[3] >= lo:
                child_time[s[3]] += s[2] - s[1]
        out["adaptive.self_s"] = sum(
            self.spans[i][2] - self.spans[i][1] - child_time[i]
            for i in range(lo, hi) if self.spans[i][0] == "adaptive.loop")
        top = sum(s[2] - s[1] for s in self.spans[lo:hi] if s[3] < 0)
        out["trace.top_level_coverage"] = top / rep_wall_s
        return out

    def records(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 **({"counts": s[4]} if s[4] else {})} for s in self.spans]
