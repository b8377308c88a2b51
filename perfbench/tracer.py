"""Spans around the calls into each layer of `sgfem`, taken from outside.

The program is not changed: each traced function is replaced, in the module
namespace where the caller looks it up, by a wrapper that records a span
(id, name, start, end, parent) in memory.  The layer of a span is the part
of its name before the first dot; a layer's self time is the time its spans
do not spend in child spans.  The traced workloads run in one thread.
"""

import functools
import itertools
import time
import weakref
import zlib
from collections import Counter, defaultdict

ROOT = 0


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent)
        self.counts = Counter()
        self._stiffness_keys = set()
        self._mesh_keys = {}  # id(mesh) -> (weakref to mesh, content key)
        self._ids = itertools.count(ROOT + 1)
        self._stack = []  # ids of the open spans

    def add(self, key, n=1):
        self.counts[key] += n

    def wrap(self, fn, name, on_result=None):
        """`fn` recording a span `name`; on_result(args, result) may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            sid = next(self._ids)
            parent = stack[-1] if stack else ROOT
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, on_result=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def run_root(self, fn, *args):
        """Call fn as the root span 'cli.main' and return its result."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((ROOT, "cli.main", start, time.perf_counter(), None))

    # -- counters -----------------------------------------------------------

    def _mesh_key(self, mesh):
        entry = self._mesh_keys.get(id(mesh))
        if entry is not None and entry[0]() is mesh:
            return entry[1]
        key = (
            mesh.vertices.shape,
            mesh.triangles.shape,
            zlib.crc32(mesh.vertices.tobytes()),
            zlib.crc32(mesh.triangles.tobytes()),
        )
        self._mesh_keys[id(mesh)] = (weakref.ref(mesh), key)
        return key

    def count_stiffness(self, args, _result):
        mesh, coefficient = args[0], args[1]
        # a mode is a closure over its frequencies and amplitude; the mean
        # field is one function object
        cells = tuple(c.cell_contents for c in coefficient.__closure__ or ())
        key = (self._mesh_key(mesh), coefficient.__code__, cells)
        self.counts["stiffness_calls"] += 1
        self._stiffness_keys.add(key)

    @property
    def stiffness_distinct(self):
        return len(self._stiffness_keys)

    # -- self times -----------------------------------------------------------

    def self_times(self):
        """Self seconds per span id: duration minus the union of children."""
        children = defaultdict(list)
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _name, start, end, _parent in self.spans:
            covered, reach = 0.0, start
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out[sid] = (end - start) - covered
        return out


def install(tracer):
    """Wrap every traced name of sgfem where its callers look it up."""
    from sgfem import cli, driver, estimators, galerkin, marking

    def count(key, size):
        return lambda args, result: tracer.add(key, size(result))

    def triangles(result):
        mesh = getattr(result, "fine", result)
        return mesh.num_triangles

    def marked(decision):
        return len(decision.spatial_marked) + len(decision.parametric_marked)

    p = tracer.patch
    p(driver, "TensorSystem", "galerkin.assembly")
    p(driver, "solve", "galerkin.solve",
      count("pcg_iters", lambda s: s.iterations))
    p(driver, "prolong", "galerkin.prolong")
    p(driver, "b_energy", "galerkin.energy")
    p(driver, "uniform_refine", "mesh.uniform_refine",
      count("triangles_out", triangles))
    p(driver, "refine", "mesh.refine", count("triangles_out", triangles))
    p(driver, "spatial_indicators", "estimators.spatial",
      count("nplus", len))
    p(driver, "parametric_indicators", "estimators.parametric",
      count("detail_indices", len))
    p(driver, "decide", "marking.decide", count("marked", marked))
    p(driver, "detail_index_set", "indices.detail")
    p(marking, "refine", "mesh.trial_refine",
      count("triangles_out", triangles))
    p(galerkin, "assemble_stiffness", "galerkin.stiffness",
      tracer.count_stiffness)
    p(estimators, "assemble_stiffness", "galerkin.estimator_stiffness",
      tracer.count_stiffness)
    p(cli, "reference_solution", "driver.reference")
    p(cli, "effectivity", "driver.effectivity")
    p(cli, "_run_single", "driver.run")
    p(cli, "format_trace_csv", "cli.csv")
    p(cli, "_write_atomic", "cli.csv")

    apply = galerkin.TensorSystem.apply

    @functools.wraps(apply)
    def counted_apply(self, U):
        tracer.add("operator_applies")
        return apply(self, U)

    galerkin.TensorSystem.apply = counted_apply


LAYERS = ("mesh", "estimators", "galerkin", "marking", "indices", "driver", "cli")


def layer_metrics(tracer):
    """The per-layer metrics of one traced round (all times in seconds)."""
    selfs = tracer.self_times()
    total = defaultdict(float)
    calls = Counter()
    own = defaultdict(float)
    layer_self = defaultdict(float)
    for sid, name, start, end, _parent in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        own[name] += selfs[sid]
        layer_self[name.split(".", 1)[0]] += selfs[sid]
    run = total["cli.main"]
    c = tracer.counts
    refines = calls["mesh.refine"]
    m = {
        "mesh.uniform_refine_s": total["mesh.uniform_refine"],
        "mesh.uniform_refine_calls": calls["mesh.uniform_refine"],
        "mesh.refine_s": total["mesh.refine"],
        "mesh.refine_calls": refines,
        "mesh.trial_refine_s": total["mesh.trial_refine"],
        "mesh.trial_refine_calls": calls["mesh.trial_refine"],
        "mesh.triangles_out": c["triangles_out"],
        "mesh.refine_useful_ratio":
            refines / max(refines + calls["mesh.trial_refine"], 1),
        "estimators.spatial_s": total["estimators.spatial"],
        "estimators.spatial_stiffness_s": total["galerkin.estimator_stiffness"],
        "estimators.nplus": c["nplus"],
        "estimators.parametric_s": total["estimators.parametric"],
        "estimators.detail_indices": c["detail_indices"],
        "galerkin.assembly_s": total["galerkin.assembly"],
        "galerkin.stiffness_calls": c["stiffness_calls"],
        "galerkin.stiffness_distinct": tracer.stiffness_distinct,
        "galerkin.solve_s": total["galerkin.solve"],
        "galerkin.pcg_iters": c["pcg_iters"],
        "galerkin.operator_applies": c["operator_applies"],
        "galerkin.prolong_s": total["galerkin.prolong"],
        "galerkin.energy_s": total["galerkin.energy"],
        "marking.decide_self_s": own["marking.decide"],
        "marking.marked": c["marked"],
        "indices.detail_s": total["indices.detail"],
        "driver.reference_s": total["driver.reference"],
        "driver.effectivity_s": total["driver.effectivity"],
        "cli.csv_s": total["cli.csv"],
        "trace.run_s": run,
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
