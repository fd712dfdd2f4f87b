"""In-memory spans and counters around afstab's public functions.

The tracer replaces each listed function in every afstab module namespace
that holds it (and in `cli.STAGES`, where `run` looks stages up), so the
program's own calls go through the wrapper.  A span records name, start,
end, parent span and the run id; hot boundaries record counts only.
Nothing in afstab is edited: the wrappers live in the benchmark process.
"""

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
import uuid
from collections import Counter, defaultdict

import numpy as np

# (module, attribute path, span name); the layer is the name's first part
SPANS = [
    ("afstab.cli", "run", "cli.run"),
    ("afstab.cli", "stage_check_af", "cli.stage.check-af"),
    ("afstab.cli", "stage_mass", "cli.stage.mass"),
    ("afstab.cli", "stage_harmonic", "cli.stage.harmonic"),
    ("afstab.cli", "stage_inequality", "cli.stage.inequality"),
    ("afstab.cli", "stage_distort", "cli.stage.distort"),
    ("afstab.cli", "stage_pythagoras", "cli.stage.pythagoras"),
    ("afstab.cli", "stage_flow", "cli.stage.flow"),
    ("afstab.reporting", "RunManifest.finish", "reporting.manifest"),
    ("afstab.grid", "write_field", "grid.write_field"),
    ("afstab.grid", "read_field", "grid.read_field"),
    ("afstab.harmonic", "LaplaceBeltrami.__init__", "harmonic.operator"),
    ("afstab.harmonic", "LaplaceBeltrami.interior_system", "harmonic.interior_system"),
    ("afstab.harmonic", "solve_harmonic_coordinate", "harmonic.solve_axis"),
    ("afstab.harmonic", "build_harmonic_triple", "harmonic.triple"),
    ("afstab.harmonic", "triple_from_solutions", "harmonic.load"),
    ("afstab.inequality", "mass_inequality_rhs", "inequality.rhs"),
    ("afstab.inequality", "refined_kato_check", "inequality.kato"),
    ("afstab.inequality", "relaxed_scalar_certificate", "inequality.certificate"),
    ("afstab.mass", "adm_mass", "mass.adm"),
    ("afstab.mass", "scalar_curvature_l1", "mass.scalar_l1"),
    ("afstab.geometry", "certify_hypotheses", "geometry.certify"),
    ("afstab.geometry", "verify_asymptotic_flatness", "geometry.verify_af"),
    ("afstab.geodesy", "pythagorean_check", "geodesy.record"),
    ("afstab.geodesy", "level_set_projection", "geodesy.projection"),
    ("afstab.geodesy", "mean_value_pick", "geodesy.mv_pick"),
    ("afstab.geodesy", "DistanceField.__init__", "geodesy.eikonal"),
    ("afstab.geodesy", "distance_batch", "geodesy.distance_batch"),
    ("afstab.gh", "sample_geodesic_ball", "gh.sample_ball"),
    ("afstab.gh", "gh_distortion", "gh.distortion"),
    ("afstab.gh", "reach_point", "gh.trace"),
    ("afstab.gh", "gradient_flow_step", "gh.flow_step"),
]

LAYERS = ("cli", "reporting", "grid", "harmonic", "inequality", "mass",
          "geometry", "geodesy", "gh")
STAGE_NAMES = ("check-af", "mass", "harmonic", "inequality", "distort",
               "pythagoras", "flow")

MIB = float(1 << 20)


class Tracer:
    """Spans and counters of one benchmark iteration, kept in memory."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []          # [id, name, start, end, parent]
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._stack = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(self.spans), name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _replace(self, module_name, path, make):
        """Swap `module.path` for make(original) wherever afstab holds it."""
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:   # a method: patch the class attribute
            owner = getattr(module, owner_path)
            original = owner.__dict__[attr]
            self._set(owner, attr, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("afstab"):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper)
        stages = importlib.import_module("afstab.cli").STAGES
        for key, val in list(stages.items()):
            if val is original:
                stages[key] = wrapper
                self._undo.append((stages.__setitem__, key, original))

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr,
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        after = {
            "harmonic.interior_system": self._count_call("harmonic.interior_system_calls"),
            "grid.write_field": self._after_write_field,
            "geodesy.mv_pick": self._after_mv_pick,
            "geodesy.eikonal": self._after_eikonal,
            "geodesy.distance_batch": self._after_distance_batch,
        }
        for module_name, path, name in SPANS:
            make = functools.partial(self._span_wrapper, name, after=after.get(name))
            if name == "harmonic.triple":
                make = self._peak_memory(make)
            self._replace(module_name, path, make)
        self._replace("afstab.harmonic", "cg", self._cg_counter)
        self._replace("afstab.geometry", "MetricChart.christoffel_quadratic",
                      self._christoffel_counter)
        self._replace("afstab.geodesy", "GeodesicGraph.__init__",
                      self._counter("geodesy.graph_builds"))
        self._replace("afstab.geodesy", "GeodesicGraph.seed_velocity",
                      self._counter("geodesy.graph_seeds"))

    def uninstall(self):
        for setter, attr, original in reversed(self._undo):
            setter(attr, original)
        self._undo.clear()

    # -- counters at hot boundaries -----------------------------------------

    def _count_call(self, key):
        def after(args, kwargs, result):
            self.counts[key] += 1
        return after

    def _counter(self, key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _christoffel_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(chart, x, v):
            self.counts["geometry.christoffel_calls"] += 1
            self.counts["geometry.christoffel_rows"] += int(np.prod(np.shape(x)[:-1]))
            return fn(chart, x, v)
        return wrapper

    def _cg_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, callback=None, **kwargs):
            iters = [0]

            def counting(xk):
                iters[0] += 1
                if callback is not None:
                    callback(xk)
            try:
                return fn(*args, callback=counting, **kwargs)
            finally:
                self.samples["harmonic.cg_iters"].append(iters[0])
        return wrapper

    def _peak_memory(self, make):
        """tracemalloc peak over each call, around the span wrapper."""
        def outer(fn):
            inner = make(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.samples["harmonic.triple_peak_mb"].append(
                        tracemalloc.get_traced_memory()[1] / MIB)
                    if started:
                        tracemalloc.stop()
            return wrapper
        return outer

    def _after_write_field(self, args, kwargs, result):
        field = args[1] if len(args) > 1 else kwargs["field"]
        self.samples["grid.field_mb"].append(field.values.nbytes / MIB)

    def _after_mv_pick(self, args, kwargs, result):
        center = np.asarray(args[1] if len(args) > 1 else kwargs["center"], float)
        if not np.array_equal(result[0], center):
            self.counts["geodesy.mv_offcentre"] += 1

    def _after_eikonal(self, args, kwargs, result):
        self.counts["geodesy.eikonal_nodes"] += int(args[0].n) ** 3

    def _after_distance_batch(self, args, kwargs, result):
        conv = np.asarray(result[3])
        self.counts["geodesy.pairs"] += int(conv.size)
        self.counts["geodesy.pairs_failed"] += int(np.sum(~conv))

    # -- results --------------------------------------------------------------

    def span_dicts(self):
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "run": self.run_id} for s in self.spans]

    def metrics(self) -> dict:
        """Per-layer metrics of the traced iteration (0 where a layer idled)."""
        by_id = {s[0]: s for s in self.spans}
        durations = defaultdict(list)
        totals = Counter()
        child_time = Counter()
        for sid, name, start, end, parent in self.spans:
            dur = end - start
            durations[name].append(dur)
            if parent is not None:
                child_time[parent] += dur
            anc = parent
            while anc is not None and by_id[anc][1] != name:
                anc = by_id[anc][4]
            if anc is None:   # outermost span of its name
                totals[name] += dur
        self_time = Counter()
        for sid, name, start, end, parent in self.spans:
            self_time[name.split(".")[0]] += (end - start) - child_time[sid]

        def med(values):
            return float(statistics.median(values)) if values else 0.0

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        c = self.counts
        records = durations["geodesy.record"]
        out = {f"cli.stage.{st}_s": totals[f"cli.stage.{st}"] for st in STAGE_NAMES}
        out.update({
            "reporting.manifest_s": totals["reporting.manifest"],
            "grid.write_field_s": totals["grid.write_field"],
            "grid.read_field_s": totals["grid.read_field"],
            "grid.field_mb": max(self.samples["grid.field_mb"], default=0.0),
            "harmonic.operator_s": totals["harmonic.operator"],
            "harmonic.interior_system_s": totals["harmonic.interior_system"],
            "harmonic.interior_system_calls": c["harmonic.interior_system_calls"],
            "harmonic.solve_axis_s": med(durations["harmonic.solve_axis"]),
            "harmonic.cg_iters": med(self.samples["harmonic.cg_iters"]),
            "harmonic.triple_s": totals["harmonic.triple"],
            "harmonic.load_s": totals["harmonic.load"],
            "harmonic.triple_peak_mb": max(self.samples["harmonic.triple_peak_mb"],
                                           default=0.0),
            "inequality.rhs_s": totals["inequality.rhs"],
            "inequality.kato_s": totals["inequality.kato"],
            "inequality.certificate_s": totals["inequality.certificate"],
            "mass.adm_s": totals["mass.adm"],
            "geometry.certify_s": totals["geometry.certify"],
            "geometry.christoffel_calls": c["geometry.christoffel_calls"],
            "geometry.christoffel_rows": c["geometry.christoffel_rows"],
            "geometry.rows_per_call": (c["geometry.christoffel_rows"]
                                       / max(1, c["geometry.christoffel_calls"])),
            "geodesy.record_s": med(records),
            "geodesy.record_s_p80": (float(np.percentile(records, 80))
                                     if records else 0.0),
            "geodesy.records_per_s": rate(len(records), totals["geodesy.record"]),
            "geodesy.projection_s": totals["geodesy.projection"],
            "geodesy.mv_pick_s": totals["geodesy.mv_pick"],
            "geodesy.mv_offcentre": c["geodesy.mv_offcentre"],
            "geodesy.eikonal_s": totals["geodesy.eikonal"],
            "geodesy.eikonal_nodes_per_s": rate(c["geodesy.eikonal_nodes"],
                                                totals["geodesy.eikonal"]),
            "geodesy.distance_batch_s": totals["geodesy.distance_batch"],
            "geodesy.pairs": c["geodesy.pairs"],
            "geodesy.pairs_per_s": rate(c["geodesy.pairs"],
                                        totals["geodesy.distance_batch"]),
            "geodesy.pair_fail_frac": (c["geodesy.pairs_failed"]
                                       / max(1, c["geodesy.pairs"])),
            "geodesy.graph_builds": c["geodesy.graph_builds"],
            "geodesy.graph_seeds": c["geodesy.graph_seeds"],
            "gh.trace_s": med(durations["gh.trace"]),
            "gh.traces_per_s": rate(len(durations["gh.trace"]), totals["gh.trace"]),
            "gh.flow_step_s": med(durations["gh.flow_step"]),
            "gh.sample_ball_s": totals["gh.sample_ball"],
            "gh.distortion_s": totals["gh.distortion"],
        })
        out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
        return {k: float(v) for k, v in out.items()}
