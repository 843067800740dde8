"""Spans around mapforge's public callables, recorded from outside.

Tracing replaces each callable in TARGETS with a wrapper: the class
attribute (and every alias of it, such as __rmul__ = __mul__) for methods,
and the name in every mapforge module that imported it for functions.
Spans stay in memory and are written as JSON lines when the run ends.
A span's self time is its duration minus the time covered by its child
spans; self time and call counts are summed per callable as they close.
"""

import functools
import json
import time

# (module, label, class or None, attribute)
TARGETS = [
    ("series_core", "TruncSeries.mul", "TruncSeries", "__mul__"),
    ("series_core", "TruncSeries.div", "TruncSeries", "__truediv__"),
    ("series_core", "TruncSeries.log", "TruncSeries", "log"),
    ("series_core", "TruncSeries.exp", "TruncSeries", "exp"),
    ("series_core", "TruncSeries.pow_frac", "TruncSeries", "pow_frac"),
    ("series_core", "fixed_point_solve", None, "fixed_point_solve"),
    ("series_core", "SymbolPoly.mul", "SymbolPoly", "__mul__"),
    ("series_core", "SymbolPoly.inverse", "SymbolPoly", "inverse"),
    ("planar_onecut", "solve_one_cut", None, "solve_one_cut"),
    ("planar_onecut", "planar_free_energy", None, "planar_free_energy"),
    ("planar_onecut", "r_of_z", None, "r_of_z"),
    ("geodesic", "solve_Rn_series", None, "solve_Rn_series"),
    ("geodesic", "exact_Rn_quartic", None, "exact_Rn_quartic"),
    ("geodesic", "quartic_coeff_table", None, "quartic_coeff_table"),
    ("ortho_genus", "hankel_dets", None, "hankel_dets"),
    ("ortho_genus", "log_ratio_terms", None, "log_ratio_terms"),
    ("ortho_genus", "exact_free_energy_FN", None, "exact_free_energy_FN"),
    ("string_eq", "pdo_multiply", None, "pdo_multiply"),
    ("string_eq", "kdv_residue", None, "kdv_residue"),
    ("string_eq", "commutator_check", None, "commutator_check"),
    ("wick_fatgraphs", "connected_free_energy_F", None,
     "connected_free_energy_F"),
    ("wick_fatgraphs", "CombinatorialMap.init", "CombinatorialMap",
     "__init__"),
    ("observables", "weighted_Zn_solve", None, "weighted_Zn_solve"),
    ("observables", "vertices_at_distance", None, "vertices_at_distance"),
    ("observables", "mc_profile", None, "mc_profile"),
    ("bijections", "random_plane_tree", None, "random_plane_tree"),
    ("bijections", "pointed_quadrangulation", None,
     "pointed_quadrangulation"),
    ("bijections", "distance_profile", None, "distance_profile"),
    ("bijections", "sample_well_labeled_tree", None,
     "sample_well_labeled_tree"),
    ("branching", "simulate_extinction", None, "simulate_extinction"),
    ("branching", "escape_interval", None, "escape_interval"),
    ("cli", "main", None, "main"),
]

SPAN_NAMES = ["%s.%s" % (mod, label) for mod, label, _, _ in TARGETS]


def _replace_everywhere(modules, original, replacement):
    """Rebind every module-level name that refers to original."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def _replace_in_class(cls, original, replacement):
    for name, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, name, replacement)


class Tracer:
    """In-memory span recorder.  `run` names the task the spans belong to;
    while it is None, calls pass through unrecorded."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.spans = []  # (id, name index, start, end, parent id, run)
        self.run = None
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((sid, index, start, end, parent, self.run))

        return traced

    def install(self, modules):
        """Wrap every target; modules maps short names to mapforge modules."""
        for (mod, label, cls_name, attr), name in zip(TARGETS, SPAN_NAMES):
            module = modules[mod]
            if cls_name is None:
                original = getattr(module, attr)
                _replace_everywhere(modules.values(), original,
                                    self.wrap(name, original))
            else:
                cls = getattr(module, cls_name)
                original = vars(cls)[attr]
                _replace_in_class(cls, original, self.wrap(name, original))

    def summary(self):
        return {name: {"calls": calls, "self_s": self_s}
                for name, calls, self_s
                in zip(self.names, self.calls, self.self_s)}

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, index, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": self.names[index],
                                     "start": start, "end": end,
                                     "parent": parent, "run": run},
                                    separators=(",", ":")))
                fh.write("\n")


def observe(modules, original, callback):
    """Counter-only wrapper without a span: callback(args, result)."""
    @functools.wraps(original)
    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        callback(args, result)
        return result

    _replace_everywhere(modules, original, observed)
