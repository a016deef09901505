"""Spans around each layer's public entry points, and the metrics they give.

The benchmark never edits the program: `install` replaces entry points with
wrappers from outside. Two kinds of binding need care. Tableau methods are
wrapped on the class, so every module that bound the class sees them. Plain
functions are rebound in every polysteer module that holds them, because
`from .ratlin import lp_feasible` copies the function into the importing
module and patching ratlin alone would miss those calls.

A span is (name, start, end, parent) plus two integer attributes some
wrappers fill in (rows in and rays out, say). Spans stay in memory until
`write` stores them at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# Entry points per layer (layers are named after their modules). Names with
# a dot are methods, wrapped on the class.
ENTRY_POINTS = {
    "_kernel": ("Tableau.__init__", "Tableau.pivot"),
    "ratlin": ("lp_feasible", "lp_optimize", "rank", "nullspace", "solve_linear", "invert",
               "LPOutcome.check"),
    "dd": ("extreme_rays", "polytope_vertices"),
    "cone": ("cone_from_rays", "cone_from_facets", "dd_convert", "dd_convert_inv", "face_of",
             "is_extremal", "all_faces", "irreducible_components"),
    "space": ("order_isomorphisms", "order_iso_search", "is_weakly_self_dual", "is_homogeneous",
              "transport_automorphism", "effects_interval"),
    "composite": ("min_tensor", "max_tensor", "marginal_b", "map_is_extremal", "is_pure_in_max",
                  "is_isomorphism_state", "purify", "factors_isomorphically_through"),
    "steering": ("decide_steering", "affine_section_search", "_section_search_full",
                 "lift_ensemble", "ensemble_polytope_vertices", "order_interval_vertices",
                 "face_condition", "image_interval"),
    "theoryfile": ("load", "loads", "dump", "dumps", "to_document"),
    "cli": ("main", "cmd_verify"),
}

LP_NAMES = ("ratlin.lp_feasible", "ratlin.lp_optimize")
GAUSS_NAMES = ("ratlin.rank", "ratlin.nullspace", "ratlin.solve_linear", "ratlin.invert")


# Integer attributes recorded on a span: f(args, result) -> (a, b).
ATTRIBUTES = {
    "_kernel.Tableau.__init__": lambda args, out: (args[0].nrows * args[0].ncols, 0),
    "ratlin.lp_feasible": lambda args, out: (int(out.status == "infeasible"), 0),
    "ratlin.lp_optimize": lambda args, out: (int(out.status == "infeasible"), 0),
    "dd.extreme_rays": lambda args, out: (len(args[0]), len(out)),
    "dd.polytope_vertices": lambda args, out: (len(out), 0),
    "steering.lift_ensemble": lambda args, out: (int(not out), 0),
    "steering.ensemble_polytope_vertices": lambda args, out: (len(out), 0),
    "theoryfile.loads": lambda args, out: (len(args[0]), 0),
}


class Recorder:
    """In-memory span store; `enabled` is false while the harness checks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.attr_a = array("q")
        self.attr_b = array("q")
        self._stack: list[int] = []
        self.enabled = False
        # (binding module, attribute) -> calls seen through that binding.
        self.fired: dict[tuple[str, str], int] = defaultdict(int)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.attr_a.append(0)
        self.attr_b.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "a", "b"]}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.attr_a, self.attr_b):
                fh.write("%d\t%d\t%d\t%d\t%d\t%d\n" % row)


def _wrap_function(rec: Recorder, name: str, fn, binding: tuple[str, str]):
    nid = rec.intern(name)
    attrs = ATTRIBUTES.get(name)
    fired = rec.fired

    if inspect.isgeneratorfunction(fn):
        # One span per resumption; attribute a marks a yielded item.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not rec.enabled:
                yield from it
                return
            fired[binding] += 1
            while True:
                idx = rec.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                rec.attr_a[idx] = 1
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        fired[binding] += 1
        idx = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if attrs is not None:
            rec.attr_a[idx], rec.attr_b[idx] = attrs(args, out)
        return out

    return wrapper


def install(prog, rec: Recorder) -> tuple[list, list]:
    """Wrap every entry point in ENTRY_POINTS.

    Returns the bindings patched and the entry points that could not be: a
    compiled Tableau is an extension type whose methods cannot be replaced.
    """
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if (name == "polysteer" or name.startswith("polysteer.")) and mod is not None
    }
    patched, unwrappable = [], []
    for layer, names in ENTRY_POINTS.items():
        home = getattr(prog, layer)
        for attr in names:
            span = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                try:
                    setattr(cls, meth, _wrap_function(rec, span, orig, (cls.__module__, attr)))
                except TypeError:
                    unwrappable.append(span)
                    continue
                patched.append((cls.__module__, attr))
                continue
            orig = getattr(home, attr)
            for mod_name, mod in modules.items():
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, bound, _wrap_function(rec, span, orig, (mod_name, bound)))
                        patched.append((mod_name, bound))
    return patched, unwrappable


def self_times(rec: Recorder) -> list[int]:
    """Each span's duration minus the part its child spans cover, in ns."""
    n = len(rec.name)
    child = [0] * n
    start, end, parent = rec.start, rec.end, rec.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(n)]


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer counts and self times (s) over every span recorded.

    Metric names start with a letter, so the `_kernel` layer's read `kernel.`.
    """
    own = self_times(rec)
    names = rec.names
    count = defaultdict(int)
    self_ns = defaultdict(int)
    attr_a = defaultdict(int)
    attr_b = defaultdict(int)
    layer_ns = defaultdict(int)
    lp_ids = {rec.intern(n) for n in LP_NAMES}
    gauss_ids = {rec.intern(n) for n in GAUSS_NAMES}
    outer_lps = outer_lp_infeasible = outer_gauss = 0
    for i, nid in enumerate(rec.name):
        name = names[nid]
        count[name] += 1
        self_ns[name] += own[i]
        attr_a[name] += rec.attr_a[i]
        attr_b[name] += rec.attr_b[i]
        layer_ns[name.split(".", 1)[0]] += own[i]
        p = rec.parent[i]
        parent_id = rec.name[p] if p >= 0 else -1
        # An LP or elimination nested in another counts once, at the top.
        if nid in lp_ids and parent_id not in lp_ids:
            outer_lps += 1
            outer_lp_infeasible += rec.attr_a[i]
        if nid in gauss_ids and parent_id not in gauss_ids:
            outer_gauss += 1

    def c(*ns):
        return sum(count[n] for n in ns)

    def s(*ns):
        return sum(self_ns[n] for n in ns) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    lifts = count["steering.lift_ensemble"]
    searches = count["steering.affine_section_search"]
    fallbacks = count["steering._section_search_full"]
    return {
        "kernel.pivots": c("_kernel.Tableau.pivot"),
        "kernel.pivot_s": s("_kernel.Tableau.pivot"),
        "kernel.tableaux": c("_kernel.Tableau.__init__"),
        "kernel.tableau_cells": attr_a["_kernel.Tableau.__init__"],
        "ratlin.lps": outer_lps,
        "ratlin.lp_self_s": s(*LP_NAMES),
        "ratlin.lp_infeasible_ratio": ratio(outer_lp_infeasible, outer_lps),
        "ratlin.gauss_calls": outer_gauss,
        "ratlin.gauss_s": s(*GAUSS_NAMES),
        "ratlin.cert_check_s": s("ratlin.LPOutcome.check"),
        "dd.extreme_rays_calls": c("dd.extreme_rays"),
        "dd.extreme_rays_self_s": s("dd.extreme_rays"),
        "dd.rays_in": attr_a["dd.extreme_rays"],
        "dd.rays_out": attr_b["dd.extreme_rays"],
        "dd.polytope_vertices_calls": c("dd.polytope_vertices"),
        "dd.vertices_out": attr_a["dd.polytope_vertices"],
        "dd.polytope_vertices_self_s": s("dd.polytope_vertices"),
        "cone.conversions": c("cone.cone_from_rays", "cone.cone_from_facets"),
        "cone.self_s": layer_ns["cone"] / 1e9,
        "steering.ensembles": attr_a["steering.ensemble_polytope_vertices"],
        "steering.lifts": lifts,
        "steering.lift_fail_ratio": ratio(attr_a["steering.lift_ensemble"], lifts),
        "steering.section_searches": searches,
        "steering.section_fallbacks": fallbacks,
        "steering.section_fallback_ratio": ratio(fallbacks, searches),
        "steering.self_s": layer_ns["steering"] / 1e9,
        "space.order_isos_yielded": attr_a["space.order_isomorphisms"],
        "space.self_s": layer_ns["space"] / 1e9,
        "composite.extremality_calls": c("composite.map_is_extremal"),
        "composite.self_s": layer_ns["composite"] / 1e9,
        "theoryfile.loads": c("theoryfile.loads"),
        "theoryfile.bytes": attr_a["theoryfile.loads"],
        "theoryfile.self_s": layer_ns["theoryfile"] / 1e9,
        "cli.commands": c("cli.main") - c("cli.cmd_verify"),
        "cli.verify_calls": c("cli.cmd_verify"),
        "cli.self_s": layer_ns["cli"] / 1e9,
        "trace.spans": len(rec.name),
    }


def layer_shares(rec: Recorder, op_seconds: float) -> dict:
    """Each layer's self time as a share of the traced ops' wall time."""
    totals = defaultdict(int)
    for nid, own in zip(rec.name, self_times(rec)):
        totals[rec.names[nid].split(".", 1)[0]] += own
    return {layer: totals[layer] / 1e9 / op_seconds for layer in ENTRY_POINTS}
