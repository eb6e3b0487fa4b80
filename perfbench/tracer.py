"""Span tracing of the ``faceflow`` layers from outside the package.

``Tracer.install`` replaces each listed function with a timing wrapper: on
the defining module or class, and on every ``faceflow`` module that holds
the same object under an imported name (``experiments.brute_sparsest_edge_cut``
is the object ``polyflow.brute_sparsest_edge_cut``).  ``uninstall`` puts the
originals back, so untraced passes run the unmodified program.

Each call records a span: function, parent span, start, end, and whether
it raised.  Self time is a span's duration minus the durations of its
direct child spans.  Busy time counts only outermost spans, so recursion
and nested calls within one function, module or group are not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# module -> public functions traced in it ("Class.method" for methods).
LAYERS: dict[str, tuple[str, ...]] = {
    "experiments": ("gap_experiment", "distortion_experiment"),
    "instances": ("Instance.caps", "Instance.demand_matrix"),
    "polyflow": (
        "brute_sparsest_edge_cut", "nu", "separated_demand",
        "mcf_vertex_lp", "mcf_dual_vertex", "mcf_polymatroid_lp",
    ),
    "simplex": ("solve_lp", "check_solution"),
    "graph": (
        "all_pairs_distances", "is_planar", "is_outerplanar",
        "MetricGraph.adjacency", "MetricGraph.neighbors", "slack_transform",
    ),
    "partition": ("sample_padded_partition",),
    "retraction": ("retract_to_outerplanar", "sample_retraction"),
    "treeembed": (
        "embed_sampler", "embed_outerplanar", "is_star_shaped", "is_thin",
        "random_extension", "anchor_points",
    ),
    "tree": ("glue", "MetricTree.dist"),
    "thinround": ("thin_map", "tilde_lengths", "round_thin"),
}

# Modules whose combined busy time is the per-sample Monte Carlo pipeline.
SAMPLING_GROUP = ("retraction", "treeembed", "thinround")
SAMPLING_NAME = "retraction_treeembed_thinround"

_OUTER_FN, _OUTER_MOD, _OUTER_GROUP = 1, 2, 4


def function_names() -> list[str]:
    return [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]


class Tracer:
    def __init__(self):
        self.names = function_names()
        self.modules = list(LAYERS)
        self._mod_of = [self.modules.index(n.split(".", 1)[0]) for n in self.names]
        self._in_group = [n.split(".", 1)[0] in SAMPLING_GROUP for n in self.names]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.fid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self.error = array("b")
        self.lp_rows = 0
        self.lp_cols = 0
        self._stack: list[int] = []
        self._fn_depth = [0] * len(self.names)
        self._mod_depth = [0] * len(self.modules)
        self._group_depth = 0

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        pkg_modules = [m for k, m in sys.modules.items()
                       if k == "faceflow" or k.startswith("faceflow.")]
        for fid, full in enumerate(self.names):
            mod_name, qual = full.split(".", 1)
            mod = importlib.import_module(f"faceflow.{mod_name}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fid, fn)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._patch(owner, attr, raw, wrapped)
                continue
            fn = getattr(mod, qual)
            wrapped = self._wrap(fid, fn)
            for m in pkg_modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, attr, fn, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def _wrap(self, fid: int, fn):
        mid = self._mod_of[fid]
        in_group = self._in_group[fid]
        is_solve_lp = self.names[fid] == "simplex.solve_lp"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            sid = len(self.fid)
            flags = 0
            if self._fn_depth[fid] == 0:
                flags |= _OUTER_FN
            if self._mod_depth[mid] == 0:
                flags |= _OUTER_MOD
            if in_group and self._group_depth == 0:
                flags |= _OUTER_GROUP
            if is_solve_lp:
                objective, rows = args[0], args[1]
                self.lp_rows += len(rows)
                self.lp_cols += len(objective)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.flags.append(flags)
            self.error.append(0)
            self.end.append(0.0)
            stack.append(sid)
            self._fn_depth[fid] += 1
            self._mod_depth[mid] += 1
            self._group_depth += in_group
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[sid] = 1
                raise
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
                self._fn_depth[fid] -= 1
                self._mod_depth[mid] -= 1
                self._group_depth -= in_group

        return wrapper

    # -- aggregation ----------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls, errors, self and busy seconds; per-module
        busy seconds and errors; the sampling group's busy seconds."""
        nf = len(self.names)
        calls = [0] * nf
        errors = [0] * nf
        self_s = [0.0] * nf
        busy_s = [0.0] * nf
        mod_busy = [0.0] * len(self.modules)
        mod_err = [0] * len(self.modules)
        group_busy = 0.0
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        for i in range(n):
            f = self.fid[i]
            m = self._mod_of[f]
            calls[f] += 1
            errors[f] += self.error[i]
            mod_err[m] += self.error[i]
            self_s[f] += dur[i] - child[i]
            fl = self.flags[i]
            if fl & _OUTER_FN:
                busy_s[f] += dur[i]
            if fl & _OUTER_MOD:
                mod_busy[m] += dur[i]
            if fl & _OUTER_GROUP:
                group_busy += dur[i]
        return {
            "spans": n,
            "functions": {
                name: {"calls": calls[i], "errors": errors[i],
                       "self_s": self_s[i], "busy_s": busy_s[i]}
                for i, name in enumerate(self.names)
            },
            "modules": {
                m: {"busy_s": mod_busy[j], "errors": mod_err[j]}
                for j, m in enumerate(self.modules)
            },
            SAMPLING_NAME: {"busy_s": group_busy},
            "solve_lp_rows": self.lp_rows,
            "solve_lp_cols": self.lp_cols,
        }
