"""Layer tracing of ads3s3 from outside the package.

A ``Tracer`` wraps the public functions of the seven modules in place.
Because ``from .x import y`` copies a name into other modules, each function
is replaced in every ``ads3s3.*`` namespace that binds it; methods are
replaced on their class.  ``remove`` puts every original object back.
Untraced runs never create a Tracer, so they run the library unchanged.

Each wrapped call records a span (name, start, end, parent span, operation
id).  Spans stay in memory and are written out by ``write_spans`` when the
run ends.  Three counts are kept at the same boundaries: constructed
validated objects, broadcast points of ``evaluate_matrices`` and exceptions
leaving each module's wrapped functions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("algebra", "solutions", "geometry", "bridge", "charges", "symplectic", "cli")

TRACED = {
    "algebra": ("exp_algebra", "normalized_commutator"),
    "solutions": ("make_solution", "evaluate_matrices", "embedding_surface",
                  "family_solution", "params_from_dict", "apply_isometry"),
    "geometry": ("verify_solution", "eom_residual", "gauge_residual",
                 "chirality_residual", "induced_metric_numeric"),
    "bridge": ("scan_region", "bridge", "admissible"),
    "charges": ("current_matrices", "charges_numeric", "charges_analytic"),
    "symplectic": ("StringChart.form", "StringChart.presymplectic", "StringChart.solution",
                   "ParticleChart.form", "poisson_bracket", "gradient",
                   "TwoFormMatrix.inverse"),
    "cli": ("main", "cmd_bridge", "cmd_verify", "cmd_sample", "cmd_scan",
            "cmd_charges", "cmd_brackets"),
}

# Classes whose constructors validate their input; each construction is counted.
VALIDATED_CLASSES = ("AdsGroupElement", "SphereGroupElement", "AdsAlgebraElement",
                     "SphereAlgebraElement", "UnitTimelikeVector", "UnitSphereVector")


def per_layer_metrics():
    """(name, unit) of every per-layer metric, all normalised per operation."""
    out = []
    for module in MODULES:
        for fn in TRACED[module]:
            out += [(f"{module}.{fn}.calls", "1/op"), (f"{module}.{fn}.total_ms", "ms/op"),
                    (f"{module}.{fn}.self_ms", "ms/op")]
    out += [("algebra.validated_objects", "1/op"), ("solutions.evaluate_matrices.points", "1/op"),
            ("cli.bytes_out", "B/op")]
    out += [(f"{module}.errors", "1/op") for module in MODULES]
    return out


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    `spans` is a list of (name, start, end, parent, op) with parent an index
    into the list or -1.  Children normally nest without overlap; the union
    of their intervals is taken anyway, clipped to the parent.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def _broadcast_size(args, kwargs):
    """Points of one evaluate_matrices(sol, tau, sigma) call."""
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    sigma = args[2] if len(args) > 2 else kwargs["sigma"]
    return np.broadcast(np.asarray(tau), np.asarray(sigma)).size


class Tracer:
    """Installs span-recording wrappers into the ads3s3 package."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.validated_objects = 0
        self.points = 0
        self.errors = dict.fromkeys(MODULES, 0)
        self._stack = []
        self._counted = set()
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function and validated constructor in place."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sys.modules.items()
                      if (name == "ads3s3" or name.startswith("ads3s3.")) and m is not None]
        for module in MODULES:
            home = sys.modules[f"ads3s3.{module}"]
            for qualname in TRACED[module]:
                name = f"{module}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, module))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(original, name, module)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)
        algebra = sys.modules["ads3s3.algebra"]
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(algebra, cls_name)
            self._patch(cls, "__post_init__", self._count_validated(cls.__dict__["__post_init__"]))

    def remove(self):
        """Restore every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, module):
        spans, stack, counted, errors = self.spans, self._stack, self._counted, self.errors
        clock = time.perf_counter_ns
        count_points = name == "solutions.evaluate_matrices"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_points:
                self.points += _broadcast_size(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                key = (module, id(exc))
                if key not in counted:
                    counted.add(key)
                    errors[module] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent, self.op)
                stack.pop()

        return traced

    def _count_validated(self, post_init):
        @functools.wraps(post_init)
        def counted(obj):
            self.validated_objects += 1
            return post_init(obj)

        return counted

    def start_operation(self, op):
        self.op = op
        self._counted.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, operations, bytes_out):
        """Per-layer metrics, each divided by the number of operations."""
        ops = max(operations, 1)
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        for span, self_ns in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            total[span[0]] += span[2] - span[1]
            own[span[0]] += self_ns
        values = {}
        for module in MODULES:
            for qualname in TRACED[module]:
                name = f"{module}.{qualname}"
                values[f"{name}.calls"] = calls[name] / ops
                values[f"{name}.total_ms"] = total[name] / 1e6 / ops
                values[f"{name}.self_ms"] = own[name] / 1e6 / ops
            values[f"{module}.errors"] = self.errors[module] / ops
        values["algebra.validated_objects"] = self.validated_objects / ops
        values["solutions.evaluate_matrices.points"] = self.points / ops
        values["cli.bytes_out"] = bytes_out / ops
        return values

    def write_spans(self, path):
        """Write the spans as tab-separated text: name, start_ns, end_ns, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
