"""Spans and counts around the public functions of each sfmew module.

The program itself carries no instrumentation.  ``Tracer.install`` replaces
the public functions of each layer, in every ``sfmew`` module that imported
them, with wrappers that record a span (name, start, end, parent) and charge
the span's self time (its duration minus its child spans) to its layer.
``Jet`` arithmetic and derivative calls are counted, not timed: there are
hundreds per point, and their time stays in the self time of the layer that
called them.  ``uninstall`` puts the original functions back.  A name that
a later version of the program no longer has is skipped, and its metrics
read 0.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute, layer charged with the self time, name of the span)
FUNCTIONS = (
    ("sfmew.analyzer", "scan_region", "analyzer", "analyzer.scan_region"),
    ("sfmew.analyzer", "classify_point", "analyzer", "analyzer.classify_point"),
    ("sfmew.analyzer", "verify_candidate", "analyzer", "analyzer.verify_candidate"),
    ("sfmew.constraints", "assemble_P0", "constraints.assemble", "constraints.assemble_P0"),
    ("sfmew.constraints", "assemble_P1", "constraints.assemble", "constraints.assemble_P1"),
    ("sfmew.constraints", "assemble_P2", "constraints.assemble", "constraints.assemble_P2"),
    ("sfmew.constraints", "assemble_P3", "constraints.assemble", "constraints.assemble_P3"),
    ("sfmew.polyalg", "resultant_report", "polyalg.resultant", "polyalg.resultant_report"),
    ("sfmew.polyalg", "common_real_roots", "polyalg.witness", "polyalg.common_real_roots"),
    ("sfmew.polyalg", "common_complex_roots", "polyalg.witness", "polyalg.common_complex_roots"),
    ("sfmew.polyalg", "real_roots", "polyalg.real_roots", "polyalg.real_roots"),
    ("sfmew.expr", "eval_jet", "expr.eval_jet", "expr.eval_jet"),
)

# (module, class, method, layer, span name)
METHODS = (
    ("sfmew.geometry", "Frame", "__init__", "geometry.frame", "geometry.Frame"),
    ("sfmew.invariants", "InvariantField", "__init__", "invariants.field",
     "invariants.InvariantField"),
    ("sfmew.invariants", "InvariantField", "point_invariants", "invariants.point_invariants",
     "invariants.point_invariants"),
    ("sfmew.invariants", "InvariantField", "m_tensor", "invariants.m_tensor",
     "invariants.m_tensor"),
)

JET_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "d_dx", "d_dy",
)


class Tracer:
    """Spans kept in memory, self time per layer, call counts per span name."""

    def __init__(self):
        self.spans = []  # (trace id, span id, parent id, name, start, end)
        self.self_s = defaultdict(float)  # layer -> seconds
        self.total_s = defaultdict(float)  # span name -> inclusive seconds
        self.calls = defaultdict(int)  # span name -> calls
        self.tag_s = defaultdict(float)  # verdict tag -> classify_point seconds
        self.tag_calls = defaultdict(int)
        self.jet_ops = 0
        self.trace_id = 0
        self._stack = []  # open spans: [span id, child seconds]
        self._next_id = 0
        self._restore = []

    # -- recording ------------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, 0.0])
        return span_id, parent

    def _close(self, span_id, parent, layer, name, start, end):
        child_s = self._stack.pop()[1]
        dur = end - start
        self.self_s[layer] += dur - child_s
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((self.trace_id, span_id, parent, name, start, end))
        return dur

    def run(self, layer, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span; the benchmark's own entry into a layer."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span_id, parent, layer, name, start, time.perf_counter())

    def _wrap(self, fn, layer, name):
        tracer = self
        by_tag = name == "analyzer.classify_point"

        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(span_id, parent, layer, name, start, time.perf_counter())
            if by_tag:
                tracer.tag_s[result.tag.value] += dur
                tracer.tag_calls[result.tag.value] += 1
            return result

        return traced

    def _count(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.jet_ops += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "sfmew" or n.startswith("sfmew.")]
        for mod_name, attr, layer, name in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, layer, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        for mod_name, cls_name, attr, layer, name in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is not None:
                self._patch(cls, attr, self._wrap(original, layer, name))
        jet = getattr(sys.modules.get("sfmew.jets"), "Jet", None)
        for attr in JET_OPS if jet is not None else ():
            original = jet.__dict__.get(attr)
            if original is not None:
                self._patch(jet, attr, self._count(original))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for trace_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace_id, "span": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

    def layer_metrics(self, points):
        """Per-layer metrics over ``points`` decided or verified while traced."""
        ms = lambda s: 1e3 * s / points
        per = lambda n: n / points
        frames = self.calls["geometry.Frame"]
        fields = self.calls["invariants.InvariantField"]
        real_roots = self.calls["polyalg.real_roots"]
        out = {
            "geometry.frame_ms": (1e3 * self.self_s["geometry.frame"] / frames if frames else 0.0, "ms"),
            "geometry.frames_per_point": (per(frames), "count"),
            "invariants.field_ms": (1e3 * self.self_s["invariants.field"] / fields if fields else 0.0, "ms"),
            "invariants.fields_per_point": (per(fields), "count"),
            "invariants.point_invariants_ms_per_point": (ms(self.self_s["invariants.point_invariants"]), "ms"),
            "invariants.m_tensor_ms_per_point": (ms(self.self_s["invariants.m_tensor"]), "ms"),
            "jets.ops_per_point": (per(self.jet_ops), "count"),
            "expr.eval_jet_ms_per_point": (ms(self.self_s["expr.eval_jet"]), "ms"),
            "expr.eval_jet_calls_per_point": (per(self.calls["expr.eval_jet"]), "count"),
            "constraints.assemble_ms_per_point": (ms(self.self_s["constraints.assemble"]), "ms"),
            "polyalg.resultant_ms_per_point": (ms(self.self_s["polyalg.resultant"]), "ms"),
            "polyalg.witness_ms_per_point": (ms(self.self_s["polyalg.witness"]), "ms"),
            "polyalg.real_roots_ms_per_point": (ms(self.self_s["polyalg.real_roots"]), "ms"),
            "polyalg.real_roots_calls_per_point": (per(real_roots), "count"),
            "analyzer.self_ms_per_point": (ms(self.self_s["analyzer"]), "ms"),
            "analyzer.verify_ms_per_point": (ms(self.total_s["analyzer.verify_candidate"]), "ms"),
            "cli.self_ms_per_point": (ms(self.self_s["cli"]), "ms"),
        }
        return out

    def tag_metrics(self, tags):
        return {
            f"analyzer.ms_per_point.{tag}": (
                1e3 * self.tag_s[tag] / self.tag_calls[tag] if self.tag_calls[tag] else 0.0, "ms")
            for tag in tags
        }
