"""Tracing cellkit from outside: wrap public functions, record spans.

The tracer replaces each public function of a layer with a wrapper on
every module binding that holds it (``from .matrices import
smith_normal_form`` gives ``cellkit.complexes`` its own binding), on the
class for methods and class methods, and as a new ``cached_property``
for ``ChainComplex.homology``.  Each wrapper records one span (name,
start, end, parent, run id) and charges its duration, minus the time of
the spans it encloses, to its layer's self time.  Spans stay in memory
until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import cached_property
from time import perf_counter

# (layer key, module, attribute, kind, workloads that must call it).
# kind: "fn" module function, "method" plain method, "classmethod",
# "cached" cached_property, "count" constructor counter without span.
# The workloads are those on which the target is called on every seed;
# a traced run of one of them fails if the target, summed over its
# bindings, sees no calls.
TARGETS = [
    ("matrices.snf", "cellkit.matrices", "smith_normal_form", "fn",
     ("acceptance", "large_homology", "large_truncation", "cli_queries")),
    ("matrices.matmul", "cellkit.matrices", "IntMatrix.__matmul__", "method",
     ("acceptance", "large_truncation", "cli_queries")),
    ("matrices.intmatrix.new", "cellkit.matrices", "IntMatrix.__post_init__",
     "count", ("acceptance", "large_homology", "large_truncation",
               "cli_queries")),
    ("matrices.kernel_basis", "cellkit.matrices", "kernel_basis", "fn",
     ("acceptance", "large_truncation")),
    ("matrices.solve", "cellkit.matrices", "solve", "fn",
     ("acceptance", "large_truncation")),
    ("complexes.complex_build", "cellkit.complexes", "ChainComplex.build",
     "classmethod", ("acceptance", "large_truncation", "cli_queries")),
    ("complexes.map_build", "cellkit.complexes", "ChainMap.build",
     "classmethod", ("acceptance", "large_truncation", "cli_queries")),
    ("complexes.cone", "cellkit.complexes", "cone", "fn",
     ("acceptance", "large_truncation", "cli_queries")),
    ("complexes.shift", "cellkit.complexes", "shift", "fn",
     ("acceptance", "large_truncation", "cli_queries")),
    ("complexes.coproduct", "cellkit.complexes", "coproduct", "fn",
     ("acceptance",)),
    ("complexes.homology", "cellkit.complexes", "ChainComplex.homology",
     "cached", ("acceptance", "large_homology", "large_truncation",
                "cli_queries")),
    ("complexes.derived_hom", "cellkit.complexes", "derived_hom", "fn",
     ("acceptance", "large_homology")),
    ("complexes.induced_map", "cellkit.complexes", "induced_map", "fn",
     ("acceptance", "large_truncation")),
    ("groups.cokernel", "cellkit.groups", "cokernel", "fn",
     ("acceptance", "large_truncation")),
    ("groups.hom_ext", "cellkit.groups", "hom_fg", "fn",
     ("acceptance", "large_homology", "cli_queries")),
    ("groups.hom_ext", "cellkit.groups", "ext_fg", "fn",
     ("acceptance", "large_homology", "cli_queries")),
    ("groups.brute_force", "cellkit.groups", "brute_force_hom_count", "fn",
     ("acceptance",)),
    ("truncation.cover", "cellkit.truncation", "connective_cover", "fn",
     ("acceptance", "large_truncation", "cli_queries")),
    ("truncation.cover", "cellkit.truncation", "cover_inclusion", "fn",
     ("acceptance", "large_truncation")),
    ("truncation.section", "cellkit.truncation", "section_with_projection",
     "fn", ("acceptance", "large_truncation")),
    ("truncation.section", "cellkit.truncation", "postnikov", "fn",
     ("acceptance",)),
    ("truncation.fibre", "cellkit.truncation", "nullification_fiber", "fn",
     ("acceptance", "large_truncation")),
    ("truncation.triangle", "cellkit.truncation", "cell_null_triangle", "fn",
     ("acceptance",)),
    ("truncation.suite", "cellkit.truncation", "closure_suite", "fn",
     ("acceptance",)),
    ("truncation.suite", "cellkit.truncation", "tstructure_check", "fn",
     ("acceptance",)),
    ("truncation.suite", "cellkit.truncation",
     "nontriangulated_witness_suite", "fn", ("acceptance",)),
    ("symbolic.rule", "cellkit.symbolic", "hom_rule", "fn",
     ("acceptance", "cli_queries")),
    ("symbolic.rule", "cellkit.symbolic", "ext_rule", "fn",
     ("acceptance",)),
    ("symbolic.parse", "cellkit.grammar", "parse_group", "fn",
     ("cli_queries",)),
    ("emcell.table", "cellkit.emcell", "cell_primary_torsion", "fn",
     ("acceptance", "cli_queries")),
    ("emcell.table", "cellkit.emcell", "acyclization", "fn",
     ("acceptance", "cli_queries")),
]

# Layers marked hot keep aggregates only: they run hundreds of thousands
# of times per acceptance run.
HOT = {"matrices.matmul"}
# Spans kept in memory; later ones are counted as dropped.
SPAN_CAP = 200_000

# Bindings made by ``from .x import name`` that must see calls on the
# given workload, so that a wrapper missing from a module binding fails
# the traced run instead of silently under-counting.
EXPECTED_BINDINGS = {
    "acceptance": ["cellkit.groups.smith_normal_form",
                   "cellkit.complexes.smith_normal_form",
                   "cellkit.truncation.smith_normal_form",
                   "cellkit.sampling.kernel_basis",
                   "cellkit.acceptance.derived_hom",
                   "cellkit.acceptance.shift",
                   "cellkit.truncation.cone",
                   "cellkit.emcell.hom_rule"],
    "large_homology": ["cellkit.complexes.smith_normal_form",
                       "cellkit.complexes.hom_fg"],
    "large_truncation": ["cellkit.truncation.smith_normal_form",
                         "cellkit.matrices.smith_normal_form",
                         "cellkit.complexes.kernel_basis",
                         "cellkit.complexes.solve",
                         "cellkit.complexes.cone"],
    "cli_queries": ["cellkit.cli.smith_normal_form",
                    "cellkit.cli.parse_group",
                    "cellkit.cli.connective_cover",
                    "cellkit.cli.hom_fg"],
}


def _bits(entries) -> int:
    return max((abs(e).bit_length() for e in entries), default=0)


class Tracer:
    """Span recorder with per-layer call counts and self times."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self.bindings: dict[str, list[str]] = {}   # target -> its bindings
        self.snf = {"computed": 0, "max_dim": 0, "max_in_bits": 0,
                    "max_out_bits": 0}
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list, start: float, end: float,
              hidden: float = 0.0):
        """Close a span; ``hidden`` seconds of tracer work that followed it
        are charged to no layer."""
        self._stack.pop()
        dur = end - start
        self.calls[layer] += 1
        self.self_s[layer] += dur - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur + hidden
        if layer in HOT:
            return
        if len(self.spans) < SPAN_CAP:
            self.spans.append((layer, start, end,
                               parent[0] if parent else None, frame[0]))
        else:
            self.dropped += 1

    def _wrap_fn(self, layer: str, binding: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.binding_calls[binding] += 1
            frame = tracer._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame, start, perf_counter())

        traced.__wrapped__ = fn
        return traced

    def _wrap_snf(self, binding: str, fn):
        tracer = self

        def traced(m):
            tracer.binding_calls[binding] += 1
            computed = "_snf" not in m.__dict__
            frame = tracer._enter()
            start = perf_counter()
            try:
                f = fn(m)
            except BaseException:
                tracer._exit("matrices.snf", frame, start, perf_counter())
                raise
            end = perf_counter()
            if computed:
                s = tracer.snf
                s["computed"] += 1
                s["max_dim"] = max(s["max_dim"], m.rows, m.cols)
                s["max_in_bits"] = max(s["max_in_bits"], _bits(m.entries))
                s["max_out_bits"] = max(
                    s["max_out_bits"],
                    *(_bits(t.entries) for t in (f.u, f.v, f.u_inv, f.v_inv)))
            # Reading the sizes counts neither as SNF time nor as the
            # caller's.
            tracer._exit("matrices.snf", frame, start, end,
                         hidden=perf_counter() - end)
            return f

        traced.__wrapped__ = fn
        return traced

    def _wrap_count(self, layer: str, binding: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.binding_calls[binding] += 1
            tracer.calls[layer] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every target on every ``cellkit`` module binding."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "cellkit" or n.startswith("cellkit.")}
        for layer, modname, attr, kind, _ in TARGETS:
            mod = modules[modname]
            labels = self.bindings[f"{modname}.{attr}"] = []
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(mod, cls_name)
                label = f"{modname}.{attr}"
                labels.append(label)
                raw = cls.__dict__[member]
                if kind == "method":
                    self._set(cls, member, self._wrap_fn(layer, label, raw))
                elif kind == "count":
                    self._set(cls, member,
                              self._wrap_count(layer, label, raw))
                elif kind == "classmethod":
                    self._set(cls, member, classmethod(
                        self._wrap_fn(layer, label, raw.__func__)))
                elif kind == "cached":
                    prop = cached_property(
                        self._wrap_fn(layer, label, raw.func))
                    prop.__set_name__(cls, member)
                    self._set(cls, member, prop)
                continue
            original = getattr(mod, attr)
            for bname, bmod in modules.items():
                for key, value in list(vars(bmod).items()):
                    if value is original:
                        label = f"{bname}.{key}"
                        labels.append(label)
                        wrapper = (self._wrap_snf(label, original)
                                   if layer == "matrices.snf"
                                   else self._wrap_fn(layer, label, original))
                        self._set(bmod, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ---------------------------------------------------------

    def missing_traffic(self, workload: str) -> list[str]:
        """Targets and bindings meant to be exercised by ``workload`` that
        saw no calls.  A target counts the calls of all its bindings."""
        missing = []
        for layer, modname, attr, _, workloads in TARGETS:
            target = f"{modname}.{attr}"
            if workload in workloads and not any(
                    self.binding_calls[b] for b in self.bindings[target]):
                missing.append(f"{target} ({layer})")
        for binding in EXPECTED_BINDINGS.get(workload, ()):
            if not self.binding_calls[binding]:
                missing.append(binding)
        return missing

    def dump(self, path):
        """Write counts, per-binding calls and spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "run_id": self.run_id,
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "bindings": dict(self.binding_calls),
                "snf": self.snf,
                "spans_kept": len(self.spans),
                "spans_dropped": self.dropped,
            }, sort_keys=True) + "\n")
            for name, start, end, parent, span_id in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end,
                                     self.run_id]) + "\n")
