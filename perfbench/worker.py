"""One fresh process of a workload: set-up, then one timed pass.

Run by ``run.py`` with ``src`` on PYTHONPATH; prints one JSON line.

    python perfbench/worker.py --workload W --seed N --round R --mode M

Modes:
  setup   set up only (the cli_queries set-up also writes the query mix),
          then run two speed probes (speed.py)
  round   set up, run one timed pass between speed probes, check its
          outputs
  trace   set up, run untraced and traced passes in alternating order,
          each on fresh cold inputs, check them all, and report per-layer
          numbers and the tracing overhead
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median
from time import perf_counter

from cellkit.complexes import homology_presentation

import cli_mix
import references
import speed
import workloads as wl
from tracer import TARGETS, Tracer

CRITERIA = ("em-morphism-identities", "truncation-triangle", "fiber-agreement",
            "tstructure-axioms", "noncommutation-witnesses", "closure-suite",
            "classification-tables", "ring-obstruction",
            "symbolic-chain-agreement")

LARGE = {
    "large_homology": (wl.gen_large_homology, wl.build_large_homology,
                       wl.run_large_homology, wl.check_large_homology),
    "large_truncation": (wl.gen_large_truncation, wl.build_large_truncation,
                         wl.run_large_truncation, wl.check_large_truncation),
}


class Workload:
    """Set-up state and passes of one workload in this process."""

    def __init__(self, name: str, seed: int, rnd: int, workdir: str):
        self.name, self.seed = name, seed
        self.refs = references.load(name, seed)
        self.missing_refs = []
        if name in LARGE and self.refs is not None:
            self.refs = self.refs.get(str(rnd))
            if self.refs is None:
                self.missing_refs.append(f"seed {seed} has references but "
                                      f"none for pass {rnd}")
        if name in LARGE:
            gen, self._build, self._run, self._check = LARGE[name]
            self.payloads = gen(seed, rnd)
        elif name == "cli_queries":
            self.queries = cli_mix.write_queries(seed, workdir)

    def build(self):
        """Fresh cold objects for one pass (nothing to build for the
        others: run_all builds its own family, the CLI reads files)."""
        return self._build(self.payloads) if self.name in LARGE else None

    def run(self, objects, probes=None, marks=None):
        """One pass: (results, per-operation seconds).  On acceptance,
        if ``probes`` is given, a speed probe runs between operations
        every PROBE_EVERY_S, its time is appended to ``probes``, and the
        number of probes taken before each operation to ``marks``."""
        if self.name in LARGE:
            return self._run(objects)
        if self.name == "acceptance":
            hook = None if probes is None else probe_every(probes, marks)
            results, ops, self.criterion_s = wl.run_acceptance(
                self.seed, between=hook)
            return results, ops
        return wl.run_cli_in_process(self.queries)

    def check(self, results) -> tuple[int, list[str]]:
        """(operations attempted, failures)."""
        if self.name in LARGE:
            found = self._check(self.payloads, results, self.refs)
        elif self.name == "acceptance":
            found = wl.check_acceptance(self.seed, results, self.refs)
        else:
            found = cli_mix.check(self.queries, results, self.refs)
        return len(results), self.missing_refs + found


# A pass of acceptance lasts about ten seconds, in which the machine's
# speed changes; probes before and after it would not tell its speed.
PROBE_EVERY_S = 0.25


def probe_every(probes: list[float], marks: list[int]):
    """A hook, run before each operation, that runs a speed probe when
    PROBE_EVERY_S has passed and marks the operation with the number of
    probes taken so far."""
    last = perf_counter()

    def hook():
        nonlocal last
        if perf_counter() - last >= PROBE_EVERY_S:
            probes.append(speed.probe())
            last = perf_counter()
        marks.append(len(probes))
    return hook


def timed_pass(w: Workload, objects, probes=None, marks=None):
    """(results, per-operation seconds, seconds of the pass less the
    speed probes run inside it)."""
    taken = len(probes) if probes is not None else 0
    start = perf_counter()
    results, ops = w.run(objects, probes, marks)
    inside = sum(probes[taken:]) if probes is not None else 0.0
    return results, ops, perf_counter() - start - inside


def layer_metrics(t: Tracer, hits: int, misses: int) -> dict:
    out = {}
    special = {"matrices.snf", "matrices.intmatrix.new", "complexes.homology"}
    for layer in dict.fromkeys(target[0] for target in TARGETS):
        if layer not in special:
            out[f"{layer}.calls"] = t.calls[layer]
            out[f"{layer}.self_s"] = t.self_s[layer]
    calls = t.calls["matrices.snf"]
    out.update({
        "matrices.snf.calls": calls,
        "matrices.snf.self_s": t.self_s["matrices.snf"],
        # Share of SNF calls answered from the cache on the matrix, over
        # all SNF calls of the traced pass.
        "matrices.snf.reuse_ratio": (1 - t.snf["computed"] / calls) if calls else 0.0,
        "matrices.intmatrix.new": t.calls["matrices.intmatrix.new"],
        "complexes.homology.computed": t.calls["complexes.homology"],
        "complexes.homology.self_s": t.self_s["complexes.homology"],
        "complexes.presentation.hits": hits,
        "complexes.presentation.misses": misses,
    })
    out.update({f"matrices.snf.{k}": v for k, v in t.snf.items()})
    return out


# Untraced/traced pairs of passes per traced run.  Pair i runs its
# untraced pass first when i is even and its traced pass first when i is
# odd, so neither side of the overhead always runs first.
TRACE_PAIRS = {"acceptance": 2, "large_homology": 8, "large_truncation": 8,
               "cli_queries": 25}


def trace_run(w: Workload, workdir: str) -> dict:
    pairs = TRACE_PAIRS[w.name]
    objects = [w.build() for _ in range(2 * pairs)]
    setup_done = perf_counter()
    if w.name == "cli_queries":
        # Passes of a few milliseconds: pay one-time costs (regex and
        # argparse set-up) before any timed pass.
        w.run(None)
    base_s, traced_s, results = [], [], []
    first = None   # (tracer, presentation cache hits, misses)
    criterion_s = [0.0] * len(CRITERIA)
    # Each pass is scaled by the speed probes just before and after it,
    # as in the end-to-end run, so that the machine's drift does not
    # show up as tracing overhead.
    probes = [speed.probe()]

    def scaled(secs):
        probes.append(speed.probe())
        return secs * speed.factor(probes[-2:])

    for i in range(2 * pairs):
        is_traced = (i % 2 == 0) == (i // 2 % 2 == 1)
        # The one process-wide cache: every pass starts with it empty.
        homology_presentation.cache_clear()
        if not is_traced:
            out, _, secs = timed_pass(w, objects[i])
            if not base_s:
                # Criterion times come from the first untraced pass.
                criterion_s = getattr(w, "criterion_s", criterion_s)
            base_s.append(scaled(secs))
            results.append(out)
            continue
        tracer = Tracer(f"{w.name}:{w.seed}")
        tracer.install()
        try:
            out, _, secs = timed_pass(w, objects[i])
        finally:
            tracer.uninstall()
        info = homology_presentation.cache_info()
        if first is None:
            # Per-layer numbers come from the first traced pass.
            first = (tracer, info.hits, info.misses)
        traced_s.append(scaled(secs))
        results.append(out)
    attempted, failures = 0, []
    for out in results:
        n, found = w.check(out)
        attempted, failures = attempted + n, failures + found
    tracer, hits, misses = first
    failures += [f"no traffic on wrapped {m}"
                 for m in tracer.missing_traffic(w.name)]
    tracer.dump(os.path.join(workdir, f"trace-{w.name}-{w.seed}.jsonl"))
    layers = layer_metrics(tracer, hits, misses)
    layers.update({f"acceptance.{c}.s": s
                   for c, s in zip(CRITERIA, criterion_s)})
    # The handler part of a CLI query: cellkit.cli.main in process, on
    # this seed's query mix, untraced.
    homology_presentation.cache_clear()
    probe = Workload("cli_queries", w.seed, 0, workdir)
    _, handler_s = wl.run_cli_in_process(probe.queries)
    layers["cli.handler_ms"] = median(handler_s) * 1e3
    base, traced = median(base_s), median(traced_s)
    layers["trace.base_run_s"] = base
    layers["trace.run_s"] = traced
    layers["trace.overhead_s"] = traced - base
    layers["trace.overhead_ratio"] = traced / base - 1
    return {"setup_done": setup_done, "attempted": attempted,
            "failed": min(len(failures), attempted), "failures": failures,
            "layers": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "round", "trace"),
                    required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    w = Workload(args.workload, args.seed, args.round, args.workdir)
    if args.mode == "trace":
        out = trace_run(w, args.workdir)
    elif args.mode == "setup":
        w.build()
        setup_done = perf_counter()
        out = {"setup_done": setup_done,
               "probes": [speed.probe(), speed.probe()],
               "queries": getattr(w, "queries", None)}
    else:
        objects = w.build()
        setup_done = perf_counter()
        # Speed probes before and after the pass (and, on acceptance,
        # inside it); run.py scales the times by them.
        probes, marks = [speed.probe()], []
        results, ops, round_s = timed_pass(w, objects, probes, marks)
        probes.append(speed.probe())
        attempted, failures = w.check(results)
        out = {"setup_done": setup_done, "probes": probes,
               "op_marks": marks or [1] * len(ops),
               "round_s": round_s, "ops_s": ops,
               "attempted": attempted, "failed": min(len(failures), attempted),
               "failures": failures}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
