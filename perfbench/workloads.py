"""Inputs, timed operations and output checks of each workload.

Every workload has four steps, all driven from one seed and one round
index:

* ``generate(seed, rnd)``: JSON payloads, made with ``cellkit.sampling``
  (set-up; this warms the SNF caches of the matrices it touches).
* ``build(payloads)``: fresh, cold objects rebuilt through ``from_json``.
  The timed phase runs only on these.
* ``run(objects, clock)``: the timed phase; returns one result per
  operation and the latency of each.
* ``check(...)``: failures among the results, from invariants that need
  no reference and, for seeds recorded in ``refs/``, from the recorded
  outputs of the seed commit.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from inspect import isfunction
from time import perf_counter

from cellkit import acceptance, complexes, truncation
from cellkit.complexes import ChainComplex, GradedGroup
from cellkit.matrices import kernel_basis
from cellkit.sampling import random_matrix

import cli_mix

# The timed phases call cellkit through module attributes, never through
# names imported here, so that the wrappers of a traced pass see them.

# Ranks per degree of the large inputs, bottom degree first.  Cost per
# input is heavy-tailed near the SNF cliff of the seed commit: at
# (16, 22, 14, 6) about 1 input in 350 took over 0.5 s and 1 in 5500 over
# 5 s (one took 41 s); at (28, 36, 20, 8) homology alone takes seconds.
# At these ranks 16 891 inputs took at most 0.19 s each.
LARGE_RANKS = (12, 17, 11, 5)
INPUTS_PER_ROUND = 24


def _digest(obj) -> str:
    return cli_mix.digest(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


# ---------------------------------------------------------------------------
# Large complexes


def large_complex(rng: random.Random, ranks) -> dict:
    """Payload of a complex with the given ranks and dense boundaries.

    Built like ``cellkit.sampling.random_complex``: the lowest boundary
    is random, every higher one is drawn inside the kernel of the one
    below, so d o d = 0 holds exactly.
    """
    lo = rng.randint(-3, 2)
    rank_map = {lo + i: r for i, r in enumerate(ranks)}
    boundaries = {}
    prev = None
    for n in range(lo + 1, lo + len(ranks)):
        if prev is None:
            d = random_matrix(rng, rank_map[n - 1], rank_map[n], 9)
        else:
            kb = kernel_basis(prev)
            d = kb @ random_matrix(rng, kb.cols, rank_map[n], 2)
        boundaries[n] = d
        prev = d
    return ChainComplex.build(rank_map, boundaries).to_json()


def signed_permutation(rng: random.Random, payload: dict) -> dict:
    """The same complex in a basis permuted and re-signed in every degree.

    Isomorphic to the input, hence quasi-isomorphic, but every matrix
    entry moves: SNF work is not shared with the original.
    """
    perm, sign = {}, {}
    for n, r in payload["ranks"].items():
        perm[n] = rng.sample(range(r), r)
        sign[n] = [rng.choice((1, -1)) for _ in range(r)]
    boundaries = {}
    for n, d in payload["boundaries"].items():
        below = str(int(n) - 1)
        rows, cols, data = d["rows"], d["cols"], d["data"]
        pr, sr, pc, sc = perm[below], sign[below], perm[n], sign[n]
        boundaries[n] = {"rows": rows, "cols": cols, "data": [
            sr[i] * sc[j] * data[pr[i] * cols + pc[j]]
            for i in range(rows) for j in range(cols)]}
    return dict(payload, boundaries=boundaries)


def euler(ranks) -> int:
    return sum((-1) ** int(n) * r for n, r in ranks)


def restrict(h: GradedGroup, keep) -> GradedGroup:
    return GradedGroup(tuple((n, g) for n, g in h.groups if keep(n)))


def _timed(ops, clock):
    results, latencies = [], []
    for op in ops:
        start = clock()
        results.append(op())
        latencies.append(clock() - start)
    return results, latencies


# -- large_homology ---------------------------------------------------------


def gen_large_homology(seed: int, rnd: int) -> list[tuple[dict, dict]]:
    rng = _rng("large_homology", seed, rnd)
    out = []
    for _ in range(INPUTS_PER_ROUND):
        payload = large_complex(rng, LARGE_RANKS)
        out.append((payload, signed_permutation(rng, payload)))
    return out


def build_large_homology(payloads):
    """Five cold objects per input: one for each place it is used."""
    fj = ChainComplex.from_json
    return [tuple(fj(p) for p in (x, x, x, x, xp)) for x, xp in payloads]


def run_large_homology(objects, clock=perf_counter):
    """One operation per input i: homology of X_i, derived_hom(X_i,
    X_{i+1}) and quasi_iso_eq(X_i, permuted X_i), all on cold objects."""
    n = len(objects)

    def op(i):
        a, b, _, d, e = objects[i]
        c = objects[(i + 1) % n][2]
        return lambda: (a.homology, complexes.derived_hom(b, c, 0),
                        complexes.quasi_iso_eq(d, e))

    return _timed([op(i) for i in range(n)], clock)


def check_large_homology(payloads, results, refs):
    failures = []
    hs = [h for h, _, _ in results]
    for i, ((x, _), (h, t, same)) in enumerate(zip(payloads, results)):
        if euler(x["ranks"].items()) != euler((n, g.rank) for n, g in h.groups):
            failures.append(f"input {i}: Euler characteristic mismatch")
        h2 = hs[(i + 1) % len(hs)]
        free = sum(g.rank * h2.at(n).rank for n, g in h.groups)
        if t.rank != free:
            failures.append(f"input {i}: derived_hom free rank {t.rank} != {free}")
        if same is not True:
            failures.append(f"input {i}: permuted copy not quasi-isomorphic")
        if refs is not None and refs[i] != _digest([h.to_json(), t.to_json()]):
            failures.append(f"input {i}: output differs from reference")
    return failures


def refs_large_homology(payloads):
    objs = build_large_homology(payloads)
    results, _ = run_large_homology(objs)
    return [_digest([h.to_json(), t.to_json()]) for h, t, _ in results]


# -- large_truncation -------------------------------------------------------


def gen_large_truncation(seed: int, rnd: int) -> list[dict]:
    rng = _rng("large_truncation", seed, rnd)
    return [large_complex(rng, LARGE_RANKS) for _ in range(INPUTS_PER_ROUND)]


def cut(payload) -> int:
    """The middle cut: two degrees above the bottom one."""
    return payload["lo"] + 2


def build_large_truncation(payloads):
    fj = ChainComplex.from_json
    return [(cut(x), tuple(fj(x) for _ in range(4))) for x in payloads]


def run_large_truncation(objects, clock=perf_counter):
    """One operation per input: cover, section with its projection,
    nullification fibre, and the cover inclusion with its induced maps
    on homology at and above the cut, each on its own cold object."""

    def op(k, a, b, c, d):
        def go():
            cover = truncation.connective_cover(a, k)
            section, _ = truncation.section_with_projection(b, k)
            _, agrees = truncation.nullification_fiber(c, k)
            inc = truncation.cover_inclusion(d, k)
            isos = [complexes.map_on_homology_is_iso(inc, n)
                    for n in range(k, d.hi + 1)]
            return cover, section, agrees, isos
        return go

    return _timed([op(k, *objs) for k, objs in objects], clock)


def check_large_truncation(payloads, results, refs):
    failures = []
    for i, (x, (cover, section, agrees, isos)) in enumerate(
            zip(payloads, results)):
        k = cut(x)
        h = ChainComplex.from_json(x).homology
        if euler(x["ranks"].items()) != euler((n, g.rank) for n, g in h.groups):
            failures.append(f"input {i}: Euler characteristic mismatch")
        if cover.homology != restrict(h, lambda n: n >= k):
            failures.append(f"input {i}: cover does not carry H_>=k")
        if section.homology != restrict(h, lambda n: n < k):
            failures.append(f"input {i}: section does not carry H_<k")
        if agrees is not True:
            failures.append(f"input {i}: fibre disagrees with cover")
        if not all(isos):
            failures.append(f"input {i}: cover inclusion not iso at/above cut")
        if refs is not None and refs[i] != _digest(h.to_json()):
            failures.append(f"input {i}: homology differs from reference")
    return failures


def refs_large_truncation(payloads):
    return [_digest(ChainComplex.from_json(x).homology.to_json())
            for x in payloads]


# -- acceptance -------------------------------------------------------------


def acceptance_report(seed: int, results) -> str:
    """Stdout of ``cellkit acceptance --seed <seed>``."""
    report = {"schema": "cellkit/1", "subcommand": "acceptance", "seed": seed,
              "criteria": [{"name": r.name, "passed": r.passed,
                            "detail": r.detail} for r in results],
              "verdict": all(r.passed for r in results)}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# Calls of the acceptance suite that run a whole sample family or suite.
BATCH_CALLS = {"random_complex_family", "sample_pairs", "tstructure_check",
               "closure_suite", "nontriangulated_witness_suite"}


def run_acceptance(seed: int, clock=perf_counter, between=None):
    """``acceptance.run_all(seed)``, timed per operation and per criterion.

    One operation is one call from the acceptance suite into the cellkit
    API on one input: every function that the ``acceptance`` module
    imported from another cellkit module, except the calls over a whole
    family (BATCH_CALLS), whose time is that of their criterion.
    ``between``, if given, is called before each operation, outside its
    timing (but inside that of its criterion).  Returns (results,
    seconds per operation, seconds per criterion in the order run).
    """
    ops, criteria = [], []

    def timed(f, sink, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            start = clock()
            try:
                return f(*args, **kwargs)
            finally:
                sink(clock() - start)
        return wrapper

    def is_api(name, f):
        module = getattr(getattr(f, "__wrapped__", f), "__module__", "")
        return (isfunction(f) and module.startswith("cellkit.")
                and module != acceptance.__name__ and name not in BATCH_CALLS)

    originals = {}
    for name, f in list(vars(acceptance).items()):
        if name.startswith("criterion_"):
            originals[name] = f
            setattr(acceptance, name, timed(f, criteria.append))
        elif is_api(name, f):
            originals[name] = f
            setattr(acceptance, name, timed(f, ops.append, between))
    try:
        results = acceptance.run_all(seed)
    finally:
        for name, f in originals.items():
            setattr(acceptance, name, f)
    return results, ops, criteria


def check_acceptance(seed: int, results, ref):
    failures = [f"criterion {r.name} failed: {r.detail}"
                for r in results if not r.passed]
    if len(results) != 9:
        failures.append(f"{len(results)} criteria, want 9")
    if ref is not None and cli_mix.digest(acceptance_report(seed, results)) != ref:
        failures.append("acceptance report differs from reference")
    return failures


# -- cli_queries, in process --------------------------------------------------


def run_cli_in_process(queries, clock=perf_counter):
    """``cellkit.cli.main(argv)`` per query, stdout captured."""
    from cellkit import cli

    def op(argv):
        def go():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        return go

    return _timed([op(q) for q in queries], clock)
