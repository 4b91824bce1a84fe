"""Command-line front door.

Every subcommand emits a single report, as deterministic JSON (sorted
keys; given the same payload and seed the bytes are identical) or as
plain text.  Elapsed time is shown only in text mode so that the JSON
reports stay byte-reproducible.

Exit codes: 0 success, 1 acceptance or suite failure, 2 bad input (an
``InputError``, including an answer too long to print), 3 internal error
(a failed certificate or any other exception).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .base import (DEGREE_CAP, ORDER_BOUND, ORDER_DIGIT_CAP, QUOTE_CAP,
                   RANK_CAP, InputError, InternalInvariantError,
                   SupportCapError, quoted, quoted_shape, smith_normal_form,
                   strict_int)

SCHEMA = "cellkit/1"
# Largest --max-rank of the sampled suites.  SNF coefficient growth makes
# the cost of a sample jump past rank 24: --samples 1 at ranks up to 24
# finished in about 2 s on every seed tried, while single samples at
# rank 48 took 28 s and at rank 600 more than 2 minutes and 820 MB.
SAMPLE_RANK_CAP = 24
# Largest --samples of the sampled suites, the size of the acceptance
# family.  At the default ranks and degrees 500 samples took under 1 s;
# at --max-rank 24 --max-degree 62 closure-suite took 80 s and 274 MB,
# and tstructure-check 39 s.
SAMPLE_COUNT_CAP = 500
# Largest --max-degree of the sampled suites.  Samples reach degree
# --max-degree, and the suites build complexes at most two degrees higher:
# closure-suite shifts samples by up to +2 against a moved cut, and cones
# and single shifts add one.  So every complex stays inside DEGREE_CAP.
SAMPLE_DEGREE_CAP = DEGREE_CAP - 2
# Accepted --k of the suites, from the fixed probe complexes each builds
# around the cut, so that every probe stays inside DEGREE_CAP:
# tstructure-check's two-degree heart probe reaches k + 2; closure-suite's
# non-split extension reaches k - 3 and its cofibre probe k + 1;
# nontriangulated-suite's desuspended and suspended witnesses reach k - 1
# and k + 1.
SUITE_K_RANGE = {
    "tstructure-check": (-DEGREE_CAP, DEGREE_CAP - 2),
    "closure-suite": (-DEGREE_CAP + 3, DEGREE_CAP - 1),
    "nontriangulated-suite": (-DEGREE_CAP + 1, DEGREE_CAP - 1),
}


_BOUND = set()  # the library modules whose names _bind has bound here


def _bind(modules) -> None:
    """Bind the names that handlers read from ``modules`` here, once per
    process, so that a wrapper or a patch set on a binding later stays."""
    global acceptance, ChainComplex, ChainMap, triangle_check, \
        CONVENTION_NOTE, EMObject, acyclization, cell_primary_torsion, \
        cell_shape, constraint_check, exact_answer, hzp_dichotomy, \
        ring_unit_obstruction, semiexact_counterexample, SUMMAND_CAP, \
        GroupSyntaxError, parse_group, FgAbGroup, ext_fg, hom_fg, \
        IntMatrix, is_unimodular, random_complex_family, sample_pairs, \
        PrimeSet, SymbolicGroup, closure_suite, connective_cover, \
        nontriangulated_witness_suite, postnikov, tstructure_check
    for module in sorted(set(modules) - _BOUND):
        if module == "acceptance":
            from . import acceptance
        elif module == "complexes":
            from .complexes import ChainComplex, ChainMap, triangle_check
        elif module == "emcell":
            from .emcell import (CONVENTION_NOTE, EMObject, acyclization,
                                 cell_primary_torsion, cell_shape,
                                 constraint_check, exact_answer,
                                 hzp_dichotomy, ring_unit_obstruction,
                                 semiexact_counterexample)
        elif module == "grammar":
            from .grammar import SUMMAND_CAP, GroupSyntaxError, parse_group
        elif module == "groups":
            from .groups import FgAbGroup, ext_fg, hom_fg
        elif module == "matrices":
            from .matrices import IntMatrix, is_unimodular
        elif module == "sampling":
            from .sampling import random_complex_family, sample_pairs
        elif module == "symbolic":
            from .symbolic import PrimeSet, SymbolicGroup
        elif module == "truncation":
            from .truncation import (closure_suite, connective_cover,
                                     nontriangulated_witness_suite, postnikov,
                                     tstructure_check)
        _BOUND.add(module)


def __getattr__(name):
    """A handler's library name, read from outside before a command bound
    it.  The import system's probes (``__path__``) load nothing."""
    if not name.startswith("__"):
        _bind(("acceptance", "complexes", "emcell", "grammar", "groups",
               "matrices", "sampling", "symbolic", "truncation"))
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def _load_payload(args) -> dict:
    path = getattr(args, "input", None)
    try:
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        # The text of an OSError holds the whole path; its strerror does not.
        reason = getattr(exc, "strerror", None) or exc
        where = quoted(path) if path else "stdin"
        raise InputError(
            f"cannot read payload from {where}: {reason}") from None
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, an integer too long to read, or nesting too deep.
        raise InputError(f"cannot read the JSON payload: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError("payload must be a JSON object")
    if obj.get("schema", SCHEMA) != SCHEMA:
        raise InputError(f"unsupported schema {quoted(obj['schema'])}; "
                         f"want {SCHEMA!r}")
    return obj


def _from_payload(cls, payload: dict, key: str, what: str | None = None):
    """``cls.from_json`` of ``payload[key]``, or of the whole payload when
    it has no such key; a malformed object is a bad ``what`` payload."""
    try:
        return cls.from_json(payload.get(key, payload))
    except (KeyError, TypeError, InputError) as exc:
        raise InputError(f"bad {what or key} payload: {exc}") from None


def _printable(g: SymbolicGroup, option: str) -> SymbolicGroup:
    """``g``, read from ``option``, unless a canonical invariant factor has
    more digits than a report can print.  The factors of its Hom, Ext and
    pi_0 divide these, so those answers print too."""
    if any(d >= ORDER_BOUND for d in g.fg.invariant_factors):
        raise InputError(f"{option} has an invariant factor of more than "
                         f"{ORDER_DIGIT_CAP} digits")
    return g


def _named(option: str, text: str, exc: InputError) -> InputError:
    """``exc``, a syntax error in ``text``, the value of ``option``.  An
    error quotes at most QUOTE_CAP characters of a text, so the error about
    a longer text names the option too."""
    return InputError(f"{option}: {exc}") if len(text) > QUOTE_CAP else exc


def _group(text: str, option: str) -> SymbolicGroup:
    """The printable group that ``text``, the value of ``option``, denotes."""
    try:
        g = parse_group(text)
    except GroupSyntaxError as exc:
        raise _named(option, text, exc) from None
    return _printable(g, option)


def _fg_group(args, flag: str) -> FgAbGroup:
    text = getattr(args, flag)
    g = _group(text, f"--{flag}")
    if not g.is_fg:
        raise InputError(
            f"{quoted(text)} must denote a finitely generated group")
    return g.fg


def _parse_wedge(text: str) -> EMObject:
    """Wedge syntax: 'shift:GROUP; shift:GROUP', e.g. '-1:Psum_(!2,3)'."""
    chunks = [c.strip() for c in text.split(";") if c.strip()]
    # Merging the summands at equal shifts is quadratic too, so the cap
    # holds for the wedge as a whole.
    count = sum(c.count("+") + 1 for c in chunks)
    if count > SUMMAND_CAP:
        raise InputError(f"a wedge may have at most {SUMMAND_CAP} summands "
                         f"in all, not {count}")
    pairs = []
    for chunk in chunks:
        shift_str, _, group_str = chunk.partition(":")
        try:
            pairs.append((strict_int(shift_str.strip()),
                          parse_group(group_str.strip())))
        except InputError as exc:
            raise _named("--wedge", text, InputError(
                f"bad wedge summand {quoted(chunk)}: {exc}")) from None
    obj = EMObject(pairs)
    for _, g in obj.summands:
        _printable(g, "--wedge")
    return obj


# --------------------------------------------------------------------------
# Subcommand handlers: each returns the report body as a dict.


def _cmd_snf(args) -> dict:
    m = _from_payload(IntMatrix, _load_payload(args), "matrix")
    # The transforms are rows x rows and cols x cols, so even a zero matrix
    # costs time and memory quadratic in its longer side.
    if m.rows > RANK_CAP or m.cols > RANK_CAP:
        raise SupportCapError(
            f"a matrix may have at most {RANK_CAP} rows and {RANK_CAP} "
            f"columns, not {quoted_shape(m)}")
    f = smith_normal_form(m)
    # u m v = s with u and v of determinant +-1.
    if not (f.u @ m @ f.v == f.s and is_unimodular(f.u)
            and is_unimodular(f.v)):
        raise InternalInvariantError("Smith decomposition failed to certify")
    return {"s": f.s.to_json(), "u": f.u.to_json(), "v": f.v.to_json(),
            "diagonal": list(f.diagonal)}


def _cmd_homology(args) -> dict:
    x = _from_payload(ChainComplex, _load_payload(args), "complex")
    return {"homology": x.homology.to_json()}


def _cmd_hom_ext(args) -> dict:
    a, b = (_fg_group(args, flag) for flag in "ab")
    value = (hom_fg if args.command == "hom" else ext_fg)(a, b)
    return {"a": a.to_json(), "b": b.to_json(), "result": value.to_json(),
            "text": str(value)}


def _cmd_truncate(args) -> dict:
    x = _from_payload(ChainComplex, _load_payload(args), "complex")
    c = (connective_cover if args.command == "cover" else postnikov)(x, args.k)
    return {"k": args.k, "result": c.to_json(), "homology": c.homology.to_json()}


def _cmd_triangle_check(args) -> dict:
    payload = _load_payload(args)
    if "map" not in payload or "candidate" not in payload:
        raise InputError("payload needs 'map' and 'candidate'")
    f = _from_payload(ChainMap, payload, "map", "chain map")
    if f.source.hi == DEGREE_CAP:
        raise InputError(f"the map's source reaches degree {DEGREE_CAP}; its "
                         f"cone would leave the cap |n| <= {DEGREE_CAP}")
    z = _from_payload(ChainComplex, payload, "candidate", "complex")
    report = triangle_check(f, z)
    return {"report": report, "verdict": report["verdict"]}


def _sample_family(args):
    if not 1 <= args.samples <= SAMPLE_COUNT_CAP:
        raise InputError(
            f"--samples must be between 1 and {SAMPLE_COUNT_CAP}")
    if not 1 <= args.max_degree <= SAMPLE_DEGREE_CAP:
        raise InputError(
            f"--max-degree must be between 1 and {SAMPLE_DEGREE_CAP}")
    if not 0 <= args.max_rank <= SAMPLE_RANK_CAP:
        raise InputError(
            f"--max-rank must be between 0 and {SAMPLE_RANK_CAP}")
    rng = random.Random(args.seed)
    return random_complex_family(rng, args.samples, max_degrees=args.max_degree,
                                 max_rank=args.max_rank)


def _cmd_tstructure(args) -> dict:
    family = _sample_family(args)
    report = tstructure_check(args.k, sample_pairs(family, args.samples))
    return {"report": report, "verdict": report["verdict"]}


def _cmd_closure(args) -> dict:
    family = _sample_family(args)
    report = closure_suite(family, args.k, seed=args.seed)
    return {"report": report, "verdict": report["ok"]}


def _cmd_nontriangulated(args) -> dict:
    report = nontriangulated_witness_suite(args.k)
    return {"report": report, "verdict": report["ok"]}


def _cmd_em_cellularize(args) -> dict:
    if args.mode == "shape":
        if args.group is None:
            raise InputError("shape mode needs --group")
        g = _group(args.group, "--group")
        result = cell_shape(args.n or 0, g)
    elif args.mode == "primary":
        for flag in ("m", "k", "n", "p"):
            if getattr(args, flag) is None:
                raise InputError("primary mode needs --m --k --n --p")
        result = exact_answer(
            cell_primary_torsion(args.m, args.k, args.n, args.p))
    else:  # dichotomy
        if args.r is None or args.p is None:
            raise InputError("dichotomy mode needs --r and --p")
        result = hzp_dichotomy(args.cellular, args.r, args.p)
    return {"mode": args.mode,
            "result": {**result, "convention": CONVENTION_NOTE}}


_TARGET_ALIASES = {"HZ": "HZ", "HZ/p^k": "HZpk", "HZpk": "HZpk",
                   "HZ/p^inf": "HZpinf", "HZpinf": "HZpinf"}


def _cmd_acyclization(args) -> dict:
    target = _TARGET_ALIASES.get(args.target)
    primes = None
    # --primes is read for a known target only, so that acyclization
    # reports an unknown target before a bad prime.
    if target and args.outcome in ("HZ_P", "ProdZpHat"):
        listed = args.primes.split(",") if args.primes else []
        primes = PrimeSet(args.cofinite,
                          frozenset(strict_int(p.strip()) for p in listed))
    obj = acyclization(target or args.target, args.outcome, primes, args.p,
                       args.k)
    return {"target": target, "outcome": args.outcome,
            "result": obj.to_json(), "convention": CONVENTION_NOTE}


def _cmd_constraint_check(args) -> dict:
    b, c, g = (_fg_group(args, flag) for flag in "bcg")
    return {"b": b.to_json(), "c": c.to_json(), "g": g.to_json(),
            "verdict": constraint_check(b, c, g)}


def _cmd_ring_obstruction(args) -> dict:
    if args.wedge is None:
        raise InputError("ring-obstruction needs --wedge 'shift:GROUP;...'")
    obj = _parse_wedge(args.wedge)
    return {"object": obj.to_json(), "verdict": ring_unit_obstruction(obj),
            "convention": CONVENTION_NOTE}


def _cmd_semiexact(args) -> dict:
    report = semiexact_counterexample(args.p)
    return {"report": report, "verdict": report["verdict"],
            "convention": CONVENTION_NOTE}


def _cmd_acceptance(args) -> dict:
    results = acceptance.run_all(seed=args.seed)
    return {
        "criteria": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                     for r in results],
        "verdict": all(r.passed for r in results),
    }


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``error: ...`` line, like
    every other bad input; subcommand parsers inherit the class.  A value
    that argparse rejects is quoted as ``quoted`` quotes it, so that a
    long one is cut, and an unknown command points to ``--help`` instead
    of listing every command."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")

    def _get_values(self, action, texts):
        try:
            return super()._get_values(action, texts)
        except argparse.ArgumentError as exc:
            if action.dest == "command":
                exc.message = (f"invalid choice: {quoted(texts[0])} "
                               f"(see {self.prog} --help)")
            else:
                for text in texts:
                    exc.message = exc.message.replace(repr(text),
                                                      quoted(text))
            raise


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cellkit",
        description="Exact cellularization/nullification calculus on integer "
                    "chain complexes and wedges of single-homotopy-group objects.",
        epilog="Group grammar: sums of Z, Z/n, Q, Z/p^inf, Zhat_p, Qhat_p, "
               "Z_(2,3), Z_(!2,3) joined with '+'; '!' marks a cofinite "
               "prime set.  Set-indexed atoms: Psum_(...), Pzhat_(...), "
               "PzhatmodZ_(...).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, modules="", *, payload=False, k=False,
            suite=False, gated=False):
        """A subcommand, with its handler, the library modules that the
        handler reads (space-separated), whether a false verdict exits 1
        and the accepted range of its --k (None: any)."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, modules=modules.split(), gated=gated,
                       k_range=SUITE_K_RANGE.get(name))
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=strict_int, default=0,
                       help="seed for randomized suites (echoed in the report)")
        if payload:
            p.add_argument("--input", help="JSON payload file (default: stdin)")
        if k:
            p.add_argument("--k", type=strict_int, required=True, help="cut degree")
        if suite:
            p.add_argument("--samples", type=strict_int, default=40)
            p.add_argument("--max-degree", type=strict_int, default=6)
            p.add_argument("--max-rank", type=strict_int, default=5)
        return p

    add("snf", "Smith normal form of an integer matrix", _cmd_snf,
        "matrices", payload=True)
    add("homology", "graded homology of a bounded complex", _cmd_homology,
        "complexes", payload=True)
    for name, what in (("hom", "Hom"), ("ext", "Ext")):
        p = add(name, f"{what} of finitely generated abelian groups",
                _cmd_hom_ext, "grammar groups")
        for flag in "ab":
            p.add_argument(f"--{flag}", required=True)
    add("cover", "connective cover at a cut degree", _cmd_truncate,
        "complexes truncation", payload=True, k=True)
    add("postnikov", "section below a cut degree", _cmd_truncate,
        "complexes truncation", payload=True, k=True)
    add("triangle-check", "compare a candidate cofibre against the cone",
        _cmd_triangle_check, "complexes", payload=True)
    add("tstructure-check", "check the three t-structure axioms on samples",
        _cmd_tstructure, "sampling truncation", k=True, suite=True,
        gated=True)
    add("closure-suite", "closure properties of the cover/section classes",
        _cmd_closure, "sampling truncation", k=True, suite=True, gated=True)
    add("nontriangulated-suite",
        "witnesses that covering does not commute with suspension",
        _cmd_nontriangulated, "truncation", k=True, gated=True)
    p = add("em-cellularize", "symbolic cellularization of a single piece",
            _cmd_em_cellularize, "emcell grammar")
    p.add_argument("--mode", choices=("shape", "primary", "dichotomy"),
                   default="shape")
    p.add_argument("--n", type=strict_int)
    p.add_argument("--group")
    for flag in "mkpr":
        p.add_argument(f"--{flag}", type=strict_int)
    p.add_argument("--cellular", action="store_true", default=False)
    p = add("acyclization", "cellularization from a nullification outcome",
            _cmd_acyclization, "emcell symbolic")
    p.add_argument("--target", required=True,
                   help="HZ, HZ/p^k or HZ/p^inf")
    p.add_argument("--outcome", required=True,
                   help="zero | HZ | HZ_P | ProdZpHat | HZpk | HZpinf | SigmaZpHat")
    p.add_argument("--primes", default="", help="comma-separated primes")
    p.add_argument("--cofinite", action="store_true",
                   help="interpret --primes as the complement")
    p.add_argument("--p", type=strict_int)
    p.add_argument("--k", type=strict_int)
    p = add("constraint-check", "evaluate the two-slot shape constraints",
            _cmd_constraint_check, "emcell grammar")
    for flag in "bcg":
        p.add_argument(f"--{flag}", required=True)
    p = add("ring-obstruction", "unit obstruction of a wedge",
            _cmd_ring_obstruction, "emcell grammar")
    p.add_argument("--wedge",
                   help="'shift:GROUP; shift:GROUP' (use --wedge=... when "
                        "the first shift is negative)")
    p = add("semiexact-demo", "the extension-closure counterexample",
            _cmd_semiexact, "emcell")
    p.add_argument("--p", type=strict_int, default=2)
    add("acceptance", "run the full acceptance suite", _cmd_acceptance,
        "acceptance", gated=True)
    return parser


def _render_text(report: dict, elapsed_ms: float) -> str:
    lines = [f"cellkit {report['subcommand']} (seed {report['seed']})"]
    for key, value in sorted(report.items()):
        if key in ("schema", "subcommand", "seed"):
            continue
        if key == "criteria":
            for crit in value:
                status = "PASS" if crit["passed"] else "FAIL"
                lines.append(f"  [{status}] {crit['name']}: {crit['detail']}")
            continue
        lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
    lines.append(f"  elapsed: {elapsed_ms:.1f} ms")
    return "\n".join(lines)


def _too_long(value) -> bool:
    """Does the report value hold an integer of more than ORDER_DIGIT_CAP
    digits, which CPython does not write as text?"""
    if isinstance(value, int):
        return abs(value) >= ORDER_BOUND
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(map(_too_long, value))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _bind(args.modules)
        started = time.perf_counter()
        if args.k_range is not None:
            lo, hi = args.k_range
            if not lo <= args.k <= hi:
                raise InputError(f"--k must be between {lo} and {hi}")
        body = args.handler(args)
        for name, value in body.items():
            if _too_long(value):
                raise InputError(f"answer too long: {name} has an entry of "
                                 f"more than {ORDER_DIGIT_CAP} digits")
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        report = {"schema": SCHEMA, "subcommand": args.command,
                  "seed": args.seed, **body}
        text = (json.dumps(report, sort_keys=True, indent=2)
                if args.format == "json" else _render_text(report, elapsed_ms))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a bug; exit 1 stays reserved for a failed suite.
        print(f"internal error: {exc}", file=sys.stderr)
        import traceback
        traceback.print_exc()
        return 3
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader left early (`| head`).  Point stdout at /dev/null so
        # the interpreter's final flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # Suites and the acceptance gate signal failure through the exit code;
    # query commands report their (possibly negative) answer with exit 0.
    return 1 if args.gated and not body["verdict"] else 0


if __name__ == "__main__":
    sys.exit(main())
