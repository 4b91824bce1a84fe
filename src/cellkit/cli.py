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
from functools import lru_cache

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
        if None in (args.m, args.k, args.n, args.p):
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


_INT, _REQUIRED = {"type": strict_int}, {"required": True}
_COMMON = (("--format", {"choices": ("json", "text"), "default": "json"}),
           ("--seed", {**_INT, "default": 0, "help": "seed for randomized "
                       "suites (echoed in the report)"}))
_PAYLOAD = (("--input", {"help": "JSON payload file (default: stdin)"}),)
_CUT = (("--k", {**_INT, **_REQUIRED, "help": "cut degree"}),)
_SUITE = _CUT + tuple((option, {**_INT, "default": default}) for option,
                      default in (("--samples", 40), ("--max-degree", 6),
                                  ("--max-rank", 5)))

# One record per subcommand, in --help order: help text, handler, the
# library modules the handler reads, whether a false verdict exits 1, and
# the arguments after _COMMON as (option, add_argument keywords) pairs.
_COMMANDS = {
    "snf": ("Smith normal form of an integer matrix", _cmd_snf, "matrices",
            False, _PAYLOAD),
    "homology": ("graded homology of a bounded complex", _cmd_homology,
                 "complexes", False, _PAYLOAD),
    **{name: (f"{what} of finitely generated abelian groups", _cmd_hom_ext,
              "grammar groups", False, (("--a", _REQUIRED), ("--b", _REQUIRED)))
       for name, what in (("hom", "Hom"), ("ext", "Ext"))},
    "cover": ("connective cover at a cut degree", _cmd_truncate,
              "complexes truncation", False, _PAYLOAD + _CUT),
    "postnikov": ("section below a cut degree", _cmd_truncate,
                  "complexes truncation", False, _PAYLOAD + _CUT),
    "triangle-check": ("compare a candidate cofibre against the cone",
                       _cmd_triangle_check, "complexes", False, _PAYLOAD),
    "tstructure-check": ("check the three t-structure axioms on samples",
                         _cmd_tstructure, "sampling truncation", True, _SUITE),
    "closure-suite": ("closure properties of the cover/section classes",
                      _cmd_closure, "sampling truncation", True, _SUITE),
    "nontriangulated-suite": (
        "witnesses that covering does not commute with suspension",
        _cmd_nontriangulated, "truncation", True, _CUT),
    "em-cellularize": (
        "symbolic cellularization of a single piece", _cmd_em_cellularize,
        "emcell grammar", False, (
            ("--mode", {"choices": ("shape", "primary", "dichotomy"),
                        "default": "shape"}),
            ("--n", _INT), ("--group", {}), *((f"--{f}", _INT) for f in "mkpr"),
            ("--cellular", {"action": "store_true", "default": False}))),
    "acyclization": (
        "cellularization from a nullification outcome", _cmd_acyclization,
        "emcell symbolic", False, (
            ("--target", {**_REQUIRED, "help": "HZ, HZ/p^k or HZ/p^inf"}),
            ("--outcome", {**_REQUIRED, "help": "zero | HZ | HZ_P | "
                           "ProdZpHat | HZpk | HZpinf | SigmaZpHat"}),
            ("--primes", {"default": "", "help": "comma-separated primes"}),
            ("--cofinite", {"action": "store_true",
                            "help": "interpret --primes as the complement"}),
            ("--p", _INT), ("--k", _INT))),
    "constraint-check": ("evaluate the two-slot shape constraints",
                         _cmd_constraint_check, "emcell grammar", False,
                         tuple((f"--{flag}", _REQUIRED) for flag in "bcg")),
    "ring-obstruction": (
        "unit obstruction of a wedge", _cmd_ring_obstruction,
        "emcell grammar", False, (("--wedge", {
            "help": "'shift:GROUP; shift:GROUP' (use --wedge=... when the "
                    "first shift is negative)"}),)),
    "semiexact-demo": ("the extension-closure counterexample", _cmd_semiexact,
                       "emcell", False, (("--p", {**_INT, "default": 2}),)),
    "acceptance": ("run the full acceptance suite", _cmd_acceptance,
                   "acceptance", True, ()),
}


@lru_cache(maxsize=None)
def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of subcommand ``command`` alone, or of every subcommand
    when it is None.  Each is built once per process."""
    parser = _Parser(
        prog="cellkit",
        description="Exact cellularization/nullification calculus on integer "
                    "chain complexes and wedges of single-homotopy-group objects.",
        epilog="Group grammar: sums of Z, Z/n, Q, Z/p^inf, Zhat_p, Qhat_p, "
               "Z_(2,3), Z_(!2,3) joined with '+'; '!' marks a cofinite "
               "prime set.  Set-indexed atoms: Psum_(...), Pzhat_(...), "
               "PzhatmodZ_(...).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command else _COMMANDS:
        help_text, _, _, _, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for option, keywords in _COMMON + arguments:
            p.add_argument(option, **keywords)
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
    argv = sys.argv[1:] if argv is None else argv
    # --help, a missing command or an unknown one needs every subcommand.
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None
                        ).parse_args(argv)
    _, handler, modules, gated, _ = _COMMANDS[args.command]
    try:
        _bind(modules.split())
        started = time.perf_counter()
        if args.command in SUITE_K_RANGE:
            lo, hi = SUITE_K_RANGE[args.command]
            if not lo <= args.k <= hi:
                raise InputError(f"--k must be between {lo} and {hi}")
        # By name, so that a patch on the binding here takes effect.
        body = globals()[handler.__name__](args)
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
    return 1 if gated and not body["verdict"] else 0


if __name__ == "__main__":
    sys.exit(main())
