import argparse
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cellkit
from conftest import bareiss_determinant, time_limit
from cellkit import cli as cli_mod
from cellkit import grammar as grammar_mod
from cellkit import matrices as matrices_mod
from cellkit.cli import main
from cellkit.complexes import (DEGREE_CAP, ChainComplexError, ChainMapError,
                               SupportCapError)
from cellkit.base import quoted, strict_int
from cellkit.emcell import (ORDER_DIGIT_CAP, EMObject, InadmissibleCaseError,
                            chain_model)
from cellkit.grammar import (SUMMAND_CAP, GroupSyntaxError, format_group,
                             parse_group)
from cellkit.groups import (PSI_12, FgAbGroup, SizeBoundExceededError, Z,
                            p_valuation, primary_part)
from cellkit.matrices import (InputError, IntMatrix, MatrixShapeError,
                              _reduce, is_unimodular, smith_normal_form)
from cellkit.symbolic import (PrimeSet, ProdZpHat, ProdZpHatModZ, Prufer,
                              PruferSum, Q, QpHat, SymbolicGroup, ZLocal,
                              ZpHat)
from cellkit.truncation import PreconditionError

PRIMES = (2, 3, 5, 7)
# Every subcommand, in the order that `cellkit --help` lists them.
COMMANDS = ("snf", "homology", "hom", "ext", "cover", "postnikov",
            "triangle-check", "tstructure-check", "closure-suite",
            "nontriangulated-suite", "em-cellularize", "acyclization",
            "constraint-check", "ring-obstruction", "semiexact-demo",
            "acceptance")


# Full stdout of the triangle-check payload of TestDispatch and of
# ``tstructure-check --k 0 --samples 40 --seed 7``.
TRIANGLE_CHECK_STDOUT = """\
{
  "report": {
    "candidate_homology": {
      "0": {
        "rank": 0,
        "torsion": [
          2
        ]
      }
    },
    "checks": [
      {
        "degree": 0,
        "note": "H0: cone=Z/2 candidate=Z/2",
        "ok": true
      }
    ],
    "cone_homology": {
      "0": {
        "rank": 0,
        "torsion": [
          2
        ]
      }
    },
    "method": "cone-comparison",
    "verdict": true
  },
  "schema": "cellkit/1",
  "seed": 0,
  "subcommand": "triangle-check",
  "verdict": true
}
"""
# Full stdout of the postnikov payload of TestDispatch.
POSTNIKOV_STDOUT = """\
{
  "homology": {
    "0": {
      "rank": 1,
      "torsion": [
        2
      ]
    }
  },
  "k": 1,
  "result": {
    "boundaries": {
      "1": {
        "cols": 1,
        "data": [
          2,
          4
        ],
        "rows": 2
      }
    },
    "hi": 1,
    "lo": 0,
    "ranks": {
      "0": 2,
      "1": 1
    }
  },
  "schema": "cellkit/1",
  "seed": 0,
  "subcommand": "postnikov"
}
"""
TSTRUCTURE_STDOUT = """\
{
  "report": {
    "axioms": {
      "decomposition": true,
      "hom_vanishing": true,
      "shift_nesting": true
    },
    "heart": [
      {
        "in_heart": true,
        "object": "single-degree object"
      },
      {
        "in_heart": false,
        "object": "two-degree object"
      },
      {
        "in_heart": true,
        "object": "heart detection"
      }
    ],
    "k": 0,
    "samples": 40,
    "verdict": true
  },
  "schema": "cellkit/1",
  "seed": 7,
  "subcommand": "tstructure-check",
  "verdict": true
}
"""


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    return code, capsys.readouterr().out


# --------------------------------------------------------------------------
# Grammar

nonempty_finite_sets = st.sets(st.sampled_from(PRIMES), min_size=1).map(PrimeSet.of)
any_sets = st.tuples(st.booleans(), st.sets(st.sampled_from(PRIMES))).map(
    lambda t: PrimeSet(t[0], frozenset(t[1])))
atoms = st.one_of(
    st.just(Q()),
    st.sampled_from(PRIMES).map(Prufer),
    st.sampled_from(PRIMES).map(ZpHat),
    st.sampled_from(PRIMES).map(QpHat),
    nonempty_finite_sets.map(ZLocal),
    st.sets(st.sampled_from(PRIMES)).map(
        lambda s: ZLocal(PrimeSet.complement_of(s))),
    st.sets(st.sampled_from(PRIMES)).map(
        lambda s: PruferSum(PrimeSet.complement_of(s))),
    st.sets(st.sampled_from(PRIMES)).map(
        lambda s: ProdZpHat(PrimeSet.complement_of(s))),
    st.sets(st.sampled_from(PRIMES), min_size=1).map(
        lambda s: ProdZpHatModZ(PrimeSet.of(s))),
)
symbolic_groups = st.tuples(
    st.integers(0, 2),
    st.lists(st.integers(2, 12), max_size=2),
    st.lists(atoms, max_size=3),
).map(lambda t: SymbolicGroup.of(
    FgAbGroup.free(t[0]), FgAbGroup.of_orders(t[1]), *t[2]))

# Group texts of up to four summands, each the text before the parameter
# of a spelling, a parameter right, wrong or out of the ASCII digits, and
# the text after one (Arabic-Indic 3 and superscript 2 are digits to
# str.isdigit).
_summand_texts = st.lists(st.tuples(
    st.sampled_from(["Z/", "Q", "Zhat_", "Qhat_", "Z_(", "Psum_(", "Pzhat_(",
                     "PzhatmodZ_(", "Z", "0", ""]),
    st.one_of(st.sampled_from(["", "2", "3", "4", "04", "12", "2,3", "!2",
                               "!", "2)", "\u0663", "\u00b2"]),
              st.text(alphabet="0123456789!,()_ \n-x^\u0663\u00b2",
                      max_size=5)),
    st.sampled_from(["", "^inf", ")", "))", "^in", "^inf)"]),
).map("".join), min_size=1, max_size=4).map(" + ".join)


class TestGrammar:
    def test_spec_examples(self):
        g = parse_group("Z + Z/2 + Z/4")
        assert g.fg == FgAbGroup(1, (2, 4))
        assert parse_group("Z/3^inf") == SymbolicGroup.of(Prufer(3))
        assert parse_group("Z/6 + Z/4").fg.invariant_factors == (2, 12)

    def test_zero(self):
        assert parse_group("0").is_zero
        assert format_group(SymbolicGroup()) == "0"

    def test_errors_carry_position(self):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group("Z + what + Q")
        assert err.value.position == 4
        with pytest.raises(GroupSyntaxError):
            parse_group("Z/4^inf")  # 4 is not prime
        with pytest.raises(GroupSyntaxError):
            parse_group("Z/0")
        with pytest.raises(GroupSyntaxError):
            parse_group("")

    @settings(max_examples=150, deadline=None)
    @given(symbolic_groups)
    def test_round_trip(self, g):
        assert parse_group(format_group(g)) == g

    @pytest.mark.parametrize("atom, text", [
        (Q(), "Q"),
        (Prufer(5), "Z/5^inf"),
        (ZpHat(7), "Zhat_7"),
        (QpHat(3), "Qhat_3"),
        (ZLocal(PrimeSet.of([2, 3])), "Z_(2,3)"),
        (PruferSum(PrimeSet.complement_of([2])), "Psum_(!2)"),
        (ProdZpHat(PrimeSet.complement_of([2, 5])), "Pzhat_(!2,5)"),
        (ProdZpHatModZ(PrimeSet.of([3])), "PzhatmodZ_(3)"),
    ])
    def test_atom_spelling(self, atom, text):
        g = SymbolicGroup.of(Z, FgAbGroup.cyclic(6), atom)
        assert format_group(g) == f"Z + Z/6 + {text}"
        assert parse_group(f"Z/6 + {text} + Z") == g

    @pytest.mark.parametrize("text, message", [
        ("Zhat_4", "4 is not prime (at position 0)"),
        ("Z/04^inf", "not an integer: '04' (at position 0)"),
        ("Qhat_\u0663", "unrecognized summand 'Qhat_\u0663' (at position 0)"),
        ("Z_(4)", "bad prime set: 4 is not prime (at position 0)"),
        ("Z + Z_(2,x)", "bad prime set: not an integer: 'x' (at position 4)"),
        ("PzhatmodZ_()", "product over the empty prime set has no quotient "
                         "by Z (at position 0)"),
        ("Psum_(2", "unrecognized summand 'Psum_(2' (at position 0)"),
        ("Z + Z/0", "Z/0 is not allowed; write Z (at position 4)"),
    ])
    def test_malformed_atom_message(self, text, message):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(text)
        assert str(err.value) == message

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(_summand_texts, symbolic_groups.map(format_group),
                     st.text(max_size=12)))
    def test_parse_group_matches_its_former_patterns(self, text):
        with mock.patch.object(grammar_mod, "_parse_token", _regex_token):
            want = _outcome(parse_group, text)
        assert _outcome(parse_group, text) == want


# The patterns that each summand matched (with re.match) before the
# grammar tested prefixes and suffixes, with its constructor and the
# reader of its parameter: the oracle of which texts it reads, and how.
_SET = grammar_mod._parse_primeset
_REGEX_TOKENS = [
    (r"Z/([0-9]+)$", grammar_mod._cyclic, strict_int),
    (r"Q$", Q, strict_int),
    (r"Z/([0-9]+)\^inf$", Prufer, strict_int),
    (r"Zhat_([0-9]+)$", ZpHat, strict_int),
    (r"Qhat_([0-9]+)$", QpHat, strict_int),
    (r"Z_\(([^)]*)\)$", ZLocal, _SET),
    (r"Psum_\(([^)]*)\)$", PruferSum, _SET),
    (r"Pzhat_\(([^)]*)\)$", ProdZpHat, _SET),
    (r"PzhatmodZ_\(([^)]*)\)$", ProdZpHatModZ, _SET),
]


def _regex_token(token, pos):
    if token == "0":
        return SymbolicGroup()
    if token == "Z":
        return FgAbGroup.free(1)
    for pattern, build, read in _REGEX_TOKENS:
        m = re.match(pattern, token)
        if m:
            try:
                return build(*map(read, m.groups()))
            except InputError as exc:
                raise GroupSyntaxError(str(exc), pos) from None
    raise GroupSyntaxError(f"unrecognized summand {quoted(token)}", pos)


def _outcome(call, *args):
    """("ok", value) of ``call(*args)``, or the type and text of the
    InputError it raises."""
    try:
        return "ok", call(*args)
    except InputError as exc:
        return type(exc).__name__, str(exc)


# --------------------------------------------------------------------------
# Dispatch


ATOM_KINDS = ("Q + Z/2^inf + Zhat_2 + Qhat_3 + Z_(2,3) + Psum_(!2) + "
              "Pzhat_(!3) + PzhatmodZ_(2,3)")


class TestDispatch:
    def test_hom_example(self, capsys):
        code, out = run_cli(capsys, "hom", "--a", "Z/4", "--b", "Z/6")
        assert code == 0
        body = json.loads(out)
        assert body["schema"] == "cellkit/1"
        assert body["result"] == {"rank": 0, "torsion": [2]}

    def test_ext_example(self, capsys):
        code, out = run_cli(capsys, "ext", "--a", "Z/2", "--b", "Z")
        assert code == 0
        assert json.loads(out)["result"] == {"rank": 0, "torsion": [2]}

    def test_acyclization_example(self, capsys):
        code, out = run_cli(capsys, "acyclization", "--target", "HZ",
                            "--outcome", "HZ_P", "--primes", "2,3")
        assert code == 0
        body = json.loads(out)
        assert body["result"] == [{
            "group": {"atom": "PruferSum",
                      "primes": {"list": [2, 3], "mode": "cofinite"}},
            "shift": -1,
        }]
        assert body["convention"].startswith("convention")

    def test_cover_on_zero_complex(self, capsys, monkeypatch):
        payload = json.dumps({"lo": 0, "hi": -1, "ranks": {}, "boundaries": {}})
        code, out = run_cli(capsys, "cover", "--k", "0",
                            stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        body = json.loads(out)
        assert body["result"]["ranks"] == {}

    def test_cover_where_d1_is_one_to_one(self):
        # d_1 = (2, 4) has no kernel, so the cover at k = 1 is zero.
        body = json.loads(_contract_run(["cover", "--k", "1"], json.dumps({
            "ranks": {"0": 2, "1": 1},
            "boundaries": {"1": {"rows": 2, "cols": 1, "data": [2, 4]}}})))
        assert body["result"]["ranks"] == {} and body["homology"] == {}

    def test_postnikov_bytes(self, capsys, monkeypatch):
        # The section keeps degree 0 of the input and takes the image basis
        # (2, 4) of d_1 in degree 1.
        payload = _complex_payload({
            "ranks": {"0": 2, "1": 2, "2": 1},
            "boundaries": {"1": {"rows": 2, "cols": 2, "data": [2, 0, 4, 0]},
                           "2": {"rows": 2, "cols": 1, "data": [0, 3]}}})
        code, out = run_cli(capsys, "postnikov", "--k", "1",
                            stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        assert out == POSTNIKOV_STDOUT

    def test_snf_payload(self, capsys, monkeypatch):
        payload = json.dumps({"matrix": {"rows": 2, "cols": 2,
                                         "data": [2, 4, 6, 8]}})
        code, out = run_cli(capsys, "snf", stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["diagonal"] == [2, 4]

    def test_homology_payload(self, capsys, monkeypatch):
        payload = json.dumps({"complex": {
            "lo": 0, "hi": 1, "ranks": {"0": 1, "1": 1},
            "boundaries": {"1": {"rows": 1, "cols": 1, "data": [2]}}}})
        code, out = run_cli(capsys, "homology", stdin=payload,
                            monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["homology"] == {"0": {"rank": 0, "torsion": [2]}}

    def test_triangle_check_payload(self, capsys, monkeypatch):
        emz = {"lo": 0, "hi": 0, "ranks": {"0": 1}, "boundaries": {}}
        emz2 = {"lo": 0, "hi": 1, "ranks": {"0": 1, "1": 1},
                "boundaries": {"1": {"rows": 1, "cols": 1, "data": [2]}}}
        payload = json.dumps({
            "map": {"source": emz, "target": emz,
                    "components": {"0": {"rows": 1, "cols": 1, "data": [2]}}},
            "candidate": emz2,
        })
        code, out = run_cli(capsys, "triangle-check", stdin=payload,
                            monkeypatch=monkeypatch)
        assert code == 0
        assert out == TRIANGLE_CHECK_STDOUT

    def test_triangle_check_from_zero_source(self, capsys, monkeypatch):
        # The cone of 0 -> Z is Z: the candidate Z closes the triangle.
        emz = {"ranks": {"0": 1}}
        payload = json.dumps({
            "map": {"source": {"ranks": {}}, "target": emz, "components": {}},
            "candidate": emz,
        })
        code, out = run_cli(capsys, "triangle-check", stdin=payload,
                            monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_em_cellularize_modes(self, capsys):
        code, out = run_cli(capsys, "em-cellularize", "--mode", "primary",
                            "--m", "0", "--k", "1", "--n", "2", "--p", "5")
        assert code == 0
        body = json.loads(out)
        assert body["result"]["object"] == [
            {"group": {"rank": 0, "torsion": [5]}, "shift": 0}]
        code, out = run_cli(capsys, "em-cellularize", "--mode", "shape",
                            "--n", "3", "--group", "Q")
        assert code == 0
        assert json.loads(out)["result"]["constraints"]["b_forced_zero"] is True

    def test_constraint_check(self, capsys):
        code, out = run_cli(capsys, "constraint-check", "--b", "0",
                            "--c", "Z/4", "--g", "Z/8")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_ring_obstruction(self, capsys):
        code, out = run_cli(capsys, "ring-obstruction",
                            "--wedge=-1:Psum_(!2,3)")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    # pi_0 through Hom(Z, G) and Ext(Z, G) of every atom kind: false with
    # the atoms at shift 0, true with them and Z at shift 1 alone.
    @pytest.mark.parametrize("wedge, verdict", [
        (f"0:{ATOM_KINDS}; 1:Z/4 + Q", False),
        (f"1:{ATOM_KINDS} + Z/4 + Z", True)], ids=["shift-0", "shift-1"])
    def test_ring_obstruction_of_every_atom_kind(self, wedge, verdict):
        out = _contract_run(["ring-obstruction", f"--wedge={wedge}"], None)
        assert json.loads(out)["verdict"] is verdict

    def test_semiexact_demo(self, capsys):
        code, out = run_cli(capsys, "semiexact-demo", "--p", "2")
        assert code == 0
        assert json.loads(out)["verdict"] is True


class TestExitCodes:
    def test_schema_violation(self):
        _contract_run(["snf"], "not json", message="")

    def test_bad_group_text(self):
        _contract_run(["hom", "--a", "Z/frog", "--b", "Z"], None, message="")

    def test_symbolic_group_where_fg_needed(self):
        _contract_run(["hom", "--a", "Q", "--b", "Z"], None, message="")

    def test_inadmissible_case(self):
        _contract_run(["acyclization", "--target", "HZ", "--outcome",
                       "SigmaZpHat"], None, message="")

    def test_bad_complex_payload(self):
        _contract_run(["homology"], _complex_payload({
            "lo": 0, "hi": 1, "ranks": {"0": 1, "1": 1},
            "boundaries": {"1": {"rows": 2, "cols": 1, "data": [2, 0]}}}),
            message="")


class TestDeterminism:
    def test_same_payload_same_seed_byte_identical(self, capsys):
        _, out1 = run_cli(capsys, "closure-suite", "--k", "0",
                          "--samples", "12", "--seed", "5")
        _, out2 = run_cli(capsys, "closure-suite", "--k", "0",
                          "--samples", "12", "--seed", "5")
        assert out1 == out2

    def test_tstructure_report_bytes(self, capsys):
        code, out = run_cli(capsys, "tstructure-check", "--k", "0",
                            "--samples", "40", "--seed", "7")
        assert code == 0
        assert out == TSTRUCTURE_STDOUT

    # sha256 prefixes of the full stdout of the suite reports that
    # TRIANGLE_CHECK_STDOUT and TSTRUCTURE_STDOUT do not cover.
    @pytest.mark.parametrize("argv, want", [
        (["closure-suite", "--k", "0", "--samples", "40", "--seed", "3"],
         "ba272e903eb2fe09"),
        (["nontriangulated-suite", "--k", "0"], "18891dda959d19f8"),
        (["semiexact-demo", "--p", "2"], "4bf151ce7a2ceee7"),
        # Samples of rank at most 1 send 0xn, nx0 and 1x1 matrices through
        # kernels, cokernels, solves and homology presentations.
        (["closure-suite", "--k", "0", "--samples", "40", "--max-rank", "1"],
         "25c3a6a61afa70ef"),
    ], ids=["closure-suite", "nontriangulated-suite", "semiexact-demo",
            "closure-suite-rank-1"])
    def test_suite_report_bytes(self, capsys, argv, want):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want

    def test_seed_echoed(self, capsys):
        _, out = run_cli(capsys, "tstructure-check", "--k", "1",
                         "--samples", "6", "--seed", "42")
        assert json.loads(out)["seed"] == 42

    def test_suites_report_verdicts(self, capsys):
        code, out = run_cli(capsys, "nontriangulated-suite", "--k", "0")
        assert code == 0
        body = json.loads(out)
        assert body["verdict"] is True
        assert len(body["report"]["checks"]) == 4


class TestAcceptanceGate:
    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_report_bytes_match_benchmark_reference(self, capsys, seed):
        refs = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "refs", "acceptance.json")
        with open(refs, encoding="utf-8") as fh:
            want = json.load(fh)[seed]
        code, out = run_cli(capsys, "acceptance", "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want

    def test_exit_zero_and_one_line_per_criterion(self, capsys):
        code, out = run_cli(capsys, "acceptance", "--format", "text")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip().startswith("[")]
        assert len(lines) == 9
        assert all("PASS" in l for l in lines)

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        from cellkit import acceptance as acc

        def fake_run_all(seed=0):
            return [acc.CriterionResult("stub", False, "forced failure")]

        monkeypatch.setattr(acc, "run_all", fake_run_all)
        code, out = run_cli(capsys, "acceptance")
        assert code == 1
        assert json.loads(out)["verdict"] is False


def _snf_payload(rows, cols, data):
    return json.dumps({"matrix": {"rows": rows, "cols": cols, "data": data}})


def _complex_payload(complex_obj):
    return json.dumps({"complex": complex_obj})


# One summand more than a group text may have.
_OVER_CAP = "+".join(["Z/2"] * (SUMMAND_CAP + 1))

BAD_INPUTS = [
    # A composite (or unverifiable) p where the tables need a prime.
    (["em-cellularize", "--mode", "primary", "--m", "0", "--k", "1",
      "--n", "2", "--p", "4"], None),
    (["em-cellularize", "--mode", "dichotomy", "--r", "2", "--p", "4"], None),
    (["acyclization", "--target", "HZpk", "--outcome", "zero", "--p", "4",
      "--k", "1"], None),
    (["acyclization", "--target", "HZpinf", "--outcome", "zero", "--p", "4"],
     None),
    (["acyclization", "--target", "HZpinf", "--outcome", "zero",
      "--p", str(PSI_12)], None),
    (["acyclization", "--target", "HZpk", "--outcome", "zero", "--p", "2",
      "--k", "0"], None),
    (["semiexact-demo", "--p", "4"], None),
    (["acyclization", "--target", "HZ", "--outcome", "HZ_P",
      "--primes", "2,x"], None),
    # Suite sampling parameters that would pass vacuously or crash.
    (["closure-suite", "--k", "0", "--samples", "0"], None),
    (["tstructure-check", "--k", "0", "--samples", "0"], None),
    (["tstructure-check", "--k", "0", "--max-rank", "-1"], None),
    (["closure-suite", "--k", "0", "--max-rank", "-1"], None),
    (["tstructure-check", "--k", "0", "--max-degree", "0"], None),
    (["closure-suite", "--k", "0", "--max-degree", "0"], None),
    # ... and ones whose SNF cost is out of reach.
    (["tstructure-check", "--k", "0", "--samples", "1", "--max-rank", "25"],
     None),
    (["tstructure-check", "--k", "0", "--samples", "1", "--max-rank", "600"],
     None),
    (["closure-suite", "--k", "0", "--max-rank", "25"], None),
    (["tstructure-check", "--k", "0", "--max-degree", "65"], None),
    (["closure-suite", "--k", "0", "--max-degree", "65"], None),
    # ... and degrees that the suites' shifts and cones would push past
    # DEGREE_CAP.
    (["tstructure-check", "--k", "0", "--max-degree", "63"], None),
    (["closure-suite", "--k", "0", "--max-degree", "63"], None),
    # ... and cuts whose probe complexes would leave DEGREE_CAP.
    (["tstructure-check", "--k", "-65", "--samples", "1"], None),
    (["tstructure-check", "--k", "63", "--samples", "1"], None),
    (["closure-suite", "--k", "-62", "--samples", "1"], None),
    (["closure-suite", "--k", "64", "--samples", "1"], None),
    (["nontriangulated-suite", "--k", "-64"], None),
    (["nontriangulated-suite", "--k", "64"], None),
    (["snf", "--input", os.path.join("no", "such", "payload.json")], None),
    # Only JSON integers are integers: no floats, booleans or strings.
    (["snf"], _snf_payload(1, 2, [2.7, True])),
    (["snf"], _snf_payload(1, 1, ["2"])),
    (["snf"], _snf_payload(1.0, 1, [2])),
    (["snf"], _snf_payload(1, True, [2])),
    (["homology"], _complex_payload({"ranks": {"0": 1.0}})),
    (["homology"], _complex_payload({"ranks": {"0": True}})),
    (["homology"], _complex_payload({"ranks": {"0": "1"}})),
    (["homology"], _complex_payload({"ranks": [1]})),
    (["homology"], _complex_payload([1])),
    (["snf"], "[]"),
    (["homology"], _complex_payload({
        "ranks": {"0": 1, "1": 1},
        "boundaries": {"1": {"rows": 1, "cols": 1, "data": [2.0]}}})),
    # Integers written as text have one spelling each: ASCII digits, an
    # optional minus, no leading zero.  int() would read "00" as 0 (and
    # drop a rank), "1_0" as 10, "1_3" as 13 and Arabic-Indic 4 as 4.
    (["homology"], _complex_payload({"ranks": {"0": 1, "00": 2}})),
    (["homology"], _complex_payload({"ranks": {"1_0": 1}})),
    (["homology"], _complex_payload({
        "ranks": {"0": 1, "1": 1},
        "boundaries": {"+1": {"rows": 1, "cols": 1, "data": [2]}}})),
    (["triangle-check"], json.dumps({
        "map": {"source": {"ranks": {"0": 1}}, "target": {"ranks": {"0": 1}},
                "components": {" 0": {"rows": 1, "cols": 1, "data": [2]}}},
        "candidate": {"ranks": {"0": 1}}})),
    (["acyclization", "--target", "HZ", "--outcome", "HZ_P",
      "--primes", "1_3"], None),
    (["ring-obstruction", "--wedge=0:Psum_(2_3)"], None),
    (["ring-obstruction", "--wedge=0_0:Z"], None),
    (["hom", "--a", "Z/\u0664", "--b", "Z"], None),
    (["hom", "--a", "Z/04", "--b", "Z"], None),
    # Group orders p^e too long to be written as text.
    (["acyclization", "--target", "HZpk", "--outcome", "zero", "--p", "2",
      "--k", "20000"], None),
    (["em-cellularize", "--mode", "primary", "--m", "0", "--k", "20000",
      "--n", "20000", "--p", "2"], None),
    (["em-cellularize", "--mode", "dichotomy", "--cellular", "--r", "15000",
      "--p", "2"], None),
    # Candidate lists whose orders have more than ORDER_DIGIT_CAP digits
    # in all: the first refused r for p = 2 and p = 3.
    (["em-cellularize", "--mode", "dichotomy", "--cellular", "--r", "167",
      "--p", "2"], None),
    (["em-cellularize", "--mode", "dichotomy", "--cellular", "--r", "133",
      "--p", "3"], None),
    # Group texts with more than SUMMAND_CAP summands, in one group or
    # across the summands of a wedge.
    (["hom", "--a", _OVER_CAP, "--b", "Z/2"], None),
    (["constraint-check", "--b", "Z/2", "--c", "Z/2", "--g", _OVER_CAP],
     None),
    (["ring-obstruction", "--wedge=" + ";".join(
        f"{s % 3}:Z/2" for s in range(SUMMAND_CAP + 1))], None),
]


def _captured(argv, stdin, seconds=20):
    """(exit code, stdout, stderr) of ``cellkit argv`` on the payload
    ``stdin``, run in this process within ``seconds``."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with time_limit(seconds), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses an option itself
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _contract_run(argv, stdin, seconds=5, message=None):
    """Run ``cellkit argv`` on the payload ``stdin`` in this process and
    check the exit contract within ``seconds``: exit 0 or 2, and on exit 2
    an empty stdout and one ``error:`` line of under 300 bytes.  A
    ``message``, empty for any, asks for exit 2 and an error line that
    starts with it.  Returns stdout on exit 0 and None on exit 2."""
    code, out, err = _captured(argv, stdin, seconds)
    assert code in ((0, 2) if message is None else (2,)), (code, err)
    if code == 2:
        assert out == "" and err.startswith(f"error: {message or ''}")
        assert err.count("\n") == 1 and len(err.encode()) < 300
        return None
    return out


@pytest.mark.parametrize("argv, stdin", BAD_INPUTS, ids=[
    " ".join(argv) + (f" <<< {stdin}" if stdin else "")
    for argv, stdin in BAD_INPUTS])
def test_bad_input_exits_2(argv, stdin):
    _contract_run(argv, stdin, 20, message="")


# Payloads and answers past CPython's limits: an entry of 5,000 digits,
# 100,000 nested arrays, and the Smith form of [[N, 3], [5, N]] with a
# 4,000-digit N, whose diagonal has more than ORDER_DIGIT_CAP digits.
# N1 and N2 are coprime 4,000-digit integers, so the complex with
# d_1 = diag(N1, N2) has the 8,000-digit torsion N1 * N2 in degree 0, and
# so does the group Z/N1 + Z/N2 as its one invariant factor.
_N = int("7" * 4000)
_N1, _N2 = 10 ** 3999 + 1, 10 ** 3999 + 3
_DIAG = {"lo": 0, "hi": 1, "ranks": {"0": 2, "1": 2},
         "boundaries": {"1": {"rows": 2, "cols": 2,
                              "data": [_N1, 0, 0, _N2]}}}
_ID2 = {"ranks": {"0": 2}}
_LONG_GROUP = f"Z/{_N1}+Z/{_N2}"
_BIG = int("7" * 4299)
_BIG_CUT = "7" * 40 + "... (4299 digits)"
_BIG_PRIME_ERROR = (f"{_BIG_CUT} is beyond the exact primality bound "
                    "318665857834031151167461")
OVERSIZED = [
    ("snf-5000-digit-entry", ["snf"],
     _snf_payload(1, 1, []).replace("[]", "[" + "1" * 5000 + "]"),
     "cannot read the JSON payload"),
    ("homology-100000-nested-arrays", ["homology"],
     _complex_payload([]).replace("[]", "[" * 100_000 + "]" * 100_000),
     "cannot read the JSON payload"),
    ("snf-answer-past-digit-cap", ["snf"], _snf_payload(2, 2, [_N, 3, 5, _N]),
     "answer too long: s has an entry of more than 4300 digits"),
    # A short payload whose transforms would be 513 x 513.
    ("snf-1x513", ["snf"], _snf_payload(1, 513, [0] * 513),
     "a matrix may have at most 512 rows and 512 columns, not 1x513\n"),
    ("snf-513x1", ["snf"], _snf_payload(513, 1, [0] * 513),
     "a matrix may have at most 512 rows and 512 columns, not 513x1\n"),
    ("homology-long-torsion", ["homology"], _complex_payload(_DIAG),
     "answer too long: homology has an entry of more than 4300 digits"),
    ("cover-long-torsion", ["cover", "--k", "0"], _complex_payload(_DIAG),
     "answer too long: homology has an entry of more than 4300 digits"),
    ("postnikov-long-torsion", ["postnikov", "--k", "1"],
     _complex_payload(_DIAG),
     "answer too long: result has an entry of more than 4300 digits"),
    ("triangle-check-long-torsion", ["triangle-check"], json.dumps({
        "map": {"source": _ID2, "target": _ID2,
                "components": {"0": {"rows": 2, "cols": 2,
                                     "data": [1, 0, 0, 1]}}},
        "candidate": _DIAG}),
     "answer too long: an invariant factor has more than 4300 digits"),
    ("hom-long-factor", ["hom", "--a", "Z", "--b", _LONG_GROUP], None,
     "--b has an invariant factor of more than 4300 digits"),
    ("ext-long-factor", ["ext", "--a", _LONG_GROUP, "--b", "Z"], None,
     "--a has an invariant factor of more than 4300 digits"),
    ("constraint-check-long-factor",
     ["constraint-check", "--b", "0", "--c", _LONG_GROUP, "--g", "Z"], None,
     "--c has an invariant factor of more than 4300 digits"),
    ("ring-obstruction-long-factor",
     ["ring-obstruction", f"--wedge=0:{_LONG_GROUP}"], None,
     "--wedge has an invariant factor of more than 4300 digits"),
    # Far over SUMMAND_CAP: refused before the group is canonicalized.
    ("hom-200-summands", ["hom", "--a", "+".join(["Z/2"] * 200),
                          "--b", "+".join(["Z/2"] * 200)], None,
     "a group may have at most 12 summands, not 200\n"),
    # One sample over SAMPLE_COUNT_CAP: the suites' work grows with it.
    ("closure-suite-501-samples",
     ["closure-suite", "--k", "0", "--samples", "501"], None,
     "--samples must be between 1 and 500\n"),
    ("tstructure-check-501-samples",
     ["tstructure-check", "--k", "0", "--samples", "501"], None,
     "--samples must be between 1 and 500\n"),
    # A map into the top degree: the error names the map's source, not the
    # cone's degree DEGREE_CAP + 1.
    ("triangle-check-source-at-degree-cap", ["triangle-check"], json.dumps({
        "map": {"source": {"ranks": {"64": 1}}, "target": {"ranks": {"64": 1}},
                "components": {"64": {"rows": 1, "cols": 1, "data": [1]}}},
        "candidate": {"ranks": {}}}),
     "the map's source reaches degree 64; its cone would leave the cap "
     "|n| <= 64\n"),
    # Texts too long to quote: the error quotes their first QUOTE_CAP
    # characters and names the option.
    ("ring-obstruction-5000-digit-order",
     ["ring-obstruction", "--wedge=0:Z/" + "9" * 5000], None,
     "--wedge: bad wedge summand '0:Z/" + "9" * 36 + "'... (5004 "
     "characters): an integer may have at most 4300 digits, not 5000 "
     "(at position 0)\n"),
    ("hom-20000-character-summand", ["hom", "--a", "X" * 20000, "--b", "Z"],
     None, "--a: unrecognized summand '" + "X" * 40 + "'... (20000 "
     "characters) (at position 0)\n"),
    # Option values that argparse rejects: it exits 2 itself.  The list
    # of choices is written differently from Python 3.13 on.
    ("hom-5000-digit-seed", ["hom", "--a", "Z", "--b", "Z", "--seed",
                             "9" * 5000], None,
     "argument --seed: invalid strict_int value: '" + "9" * 40 + "'... "
     "(5000 characters)\n"),
    ("em-cellularize-5000-character-mode",
     ["em-cellularize", "--mode", "X" * 5000], None,
     "argument --mode: invalid choice: '" + "X" * 40 + "'... (5000 "
     "characters) (choose from "),
    # An unknown command points to --help instead of listing all 16.
    ("bogus-command", ["bogus"], None,
     "argument command: invalid choice: 'bogus' (see cellkit --help)\n"),
    ("5000-character-command", ["Y" * 5000], None,
     "argument command: invalid choice: '" + "Y" * 40 + "'... (5000 "
     "characters) (see cellkit --help)\n"),
    # Integers of 4,299 digits where the schema wants a shape, a rank, a
    # degree, an exponent or a prime: the error writes their first
    # QUOTE_CAP digits and their number of digits.  The entry count of a
    # matrix with 4,299-digit sides has 8,598 digits, more than CPython
    # writes as text.
    ("snf-4299-digit-shape-without-data", ["snf"],
     _snf_payload(_BIG, _BIG, []),
     f"bad matrix payload: {_BIG_CUT}x{_BIG_CUT} matrix needs "
     "6049382716049382716049382716049382716049... (8598 digits) entries, "
     "got 0\n"),
    ("snf-negative-4299-digit-shape", ["snf"], _snf_payload(-_BIG, 1, []),
     f"bad matrix payload: negative shape -{_BIG_CUT}x1\n"),
    ("snf-4299-digit-rows-no-cols", ["snf"], _snf_payload(_BIG, 0, []),
     "a matrix may have at most 512 rows and 512 columns, not "
     f"{_BIG_CUT}x0\n"),
    ("homology-4299-digit-boundary-shape", ["homology"], _complex_payload({
        "ranks": {"0": 1, "1": 1},
        "boundaries": {"1": {"rows": _BIG, "cols": _BIG, "data": []}}}),
     f"bad complex payload: {_BIG_CUT}x{_BIG_CUT} matrix needs "),
    ("homology-4299-digit-boundary-degree", ["homology"], _complex_payload({
        "ranks": {"0": 1},
        "boundaries": {str(_BIG): {"rows": _BIG, "cols": 0, "data": []}}}),
     f"bad complex payload: boundary in degree {_BIG_CUT} has shape "
     f"{_BIG_CUT}x0, expected 0x0\n"),
    ("homology-4299-digit-rank", ["homology"],
     _complex_payload({"ranks": {"0": _BIG}}),
     f"bad complex payload: rank {_BIG_CUT} exceeds the cap 512\n"),
    ("homology-negative-4299-digit-rank", ["homology"],
     _complex_payload({"ranks": {"0": -_BIG}}),
     f"bad complex payload: negative rank -{_BIG_CUT} in degree 0\n"),
    ("homology-4299-digit-degree", ["homology"],
     _complex_payload({"ranks": {str(_BIG): 1}}),
     f"bad complex payload: degree {_BIG_CUT} outside the cap |n| <= 64\n"),
    ("triangle-check-4299-digit-component-degree", ["triangle-check"],
     json.dumps({"map": {"source": _ID2, "target": _ID2, "components": {
         str(_BIG): {"rows": 1, "cols": 1, "data": [1]}}},
         "candidate": _ID2}),
     f"bad chain map payload: component in degree {_BIG_CUT} has shape "
     "1x1, expected 0x0\n"),
    ("acyclization-4299-digit-p",
     ["acyclization", "--target", "HZpinf", "--outcome", "zero",
      "--p", str(_BIG)], None, _BIG_PRIME_ERROR + "\n"),
    ("acyclization-4299-digit-prime-set",
     ["acyclization", "--target", "HZ", "--outcome", "HZ_P",
      "--primes", str(_BIG)], None, _BIG_PRIME_ERROR + "\n"),
    ("acyclization-negative-4299-digit-p",
     ["acyclization", "--target", "HZpinf", "--outcome", "zero",
      f"--p=-{_BIG}"], None, f"-{_BIG_CUT} is not prime\n"),
    ("em-cellularize-4299-digit-p",
     ["em-cellularize", "--mode", "primary", "--m", "0", "--k", "1",
      "--n", "1", "--p", str(_BIG)], None, _BIG_PRIME_ERROR + "\n"),
    ("semiexact-demo-4299-digit-p", ["semiexact-demo", "--p", str(_BIG)],
     None, _BIG_PRIME_ERROR + "\n"),
    ("ring-obstruction-4299-digit-pruefer-prime",
     ["ring-obstruction", f"--wedge=0:Z/{_BIG}^inf"], None,
     "--wedge: bad wedge summand '0:Z/" + "7" * 36 + "'... (4307 "
     f"characters): {_BIG_PRIME_ERROR} (at position 0)\n"),
    ("acyclization-4299-digit-k",
     ["acyclization", "--target", "HZpk", "--outcome", "zero", "--p", "2",
      "--k", str(_BIG)], None,
     f"k = {_BIG_CUT} is too large: 2^{_BIG_CUT} has more than 4300 "
     "digits\n"),
    ("em-cellularize-4299-digit-r",
     ["em-cellularize", "--mode", "dichotomy", "--cellular", "--p", "2",
      "--r", str(_BIG)], None,
     f"r = {_BIG_CUT} is too large: the candidate orders 2^1 .. "
     f"2^{_BIG_CUT} have more than 4300 digits in all\n"),
    # Long values where the schema wants an integer or a schema name, and
    # a long --input path: the error cuts the text, or the JSON text of a
    # value that is not a string, as it cuts a long option value.
    ("snf-1000-character-entry", ["snf"], _snf_payload(1, 1, ["x" * 1000]),
     "bad matrix payload: expected an integer, got '" + "x" * 40 + "'... "
     "(1000 characters)\n"),
    ("homology-400-item-rank", ["homology"],
     _complex_payload({"ranks": {"0": list(range(400))}}),
     "bad complex payload: expected an integer, got [0, 1, 2, 3, 4, 5, 6, "
     "7, 8, 9, 10, 11, 1... (1890 characters)\n"),
    ("snf-1000-character-schema", ["snf"],
     json.dumps({"schema": "s" * 1000}),
     "unsupported schema '" + "s" * 40 + "'... (1000 characters); want "
     "'cellkit/1'\n"),
    ("snf-2000-character-input-path", ["snf", "--input", "p" * 2000], None,
     "cannot read payload from '" + "p" * 40 + "'... (2000 characters): "),
]


@pytest.mark.parametrize("argv, stdin, message",
                         [row[1:] for row in OVERSIZED],
                         ids=[row[0] for row in OVERSIZED])
def test_oversized_payload_exits_2(argv, stdin, message):
    _contract_run(argv, stdin, 20, message=message)


# 2^14284 has ORDER_DIGIT_CAP = 4300 digits and 2^14285 one more.
@pytest.mark.parametrize("argv, code, err", [
    (["acyclization", "--target", "HZpk", "--outcome", "zero", "--p", "2",
      "--k", "14284"], 0, ""),
    (["acyclization", "--target", "HZpk", "--outcome", "zero", "--p", "2",
      "--k", "14285"], 2,
     "error: k = 14285 is too large: 2^14285 has more than 4300 digits\n"),
    (["em-cellularize", "--mode", "primary", "--m", "0", "--k", "20000",
      "--n", "14284", "--p", "2"], 0, ""),
])
def test_order_digit_cap(capsys, argv, code, err):
    assert ORDER_DIGIT_CAP == len(str(2 ** 14284)) == 4300
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert (str(2 ** 14284) in captured.out) == (code == 0)


# The orders 2^1 .. 2^166 have 4,256 digits in all and 3^1 .. 3^132 have
# 4,254; one more exponent passes ORDER_DIGIT_CAP = 4300 in both.
@pytest.mark.parametrize("p, last", [(2, 166), (3, 132)])
def test_dichotomy_candidate_digit_cap(capsys, p, last):
    argv = ["em-cellularize", "--mode", "dichotomy", "--cellular",
            "--p", str(p), "--r"]
    assert sum(len(str(p ** j)) for j in range(1, last + 1)) <= \
        ORDER_DIGIT_CAP < sum(len(str(p ** j)) for j in range(1, last + 2))
    assert main(argv + [str(last)]) == 0
    report = json.loads(capsys.readouterr().out)
    candidates = report["result"]["constraints"]["c_candidates"]
    assert [c["torsion"] for c in candidates] == [
        [p ** j] for j in range(1, last + 1)]
    assert main(argv + [str(last + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: r = {last + 1} is too large: the candidate orders "
        f"{p}^1 .. {p}^{last + 1} have more than 4300 digits in all\n")


# Every order of the largest accepted groups has about 4,200 digits, and
# the chains are as long as the cap allows.
@pytest.mark.parametrize("command, flags", [("hom", "ab"), ("ext", "ab"),
                                            ("constraint-check", "bcg")])
def test_group_summand_cap(capsys, command, flags):
    def argv(n):
        g = "+".join(f"Z/{2 ** (14000 - i)}" for i in range(n))
        return [command] + [a for f in flags for a in (f"--{f}", g)]

    assert main(argv(SUMMAND_CAP)) == 0
    capsys.readouterr()
    assert main(argv(SUMMAND_CAP + 1)) == 2
    assert capsys.readouterr().err == (
        f"error: a group may have at most {SUMMAND_CAP} summands, "
        f"not {SUMMAND_CAP + 1}\n")


def test_dead_dichotomy_accepts_any_r(capsys):
    argv = ["em-cellularize", "--mode", "dichotomy", "--r", str(10 ** 30),
            "--p", "2"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["kind"] == "zero"


def _symbolic_corpus():
    """Command lines of em-cellularize, acyclization and ring-obstruction:
    every mode and target alias, with their input errors."""
    groups = ["0", "Z", "Z/8", "Z+Z/4", "Q", "Z/2^inf", "Zhat_3", "Qhat_5",
              "Z_(2,3)", "Z_(!2)", "Psum_(!2,3)", "Pzhat_(2)",
              "PzhatmodZ_(3,5)", "Z/frog"]
    em = ["em-cellularize", "--mode"]
    rows = [["em-cellularize"], em + ["shape"]]
    rows += [em + ["shape", "--n", n, "--group", g]
             for n in ("0", "-3") for g in groups]
    primary = {"m": "0", "k": "1", "n": "2", "p": "5"}
    for mknp in ((0, 1, 2, 5), (0, 3, 2, 7), (-2, 4, 4, 2), (3, 2, 5, 3),
                 (0, 0, 1, 2), (0, 1, 0, 2), (0, 1, 2, 4), (0, 1, 2, 1),
                 (0, 20000, 14285, 2)):
        rows.append(em + ["primary"] + [a for f, x in zip("mknp", mknp)
                                        for a in (f"--{f}", str(x))])
    for missing in "mknp":
        rows.append(em + ["primary"] + [a for f, x in primary.items()
                                        if f != missing
                                        for a in (f"--{f}", x)])
    for cellular in ([], ["--cellular"]):
        for r, p in (("1", "2"), ("2", "2"), ("3", "3"), ("1", "7"),
                     ("0", "2"), ("2", "4"), ("2", "1"), ("166", "2"),
                     ("167", "2")):
            rows.append(em + ["dichotomy", "--r", r, "--p", p] + cellular)
        rows.append(em + ["dichotomy", "--p", "2"] + cellular)
        rows.append(em + ["dichotomy", "--r", "2"] + cellular)
    acy = ["acyclization", "--target"]
    for target in ("HZ", "HZ/p^k", "HZpk", "HZ/p^inf", "HZpinf", "HX"):
        for outcome in ("zero", "HZ", "HZ_P", "ProdZpHat", "HZpk", "HZpinf",
                        "SigmaZpHat"):
            rows.append(acy + [target, "--outcome", outcome, "--primes",
                               "2,3", "--p", "3", "--k", "2"])
    rows += [acy + extra for extra in (
        ["HZ", "--outcome", "HZ_P", "--primes", "2,3", "--cofinite"],
        ["HZ", "--outcome", "HZ_P"],
        ["HZ", "--outcome", "HZ_P", "--cofinite"],
        ["HZ", "--outcome", "ProdZpHat"],
        ["HZ", "--outcome", "ProdZpHat", "--primes", "2", "--cofinite"],
        ["HZ", "--outcome", "HZ_P", "--primes", "2,x"],
        ["HZ", "--outcome", "HZ_P", "--primes", "4"],
        ["HZ", "--outcome", "zero", "--p", "4"],
        ["HZ", "--outcome", "HZ", "--primes", "4"],
        ["HX", "--outcome", "HZ_P", "--primes", "4"],
        ["HX", "--outcome", "bogus"],
        ["HZ", "--outcome", "bogus"],
        ["HZpk", "--outcome", "HZ_P", "--primes", "4", "--p", "2", "--k", "1"],
        ["HZ/p^k", "--outcome", "zero", "--p", "2"],
        ["HZ/p^k", "--outcome", "zero", "--k", "2"],
        ["HZ/p^k", "--outcome", "zero", "--p", "4", "--k", "2"],
        ["HZ/p^k", "--outcome", "zero", "--p", "2", "--k", "0"],
        ["HZ/p^k", "--outcome", "zero", "--p", "2", "--k", "14285"],
        ["HZ/p^inf", "--outcome", "zero"],
        ["HZ/p^inf", "--outcome", "SigmaZpHat", "--p", "4"],
    )]
    rows.append(["ring-obstruction"])
    rows += [["ring-obstruction", f"--wedge={w}"] for w in (
        "0:Z", "0:Z/8", "-1:Psum_(!2,3)", "0:Z; 1:Z/2", "-1:PzhatmodZ_(2,5)",
        "0:Q", "0:Z/2^inf", "2:Z; 2:Z/3", "", "0:0", "0:Zhat_2; -1:Qhat_3",
        "0:Z_(2); 1:Z/2^inf", "0:Z/frog", "x:Z", "0:Z/4; 0:Z/6")]
    return rows


def test_symbolic_command_bytes(capsys):
    # One sha256 over argv, exit code, stdout and stderr of every row.
    # Primary mode without --n reports the missing flag.
    digest = hashlib.sha256()
    for argv in _symbolic_corpus():
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest()[:16] == "b80547e82b29ae85"


@pytest.mark.parametrize("argv", [
    ["hom", "--a", "Z", "--b", "Z", "--seed", "1_0"],
    ["cover", "--k", "+1"],
    ["semiexact-demo", "--p", "\u0663"],
    ["tstructure-check", "--k", "0", "--samples", " 1"],
])
def test_bad_integer_option_exits_2(argv):
    _contract_run(argv, None, message=f"argument {argv[-2]}: invalid "
                  f"strict_int value: {argv[-1]!r}")


BAD_COMMAND_LINES = [
    (["hom", "--a", "Z", "--b", "Z", "--seed", "1_0"],
     "argument --seed: invalid strict_int value: '1_0'"),
    (["cover"], "the following arguments are required: --k"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
]


# Each id names the row and the option or command that its error names.
@pytest.mark.parametrize("argv, message", BAD_COMMAND_LINES,
                         ids=["argv0---seed", "argv1---k", "argv2-'bogus'"])
def test_bad_command_line_is_one_error_line(argv, message):
    _contract_run(argv, None, message=message)


def _cli_mix():
    """perfbench's cli_mix module, which writes the benchmark's queries."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "cli_mix.py")
    spec = importlib.util.spec_from_file_location("cli_mix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_command_parser_matches_the_full_parser(monkeypatch, tmp_path):
    # A query builds the parser of its own subcommand alone; every output
    # byte and exit code is what the parser of all sixteen gives.
    mix = _cli_mix()
    corpus = ([(["--help"], None), (["bogus"], None)]
              + [([name, "--help"], None) for name in COMMANDS] + BAD_INPUTS
              + [(argv, None) for argv, _ in BAD_COMMAND_LINES]
              + [(argv, None) for seed in range(6)
                 for argv in mix.write_queries(seed, str(tmp_path))])
    monkeypatch.setattr(cli_mod, "build_parser", lru_cache(maxsize=None)(
        cli_mod.build_parser.__wrapped__))
    one = [_captured(argv, stdin) for argv, stdin in corpus]
    full = cli_mod.build_parser.__wrapped__(None)
    monkeypatch.setattr(cli_mod, "build_parser", lambda command: full)
    assert [_captured(argv, stdin) for argv, stdin in corpus] == one
    assert one[0][0] == 0 and all(name in one[0][1] for name in COMMANDS)


def test_a_query_builds_its_own_parser_once(monkeypatch, capsys):
    built = []
    real = argparse._SubParsersAction.add_parser

    def add_parser(self, name, **kwargs):
        built.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
    monkeypatch.setattr(cli_mod, "build_parser", lru_cache(maxsize=None)(
        cli_mod.build_parser.__wrapped__))
    hom = ["hom", "--a", "Z/4", "--b", "Z/6"]
    assert main(hom) == 0 and built == ["hom"]
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built[1:] == list(COMMANDS)
    assert main(hom) == 0 and len(built) == 1 + len(COMMANDS)


def test_sampler_caps_are_accepted(capsys):
    # Seed 476 crossed DEGREE_CAP when --max-degree could reach it; seed
    # 459 samples up to degree SAMPLE_DEGREE_CAP itself, which closure-suite
    # then shifts by +2.
    rank_cap = cli_mod.SAMPLE_RANK_CAP
    for suite, seed, rank in (("tstructure-check", 0, rank_cap),
                              ("tstructure-check", 476, rank_cap),
                              ("closure-suite", 476, rank_cap),
                              ("tstructure-check", 459, 2),
                              ("closure-suite", 459, 2)):
        code = main([suite, "--k", "0", "--samples", "1", "--seed", str(seed),
                     "--max-rank", str(rank),
                     "--max-degree", str(cli_mod.SAMPLE_DEGREE_CAP)])
        assert code == 0 and json.loads(capsys.readouterr().out)["verdict"]


@pytest.mark.parametrize("suite", ["tstructure-check", "closure-suite"])
def test_sample_count_cap_is_accepted(capsys, suite):
    code = main([suite, "--k", "0", "--samples",
                 str(cli_mod.SAMPLE_COUNT_CAP), "--max-rank", "1",
                 "--max-degree", "1"])
    assert code == 0 and json.loads(capsys.readouterr().out)["verdict"]


def test_suite_k_range(capsys):
    # The ranges each suite accepted before --k was checked, written as
    # offsets from DEGREE_CAP.
    cap = cli_mod.DEGREE_CAP
    assert cli_mod.SUITE_K_RANGE == {
        "tstructure-check": (-cap, cap - 2),
        "closure-suite": (-cap + 3, cap - 1),
        "nontriangulated-suite": (-cap + 1, cap - 1),
    }
    for suite, (lo, hi) in cli_mod.SUITE_K_RANGE.items():
        sampled = [] if suite == "nontriangulated-suite" else [
            "--samples", "1", "--max-rank", "1", "--max-degree", "1"]
        for k in (lo, hi):
            code = main([suite, "--k", str(k)] + sampled)
            assert code == 0 and json.loads(capsys.readouterr().out)["verdict"]
        for k in (lo - 1, hi + 1):
            assert main([suite, "--k", str(k)] + sampled) == 2
            assert capsys.readouterr().err == (
                f"error: --k must be between {lo} and {hi}\n")


def test_unexpected_exception_exits_3(capsys, monkeypatch):

    def broken_handler(args):
        raise RuntimeError("boom")

    # The parser of hom is built and used before the patch.
    assert main(["hom", "--a", "Z", "--b", "Z"]) == 0
    monkeypatch.setattr(cli_mod, "_cmd_hom_ext", broken_handler)
    code = main(["hom", "--a", "Z", "--b", "Z"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: boom") and "Traceback" in err


def test_library_value_error_exits_3(capsys, monkeypatch):
    # Only an InputError is bad input; any other ValueError is a bug.

    def broken(m, k, n, p):
        raise ValueError("bug")

    cli_mod._bind(("emcell",))  # the handler's names, as a query binds them
    monkeypatch.setattr(cli_mod, "cell_primary_torsion", broken)
    code = main(["em-cellularize", "--mode", "primary", "--m", "0", "--k", "1",
                 "--n", "2", "--p", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: bug") and "Traceback" in err


@pytest.mark.parametrize("cls", [
    MatrixShapeError, SupportCapError, ChainComplexError, ChainMapError,
    GroupSyntaxError, InadmissibleCaseError, SizeBoundExceededError,
    PreconditionError])
def test_bad_input_errors_are_input_errors(cls):
    assert issubclass(cls, InputError)


@pytest.mark.parametrize("call, args", [
    (FgAbGroup, (-1,)),
    (FgAbGroup, (0, (1,))),
    (FgAbGroup, (0, (4, 6))),
    (FgAbGroup, (0, (1,) * 500)),
    # Writing 10^4400 + 1 as text would raise CPython's digit-limit error.
    (FgAbGroup, (0, (3, 10 ** 4400 + 1))),
    (chain_model, (EMObject([(0, SymbolicGroup.of(Q()))]),)),
    (p_valuation, (0, 2)),
    (primary_part, (0, [2])),
], ids=["negative-rank", "factor-1", "factors-4-6", "500-factors-1",
        "factors-3-4401-digits", "chain-model-of-Q", "valuation-of-0",
        "primary-part-of-0"])
def test_library_bad_data_is_input_error(call, args):
    with pytest.raises(InputError) as info:
        call(*args)
    assert len(str(info.value)) < 300


@pytest.mark.parametrize("data, part, stored", [
    # The negation of what the reduction builds (its place in what _reduce
    # returns): still unimodular, but u m v = -s.
    ([2, 4, 6, 8, 10, 3], "u",
     lambda m: -IntMatrix.from_rows(_reduce(m, True)[1])),
    ([2, 4, 6, 8, 10, 3], "v",
     lambda m: -IntMatrix.from_rows(_reduce(m, True)[2])),
    # u m v = s holds, as m has a zero second row, but det u = 2: only the
    # determinant check fails.
    ([1, 0, 0, 0], "u", lambda m: IntMatrix.from_rows([[1, 0], [0, 2]])),
], ids=["u-1", "v-2", "det-u"])
def test_snf_certificate_can_fail(capsys, monkeypatch, data, part, stored):
    form = _stored_transform(monkeypatch, data, part, stored)
    assert main(["snf"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "internal error: Smith decomposition failed to certify\n")


def _stored_transform(monkeypatch, data, part, stored):
    """Put the 2-row matrix m of ``data`` on stdin as a ``cellkit snf``
    payload, and return its Smith form with ``stored(m)`` as the transform
    ``part``, which the pass that builds the others keeps.  The table of
    forms is fresh, as an earlier case's form may linger; the caller keeps
    this one alive."""
    monkeypatch.setattr(matrices_mod, "_FORMS", weakref.WeakValueDictionary())
    m = IntMatrix(2, len(data) // 2, tuple(data))
    form = smith_normal_form(m)
    form.__dict__[part] = stored(m)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(_snf_payload(m.rows, m.cols, data)))
    return form


def _assert_snf_certificate(m, out):
    """u m v = s for the ``cellkit snf`` report ``out`` on m, with u and v
    unimodular by the library's check and by their determinants."""
    s, u, v = (IntMatrix.from_json(json.loads(out)[t]) for t in "suv")
    assert u @ m @ v == s
    assert is_unimodular(u) and is_unimodular(v)
    dets = bareiss_determinant(u), bareiss_determinant(v)
    assert abs(dets[0]) == abs(dets[1]) == 1, f"det u, det v = {dets}"


def test_snf_determinant_check_can_fail(capsys, monkeypatch):
    # The det-u case above with every is_unimodular answering True: the bad
    # u is printed, u m v = s holds, and only det u = 2 gives it away.
    form = _stored_transform(monkeypatch, [1, 0, 0, 0], "u",
                             lambda m: IntMatrix.from_rows([[1, 0], [0, 2]]))
    cli_mod._bind(("matrices",))  # the handler's names, as a query binds them
    monkeypatch.setattr(cli_mod, "is_unimodular", lambda m: True)
    monkeypatch.setitem(globals(), "is_unimodular", lambda m: True)
    assert main(["snf"]) == 0
    with pytest.raises(AssertionError, match=r"det u, det v = \(2, 1\)"):
        _assert_snf_certificate(form.matrix, capsys.readouterr().out)


# The Smith forms of a 3x4 matrix, of a 0x3 and a 3x0 matrix, whose u or v
# is 0x0 of determinant 1, and of a rank-deficient one.
@pytest.mark.parametrize("rows, cols, data", [
    (3, 4, [2, 4, 6, 8, 1, 3, 5, 7, 0, 2, 2, 4]), (0, 3, []), (3, 0, []),
    (2, 2, [1, 0, 0, 0])], ids=["3x4", "0x3", "3x0", "rank-1"])
def test_snf_transforms_have_unit_determinants(rows, cols, data):
    out = _contract_run(["snf"], _snf_payload(rows, cols, data))
    _assert_snf_certificate(IntMatrix(rows, cols, tuple(data)), out)


@pytest.mark.parametrize("rows, cols", [(1, 512), (512, 1)])
def test_snf_at_the_shape_cap(capsys, monkeypatch, rows, cols):
    code, out = run_cli(capsys, "snf", stdin=_snf_payload(rows, cols, [0] * 512),
                        monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["diagonal"] == [0]


class _Digits(str):
    """An integer literal written into a payload as it is: json.dumps
    refuses integers of more than 4,300 digits."""


def _dump(x) -> str:
    if isinstance(x, _Digits):
        return x
    if isinstance(x, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}"
                               for k, v in x.items()) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(_dump, x)) + "]"
    return json.dumps(x)


# What a payload may hold where the schema wants an integer: short leaves,
# and leaves whose text is too long to write whole into an error line.
_long_leaves = ("x" * 1000, list(range(400)), {"k" * 1000: 1})
_bad_leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
    st.none(), st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.sampled_from(_long_leaves))
# Integers of 4,299 to 4,301 digits: CPython reads at most 4,300.
_near_digit_cap = st.tuples(st.sampled_from(("", "-")),
                            st.integers(4299, 4301)).map(
    lambda t: _Digits(t[0] + "7" * t[1]))


@st.composite
def _snf_payloads(draw):
    """A payload of the matrix schema, small and dense, with at most one
    flaw: an entry, a dimension or the data replaced by an adversarial
    leaf, a negative or over-cap shape, a side near the digit cap, data of
    the wrong length, or an entry near the digit cap."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    data = draw(st.lists(st.integers(-9, 9) | st.integers(-2**70, 2**70),
                         min_size=rows * cols, max_size=rows * cols))
    flaw = draw(st.sampled_from((None, None, None, "entry", "digits", "rows",
                                 "cols", "data", "length", "cap", "huge")))
    spot = st.integers(0, max(len(data) - 1, 0))
    if flaw == "entry" and data:
        data[draw(spot)] = draw(_bad_leaves)
    elif flaw == "digits" and data:
        data[draw(spot)] = draw(_near_digit_cap)
    elif flaw == "rows":
        rows = draw(st.integers(-2, -1) | _bad_leaves)
    elif flaw == "cols":
        cols = draw(st.integers(-2, -1) | _bad_leaves)
    elif flaw == "data":
        data = draw(_bad_leaves)
    elif flaw == "length":
        data = data[1:] if data and draw(st.booleans()) else data + [0]
    elif flaw == "cap":
        rows, cols = draw(st.sampled_from(((513, 0), (0, 513), (513, 1),
                                           (1, 513))))
        data = [0] * (rows * cols + draw(st.integers(0, 1)))
    elif flaw == "huge":
        side = draw(_near_digit_cap)
        rows, cols = draw(st.sampled_from(((side, cols), (rows, side),
                                           (side, side))))
        data = draw(st.sampled_from(([], data)))
    return {"matrix": {"rows": rows, "cols": cols, "data": data}}


@settings(max_examples=200, deadline=None)
@given(_snf_payloads())
def test_snf_contract(payload):
    text = _dump(payload)
    out = _contract_run(["snf"], text)
    if out is not None:
        _assert_snf_certificate(
            IntMatrix.from_json(json.loads(text)["matrix"]), out)


# What a complex or map payload may hold where the schema wants an integer,
# a matrix or a table.
_odd_leaves = st.sampled_from((1.5, True, None, "1", 10 ** 50, [])
                              + _long_leaves)


@st.composite
def _boundary_payloads(draw, rows, cols):
    """A rows x cols matrix payload of small entries, zero or not, or one
    that is empty, of the wrong shape, of the wrong length or with a side
    near the digit cap and no entries."""
    kind = draw(st.sampled_from(("fit", "fit", "zero", "empty", "shape",
                                 "length", "huge")))
    if kind == "huge":
        side = draw(_near_digit_cap)
        rows, cols = draw(st.sampled_from(((side, 0), (0, side), (side, cols),
                                           (side, side))))
        return {"rows": rows, "cols": cols, "data": []}
    if kind == "empty":
        rows, cols = draw(st.sampled_from(((0, 0), (0, cols), (rows, 0))))
    elif kind == "shape":
        rows, cols = cols + 1, rows
    entries = st.just(0) if kind == "zero" else st.integers(-3, 3)
    data = draw(st.lists(entries, min_size=rows * cols,
                         max_size=rows * cols))
    if kind == "length":
        data.append(1)
    return {"rows": rows, "cols": cols, "data": data}


@st.composite
def _complex_payloads(draw):
    """A complex payload of at most four degrees and ranks up to 3, zeros
    included, near or outside the degree cap, whose boundaries may be
    missing, empty, mis-shaped or adversarial leaves, and whose ranks and
    degree keys may be adversarial or near the digit cap; a boundary
    follows none in the degree below, so most payloads have d o d = 0."""
    lo = draw(st.sampled_from((-DEGREE_CAP - 1, -DEGREE_CAP, -2, 0,
                               DEGREE_CAP - 2, DEGREE_CAP)))
    ranks = {n: draw(st.integers(0, 3))
             for n in range(lo, lo + draw(st.integers(0, 4)))}
    boundaries = {}
    for n in ranks:
        if n - 1 in ranks and n - 1 not in boundaries and draw(st.booleans()):
            boundaries[n] = draw(_boundary_payloads(ranks[n - 1], ranks[n]))
    payload = {"ranks": {str(n): r for n, r in ranks.items()},
               "boundaries": {str(n): d for n, d in boundaries.items()}}
    flaw = draw(st.sampled_from((None, None, None, "rank", "degree", "entry",
                                 "boundary", "table")))
    if flaw == "rank" and ranks:
        payload["ranks"][str(draw(st.sampled_from(sorted(ranks))))] = \
            draw(_odd_leaves | _near_digit_cap)
    elif flaw == "degree":
        key = st.sampled_from(("1.5", "x", "01", "+1")) | _near_digit_cap
        payload["ranks"][str(draw(key))] = 1
    elif flaw == "entry" and any(d["data"] for d in boundaries.values()):
        d = draw(st.sampled_from([d for d in boundaries.values()
                                  if d["data"]]))
        d["data"][draw(st.integers(0, len(d["data"]) - 1))] = \
            draw(_odd_leaves)
    elif flaw == "boundary" and boundaries:
        payload["boundaries"][str(draw(st.sampled_from(sorted(boundaries))))] \
            = draw(_odd_leaves)
    elif flaw == "table":
        payload[draw(st.sampled_from(("ranks", "boundaries")))] = \
            draw(_odd_leaves)
    return payload


@st.composite
def _map_payloads(draw):
    """A triangle-check payload: a map between two complex payloads, with
    no components (the zero map), the identity of a complex, or random
    components, now and then one more in a degree near the digit cap, and
    a candidate; now and then a part is missing."""
    source = draw(_complex_payloads())
    kind = draw(st.sampled_from(("zero", "identity", "random")))
    target = source if kind == "identity" else draw(_complex_payloads())
    components = {}
    ranks = [c["ranks"] if isinstance(c.get("ranks"), dict) else {}
             for c in (source, target)]
    if kind != "zero":
        for n in set(ranks[0]) | set(ranks[1]):
            rows, cols = (r.get(n) for r in (ranks[1], ranks[0]))
            if not (type(rows) is type(cols) is int and 0 <= rows <= 3
                    and 0 <= cols <= 3):
                continue
            if kind == "identity":
                data = [int(i == j) for i in range(rows) for j in range(cols)]
            else:
                data = draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                                     max_size=rows * cols))
            components[n] = {"rows": rows, "cols": cols, "data": data}
    if draw(st.integers(0, 7)) == 0:
        side = draw(st.integers(0, 1))
        components[str(draw(_near_digit_cap))] = {
            "rows": side, "cols": side, "data": [1] * side}
    payload = {"map": {"source": source, "target": target,
                       "components": components},
               "candidate": draw(_complex_payloads())}
    gone = draw(st.sampled_from((None, None, None, None, "map", "candidate")))
    if gone:
        del payload[gone]
    return payload


def _euler(ranks) -> int:
    """The Euler characteristic of ranks keyed by degree text."""
    return sum((-1) ** int(n) * r for n, r in ranks.items())


def _homology_euler(homology) -> int:
    return _euler({n: g["rank"] for n, g in homology.items()})


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.just(["homology"]), _complex_payloads()),
    st.tuples(st.builds(lambda name, k: [name, "--k", str(k)],
                        st.sampled_from(("cover", "postnikov")),
                        st.integers(-5, 5)),
              _complex_payloads()),
    st.tuples(st.just(["triangle-check"]), _map_payloads())),
    st.sampled_from((None,) * 7 + (0.0, 0.5, 0.9)))
def test_complex_command_contract(query, cut):
    argv, payload = query
    text = _dump(payload)
    if cut is not None:  # a text cut short is no JSON
        text = text[:int(len(text) * cut)]
    out = _contract_run(argv, text)
    if out is None:
        return
    r = json.loads(out)
    if argv[0] == "homology":
        assert _homology_euler(r["homology"]) == _euler(payload["ranks"])
    elif argv[0] == "triangle-check":
        report, f = r["report"], payload["map"]
        assert _homology_euler(report["cone_homology"]) == (
            _euler(f["target"]["ranks"]) - _euler(f["source"]["ranks"]))
        assert _homology_euler(report["candidate_homology"]) == _euler(
            payload["candidate"]["ranks"])
    else:
        assert _homology_euler(r["homology"]) == _euler(r["result"]["ranks"])


def _cellkit_env():
    src = os.path.dirname(os.path.dirname(cellkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_closed_stdout_keeps_exit_code(tmp_path):
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cellkit.cli", "nontriangulated-suite",
             "--k", "0"],
            stdout=subprocess.PIPE, stderr=err, env=_cellkit_env())
        proc.stdout.close()  # the reader is gone before the report is written
        code = proc.wait(timeout=120)
    assert code == 0
    assert err_path.read_text() == ""


def test_import_loads_no_sympy():
    probe = ("import sys, cellkit.cli; print(sorted(m for m in sys.modules "
             "if m == 'sympy' or m.startswith('sympy.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_cellkit_env(), timeout=120,
                         check=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_dataclasses():
    # Every query is a fresh process.  dataclasses loads inspect (and with
    # it ast, dis and tokenize), which took about 10 ms of each start, and
    # decorating the value classes about 14 ms more.  typing took about
    # 4 ms, and traceback, which loads linecache and tokenize, about 3 ms;
    # only the exit-3 path needs traceback.  -S keeps site hooks from
    # loading any of them.
    probe = ("import sys, cellkit.cli; print(sorted(m for m in "
             "('dataclasses', 'inspect', 'typing', 'traceback') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, env=_cellkit_env(),
                         timeout=120, check=True).stdout
    assert out.strip() == "[]"


def test_query_does_not_import_acceptance():
    probe = ("import sys, cellkit.cli; cellkit.cli.main(['hom', '--a', 'Z/4', "
             "'--b', 'Z/6']); print('cellkit.acceptance' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_cellkit_env(), timeout=120,
                         check=True).stdout
    assert out.strip().splitlines()[-1] == "False"


# The library modules of cellkit, without the package, the CLI itself and
# ``base``, which every module loads.
_LIBRARY = {f[:-3] for f in os.listdir(os.path.dirname(cellkit.__file__))
            if f.endswith(".py")} - {"__init__", "cli", "base"}
_HOM_MODULES = {"grammar", "groups", "symbolic"}
_CHAIN_NEVER = {"emcell", "sampling", "grammar", "acceptance"}
# A symbolic query runs no linear algebra.
_SYMBOLIC_NEVER = {"matrices", "complexes", "truncation", "sampling",
                   "acceptance"}
_SUITE_NEVER = {"emcell", "grammar", "acceptance"}
_ONE = _complex_payload({"ranks": {"0": 1}})
_ID_MAP = json.dumps({"map": {"source": {"ranks": {"0": 1}},
                              "target": {"ranks": {"0": 1}},
                              "components": {"0": {"rows": 1, "cols": 1,
                                                   "data": [1]}}},
                      "candidate": {"ranks": {}}})

# A query loads the modules its subcommand runs and no other: (argv,
# stdin, exit code, modules it loads, modules it must not load).  Each
# query is a fresh process, so every module it loads is compiled and run
# on its start, and a name its handler reads, on an error path too, is
# bound only if its subcommand record names the module.
QUERY_MODULES = [
    (["snf"], _snf_payload(1, 1, [2]), 0, {"matrices"},
     _LIBRARY - {"matrices"}),
    (["hom", "--a", "Z/4", "--b", "Z/6"], None, 0, _HOM_MODULES,
     _LIBRARY - _HOM_MODULES),
    (["hom", "--a", "Z/x", "--b", "Z"], None, 2, _HOM_MODULES,
     _LIBRARY - _HOM_MODULES),
    (["ext", "--a", "Z/4", "--b", "Z/6"], None, 0, _HOM_MODULES,
     _LIBRARY - _HOM_MODULES),
    (["homology"], _ONE, 0, {"complexes"},
     _CHAIN_NEVER | {"truncation", "symbolic"}),
    (["cover", "--k", "0"], _ONE, 0, {"complexes", "truncation"},
     _CHAIN_NEVER),
    (["postnikov", "--k", "1"], _ONE, 0, {"complexes", "truncation"},
     _CHAIN_NEVER),
    (["triangle-check"], _ID_MAP, 0, {"complexes"},
     _CHAIN_NEVER | {"truncation"}),
    (["tstructure-check", "--k", "0", "--samples", "2"], None, 0,
     {"sampling", "truncation"}, _SUITE_NEVER),
    (["closure-suite", "--k", "0", "--samples", "2"], None, 0,
     {"sampling", "truncation"}, _SUITE_NEVER),
    (["nontriangulated-suite", "--k", "0"], None, 0, {"truncation"},
     _SUITE_NEVER | {"sampling"}),
    (["em-cellularize", "--group", "Z/4"], None, 0, {"emcell", "grammar"},
     _SYMBOLIC_NEVER),
    (["em-cellularize", "--group", "Z/x"], None, 2, {"emcell", "grammar"},
     _SYMBOLIC_NEVER),
    (["acyclization", "--target", "HZ", "--outcome", "HZ_P", "--primes", "2"],
     None, 0, {"emcell"}, _SYMBOLIC_NEVER),
    (["constraint-check", "--b", "Z/2", "--c", "Z/4", "--g", "Z"], None, 0,
     {"emcell", "grammar"}, _SYMBOLIC_NEVER),
    (["ring-obstruction", "--wedge=0:Z"], None, 0, {"emcell", "grammar"},
     _SYMBOLIC_NEVER),
    (["semiexact-demo"], None, 0, {"emcell", "matrices", "complexes"},
     {"truncation", "sampling", "acceptance"}),
    (["acceptance"], None, 0, {"acceptance"}, set()),
]


@pytest.mark.parametrize("argv, stdin, exit_code, loads, never",
                         QUERY_MODULES, ids=[
                             " ".join(row[0]) for row in QUERY_MODULES])
def test_query_loads_only_its_modules(argv, stdin, exit_code, loads, never):
    # Imported as the console script imports it.
    probe = ("import io, sys; from cellkit.cli import main; "
             "sys.stdin = io.StringIO(sys.argv[1]); code = main(sys.argv[2:]); "
             "print(code, *sorted(m for m in sys.modules "
             "if m.startswith('cellkit.')))")
    run = subprocess.run([sys.executable, "-c", probe, stdin or "", *argv],
                         capture_output=True, text=True, env=_cellkit_env(),
                         timeout=120, check=True)
    code, *loaded = run.stdout.strip().splitlines()[-1].split()
    loaded = {m.partition(".")[2] for m in loaded} - {"cli"}
    assert int(code) == exit_code, run.stderr
    assert loads <= loaded and not loaded & never, loaded


def test_no_cellkit_module_compiles_a_regex():
    # A pattern costs about 0.1 ms to compile on each start.  The probe
    # names the module that called into re for each pattern compiled (or
    # looked up) while every cellkit module loads and a query runs.
    probe = ("import re, sys\n"
             "callers, real = set(), re._compile\n"
             "def spy(*args):\n"
             "    f = sys._getframe(1)\n"
             "    while f.f_globals['__name__'].split('.')[0] == 're':\n"
             "        f = f.f_back\n"
             "    callers.add(f.f_globals['__name__'])\n"
             "    return real(*args)\n"
             "re._compile = spy\n"
             "import cellkit, cellkit.cli\n"
             "for m in sorted(cellkit.__all__): getattr(cellkit, m)\n"
             "cellkit.cli.main(['hom', '--a', 'Z/4 + Q', '--b', 'Z/6'])\n"
             "print(sorted(m for m in callers if m.startswith('cellkit')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_cellkit_env(), timeout=120,
                         check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_import_cellkit_cli_loads_base_alone():
    probe = ("import sys, cellkit.cli; print(sorted(m for m in sys.modules "
             "if m.startswith('cellkit.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_cellkit_env(), timeout=120,
                         check=True).stdout
    assert out.strip() == "['cellkit.base', 'cellkit.cli']"


def test_import_cellkit_loads_no_module_and_resolves_every_name():
    probe = ("import sys, cellkit; print(sorted(m for m in sys.modules "
             "if m.startswith('cellkit.'))); "
             "print([n for n in cellkit.__all__ if not hasattr(cellkit, n)])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_cellkit_env(), timeout=120,
                         check=True).stdout
    assert out.splitlines() == ["[]", "[]"]
    assert cellkit.smith_normal_form is matrices_mod.smith_normal_form
    assert not hasattr(cellkit, "no_such_name")


@pytest.mark.parametrize("first", ["symbolic", "grammar"])
def test_symbolic_loads_grammar_in_either_order(first):
    # A group prints through grammar, and perfbench's tracer wraps grammar
    # in workers whose own code loads symbolic but never grammar, so
    # loading either module loads both.
    probe = (f"import sys, cellkit.{first}; "
             "from cellkit.symbolic import SymbolicGroup; "
             "print('cellkit.grammar' in sys.modules, "
             "SymbolicGroup(cellkit.groups.FgAbGroup.cyclic(4)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_cellkit_env(), timeout=120,
                         check=True).stdout
    assert out.strip() == "True Z/4"
