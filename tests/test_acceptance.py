"""Acceptance gate: one test per criterion, one pass/fail line each.

Every check is exact (integer arithmetic, tolerance zero).  The shared
sample family is generated once per session from seed 0.
"""

import random

import pytest

from cellkit import acceptance
from cellkit.complexes import em_complex
from cellkit.emcell import EMObject, cell_primary_torsion
from cellkit.groups import ZERO_GROUP, FgAbGroup, Z
from cellkit.sampling import random_finite_group

SEED = 0


@pytest.fixture(scope="module")
def family():
    return acceptance._family(SEED)


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE [{status}] {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_1_em_morphism_identities():
    _report(acceptance.criterion_em_morphism_identities(SEED))


def test_criterion_2_truncation_triangle(family):
    _report(acceptance.criterion_truncation_triangle(family))


def test_criterion_3_fiber_agreement(family):
    _report(acceptance.criterion_fiber_agreement(family))


def test_criterion_4_tstructure_axioms(family):
    _report(acceptance.criterion_tstructure(family))


def test_criterion_5_noncommutation_witnesses(family):
    _report(acceptance.criterion_noncommutation(family))


def test_criterion_6_closure_suite(family):
    _report(acceptance.criterion_closure(family))


def test_criterion_7_classification_tables():
    _report(acceptance.criterion_classification_tables())


def test_criterion_8_ring_obstruction():
    _report(acceptance.criterion_ring_obstruction(SEED))


def test_criterion_9_symbolic_chain_agreement():
    _report(acceptance.criterion_chain_agreement(SEED))


# -- failure paths -----------------------------------------------------------
# Each test breaks one dependency of a criterion, through the module global
# that the criterion calls, so that its first check fails; the result must
# name the criterion and describe the first witness.

SMALL = [em_complex(FgAbGroup.cyclic(2), -3), em_complex(Z, 1)]


def _failed(result, name, detail):
    assert (result.passed, result.name, result.detail) == (False, name, detail)


def test_em_morphism_identities_reports_a_hom_mismatch(monkeypatch):
    monkeypatch.setattr(acceptance, "hom_fg", lambda b, c: None)
    rng = random.Random(SEED)
    b, c = random_finite_group(rng, 200), random_finite_group(rng, 200)
    _failed(acceptance.criterion_em_morphism_identities(SEED),
            "em-morphism-identities", f"Hom mismatch for {b}, {c}")


def test_truncation_triangle_reports_the_failed_cut(monkeypatch):
    monkeypatch.setattr(acceptance, "cell_null_triangle", lambda x, k: False)
    _failed(acceptance.criterion_truncation_triangle(SMALL),
            "truncation-triangle", f"triangle failed at k=-2 on {SMALL[0]}")


def test_fiber_agreement_reports_the_disagreement(monkeypatch):
    monkeypatch.setattr(acceptance, "nullification_fiber",
                        lambda x, k: (x, False))
    _failed(acceptance.criterion_fiber_agreement(SMALL),
            "fiber-agreement", f"disagreement at k=-2 on {SMALL[0]}")


def test_tstructure_reports_the_failed_cut(monkeypatch):
    monkeypatch.setattr(acceptance, "tstructure_check",
                        lambda k, pairs: {"verdict": False, "heart": []})
    _failed(acceptance.criterion_tstructure(SMALL),
            "tstructure-axioms", "failed at k=-2")


def test_noncommutation_reports_the_failed_witness(monkeypatch):
    monkeypatch.setattr(acceptance, "suspension_noncommute_witness",
                        lambda x, k: False)
    # H_{-3} of SMALL[0] is Z/2, so the cut k = -2 is the first checked.
    _failed(acceptance.criterion_noncommutation(SMALL),
            "noncommutation-witnesses", f"witness failed at k=-2 on {SMALL[0]}")


def test_noncommutation_reports_an_incomplete_negative_suite(monkeypatch):
    monkeypatch.setattr(acceptance, "nontriangulated_witness_suite",
                        lambda k: {"checks": [], "ok": False})
    _failed(acceptance.criterion_noncommutation([]),
            "noncommutation-witnesses", "negative suite incomplete at k=-2")


def test_closure_reports_the_counterexamples(monkeypatch):
    checks = [{"check": "kept", "verdict": True, "expected": True},
              {"check": "broken", "verdict": True, "expected": False}]
    monkeypatch.setattr(acceptance, "closure_suite",
                        lambda family, k: {"ok": False, "checks": checks})
    _failed(acceptance.criterion_closure(SMALL),
            "closure-suite", "counterexamples: ['broken']")


def test_classification_tables_report_the_first_wrong_case(monkeypatch):
    monkeypatch.setattr(acceptance, "cell_primary_torsion",
                        lambda m, k, n, p: EMObject())
    _failed(acceptance.criterion_classification_tables(),
            "classification-tables",
            f"primary table wrong at {acceptance.PRIMARY_TABLE[0]}")


def test_ring_obstruction_reports_the_unobstructed_localization(monkeypatch):
    monkeypatch.setattr(acceptance, "ring_unit_obstruction", lambda obj: False)
    rng = random.Random(SEED)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    chosen = rng.sample(pool, rng.randint(0, 3))
    _failed(acceptance.criterion_ring_obstruction(SEED),
            "ring-obstruction", f"no obstruction for P={chosen}")


def test_chain_agreement_reports_the_first_mismatch(monkeypatch):
    monkeypatch.setattr(acceptance, "chain_homotopy_group",
                        lambda model, degree: ZERO_GROUP)
    case = m, k, n, p = acceptance.PRIMARY_TABLE[0]
    symbolic = cell_primary_torsion(m, k, n, p).group_at(m).fg
    _failed(acceptance.criterion_chain_agreement(SEED),
            "symbolic-chain-agreement",
            f"mismatch at {case} degree {m}: {symbolic} != 0")
