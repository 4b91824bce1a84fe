"""The acceptance suite: every check is exact integer arithmetic.

Each criterion is a standalone function returning a CriterionResult; the
CLI `acceptance` subcommand and the test suite both run them through
:func:`run_all`.  All randomness is drawn from seeded generators, so a
run is reproducible from its seed (default 0).
"""

from __future__ import annotations

import json
import random
from typing import Sequence

from .complexes import ChainComplex, derived_hom, em_complex, shift
from .emcell import (AcyclizationCase, CellExact, acyclization,
                     cell_primary_torsion, chain_homotopy_group, chain_model,
                     constraint_check, em_morphism_group, gem_closure_check,
                     ring_unit_obstruction)
from .groups import (FgAbGroup, Z, ZERO_GROUP, brute_force_hom_count, ext_fg,
                     hom_fg)
from .matrices import Frozen
from .sampling import random_complex_family, random_finite_group, sample_pairs
from .symbolic import PrimeSet
from .truncation import (cell_null_triangle, closure_suite,
                         nontriangulated_witness_suite, nullification_fiber,
                         suspension_noncommute_witness, tstructure_check)

FAMILY_SIZE = 500
CUTS = (-2, -1, 0, 1, 2)


class CriterionResult(Frozen):
    __slots__ = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


def _family(seed: int) -> list[ChainComplex]:
    rng = random.Random(seed)
    return random_complex_family(rng, FAMILY_SIZE, max_degrees=8, max_rank=6)


def criterion_em_morphism_identities(seed: int = 0) -> CriterionResult:
    """Morphism groups of single-piece objects match the Hom/Ext calculus,
    with Hom cross-validated against the enumeration oracle."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(200):
        b = random_finite_group(rng, 200)
        c = random_finite_group(rng, 200)
        eb, ec = em_complex(b, 0), em_complex(c, 0)
        if derived_hom(eb, ec, 0) != hom_fg(b, c):
            return CriterionResult("em-morphism-identities", False,
                                   f"Hom mismatch for {b}, {c}")
        if derived_hom(eb, shift(ec, 1), 0) != ext_fg(b, c):
            return CriterionResult("em-morphism-identities", False,
                                   f"Ext mismatch for {b}, {c}")
        if not derived_hom(shift(eb, 1), ec, 0).is_zero:
            return CriterionResult("em-morphism-identities", False,
                                   f"suspended source not zero for {b}, {c}")
        if (hom_fg(b, c).order or 0) != brute_force_hom_count(b, c):
            return CriterionResult("em-morphism-identities", False,
                                   f"oracle mismatch for {b}, {c}")
        checked += 1
    return CriterionResult("em-morphism-identities", True,
                           f"{checked} random pairs, Hom/Ext/vanishing + oracle")


def criterion_truncation_triangle(seed: int, family: Sequence[ChainComplex]
                                  ) -> CriterionResult:
    """Cover -> X -> section verifies, with the exact homotopy formulas."""
    checked = 0
    for x in family:
        for k in CUTS:
            if not cell_null_triangle(x, k):
                return CriterionResult("truncation-triangle", False,
                                       f"triangle failed at k={k} on {x}")
            checked += 1
    return CriterionResult("truncation-triangle", True,
                           f"{len(family)} complexes x {len(CUTS)} cuts "
                           f"({checked} triangles)")


def criterion_fiber_agreement(seed: int, family: Sequence[ChainComplex]
                              ) -> CriterionResult:
    """The fibre of the section projection is the cover, always."""
    checked = 0
    for x in family:
        for k in CUTS:
            _, agrees = nullification_fiber(x, k)
            if not agrees:
                return CriterionResult("fiber-agreement", False,
                                       f"disagreement at k={k} on {x}")
            checked += 1
    return CriterionResult("fiber-agreement", True,
                           f"{checked} fibre computations agree with covers")


def criterion_tstructure(seed: int, family: Sequence[ChainComplex]
                         ) -> CriterionResult:
    """All three axioms at every cut, plus exact heart detection."""
    pairs = sample_pairs(family, 100)
    for k in CUTS:
        report = tstructure_check(k, pairs)
        if not report["verdict"]:
            return CriterionResult("tstructure-axioms", False, f"failed at k={k}")
        if not any(h["object"] == "heart detection" and h["in_heart"]
                   for h in report["heart"]):
            return CriterionResult("tstructure-axioms", False,
                                   f"heart detection failed at k={k}")
    return CriterionResult("tstructure-axioms", True,
                           f"axioms hold at cuts {list(CUTS)} on {len(pairs)} pairs")


def criterion_noncommutation(seed: int, family: Sequence[ChainComplex]
                             ) -> CriterionResult:
    """Suspension witnesses fire whenever the obstruction group is nonzero,
    and the four negative witnesses all exhibit their failures."""
    witnesses = 0
    for x in family[:200]:
        for k in CUTS:
            if x.homology.at(k - 1).is_zero:
                continue
            if not suspension_noncommute_witness(x, k):
                return CriterionResult("noncommutation-witnesses", False,
                                       f"witness failed at k={k} on {x}")
            witnesses += 1
    for k in CUTS:
        suite = nontriangulated_witness_suite(k)
        if len(suite["checks"]) != 4 or not suite["ok"]:
            return CriterionResult("noncommutation-witnesses", False,
                                   f"negative suite incomplete at k={k}")
    return CriterionResult("noncommutation-witnesses", True,
                           f"{witnesses} suspension witnesses; 4 witness kinds "
                           f"at every cut")


def criterion_closure(seed: int, family: Sequence[ChainComplex]
                      ) -> CriterionResult:
    """Closure suite clean on the full family; the wrong-closure probe is
    flagged as failing."""
    report = closure_suite(family, 0, seed=seed)
    if not report["ok"]:
        names = [c["check"] for c in report["checks"]
                 if c["verdict"] != c["expected"]]
        return CriterionResult("closure-suite", False, f"counterexamples: {names}")
    probe = [c for c in report["checks"]
             if c["check"] == "section-class-closed-under-cofibres"]
    if not probe or probe[0]["verdict"] or probe[0]["expected"]:
        return CriterionResult("closure-suite", False, "probe not flagged")
    for k in (-2, -1, 1, 2):
        small = closure_suite(family[:60], k, seed=seed)
        if not small["ok"]:
            return CriterionResult("closure-suite", False, f"failed at k={k}")
    return CriterionResult("closure-suite", True,
                           f"{len(family)} samples clean at k=0; probe flagged; "
                           f"spot checks at other cuts clean")


# Expected JSON for the acyclization tables, in canonical compact form.
# Derived by hand from the case analysis: a trivial localization leaves
# the object, the identity localization leaves zero, localized integers
# leave the desuspended Pruefer sum at the complementary primes, p-adic
# products leave the desuspended product-mod-Z piece, and the suspended
# p-adic outcome for a Pruefer piece leaves the p-adic rationals.
ACYCLIZATION_GOLDEN: list[tuple[dict, str]] = [
    ({"target": "HZ", "outcome": "zero"},
     '[{"group":{"rank":1,"torsion":[]},"shift":0}]'),
    ({"target": "HZ", "outcome": "HZ"}, '[]'),
    ({"target": "HZ", "outcome": "HZ_P", "primes": [2, 3], "cofinite": False},
     '[{"group":{"atom":"PruferSum","primes":{"list":[2,3],"mode":"cofinite"}},"shift":-1}]'),
    ({"target": "HZ", "outcome": "HZ_P", "primes": [], "cofinite": False},
     '[{"group":{"atom":"PruferSum","primes":{"list":[],"mode":"cofinite"}},"shift":-1}]'),
    ({"target": "HZ", "outcome": "HZ_P", "primes": [2, 3], "cofinite": True},
     '[{"group":{"sum":[{"atom":"Prufer","p":2},{"atom":"Prufer","p":3}]},"shift":-1}]'),
    ({"target": "HZ", "outcome": "HZ_P", "primes": [], "cofinite": True}, '[]'),
    ({"target": "HZ", "outcome": "ProdZpHat", "primes": [2], "cofinite": False},
     '[{"group":{"atom":"ProdZpHatModZ","primes":{"list":[2],"mode":"finite"}},"shift":-1}]'),
    ({"target": "HZ", "outcome": "ProdZpHat", "primes": [2, 5], "cofinite": False},
     '[{"group":{"atom":"ProdZpHatModZ","primes":{"list":[2,5],"mode":"finite"}},"shift":-1}]'),
    ({"target": "HZpk", "outcome": "zero", "p": 2, "k": 3},
     '[{"group":{"rank":0,"torsion":[8]},"shift":0}]'),
    ({"target": "HZpk", "outcome": "HZpk", "p": 2, "k": 3}, '[]'),
    ({"target": "HZpk", "outcome": "zero", "p": 5, "k": 1},
     '[{"group":{"rank":0,"torsion":[5]},"shift":0}]'),
    ({"target": "HZpinf", "outcome": "zero", "p": 3},
     '[{"group":{"atom":"Prufer","p":3},"shift":0}]'),
    ({"target": "HZpinf", "outcome": "HZpinf", "p": 3}, '[]'),
    ({"target": "HZpinf", "outcome": "SigmaZpHat", "p": 3},
     '[{"group":{"atom":"QpHat","p":3},"shift":0}]'),
]

PRIMARY_TABLE = [(m, k, n, p)
                 for m in range(-3, 4)
                 for k in range(1, 6)
                 for n in range(1, 6)
                 for p in (2, 3, 5)]


def _case_from_args(args: dict) -> AcyclizationCase:
    primes = None
    if "primes" in args:
        primes = (PrimeSet.complement_of(args["primes"]) if args.get("cofinite")
                  else PrimeSet.of(args["primes"]))
    return AcyclizationCase(args["target"], args["outcome"], primes=primes,
                            p=args.get("p"), k=args.get("k"))


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def criterion_classification_tables(seed: int = 0) -> CriterionResult:
    """The p-primary table and the acyclization tables, byte for byte,
    with every exact output revalidated against its constraints."""
    for m, k, n, p in PRIMARY_TABLE:
        obj = cell_primary_torsion(m, k, n, p)
        expected = FgAbGroup.cyclic(p ** min(k, n))
        if obj.summands != ((m, obj.group_at(m)),) or obj.group_at(m).fg != expected:
            return CriterionResult("classification-tables", False,
                                   f"primary table wrong at {(m, k, n, p)}")
        # B (one slot down) is zero, C is the surviving group.
        if not constraint_check(ZERO_GROUP, expected, FgAbGroup.cyclic(p ** n)):
            return CriterionResult("classification-tables", False,
                                   f"constraints fail at {(m, k, n, p)}")
        if not gem_closure_check(CellExact(obj), f"Z/{p ** n}"):
            return CriterionResult("classification-tables", False,
                                   f"module closure fails at {(m, k, n, p)}")
    for case_args, want in ACYCLIZATION_GOLDEN:
        got = _canonical(acyclization(_case_from_args(case_args)).to_json())
        if got != want:
            return CriterionResult(
                "classification-tables", False,
                f"acyclization golden mismatch for {case_args}: {got} != {want}")
    # Involution consistency: zero outcome keeps the object, identity
    # outcome kills it, across all three targets.
    alive = [
        acyclization(AcyclizationCase("HZ", "zero")),
        acyclization(AcyclizationCase("HZpk", "zero", p=3, k=2)),
        acyclization(AcyclizationCase("HZpinf", "zero", p=2)),
    ]
    dead = [
        acyclization(AcyclizationCase("HZ", "HZ")),
        acyclization(AcyclizationCase("HZpk", "HZpk", p=3, k=2)),
        acyclization(AcyclizationCase("HZpinf", "HZpinf", p=2)),
    ]
    if any(x.is_zero for x in alive) or not all(x.is_zero for x in dead):
        return CriterionResult("classification-tables", False,
                               "involution consistency broken")
    return CriterionResult("classification-tables", True,
                           f"{len(PRIMARY_TABLE)} p-primary cases; "
                           f"{len(ACYCLIZATION_GOLDEN)} golden outputs byte-equal")


def criterion_ring_obstruction(seed: int = 0) -> CriterionResult:
    """No unit after acyclization by a nontrivial localization; honest
    units survive on the untouched objects."""
    rng = random.Random(seed)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for i in range(10):
        chosen = rng.sample(pool, rng.randint(0, 3))
        case = AcyclizationCase("HZ", "HZ_P", primes=PrimeSet.of(chosen))
        obj = acyclization(case)
        if not ring_unit_obstruction(obj):
            return CriterionResult("ring-obstruction", False,
                                   f"no obstruction for P={chosen}")
    from .emcell import EMObject
    negatives = [
        EMObject.of([(0, Z)]),
        EMObject.of([(0, FgAbGroup.cyclic(8))]),
        EMObject.zero(),
    ]
    for obj in negatives:
        if ring_unit_obstruction(obj):
            return CriterionResult("ring-obstruction", False,
                                   f"false positive on {obj}")
    return CriterionResult("ring-obstruction", True,
                           "10 localized cases obstructed; integral, mod p^k "
                           "and zero objects clean")


def criterion_chain_agreement(seed: int = 0) -> CriterionResult:
    """Symbolic answers match derived morphism groups over chain models."""
    for m, k, n, p in PRIMARY_TABLE:
        obj = cell_primary_torsion(m, k, n, p)
        model = chain_model(obj)
        for degree in (m, m - 1):
            symbolic = obj.group_at(degree).fg
            chain = chain_homotopy_group(model, degree)
            if symbolic != chain:
                return CriterionResult(
                    "symbolic-chain-agreement", False,
                    f"mismatch at {(m, k, n, p)} degree {degree}: "
                    f"{symbolic} != {chain}")
    # The morphism-group vanishing pattern agrees between the layers too.
    rng = random.Random(seed)
    for _ in range(50):
        b = random_finite_group(rng, 60)
        g = random_finite_group(rng, 60)
        nn = rng.randint(-2, 2)
        for i in range(nn - 3, nn + 3):
            symbolic = em_morphism_group(i, b, nn, g)
            chain = derived_hom(em_complex(b, i), em_complex(g, nn), 0)
            if symbolic.fg != chain:
                return CriterionResult("symbolic-chain-agreement", False,
                                       f"morphism mismatch i={i}, n={nn}")
    return CriterionResult("symbolic-chain-agreement", True,
                           f"{len(PRIMARY_TABLE)} table cases + 300 morphism "
                           f"groups agree across layers")


def run_all(seed: int = 0) -> list[CriterionResult]:
    family = _family(seed)
    return [
        criterion_em_morphism_identities(seed),
        criterion_truncation_triangle(seed, family),
        criterion_fiber_agreement(seed, family),
        criterion_tstructure(seed, family),
        criterion_noncommutation(seed, family),
        criterion_closure(seed, family),
        criterion_classification_tables(seed),
        criterion_ring_obstruction(seed),
        criterion_chain_agreement(seed),
    ]
