"""The acceptance suite: every check is exact integer arithmetic.

Each criterion is a check under :func:`_criterion`, which names it and
makes its CriterionResult; the CLI `acceptance` subcommand and the test
suite both run them through :func:`run_all`.  All randomness is drawn
from seeded generators, so a run is reproducible from its seed (default 0).
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from functools import wraps

from .complexes import ChainComplex, derived_hom, em_complex, shift
from .emcell import (EMObject, acyclization, cell_primary_torsion,
                     chain_homotopy_group, chain_model, constraint_check,
                     em_morphism_group, gem_closure_check,
                     ring_unit_obstruction)
from .groups import (FgAbGroup, Z, ZERO_GROUP, brute_force_hom_count, ext_fg,
                     hom_fg)
from .base import Frozen
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


class _Failed(Exception):
    """A witness against a criterion; its message is the failure detail."""


def _criterion(name: str):
    """Make a check function, which returns its pass detail or raises
    _Failed, into the criterion ``name`` returning a CriterionResult."""
    def decorate(check):
        @wraps(check)
        def criterion(*args) -> CriterionResult:
            try:
                passed, detail = True, check(*args)
            except _Failed as witness:
                passed, detail = False, str(witness)
            return CriterionResult(name, passed, detail)
        return criterion
    return decorate


def _family(seed: int) -> list[ChainComplex]:
    rng = random.Random(seed)
    return random_complex_family(rng, FAMILY_SIZE, max_degrees=8, max_rank=6)


@_criterion("em-morphism-identities")
def criterion_em_morphism_identities(seed: int = 0) -> str:
    """Morphism groups of single-piece objects match the Hom/Ext calculus,
    with Hom cross-validated against the enumeration oracle."""
    rng = random.Random(seed)
    for _ in range(200):
        b, c = random_finite_group(rng, 200), random_finite_group(rng, 200)
        eb, ec = em_complex(b, 0), em_complex(c, 0)
        if derived_hom(eb, ec, 0) != hom_fg(b, c):
            raise _Failed(f"Hom mismatch for {b}, {c}")
        if derived_hom(eb, shift(ec, 1), 0) != ext_fg(b, c):
            raise _Failed(f"Ext mismatch for {b}, {c}")
        if not derived_hom(shift(eb, 1), ec, 0).is_zero:
            raise _Failed(f"suspended source not zero for {b}, {c}")
        if (hom_fg(b, c).order or 0) != brute_force_hom_count(b, c):
            raise _Failed(f"oracle mismatch for {b}, {c}")
    return "200 random pairs, Hom/Ext/vanishing + oracle"


@_criterion("truncation-triangle")
def criterion_truncation_triangle(family: Sequence[ChainComplex]) -> str:
    """Cover -> X -> section verifies, with the exact homotopy formulas."""
    for x in family:
        for k in CUTS:
            if not cell_null_triangle(x, k):
                raise _Failed(f"triangle failed at k={k} on {x}")
    return (f"{len(family)} complexes x {len(CUTS)} cuts "
            f"({len(family) * len(CUTS)} triangles)")


@_criterion("fiber-agreement")
def criterion_fiber_agreement(family: Sequence[ChainComplex]) -> str:
    """The fibre of the section projection is the cover, always."""
    for x in family:
        for k in CUTS:
            _, agrees = nullification_fiber(x, k)
            if not agrees:
                raise _Failed(f"disagreement at k={k} on {x}")
    return f"{len(family) * len(CUTS)} fibre computations agree with covers"


@_criterion("tstructure-axioms")
def criterion_tstructure(family: Sequence[ChainComplex]) -> str:
    """All three axioms at every cut, plus exact heart detection."""
    pairs = sample_pairs(family, 100)
    for k in CUTS:
        report = tstructure_check(k, pairs)
        if not report["verdict"]:
            raise _Failed(f"failed at k={k}")
        if not any(h["object"] == "heart detection" and h["in_heart"]
                   for h in report["heart"]):
            raise _Failed(f"heart detection failed at k={k}")
    return f"axioms hold at cuts {list(CUTS)} on {len(pairs)} pairs"


@_criterion("noncommutation-witnesses")
def criterion_noncommutation(family: Sequence[ChainComplex]) -> str:
    """Suspension witnesses fire whenever the obstruction group is nonzero,
    and the four negative witnesses all exhibit their failures."""
    witnesses = 0
    for x in family[:200]:
        for k in CUTS:
            if x.homology.at(k - 1).is_zero:
                continue
            if not suspension_noncommute_witness(x, k):
                raise _Failed(f"witness failed at k={k} on {x}")
            witnesses += 1
    for k in CUTS:
        if not nontriangulated_witness_suite(k)["ok"]:
            raise _Failed(f"negative suite incomplete at k={k}")
    return f"{witnesses} suspension witnesses; 4 witness kinds at every cut"


@_criterion("closure-suite")
def criterion_closure(family: Sequence[ChainComplex]) -> str:
    """Closure suite clean on the full family, where it is ok only with
    the wrong-closure probe flagged as failing."""
    report = closure_suite(family, 0)
    if not report["ok"]:
        names = [c["check"] for c in report["checks"]
                 if c["verdict"] != c["expected"]]
        raise _Failed(f"counterexamples: {names}")
    for k in (-2, -1, 1, 2):
        if not closure_suite(family[:60], k)["ok"]:
            raise _Failed(f"failed at k={k}")
    return (f"{len(family)} samples clean at k=0; probe flagged; "
            f"spot checks at other cuts clean")


# Arguments of acyclization and the JSON expected of its answer, in
# canonical compact form.  Derived by hand from the case analysis: a
# trivial localization leaves the object, the identity localization leaves
# zero, localized integers leave the desuspended Pruefer sum at the
# complementary primes, p-adic products leave the desuspended
# product-mod-Z piece, and the suspended p-adic outcome for a Pruefer
# piece leaves the p-adic rationals.
ACYCLIZATION_GOLDEN: list[tuple[dict, str]] = [
    ({"target": "HZ", "outcome": "zero"},
     '[{"group":{"rank":1,"torsion":[]},"shift":0}]'),
    ({"target": "HZ", "outcome": "HZ"}, '[]'),
    ({"target": "HZ", "outcome": "HZ_P", "primes": PrimeSet.of([2, 3])},
     '[{"group":{"atom":"PruferSum","primes":{"list":[2,3],"mode":"cofinite"}},"shift":-1}]'),
    ({"target": "HZ", "outcome": "HZ_P", "primes": PrimeSet.of([])},
     '[{"group":{"atom":"PruferSum","primes":{"list":[],"mode":"cofinite"}},"shift":-1}]'),
    ({"target": "HZ", "outcome": "HZ_P", "primes": PrimeSet.complement_of([2, 3])},
     '[{"group":{"sum":[{"atom":"Prufer","p":2},{"atom":"Prufer","p":3}]},"shift":-1}]'),
    ({"target": "HZ", "outcome": "HZ_P", "primes": PrimeSet.complement_of([])}, '[]'),
    ({"target": "HZ", "outcome": "ProdZpHat", "primes": PrimeSet.of([2])},
     '[{"group":{"atom":"ProdZpHatModZ","primes":{"list":[2],"mode":"finite"}},"shift":-1}]'),
    ({"target": "HZ", "outcome": "ProdZpHat", "primes": PrimeSet.of([2, 5])},
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


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@_criterion("classification-tables")
def criterion_classification_tables() -> str:
    """The p-primary table and the acyclization tables, byte for byte,
    with every exact output revalidated against its constraints."""
    for m, k, n, p in PRIMARY_TABLE:
        obj = cell_primary_torsion(m, k, n, p)
        expected = FgAbGroup.cyclic(p ** min(k, n))
        if obj.summands != ((m, obj.group_at(m)),) or obj.group_at(m).fg != expected:
            raise _Failed(f"primary table wrong at {(m, k, n, p)}")
        # B (one slot down) is zero, C is the surviving group.
        if not constraint_check(ZERO_GROUP, expected, FgAbGroup.cyclic(p ** n)):
            raise _Failed(f"constraints fail at {(m, k, n, p)}")
        if not gem_closure_check(obj, f"Z/{p ** n}"):
            raise _Failed(f"module closure fails at {(m, k, n, p)}")
    for case_args, want in ACYCLIZATION_GOLDEN:
        got = _canonical(acyclization(**case_args).to_json())
        if got != want:
            raise _Failed(f"acyclization golden mismatch for {case_args}: "
                          f"{got} != {want}")
    # Involution consistency: zero outcome keeps the object, identity
    # outcome kills it, across all three targets.
    alive = [acyclization("HZ", "zero"),
             acyclization("HZpk", "zero", p=3, k=2),
             acyclization("HZpinf", "zero", p=2)]
    dead = [acyclization("HZ", "HZ"), acyclization("HZpk", "HZpk", p=3, k=2),
            acyclization("HZpinf", "HZpinf", p=2)]
    if any(x.is_zero for x in alive) or not all(x.is_zero for x in dead):
        raise _Failed("involution consistency broken")
    return (f"{len(PRIMARY_TABLE)} p-primary cases; "
            f"{len(ACYCLIZATION_GOLDEN)} golden outputs byte-equal")


@_criterion("ring-obstruction")
def criterion_ring_obstruction(seed: int = 0) -> str:
    """No unit after acyclization by a nontrivial localization; honest
    units survive on the untouched objects."""
    rng = random.Random(seed)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(10):
        chosen = rng.sample(pool, rng.randint(0, 3))
        obj = acyclization("HZ", "HZ_P", PrimeSet.of(chosen))
        if not ring_unit_obstruction(obj):
            raise _Failed(f"no obstruction for P={chosen}")
    negatives = [
        EMObject([(0, Z)]),
        EMObject([(0, FgAbGroup.cyclic(8))]),
        EMObject(),
    ]
    for obj in negatives:
        if ring_unit_obstruction(obj):
            raise _Failed(f"false positive on {obj}")
    return ("10 localized cases obstructed; integral, mod p^k and zero "
            "objects clean")


@_criterion("symbolic-chain-agreement")
def criterion_chain_agreement(seed: int = 0) -> str:
    """Symbolic answers match derived morphism groups over chain models."""
    for m, k, n, p in PRIMARY_TABLE:
        obj = cell_primary_torsion(m, k, n, p)
        model = chain_model(obj)
        for degree in (m, m - 1):
            symbolic = obj.group_at(degree).fg
            chain = chain_homotopy_group(model, degree)
            if symbolic != chain:
                raise _Failed(f"mismatch at {(m, k, n, p)} degree {degree}: "
                              f"{symbolic} != {chain}")
    # The morphism-group vanishing pattern agrees between the layers too.
    rng = random.Random(seed)
    for _ in range(50):
        b, g = random_finite_group(rng, 60), random_finite_group(rng, 60)
        nn = rng.randint(-2, 2)
        for i in range(nn - 3, nn + 3):
            symbolic = em_morphism_group(i, b, nn, g)
            chain = derived_hom(em_complex(b, i), em_complex(g, nn), 0)
            if symbolic.fg != chain:
                raise _Failed(f"morphism mismatch i={i}, n={nn}")
    return (f"{len(PRIMARY_TABLE)} table cases + 300 morphism groups agree "
            f"across layers")


def run_all(seed: int = 0) -> list[CriterionResult]:
    family = _family(seed)
    return [
        criterion_em_morphism_identities(seed),
        criterion_truncation_triangle(family),
        criterion_fiber_agreement(family),
        criterion_tstructure(family),
        criterion_noncommutation(family),
        criterion_closure(family),
        criterion_classification_tables(),
        criterion_ring_obstruction(seed),
        criterion_chain_agreement(seed),
    ]
