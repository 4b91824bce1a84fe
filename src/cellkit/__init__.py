"""cellkit: exact cellularization and nullification calculus.

Two executable models of the same functor pair:

* integer chain complexes, where the connective cover and the Postnikov
  section are computed by exact Smith-normal-form linear algebra, and
* a symbolic calculus of wedges of single-homotopy-group objects, where
  the classification tables for cellularizing integral, mod p^k and
  Pruefer pieces are reproduced and cross-checked against the chain model.
"""

from .complexes import (ChainComplex, ChainMap, GradedGroup, cone,
                        coproduct, derived_hom, em_complex, fiber,
                        quasi_iso_eq, shift, triangle_check)
from .emcell import (EMObject, acyclization, cell_primary_torsion,
                     cell_shape, constraint_check, em_morphism_group,
                     gem_closure_check, hzp_dichotomy, ring_unit_obstruction,
                     semiexact_counterexample)
from .grammar import format_group, parse_group
from .groups import (FgAbGroup, brute_force_hom_count, cokernel, ext_fg,
                     hom_fg)
from .matrices import IntMatrix, kernel_basis, smith_normal_form, solve
from .symbolic import (UNKNOWN, PrimeSet, SymbolicGroup, ext_rule, hom_rule,
                       is_divisible, is_unknown)
from .truncation import (cell_null_triangle, closure_suite, connective_cover,
                         nontriangulated_witness_suite, nullification_fiber,
                         postnikov, suspension_noncommute_witness,
                         tstructure_check)

__version__ = "0.1.0"

__all__ = [
    "ChainComplex", "ChainMap", "EMObject", "FgAbGroup", "GradedGroup",
    "IntMatrix", "PrimeSet", "SymbolicGroup", "UNKNOWN", "acyclization",
    "brute_force_hom_count", "cell_null_triangle", "cell_primary_torsion",
    "cell_shape", "closure_suite", "cokernel", "cone", "connective_cover",
    "constraint_check", "coproduct", "derived_hom", "em_complex",
    "em_morphism_group", "ext_fg", "ext_rule", "fiber", "format_group",
    "gem_closure_check", "hom_fg", "hom_rule", "hzp_dichotomy", "is_divisible",
    "is_unknown", "kernel_basis", "nontriangulated_witness_suite",
    "nullification_fiber", "parse_group", "postnikov", "quasi_iso_eq",
    "ring_unit_obstruction", "semiexact_counterexample", "shift",
    "smith_normal_form", "solve", "suspension_noncommute_witness",
    "triangle_check", "tstructure_check",
]
