"""cellkit: exact cellularization and nullification calculus.

Two executable models of the same functor pair:

* integer chain complexes, where the connective cover and the Postnikov
  section are computed by exact Smith-normal-form linear algebra, and
* a symbolic calculus of wedges of single-homotopy-group objects, where
  the classification tables for cellularizing integral, mod p^k and
  Pruefer pieces are reproduced and cross-checked against the chain model.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.  Importing the package
# loads no module: a name is loaded on first access, so that a ``cellkit``
# query loads only the modules its subcommand runs.
_EXPORTS = {name: module for module, names in {
    "complexes": "ChainComplex ChainMap GradedGroup cone coproduct "
                 "derived_hom em_complex fiber quasi_iso_eq shift "
                 "triangle_check",
    "emcell": "EMObject acyclization cell_primary_torsion cell_shape "
              "constraint_check em_morphism_group gem_closure_check "
              "hzp_dichotomy ring_unit_obstruction semiexact_counterexample",
    "grammar": "format_group parse_group",
    "groups": "FgAbGroup brute_force_hom_count cokernel ext_fg hom_fg",
    "matrices": "IntMatrix SmithNormalForm kernel_basis smith_normal_form "
                "solve",
    "symbolic": "UNKNOWN PrimeSet SymbolicGroup ext_rule hom_rule "
                "is_divisible is_unknown",
    "truncation": "cell_null_triangle closure_suite connective_cover "
                  "nontriangulated_witness_suite nullification_fiber "
                  "postnikov suspension_noncommute_witness tstructure_check",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
