"""Exact combinatorics of extended promotion on finite poset labelings.

The package computes sorting times and tangled labelings exactly: exhaustive
enumeration engines, closed-form counts for structured families, generating
function composition rules, and an isomorphism-free catalog harness for
checking the outstanding bound conjectures.  Each public name loads on first
use, importing only the submodule that defines it.
"""

from importlib import import_module

_EXPORTS = {  # each submodule and the public names it defines
    "enumeration": "BudgetError GenFun SequenceShape TangleReport sequence_shape sorting_gf "
                   "tangled_report",
    "families": "FiberError ForestError InflationSpec ShoelaceSpec WParams build_inflation "
                "build_shoelace build_w_poset inflation_spec_from_json w_as_shoelace",
    "formulas": "CoeffFamily CompositionMatrices DistinctnessError ModeError ParamError "
                "PedestalTails attach_antichain broom_f composition_matrices irf_bound "
                "irf_tangled_by_element ordinal_sum_antichains_g pedestal_coeffs w_poset_tangled "
                "weak_order_covers weak_order_family weak_order_leq",
    "harness": "ConjectureReport PosetCatalog ScanReport canonicalize check_conjectures "
               "generate_posets load_catalog save_catalog scan_catalog",
    "posets": "CycleError DisconnectedError Poset SpecError antichain basins chain disjoint_union "
              "funnel_and_basins is_loi_complete load_poset ordinal_sum poset_from_json "
              "poset_to_json save_poset",
    "promotion": "InternalError PromotionStep RangeError format_labeling frozen_set is_natural "
                 "is_tangled lift_labeling order parse_labeling promote promotion_path "
                 "standardize validate_labeling",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "1.0.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
