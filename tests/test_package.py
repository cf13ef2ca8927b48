"""The package's public names and what each process imports.

Names load on first use, so the import checks run in a fresh interpreter:
a name read in this process would already have loaded its submodule.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import promotion_sorting

SRC = Path(promotion_sorting.__file__).parents[1]

# Every public name, by the submodule that defines it.
PUBLIC = {
    "enumeration": ["BudgetError", "GenFun", "SequenceShape", "TangleReport",
                    "sequence_shape", "sorting_gf", "tangled_report"],
    "families": ["FiberError", "ForestError", "InflationSpec", "ShoelaceSpec", "WParams",
                 "build_inflation", "build_shoelace", "build_w_poset",
                 "inflation_spec_from_json", "w_as_shoelace"],
    "formulas": ["CoeffFamily", "CompositionMatrices", "DistinctnessError", "ModeError",
                 "ParamError", "PedestalTails", "attach_antichain", "broom_f",
                 "composition_matrices", "irf_bound", "irf_tangled_by_element",
                 "ordinal_sum_antichains_g", "pedestal_coeffs", "w_poset_tangled",
                 "weak_order_covers", "weak_order_family", "weak_order_leq"],
    "harness": ["ConjectureReport", "PosetCatalog", "ScanReport", "canonicalize",
                "check_conjectures", "generate_posets", "load_catalog", "save_catalog",
                "scan_catalog"],
    "posets": ["CycleError", "DisconnectedError", "Poset", "SpecError", "antichain", "basins",
               "chain", "disjoint_union", "funnel_and_basins", "is_loi_complete",
               "load_poset", "ordinal_sum", "poset_from_json", "poset_to_json", "save_poset"],
    "promotion": ["InternalError", "PromotionStep", "RangeError", "format_labeling",
                  "frozen_set", "is_natural", "is_tangled", "lift_labeling", "order",
                  "parse_labeling", "promote", "promotion_path", "standardize",
                  "validate_labeling"],
}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_all_is_pinned():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 72
    assert sorted(promotion_sorting.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_defining_modules_object(module):
    home = import_module(f"promotion_sorting.{module}")
    for name in PUBLIC[module]:
        value = getattr(promotion_sorting, name)
        assert value is getattr(home, name)
        assert value.__module__ == home.__name__


def test_dir_and_star_import_bind_every_name():
    assert set(promotion_sorting.__all__) <= set(dir(promotion_sorting))
    namespace = {}
    exec("from promotion_sorting import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(promotion_sorting.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        promotion_sorting.no_such_name
    with pytest.raises(ImportError):
        exec("from promotion_sorting import no_such_name", {})


def test_bare_import_loads_no_submodule():
    result = run_python(
        "import json, sys\n"
        "import promotion_sorting\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('promotion_sorting'))\n"
        "from promotion_sorting import enumeration\n"
        "print(json.dumps([loaded, enumeration.__name__, hasattr(enumeration, 'sorting_gf')]))\n")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [["promotion_sorting"],
                                         "promotion_sorting.enumeration", True]


# Runs the command as `python -m promotion_sorting` does, then prints its
# exit code and the package's loaded modules on the last line of stdout.
RUN_COMMAND = """
import json, runpy, sys
sys.argv = ["promotion_sorting", *sys.argv[1:]]
try:
    runpy.run_module("promotion_sorting", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.split(".")[-1] for m in sys.modules if m.startswith("promotion_sorting."))
print(json.dumps([code, loaded]))
"""

ENGINE = ["cli", "enumeration", "posets", "promotion"]


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], ["cli"]),
    (["gf", "--poset", "{poset}", "--threads", "1"], ENGINE),
    (["tangled", "--poset", "{poset}", "--threads", "1"], ENGINE),
    (["verify", "--max-n", "3", "--threads", "1"], sorted(ENGINE + ["harness"])),
    (["gen-posets", "--n", "3", "--threads", "1"], sorted(ENGINE + ["harness"])),
    (["broom", "--n", "2", "--k", "1"], sorted(ENGINE + ["families", "formulas"])),
], ids=["help", "gf", "tangled", "verify", "gen-posets", "broom"])
def test_each_command_loads_only_its_modules(tmp_path, argv, loaded):
    poset = tmp_path / "chain.json"
    poset.write_text('{"n": 3, "covers": [[0, 1], [1, 2]]}')
    result = run_python(RUN_COMMAND, *(arg.format(poset=poset) for arg in argv))
    *output, last = result.stdout.splitlines()
    assert output, result.stderr
    assert json.loads(last) == [0, loaded]
