"""The package binds its documented API and nothing else: every other
public function is imported from its own module."""

import ast
import pathlib
import re
import types

import hopf_forge
from hopf_forge import errors

ROOT = pathlib.Path(__file__).resolve().parent.parent

VALUE_TYPES = {"InvariantReport", "IndexData", "EigenTable", "NormalForm",
               "AxiomChecklist", "IntegralPair", "AlternatingFormReport",
               "CoradicalTraces", "TraceCongruence", "Lemma24Result",
               "CHECK_TAGS", "HopfPresentation", "CycNumber", "Mat"}
# the library call behind each CLI command
CLI_CALLS = {"check_axioms", "dual", "lift_order", "build_tensor", "sweedler",
             "build_group_algebra", "build_cyclic_group_algebra",
             "cyclic_table", "direct_product_table"}
# read from the package by bench/test_tracer.py
TRACER_NAMES = {"find_grouplikes", "rref"}


def _package_imports(source, filename):
    """Names that `from hopf_forge import ...` binds in source."""
    return {alias.name for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.ImportFrom) and node.module == "hopf_forge"
            for alias in node.names}


def _tour_names():
    text = (ROOT / "README.md").read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    return _package_imports(code, "README.md")


def _acceptance_names():
    path = ROOT / "tests" / "test_acceptance.py"
    return _package_imports(path.read_text(), str(path))


def test_package_binds_exactly_the_documented_names():
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, Exception)
                     and obj.__module__ == errors.__name__}
    tour, acceptance = _tour_names(), _acceptance_names()
    assert "build_report" in tour and "h_plus_minus" in acceptance
    bound = {name for name, obj in vars(hopf_forge).items()
             if not name.startswith("_")
             and not isinstance(obj, types.ModuleType)}
    documented = (tour | acceptance | error_classes | VALUE_TYPES
                  | CLI_CALLS | TRACER_NAMES)
    assert sorted(bound - documented) == []
    assert sorted(documented - bound) == []
