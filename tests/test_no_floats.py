"""The package computes in exact arithmetic only: no module of
hopf_forge holds a float constant or calls float()."""

import ast
from pathlib import Path

import hopf_forge


def float_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float()"


def test_no_module_computes_with_floats():
    sample = ast.parse("a = int(d ** 0.5)\nb = float(a)\nc = 2 ** 1")
    assert sorted(float_sites(sample)) == [(1, "0.5"), (2, "float()")]
    sources = sorted(Path(hopf_forge.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = [f"{path.name}:{line}: {what}" for path in sources
             for line, what in float_sites(ast.parse(path.read_text()))]
    assert found == []
