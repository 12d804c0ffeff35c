"""The package boundary: the runtime imports no test-side module, and its
public names all resolve."""

import ast
from pathlib import Path

import cshom
import cshom.tableaux

SRC = Path(__file__).resolve().parents[1] / "src" / "cshom"

# test-side modules: the Numbering layer, the group-algebra oracle and the
# reference helpers live under tests/ and must stay out of the runtime
TEST_SIDE = {"numbering", "groupalg", "helpers", "conftest", "tests"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_no_test_side_module():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    bad = [
        (path.name, name)
        for path in modules
        for name in _imported_modules(path)
        if name.split(".")[0] in TEST_SIDE
    ]
    assert bad == []


def test_every_public_name_resolves():
    missing = [name for name in cshom.__all__ if not hasattr(cshom, name)]
    assert missing == []
    assert len(set(cshom.__all__)) == len(cshom.__all__)


def test_the_numbering_layer_is_not_in_the_runtime():
    gone = {
        "Numbering", "NumberingVector", "canonicalize", "numbering",
        "numbering_of_subgraph", "pi_expand",
    }
    for module in (cshom, cshom.tableaux):
        assert not gone & set(dir(module)), module.__name__
