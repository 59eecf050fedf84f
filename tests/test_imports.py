"""No module imports a name that it never uses.

Every file of src/kronlab and tests is parsed; a name bound by an import
statement must be read somewhere in that file.  The package __init__ is the
one exception: the names it imports are the package's public API.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(
    os.path.join(folder, name)
    for folder in (os.path.join(ROOT, "src", "kronlab"), os.path.join(ROOT, "tests"))
    for name in os.listdir(folder)
    if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1)\n") == [(1, "os"), (2, "gcd")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_imported_name_is_used(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
