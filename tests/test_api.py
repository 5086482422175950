import ast
from pathlib import Path

import isoedf

PACKAGE = Path(isoedf.__file__).resolve().parent


def test_every_public_name_resolves():
    assert [name for name in isoedf.__all__ if not hasattr(isoedf, name)] == []


def private_imports(path):
    """Underscore names that a module imports from a sibling module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "isoedf")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_imports(path)]
    assert found == []
