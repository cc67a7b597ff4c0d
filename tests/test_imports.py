"""Module boundaries inside the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gbpd"


def test_no_module_imports_another_modules_private_names():
    # a private helper belongs to its module: another module that needs it
    # needs a public name for it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} import "
                          f"{alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []
