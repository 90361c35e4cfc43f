"""Every name a package module imports is read in that module, and no
package module relies on an `assert`."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "levelform"


def unused_imports(text):
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_unused_import():
    # `__init__` imports in order to export
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" and (names := unused_imports(path.read_text()))}
    assert not unused, f"imported but never read: {unused}"


def test_no_assert_statement():
    # `python -O` strips asserts, so a failure must not depend on one
    asserting = sorted(path.name for path in PACKAGE.glob("*.py")
                       if any(isinstance(node, ast.Assert)
                              for node in ast.walk(ast.parse(path.read_text()))))
    assert not asserting, f"assert statements in: {asserting}"
