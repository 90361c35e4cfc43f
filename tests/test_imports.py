"""Every name a package module imports is read in that module, no package
module relies on an `assert`, scipy is imported in one function only, and
real numbers and finite arrays are each checked by one guard."""

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


def scipy_importers(module, tree):
    """`module.function` (or `module.<module>`) for each import of scipy in `tree`."""
    def imports_scipy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "scipy")

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if imports_scipy(child):
                yield f"{module}.{owner}"
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if inner else owner)

    return list(visit(tree, "<module>"))


def test_scipy_runs_only_in_pullback_norm():
    # the Sobol streams, the FFT and the PCHIP interpolant run on numpy;
    # only the adaptive quadrature of `pullback_norm` needs scipy
    importers = {name for path in sorted(PACKAGE.glob("*.py"))
                 for name in scipy_importers(path.stem, ast.parse(path.read_text()))}
    assert importers <= {"reduction.pullback_norm"}, f"scipy imported in: {sorted(importers)}"


def raises_on_isfinite(tree):
    """Line numbers of each `if` whose test calls `math.isfinite` and whose body raises."""
    def calls_isfinite(node):
        return any(isinstance(call, ast.Call) and ast.unparse(call.func) == "math.isfinite"
                   for call in ast.walk(node.test))

    def raises(node):
        return any(isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt))

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.If) and calls_isfinite(node) and raises(node))


def test_real_guards_live_in_errors():
    # `errors.require_real` and `require_interval` are the one real-number guard
    hand_written = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
                    if path.name != "errors.py"
                    and (lines := raises_on_isfinite(ast.parse(path.read_text())))}
    assert not hand_written, f"hand-written finiteness checks: {hand_written}"


def refuses_on_array_isfinite(tree):
    """Line numbers of each `if` whose body raises ConfigError and whose test calls
    `np.isfinite`, directly or through a name bound to `np.isfinite(x)` or its negation."""
    def is_isfinite(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            node = node.operand
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "np.isfinite"

    bound = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and is_isfinite(node.value)
             for target in node.targets if isinstance(target, ast.Name)}

    def checks_finite(node):
        return any(is_isfinite(inner) or (isinstance(inner, ast.Name) and inner.id in bound)
                   for inner in ast.walk(node.test))

    def refuses(node):
        return any(isinstance(inner, ast.Raise) and inner.exc is not None
                   and "ConfigError" in ast.unparse(inner.exc)
                   for stmt in node.body for inner in ast.walk(stmt))

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.If) and checks_finite(node) and refuses(node))


def test_array_guard_lives_in_errors():
    # `errors.require_finite` is the one finite-array guard for input
    hand_written = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
                    if path.name != "errors.py"
                    and (lines := refuses_on_array_isfinite(ast.parse(path.read_text())))}
    assert not hand_written, f"hand-written array finiteness checks: {hand_written}"
