"""Every name a package module imports is read in that module, no package
module relies on an `assert`, scipy is imported in one function only,
importing the package starts no thread, real numbers and finite arrays are
each checked by one guard, the values a caller's function returns pass one
guard, row norms are taken by one pair of helpers, `lhs_direct` gathers
by index, not through a boolean mask, the PCHIP interpolant has one
evaluation path, the radial-quadratic phase reads as radial-power at
gamma = 2, the catalog's rules live in `Phase` and `Domain` alone (each
phase factory only returns a `Phase`, and the config reader compares no
phase kind), `kernels` takes running maxima along one axis only, and the
coarea route calls a weight in one helper."""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "levelform"
TESTS = pathlib.Path(__file__).resolve().parent


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


def test_import_starts_no_thread_and_loads_no_executor():
    # the row-split worker of `random_smooth_function` starts on first use;
    # concurrent.futures loads logging, which would land in every start-up
    code = ("import sys, threading, levelform; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "False"]


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


def unguarded_values(module, tree):
    """`module.owner:line` of each `require_finite(...).astype(float...)`, each
    `np.asarray(<call>)` with no dtype or dtype=float and each `float(<call>)`
    whose call is not a numpy function, and each name `require_per_point` or
    `_weight_values` in `tree`; the owner is the enclosing function, with its
    class."""
    retired = ("require_per_point", "_weight_values")

    def is_unguarded(node):
        if isinstance(node, ast.Name):
            return node.id in retired
        if isinstance(node, (ast.FunctionDef, ast.alias)):
            return node.name in retired
        if not isinstance(node, ast.Call):
            return False
        func, first = node.func, node.args[0] if node.args else None
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            return (isinstance(func.value, ast.Call)
                    and ast.unparse(func.value.func) == "require_finite"
                    and first is not None and ast.unparse(first).startswith("float"))
        if not isinstance(first, ast.Call) or ast.unparse(first.func).startswith("np."):
            return False
        dtype = [ast.unparse(k.value) for k in node.keywords if k.arg == "dtype"]
        return (ast.unparse(func) == "np.asarray" and dtype in ([], ["float"])
                or ast.unparse(func) == "float")

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if is_unguarded(child):
                yield f"{module}.{owner}:{child.lineno}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if owner == "<module>"
                                 else f"{owner}.{child.name}")
            else:
                yield from visit(child, owner)

    return list(visit(tree, "<module>"))


# `_cell_weights` refuses a complex kernel with its own text, on every truncation
UNGUARDED_ALLOWED = {"kernels._cell_weights"}


def test_returned_values_pass_one_guard():
    # `errors.require_reals` checks what a caller's function returns: a cast to
    # float before it would drop an imaginary part, and a second guard drifts
    found = [site for module in ("pushforward", "reduction", "geometry", "kernels")
             for site in unguarded_values(module, ast.parse((PACKAGE / f"{module}.py").read_text()))
             if site.split(":")[0] not in UNGUARDED_ALLOWED]
    assert not found, f"values that skip errors.require_reals: {found}"


def test_one_guard_lint_flags_each_form():
    source = """
def weigh(h, pts):
    w = np.asarray(h(pts), dtype=float)
    v = require_finite(t, "levels").astype(float, copy=False)
    return _weight_values(w), require_per_point(v, 3)
"""
    assert len(unguarded_values("m", ast.parse(source))) == 4


def test_one_guard_lint_flags_the_bare_forms():
    # a cast with no dtype keeps a complex value, and float() of a call reads
    # one value unguarded; numpy's own results and names are no caller's values
    source = """
def check(kernel, m, s, t):
    base = np.asarray(kernel.evaluate(s, t))
    ms = float(m(s))
    return np.asarray(np.abs(s)), float(np.max(base)), float(ms), np.asarray(t)
"""
    assert unguarded_values("m", ast.parse(source)) == ["m.check:3", "m.check:4"]


def row_norm_calls(module, tree):
    """`module.function:line` of each `np.einsum("ij,ij->i", x, x)` and each
    `np.linalg.norm(..., axis=1)` in `tree`."""
    def is_row_norm(node):
        if not isinstance(node, ast.Call):
            return False
        func, args = ast.unparse(node.func), [ast.unparse(arg) for arg in node.args]
        if func == "np.einsum":
            return args[:1] == ["'ij,ij->i'"] and len(args) == 3 and args[1] == args[2]
        axis = args[2:3] + [ast.unparse(k.value) for k in node.keywords if k.arg == "axis"]
        return func == "np.linalg.norm" and axis in (["1"], ["-1"])

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if is_row_norm(child):
                yield f"{module}.{owner}:{child.lineno}"
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if inner else owner)

    return list(visit(tree, "<module>"))


def test_row_norms_live_in_two_helpers():
    # `geometry._sq_norms` and `_norms` take two columns by columns with the
    # bits of einsum and `np.linalg.norm`; a call around them misses that
    calls = [call for path in sorted(PACKAGE.glob("*.py"))
             for call in row_norm_calls(path.stem, ast.parse(path.read_text()))]
    owners = [call.split(":")[0] for call in calls]
    assert owners == ["geometry._sq_norms", "geometry._norms"], f"row norms at: {calls}"


def mask_subscripts(tree, function):
    """`function:line` of each subscript inside `function` whose index is a
    comparison, or a name bound to one: a boolean-mask gather or store."""
    [func] = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == function]
    masks = {target.id for node in ast.walk(func)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Compare)
             for target in node.targets if isinstance(target, ast.Name)}
    return [f"{function}:{node.lineno}" for node in ast.walk(func)
            if isinstance(node, ast.Subscript)
            and (isinstance(node.slice, ast.Compare)
                 or isinstance(node.slice, ast.Name) and node.slice.id in masks)]


def test_lhs_direct_gathers_by_index():
    # each boolean-mask gather or store walks the whole block again; the kept
    # pairs are found once, as an index, and gathered by `take`
    found = mask_subscripts(ast.parse((PACKAGE / "reduction.py").read_text()), "lhs_direct")
    assert not found, f"boolean-mask subscripts in lhs_direct: {found}"


def test_mask_guard_flags_the_boolean_mask_form():
    # the oracle in test_lhs_gather.py is the boolean-mask loop lhs_direct replaced:
    # four gathers and one store
    tree = ast.parse((TESTS / "test_lhs_gather.py").read_text())
    assert len(mask_subscripts(tree, "oracle_lhs_direct")) == 5


def second_pchip_paths(module, tree):
    """`module:line` of each `bisect` import in geometry, each `isinstance` test
    in `_PiecewisePolynomial.__call__` and each name `_radial_level`."""
    def imports_bisect(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "bisect" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.module == "bisect"

    def names_radial_level(node):
        # a Name, an Attribute, a function or class, or an imported alias
        return "_radial_level" in (getattr(node, key, None) for key in ("id", "attr", "name"))

    calls = [func for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name == "_PiecewisePolynomial"
             for func in cls.body if isinstance(func, ast.FunctionDef) and func.name == "__call__"]
    branches = [node for func in calls for node in ast.walk(func)
                if isinstance(node, (ast.If, ast.IfExp)) and "isinstance(" in ast.unparse(node.test)]
    found = branches + [node for node in ast.walk(tree) if names_radial_level(node)
                        or module == "geometry" and imports_bisect(node)]
    return sorted(f"{module}:{node.lineno}" for node in found)


def test_one_pchip_evaluation_path():
    # a float takes the numpy path of `_PiecewisePolynomial`, with the same
    # bits; the per-level fiber that kept a Python-float path alive is
    # `pushforward._radial_fibers`, one array call, and its oracle lives in tests
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in second_pchip_paths(path.stem, ast.parse(path.read_text()))]
    assert not found, f"a second evaluation path at: {found}"


def radial_quadratic_copies(module, tree):
    """`module:line` of each second copy of radial-power code for the
    radial-quadratic phase: a name `_radius_of_level` or `_RADIAL_CLOSED`, a
    tuple listing RADIAL_QUADRATIC and RADIAL_POWER past geometry's first, and
    in pushforward each RADIAL_QUADRATIC outside the test of the `np.sqrt`
    branch of `_radial_fibers`."""
    def names(node):
        return {getattr(node, key, None) for key in ("id", "attr", "name")}

    radius_branch = {id(part) for func in ast.walk(tree)
                     if isinstance(func, ast.FunctionDef) and func.name == "_radial_fibers"
                     for node in ast.walk(func) if isinstance(node, ast.If)
                     and any("np.sqrt(" in ast.unparse(line) for line in node.body)
                     for part in ast.walk(node.test)}
    tuples = [node for node in ast.walk(tree) if isinstance(node, ast.Tuple)
              and {"RADIAL_QUADRATIC", "RADIAL_POWER"} <= set().union(*map(names, node.elts))]
    found = tuples[1:] if module == "geometry" else tuples
    found += [node for node in ast.walk(tree) if names(node) & {"_radius_of_level", "_RADIAL_CLOSED"}
              or module == "pushforward" and "RADIAL_QUADRATIC" in names(node)
              and id(node) not in radius_branch]
    return sorted({f"{module}:{node.lineno}" for node in found})


def test_radial_quadratic_reads_as_power_at_two():
    # |x|^2 is |x|^gamma at gamma = 2: its closed form, exponent, level radius,
    # image end and fiber mask are the radial-power code's; only the fiber
    # radius, np.sqrt where pow(t, 0.5) has other bits, names the kind
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in radial_quadratic_copies(path.stem, ast.parse(path.read_text()))]
    assert not found, f"a second radial-quadratic copy at: {found}"


def test_radial_quadratic_lint_flags_each_form():
    sample = '''
KINDS = (geometry.RADIAL_QUADRATIC, geometry.RADIAL_POWER)
def _radial_fibers(phase, tt):
    if phase.kind == geometry.RADIAL_QUADRATIC:
        return np.sqrt(tt)
def critical_exponent(phase):
    if phase.kind == geometry.RADIAL_QUADRATIC:
        return 0.0
rr = _radius_of_level(phase, tt)
'''
    assert radial_quadratic_copies("pushforward", ast.parse(sample)) == [
        "pushforward:2", "pushforward:7", "pushforward:9"]
    assert radial_quadratic_copies("geometry", ast.parse(sample)) == ["geometry:9"]


def phase_factories(tree):
    """Each function in `tree` annotated `-> Phase`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.returns is not None and ast.unparse(node.returns) == "Phase"]


def factory_rules(tree):
    """Name of each phase factory whose body is more than a docstring and one
    `return Phase(...)`."""
    def bare(func):
        body = func.body[1:] if ast.get_docstring(func) else func.body
        return (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)
                and ast.unparse(body[0].value.func) == "Phase")

    return sorted(func.name for func in phase_factories(tree) if not bare(func))


def kind_comparisons(tree):
    """Line of each comparison with a phase kind, as a geometry constant or
    its string, among its operands."""
    from levelform import geometry

    kinds = set(geometry._KIND_FIELDS)
    names = {name for name, value in vars(geometry).items() if isinstance(value, str)
             and value in kinds}

    def is_kind(node):
        return (isinstance(node, ast.Constant) and node.value in kinds
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names)

    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(is_kind(part) for operand in [node.left, *node.comparators]
                          for part in ast.walk(operand)))


def test_catalog_rules_live_in_phase_and_domain():
    # `geometry._KIND_FIELDS` says which fields each kind reads, and `Phase`
    # holds every rule; a check in a factory or the config reader drifts
    geometry = ast.parse((PACKAGE / "geometry.py").read_text())
    assert len(phase_factories(geometry)) == 7
    assert factory_rules(geometry) == []
    found = kind_comparisons(ast.parse((PACKAGE / "config.py").read_text()))
    assert not found, f"config.py compares a phase kind at lines {found}"


def test_catalog_rule_lint_flags_each_form():
    sample = '''
def saddle_phase(domain) -> Phase:
    """Docstring."""
    if domain.n != 2:
        raise ConfigError("saddle phase requires n = 2")
    return Phase(kind=SADDLE, domain=domain)
def linear_phase(domain) -> Phase:
    return Phase(kind=LINEAR, domain=domain)
def phase_from_config(cfg):
    if kind == geometry.RADIAL_POWER:
        pass
    if kind in (LINEAR, "saddle"):
        pass
    if "amplitude" in geometry._KIND_FIELDS.get(kind, ()):
        pass
'''
    tree = ast.parse(sample)
    assert factory_rules(tree) == ["saddle_phase"]
    assert kind_comparisons(tree) == [10, 12]


def accumulate_calls(module, tree):
    """`module.function:line` of each `<ufunc>.accumulate(...)` call in
    `tree`, with ` axis` added where it passes an axis or a second argument."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "accumulate"):
                axis = len(child.args) > 1 or any(k.arg == "axis" for k in child.keywords)
                yield f"{module}.{owner}:{child.lineno}" + (" axis" if axis else "")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if inner else owner)

    return list(visit(tree, "<module>"))


def test_running_maxima_accumulate_along_one_axis():
    # on a 64 x 64 x 64 table, as the in-block windows of hl_maximal once
    # were, np.maximum.accumulate took 1.2-1.4 ms along any axis and 63
    # np.maximum calls over its slices 0.15 ms, about 8 times less (numpy
    # 2.4.6). On the 1-d running maxima of the merges accumulate is the faster;
    # with no axis named, only the caller shows that its input is 1-d
    calls = accumulate_calls("kernels", ast.parse((PACKAGE / "kernels.py").read_text()))
    found = [call for call in calls
             if not call.startswith("kernels.hl_maximal:") or call.endswith(" axis")]
    assert not found, f"accumulate over a table at: {found}"


def test_accumulate_lint_flags_each_form():
    sample = '''
def f(q):
    np.maximum.accumulate(q, axis=1, out=q)
    np.maximum.accumulate(q, 0)
    return np.minimum.accumulate(q[::-1])
'''
    assert accumulate_calls("m", ast.parse(sample)) == ["m.f:3 axis", "m.f:4 axis", "m.f:5"]


def weight_calls(module, tree):
    """`module.function:line` of each call of a name `h` in `tree`; the
    function is the innermost one around the call."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "h"):
                yield f"{module}.{owner}:{child.lineno}"
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if inner else owner)

    return list(visit(tree, "<module>"))


def test_coarea_weights_are_called_in_one_helper():
    # `_fiber_sums` owns the block loop, the weight call and h=None for every
    # fiber shape; a shape that calls h itself would own its own again
    calls = weight_calls("pushforward", ast.parse((PACKAGE / "pushforward.py").read_text()))
    owners = {"pushforward._fiber_sums", "pushforward.weighted_density_monte_carlo"}
    found = [call for call in calls if call.split(":")[0] not in owners]
    assert not found, f"a weight called outside _fiber_sums at: {found}"


def test_weight_call_lint_flags_each_form():
    sample = '''
def _fiber_sums(h, block):
    return h(block(0))
def _radial_levels(phase, h, tt):
    def block(sl):
        return h(tt[sl])
    return h.profile(tt)
def _weigh(h, pts):
    return h(pts.reshape(-1, 2))
'''
    assert weight_calls("m", ast.parse(sample)) == ["m._fiber_sums:3", "m.block:6", "m._weigh:9"]
