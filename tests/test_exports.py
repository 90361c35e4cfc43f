"""Every name that `levelform/__init__.py` exports has a reader besides its
own unit tests: package code outside the name's own definition, the
acceptance checks, the scripts, the benchmark workloads or the README.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "levelform"
READERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "perfbench" / "workloads.py", ROOT / "README.md"]


def exported_names(init_text):
    return sorted(alias.asname or alias.name
                  for node in ast.parse(init_text).body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def definition_lines(tree, name):
    """Line numbers of the top-level statement that defines `name`, if any."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        if name in defined:
            return set(range(node.lineno, node.end_lineno + 1))
    return set()


def test_every_export_has_a_reader():
    modules = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            text = path.read_text()
            modules.append((text.splitlines(), ast.parse(text)))
    readers = "\n".join(path.read_text() for path in READERS)

    unread = []
    for name in exported_names((PACKAGE / "__init__.py").read_text()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        in_package = False
        for lines, tree in modules:
            own = definition_lines(tree, name)
            in_package = in_package or any(word.search(line) for number, line
                                           in enumerate(lines, start=1) if number not in own)
        if not (in_package or word.search(readers)):
            unread.append(name)
    assert not unread, f"exported names with no reader: {unread}"
