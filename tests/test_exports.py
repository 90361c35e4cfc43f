"""Every name that `levelform/__init__.py` exports, and every public method
and property of an exported class, has a reader besides its own unit tests:
package code outside its own definition, the acceptance checks, the scripts,
the benchmark workloads or the README. A docstring, string or comment in a
package module is not a reader.
"""

import ast
import io
import pathlib
import re
import tokenize

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


# literal text: strings, and on Python 3.12 and later the literal parts of f-strings
PROSE = {tokenize.STRING, tokenize.COMMENT, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def code_lines(text):
    """The lines of `text` with every string and comment blanked out."""
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in PROSE:
            (first, start), (last, end) = tok.start, tok.end
            for number in range(first, last + 1):
                line = lines[number - 1]
                a = start if number == first else 0
                b = end if number == last else len(line)
                lines[number - 1] = line[:a] + " " * (b - a) + line[b:]
    return lines


def package_modules():
    """(code lines, tree) of every package module but `__init__`."""
    texts = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    return [(code_lines(text), ast.parse(text)) for text in texts]


def reader_text():
    return "\n".join(path.read_text() for path in READERS)


def has_reader(pattern, modules, readers, own):
    """Whether `pattern` matches the reader text, or a package line outside `own(tree)`."""
    word = re.compile(pattern)
    if word.search(readers):
        return True
    for lines, tree in modules:
        skip = own(tree)
        if any(word.search(line) for number, line in enumerate(lines, start=1)
               if number not in skip):
            return True
    return False


def test_every_export_has_a_reader():
    modules, readers = package_modules(), reader_text()
    unread = [name for name in exported_names((PACKAGE / "__init__.py").read_text())
              if not has_reader(rf"\b{re.escape(name)}\b", modules, readers,
                                lambda tree, name=name: definition_lines(tree, name))]
    assert not unread, f"exported names with no reader: {unread}"


def test_defaulted_parameters_on_exports():
    # positional and keyword-only defaults over the functions `__init__` exports
    exported = set(exported_names((PACKAGE / "__init__.py").read_text()))
    count = sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
                for _, tree in package_modules() for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name in exported)
    assert count == 44


def test_every_public_member_of_an_exported_class_has_a_reader():
    exported = set(exported_names((PACKAGE / "__init__.py").read_text()))
    modules, readers = package_modules(), reader_text()
    unread = []
    for _, home in modules:
        for cls in home.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                own = set(range(node.lineno, node.end_lineno + 1))
                if not has_reader(rf"\.{re.escape(node.name)}\b", modules, readers,
                                  lambda tree, home=home, own=own: own if tree is home else ()):
                    unread.append(f"{cls.name}.{node.name}")
    assert not unread, f"exported class members with no reader: {unread}"
