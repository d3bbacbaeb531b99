"""Checks on how the package's modules depend on one another."""

import ast
import pathlib

import ultralocal

PACKAGE_DIR = pathlib.Path(ultralocal.__file__).parent


def _sibling_private_imports(path):
    """(line, module, name) of each underscore name the module at path
    imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ultralocal":
            continue
        found.extend((node.lineno, "." * node.level + module, alias.name)
                     for alias in node.names if alias.name.startswith("_"))
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    # a private name has one home: a module that needs another's private
    # helper should own it, or the helper should become public
    offenders = {path.name: _sibling_private_imports(path)
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert "stabmap.py" in offenders  # the glob found the package's modules
    assert {name: found for name, found in offenders.items() if found} == {}
