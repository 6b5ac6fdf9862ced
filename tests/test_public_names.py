"""Every public top-level name of the package is used by the program, and
every module but the CLI is imported by another module of the package.

A name or a module that only tests use is API surface nothing needs; these
checks find one as soon as it is added or its last caller goes.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "structrl"
PROGRAM = [PACKAGE, ROOT / "scripts", ROOT / "benches"]


def public_names(path):
    """Public names bound at the top level of a module, one per binding."""
    for node in ast.parse(path.read_text("utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def test_every_public_name_is_referenced_beyond_its_definition():
    text = "\n".join(
        path.read_text("utf-8") for folder in PROGRAM for path in sorted(folder.glob("*.py"))
    )
    definitions = [name for path in sorted(PACKAGE.glob("*.py")) for name in public_names(path)]
    unused = sorted(
        name
        for name in set(definitions)
        if len(re.findall(rf"\b{name}\b", text)) <= definitions.count(name)
    )
    assert unused == []


def imported_modules(path):
    """The package modules that a module imports relatively, as the package
    writes its imports, at the top level or in a function."""
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .name import x" or "from . import name"
            yield from [node.module] if node.module else (alias.name for alias in node.names)


def test_every_module_but_the_cli_is_imported_by_another():
    modules = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
    imported = {
        name for stem, path in modules.items() for name in imported_modules(path) if name != stem
    }
    assert sorted(set(modules) - imported - {"__init__", "cli"}) == []
