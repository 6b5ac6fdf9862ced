"""Every public top-level name of the package is used by the program.

A name that only tests call is API surface nothing needs; this check finds
one as soon as it is added or its last caller goes.
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
