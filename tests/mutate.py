"""Mutation check of the scoring core: which one-token changes to the program
do the tests not notice?

A mutant makes one change to one module: it swaps an operator (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``+`` and ``-``, ``*`` and
``/``, ``and`` and ``or``) or adds 1 to an int or float constant. Sites are
found with ``ast`` and ``tokenize``, and each change is made in the source
text, so every other byte and every line number stay as they are.

Each mutant runs in a temporary copy of the checkout, never in the checkout
itself: first against the module's own test file, then, if that passes,
against all of tier-1. A mutant that survives both is either listed in
``equivalent_mutants.txt`` beside this file, with the reason it cannot be
told apart from the program, or it marks a gap in the tests. The exit code
is 1 when a survivor is not listed.

This is not a test file: tier-1 does not collect it, and it takes minutes.
Run it by hand from the root of the checkout, after a change to the
scoring core:

    python tests/mutate.py
"""
from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "structrl"
MODULES = ("reward", "grpo", "density", "trajectory")
EQUIVALENT = Path(__file__).with_name("equivalent_mutants.txt")
# what a copy of the checkout leaves out: history, caches and run outputs
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*", "runs", "*.egg-info"
)
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"), ast.Div: ("/", "*"), ast.And: ("and", "or"), ast.Or: ("or", "and"),
}
TIMEOUT_S = 600
JOBS = 2  # copies of the checkout, each running one mutant at a time


def _operator_gaps(tree: ast.AST):
    """(operator type, left operand, right operand) for every swappable
    operator; the operator's token lies between the two operands."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = zip(node.ops, operands, operands[1:])
        elif isinstance(node, ast.BinOp):
            pairs = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.BoolOp):
            pairs = ((node.op, a, b) for a, b in zip(node.values, node.values[1:]))
        else:
            continue
        yield from ((type(op), a, b) for op, a, b in pairs if type(op) in SWAPS)


def sites(source: str) -> list[tuple[int, int, str, str]]:
    """``(line, column, old text, new text)`` of every mutant of a module, in
    source order. Each site is a token: columns count characters, as
    ``tokenize`` does, where ``ast`` counts UTF-8 bytes. A site inside an
    f-string, which ``tokenize`` reads as one string before Python 3.12, is
    skipped."""
    lines = source.splitlines()

    def position(lineno: int, byte_col: int) -> tuple[int, int]:
        return lineno, len(lines[lineno - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    tree = ast.parse(source)
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    numbers = {t.start: t.string for t in tokens if t.type == tokenize.NUMBER}
    found = []
    for kind, left, right in _operator_gaps(tree):
        old, new = SWAPS[kind]
        after = position(left.end_lineno, left.end_col_offset)
        before = position(right.lineno, right.col_offset)
        token = next((t for t in tokens if after <= t.start < before and t.string == old
                      and t.type in (tokenize.OP, tokenize.NAME)), None)
        if token is not None:
            found.append((*token.start, old, new))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            start = position(node.lineno, node.col_offset)
            if start in numbers:
                found.append((*start, numbers[start], repr(node.value + 1)))
    return sorted(found)


def apply(source: str, site: tuple[int, int, str, str]) -> str:
    line, col, old, new = site
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(old)] == old, (site, text)
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def mutant_id(module: str, site: tuple[int, int, str, str]) -> str:
    line, col, old, new = site
    return f"{module}.py:{line}:{col} {old} -> {new}"


def read_equivalent() -> dict[str, str]:
    """Mutant id -> why it behaves as the program does."""
    listed = {}
    for raw in EQUIVALENT.read_text("utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            key, _, reason = raw.partition("  # ")
            listed[key.strip()] = reason.strip()
    return listed


def run_tests(copy: Path, targets: list[str]) -> bool:
    """True when the tests pass in ``copy``; a run past the time limit fails."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *targets],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    mutants = []  # (module, site, mutated source)
    for module in MODULES:
        source = (ROOT / PACKAGE / f"{module}.py").read_text("utf-8")
        mutants += [(module, site, apply(source, site)) for site in sites(source)]

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copies: Queue[Path] = Queue()
        for i in range(JOBS):
            copy = Path(tmp) / f"copy{i}"
            shutil.copytree(ROOT, copy, ignore=IGNORE)
            copies.put(copy)

        def survives(mutant: tuple, targets: list[str]) -> bool:
            module, _, mutated = mutant
            copy = copies.get()
            path = copy / PACKAGE / f"{module}.py"
            original = path.read_text("utf-8")
            try:
                path.write_text(mutated, "utf-8")
                return run_tests(copy, targets)
            finally:
                path.write_text(original, "utf-8")
                copies.put(copy)

        with ThreadPoolExecutor(JOBS) as pool:
            own = list(pool.map(lambda m: survives(m, [f"tests/test_{m[0]}.py"]), mutants))
            first = [m for m, alive in zip(mutants, own) if alive]
            every = list(pool.map(lambda m: survives(m, []), first))
    survivors = [m for m, alive in zip(first, every) if alive]

    equivalent = read_equivalent()
    gaps = 0
    for module in MODULES:
        n = sum(m[0] == module for m in mutants)
        alive = [mutant_id(module, m[1]) for m in survivors if m[0] == module]
        print(f"{module}: {n} mutants, {n - len(alive)} killed, "
              f"{sum(a in equivalent for a in alive)} equivalent")
        for a in alive:
            print(f"  survived: {a}  # {equivalent.get(a, 'NOT LISTED: a gap in the tests')}")
            gaps += a not in equivalent
    print(f"total: {len(mutants)} mutants, {len(mutants) - len(first)} killed by the "
          f"module's own tests, {len(first) - len(survivors)} more by tier-1, "
          f"{len(survivors) - gaps} equivalent, {gaps} not listed")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
