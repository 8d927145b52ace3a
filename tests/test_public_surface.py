"""No public function or method exists for the tests alone.

Every public function and public method in ``src/perpetuity`` must be
referenced outside ``tests/``: in the package's own code (its definition
and the ``__init__`` re-exports do not count), in ``README.md`` or in
``perfbench/``.  The benchmark names the functions it wraps as strings,
so the words of string constants count as references too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perpetuity"

#: Kept without a caller: the acceptance tests check the paper's duality
#: identities through them.
KEEP = {"ResponseFunction.log_integral", "ResponseFunction.power_integral",
        "ResponseFunction.eval", "rho_from_response"}


def _public_defs():
    """Qualified names of the package's public functions and methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield node.name
            elif isinstance(node, ast.ClassDef):
                yield from (f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _code_words(path: Path) -> set:
    """Names used in a module: loaded names, attributes and the words of
    string constants (imports and definitions are not uses)."""
    words = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return words


def _referenced_words() -> set:
    words = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        words |= _code_words(path)
    return words


def test_every_public_name_has_a_caller_outside_the_tests():
    defs = set(_public_defs())
    assert KEEP <= defs, f"stale keep list: {sorted(KEEP - defs)}"
    used = _referenced_words()
    unused = {q for q in defs if q.rsplit(".", 1)[-1] not in used}
    assert unused - KEEP == set(), (
        f"public names with no caller outside tests/: {sorted(unused - KEEP)}")
