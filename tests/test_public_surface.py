"""No public name, parameter, root export or config key exists for the
tests alone.

Every public function and public method in ``src/perpetuity`` must be
referenced outside ``tests/``: in the package's own code (its definition
and the ``__init__`` re-exports do not count), in ``README.md`` or in
``perfbench/``.  The benchmark names the functions it wraps as strings,
so the words of string constants count as references too.  Every
defaulted parameter of one must be passed by some call there and left out
by another, and the package root exports exactly the names of the
README's library example.  Every config key and every command-line
option is set by a benchmark workload or a README command, or is kept
with a stated reason.
"""

import argparse
import ast
import re
from pathlib import Path

from perpetuity.cli import build_parser
from perpetuity.runconfig import DEFAULTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perpetuity"

#: Kept without a caller: the acceptance tests check the paper's duality
#: identities through them.
KEEP = {"ResponseFunction.log_integral", "ResponseFunction.power_integral",
        "ResponseFunction.eval", "rho_from_response"}

#: Defaulted parameters kept without a caller: the acceptance moment gate
#: compares the family's exact moments with the atomic law's.
KEEP_PARAMETERS = {"eta_moments.family_exact"}


def _public_functions():
    """(qualified name, node) of the package's public functions and
    methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield node.name, node
            elif isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _public_defs():
    """Qualified names of the package's public functions and methods."""
    return (name for name, _node in _public_functions())


def _readme_python() -> str:
    (block,) = re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(), re.S)
    return block


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


def _defaulted_parameters():
    """(qualified name, parameter, position) of every defaulted parameter
    of a public function or method; position counts the arguments a call
    passes (a method's self excluded) and is None for keyword-only ones."""
    for qualname, node in _public_functions():
        args = node.args
        skip = 1 if "." in qualname else 0      # a method's self or cls
        first = len(args.args) - len(args.defaults)
        for i in range(first, len(args.args)):
            yield qualname, args.args[i].arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, arg.arg, None


def _calls_outside_tests() -> dict:
    """Called name -> list of (positional count, keyword names) over the
    package modules, the README's python block and perfbench; a starred
    argument counts as every position, ``**`` as every keyword."""
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    sources += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    sources.append(_readme_python())
    calls: dict = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords))
    return calls


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = _calls_outside_tests()
    unpassed = set()
    for qualname, param, position in _defaulted_parameters():
        uses = calls.get(qualname.rsplit(".", 1)[-1], [])
        if not any(param in keywords or None in keywords
                   or (position is not None and count > position)
                   for count, keywords in uses):
            unpassed.add(f"{qualname}.{param}")
    assert KEEP_PARAMETERS <= unpassed, (
        f"stale keep list: {sorted(KEEP_PARAMETERS - unpassed)}")
    assert unpassed - KEEP_PARAMETERS == set(), (
        f"defaulted parameters no call outside tests/ passes: "
        f"{sorted(unpassed - KEEP_PARAMETERS)}")


def test_every_defaulted_parameter_is_omitted_outside_the_tests():
    """A default earns its place only where some call outside tests/
    leaves the parameter out; one that every such call passes is a
    default for the tests alone."""
    calls = _calls_outside_tests()
    always = set()
    for qualname, param, position in _defaulted_parameters():
        uses = calls.get(qualname.rsplit(".", 1)[-1], [])
        if not any(param not in keywords and None not in keywords
                   and (position is None or count <= position)
                   for count, keywords in uses):
            always.add(f"{qualname}.{param}")
    assert always == set(), (
        f"defaulted parameters every call outside tests/ passes: "
        f"{sorted(always)}")


def test_the_root_exports_the_library_example_names():
    """``__init__`` imports exactly the names the README's python block
    imports from the package root."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    example = {alias.name for node in ast.walk(ast.parse(_readme_python()))
               if isinstance(node, ast.ImportFrom)
               and node.module == "perpetuity" for alias in node.names}
    assert exported == example


def _string_constants(path: Path) -> list:
    """The string constants of a module, f-string pieces included."""
    return [node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


#: Config keys that no workload or README command sets, each with the
#: reason it stays.
KEEP_KEYS = {
    "mean": "an input: the target mean of eta",
    "mc.n_samples": "an input: the Monte Carlo sample size",
    "moments.order": "an input: the highest moment order",
    "metric.q": "an input: the order of the r_q metric",
    "metric.theta1": "an input: the first law that metric compares",
    "metric.theta2": "an input: the second law that metric compares",
    "output.dir": "a deployment path",
    "mc.iterations": "set by perfbench/test_harness.py",
    "levy.n_samples": "set by perfbench/test_harness.py",
    "solver.s_min": "retired by ROADMAP item 8",
    "solver.s_max": "retired by ROADMAP item 8",
    "solver.tol": "becomes the accuracy target of ROADMAP item 8",
    "solver.max_iter": "retired by ROADMAP item 4 or 8",
}


def _setter_texts() -> list:
    """The README's code blocks and the string constants of perfbench's
    workload table: the texts that set keys and pass options."""
    texts = re.findall(r"```\w*\n(.*?)```", (ROOT / "README.md").read_text(),
                       re.S)
    return texts + _string_constants(ROOT / "perfbench" / "workloads.py")


def test_every_config_key_is_set_by_a_workload_a_readme_command_or_a_test():
    """A ``key=value`` for each DEFAULTS key appears in the README's code
    blocks or in perfbench's workload table, unless KEEP_KEYS names it
    with its reason.  Tests do not count as setters; a KEEP_KEYS entry
    that is not a key, or that a workload or README command sets, is
    stale."""
    texts = _setter_texts()
    unset = {key for key in DEFAULTS
             if not any(re.search(rf"(?<![\w.]){re.escape(key)}=", text)
                        for text in texts)}
    assert set(KEEP_KEYS) <= unset, (
        f"stale keep list: {sorted(set(KEEP_KEYS) - unset)}")
    assert unset - set(KEEP_KEYS) == set(), (
        f"config keys nothing sets: {sorted(unset - set(KEEP_KEYS))}")


#: Command-line options that no workload or README command passes, each
#: with the reason it stays.
KEEP_FLAGS = {
    "--negative-control": "the designed failure of verify; only "
                          "perfbench/test_harness.py passes it",
}


def _cli_options() -> set:
    """The option strings of every command of ``build_parser`` (argparse's
    own --help aside)."""
    parsers = [build_parser()]
    options = set()
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif not isinstance(action, argparse._HelpAction):
                options.update(action.option_strings)
    return options


def test_every_cli_option_is_passed_by_a_workload_or_a_readme_command():
    """Each option that ``build_parser`` defines appears in the README's
    code blocks or in perfbench's workload table, unless KEEP_FLAGS names
    it with its reason.  Tests do not count; a KEEP_FLAGS entry that is
    not an option, or that a workload or README command passes, is
    stale."""
    texts = _setter_texts()
    unpassed = {option for option in _cli_options()
                if not any(re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])",
                                     text) for text in texts)}
    assert set(KEEP_FLAGS) <= unpassed, (
        f"stale keep list: {sorted(set(KEEP_FLAGS) - unpassed)}")
    assert unpassed - set(KEEP_FLAGS) == set(), (
        f"options nothing passes: {sorted(unpassed - set(KEEP_FLAGS))}")
