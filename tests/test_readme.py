"""The README's examples run as documented."""

import json
import re
import shlex
from pathlib import Path

from perpetuity.cli import build_parser, main
from perpetuity.runconfig import DEFAULTS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})


def _example_argv(command):
    """The argv of the README's one example of ``perpetuity <command>``,
    with its backslash-continued lines."""
    (line,) = re.findall(rf"^perpetuity {command} (?:.*\\\n)*.*$",
                         README.read_text(), re.M)
    return shlex.split(line.replace("\\\n", " "))[1:]


def test_verify_example_passes_at_defaults(tmp_path):
    argv = _example_argv("verify")
    assert main([*argv, "--set", f"output.dir={tmp_path}"]) == 0
    (run_dir,) = tmp_path.iterdir()
    report = json.loads((run_dir / "verify.json").read_text())
    assert report["all_passed"] is True
    contraction = report["checks"]["contraction"]
    assert contraction["draws"] == 20 and contraction["pairs"] == 19
    # draw 11: two point masses at the mean one ulp apart
    assert contraction["per_pair"][10]["ratio"] is None


def test_solve_example_passes_its_cross_check(tmp_path):
    argv = _example_argv("solve")
    assert argv[:3] == ["solve", "--method", "both"]
    assert main([*argv, "--set", f"output.dir={tmp_path}"]) == 0
    (run_dir,) = tmp_path.iterdir()
    report = json.loads((run_dir / "solution.json").read_text())
    assert report["lst"]["converged"] is True
    assert report["cross_method"]["passed"] is True


def test_every_method_the_readme_names_is_a_solve_choice():
    """Each ``--method X`` in the README parses; a retired one would raise."""
    methods = set(re.findall(r"--method (\w+)", README.read_text()))
    assert methods == {"lst", "both"}
    for method in methods:
        args = build_parser().parse_args(["solve", "--method", method])
        assert args.method == method


def test_config_tables_list_every_key():
    """The "Configuration keys" tables name exactly the keys of DEFAULTS."""
    text = README.read_text()
    section = text[text.index("## Configuration keys"):]
    section = section[:section.index("\n## ", 1)]
    listed = [key for row in re.findall(r"^\|([^|]*)\|", section, re.M)
              for key in re.findall(r"`([^`]+)`", row)]
    assert sorted(listed) == sorted(DEFAULTS)
