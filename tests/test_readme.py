"""The README's examples run as documented."""

import json
import re
import shlex
from pathlib import Path

from perpetuity.cli import main
from perpetuity.runconfig import DEFAULTS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})


def test_verify_example_passes_at_defaults(tmp_path):
    # the example command with its backslash-continued lines
    (command,) = re.findall(r"^perpetuity verify (?:.*\\\n)*.*$",
                            README.read_text(), re.M)
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    assert main([*argv, "--set", f"output.dir={tmp_path}"]) == 0
    (run_dir,) = tmp_path.iterdir()
    report = json.loads((run_dir / "verify.json").read_text())
    assert report["all_passed"] is True
    contraction = report["checks"]["contraction"]
    assert contraction["draws"] == 20 and contraction["pairs"] == 19
    # draw 11: two point masses at the mean one ulp apart
    assert contraction["per_pair"][10]["ratio"] is None


def test_config_tables_list_every_key():
    """The "Configuration keys" tables name exactly the keys of DEFAULTS."""
    text = README.read_text()
    section = text[text.index("## Configuration keys"):]
    section = section[:section.index("\n## ", 1)]
    listed = [key for row in re.findall(r"^\|([^|]*)\|", section, re.M)
              for key in re.findall(r"`([^`]+)`", row)]
    assert sorted(listed) == sorted(DEFAULTS)
