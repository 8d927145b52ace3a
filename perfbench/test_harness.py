"""Self-tests of the benchmark harness, at small sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from workloads import (POINT_MASS, UNIFORM01, Call, inspect_call,
                       lambert_atom)

SMALL = ("--set", "rho.family=uniform01", "--set", "rho.n=16",
         "--set", "mc.n_samples=2000", "--set", "mc.iterations=3",
         "--set", "mc.master_seed=7")
SOLVE = Call(("solve", "--method", "both", "--set", "solver.grid_points=64")
             + SMALL, UNIFORM01)
NEGATIVE_CONTROL = Call(
    ("verify", "--negative-control", "--set", "levy.n_samples=20000",
     "--set", "verify.pairs=1", "--set", "verify.quad_points=16") + SMALL,
    UNIFORM01, ok_exits=(0, 4))


def _run(call, out_dir, traced):
    tracer = harness.Tracer() if traced else None
    res = harness.run_calls([call.argv], out_dir, tracer)
    checks, values, fp = inspect_call(call, res["exit_codes"][0],
                                      out_dir / "call0")
    return res, checks, fp


def test_traced_run_leaves_public_functions_unwrapped(tmp_path):
    before = [(owner, attr, fn) for owner, attr, fn, _n, _h
              in harness.target_bindings()]
    res, _checks, _fp = _run(SOLVE, tmp_path, traced=True)
    assert res["spans"], "the traced run recorded no spans"
    for owner, attr, fn in before:
        assert vars(owner)[attr] is fn, f"{owner.__name__}.{attr} still wrapped"


def test_shared_bindings_are_all_wrapped():
    owners = {owner.__name__ for owner, attr, _fn, name, _h
              in harness.target_bindings()
              if name == "montecarlo.shot_noise_resample"}
    assert {"perpetuity.montecarlo", "perpetuity.metrics"} <= owners


def test_traced_run_writes_the_same_artifacts(tmp_path):
    _res, checks, plain = _run(SOLVE, tmp_path / "plain", traced=False)
    _res, _checks, traced = _run(SOLVE, tmp_path / "traced", traced=True)
    assert {c.name: c.passed for c in checks}["manifest_intact"]
    assert plain is not None and plain == traced


def test_layer_self_times_sum_within_wall(tmp_path):
    res, _checks, _fp = _run(SOLVE, tmp_path, traced=True)
    own = harness.self_times(res["spans"])
    assert min(own) >= 0.0
    assert sum(own) <= res["wall_s"]
    assert harness.covered_s(res["spans"]) <= res["wall_s"]


def test_negative_control_counts_failed_checks(tmp_path):
    res, checks, _fp = _run(NEGATIVE_CONTROL, tmp_path, traced=False)
    assert res["exit_codes"] == [4]
    failed = {c.name for c in checks if not c.passed}
    assert {"exit_code", "verify.perpetuity"} <= failed
    assert len(failed) / len(checks) > 0


def test_point_mass_atom_closed_form():
    assert lambert_atom(POINT_MASS) == pytest.approx(0.2031878699, abs=1e-10)


def test_refuses_to_run_without_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "lst-fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
