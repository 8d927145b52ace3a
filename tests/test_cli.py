"""End-to-end CLI runs against temp directories: artifacts, exit codes,
manifest integrity, and byte-level reproducibility."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import perpetuity
from perpetuity.cli import main
from perpetuity.runconfig import check_manifest

FAST_MC = [
    "--set", "mc.n_samples=20000",
    "--set", "mc.iterations=20",
    "--set", "mc.master_seed=424242",
]
FAST_VERIFY = [
    "--set", "levy.n_samples=20000",
    "--set", "verify.pairs=2",
    "--set", "verify.quad_points=128",
    "--set", "verify.steutel_tol=0.05",
]
UNIFORM = ["--set", "rho.family=uniform01", "--set", "rho.n=512"]
HALF = ["--set", "rho.atoms=0.5:1.0"]


def out(tmp_path):
    return ["--set", f"output.dir={tmp_path / 'runs'}"]


def only_run_dir(tmp_path, command):
    dirs = [p for p in (tmp_path / "runs").iterdir()
            if p.name.startswith(command + "-")]
    assert len(dirs) == 1
    return dirs[0]


def test_diagnose_pass_and_gate(tmp_path, capsys):
    assert main(["diagnose", *HALF, *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "diagnose")
    report = json.loads((rd / "diagnostics.json").read_text())
    assert report["exists"] is True
    assert (rd / "diagnostics.txt").read_text().strip()
    check_manifest(rd)
    assert "diagnose-" in capsys.readouterr().out

    assert main(["diagnose", "--set", "rho.atoms=2.0:1.0",
                 *out(tmp_path)]) == 2


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["diagnose", "--set", "bogus.key=1", *out(tmp_path)]) == 1
    assert main(["diagnose", *out(tmp_path)]) == 1       # no rho given
    assert main(["solve", "--method", "mc", *HALF, *out(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "master_seed" in err


def test_failed_commands_leave_no_run_dir(tmp_path, capsys):
    assert main(["solve", "--set", "rho.atoms=2:1", *out(tmp_path)]) == 2
    assert main(["solve", "--method", "mc", *HALF, *out(tmp_path)]) == 1
    assert "master_seed" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    # diagnose reports on the law that fails the gate, so it still writes
    assert main(["diagnose", "--set", "rho.atoms=2:1", *out(tmp_path)]) == 2
    rd = only_run_dir(tmp_path, "diagnose")
    assert json.loads((rd / "diagnostics.json").read_text())["exists"] is False
    check_manifest(rd)
    assert len(list((tmp_path / "runs").iterdir())) == 1


def test_response_artifacts(tmp_path):
    assert main(["response", *HALF, *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "response")
    lines = (rd / "response.csv").read_text().splitlines()
    assert lines[0] == "value,duration"
    assert json.loads((rd / "response.json").read_text())["lambda"] == 1.0
    curve = (rd / "response_curve.csv").read_text().splitlines()
    assert curve[0] == "u,h"
    check_manifest(rd)


def test_solve_lst_and_nonconvergence(tmp_path):
    assert main(["solve", *HALF, *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "solve")
    assert (rd / "grid.csv").read_text().splitlines()[0] == "s,psi,phi"
    report = json.loads((rd / "solution.json").read_text())
    assert report["method"] == "lst"
    assert report["lst"]["converged"] is True
    assert "mc" not in report

    code = main(["solve", *HALF, "--set", "solver.max_iter=2",
                 *out(tmp_path)])
    assert code == 3
    rd2 = [p for p in (tmp_path / "runs").iterdir()
           if p.name.startswith("solve-") and p != rd]
    flagged = json.loads((rd2[0] / "solution.json").read_text())
    assert flagged["lst"]["converged"] is False


def test_solve_mc_and_both(tmp_path):
    assert main(["solve", "--method", "mc", *HALF, *FAST_MC,
                 *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "solve")
    sidecar = json.loads((rd / "sample.json").read_text())
    assert sidecar["n"] == 20000
    report = json.loads((rd / "solution.json").read_text())
    assert report["mc"]["n"] == 20000
    assert abs(report["mc"]["mean"] - 1.0) < 0.15
    assert "lst" not in report

    assert main(["solve", "--method", "both", *UNIFORM, *FAST_MC,
                 "--set", "output.dir=" + str(tmp_path / "runs2")]) == 0
    rd2 = next((tmp_path / "runs2").iterdir())
    both = json.loads((rd2 / "solution.json").read_text())
    assert both["cross_method"]["passed"] is True
    check_manifest(rd2)


def test_solve_mc_refuses_unboundable_law(tmp_path, capsys):
    law = ["--set", "rho.atoms=1e-7:0.5,1.5:0.5"]          # K = 5e6
    assert main(["solve", "--method", "mc", *law, *FAST_MC,
                 *out(tmp_path)]) == 1
    assert "per-chunk cap" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_solve_mc_reports_effective_chunk(tmp_path):
    """The arrival cap binds for K = 5000: 838 slots per chunk, not 65536."""
    assert main(["solve", "--method", "mc",
                 "--set", "rho.atoms=1e-4:0.5,1.5:0.5",
                 "--set", "mc.n_samples=2000", "--set", "mc.iterations=1",
                 "--set", "mc.master_seed=7", *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "solve")
    report = json.loads((rd / "solution.json").read_text())
    assert report["mc"]["chunk_size"] == 838
    assert "chunk=838," in json.loads((rd / "sample.json").read_text())[
        "provenance"]


def test_solve_mc_refuses_all_zero_iterate(tmp_path, capsys):
    """Three half-point slots are all zero at iterate 4 with seed 1: no
    mean to rescale, so exit 1 and no run directory."""
    assert main(["solve", "--method", "mc", *HALF,
                 "--set", "mc.n_samples=3", "--set", "mc.master_seed=1",
                 *out(tmp_path)]) == 1
    assert "iterate 4 of n = 3 samples is all zero" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_solve_mc_refuses_no_samples(tmp_path, capsys):
    """mc.n_samples=0 exits 1 with one error line, before any sampling and
    without a numpy RuntimeWarning."""
    for method in ("mc", "both"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--method", method, *HALF,
                         "--set", "mc.n_samples=0", "--set", "mc.master_seed=1",
                         *out(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: n_samples must be >= 1\n"
    assert not (tmp_path / "runs").exists()


def test_solve_stops_at_first_non_finite_iterate(tmp_path, capsys):
    """The slope continuation overflows for this law at iterate 4: the
    solve stops there at the default max_iter and writes nothing, so no
    artifact can hold NaN or Infinity."""
    law = ["--set", "rho.atoms=0.001:0.7,10000:0.3", "--set", "mean=3"]
    assert main(["solve", *law, *out(tmp_path)]) == 1
    assert "LST iterate 4 is not finite" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    # with no iteration the residual would be inf
    assert main(["solve", *UNIFORM, "--set", "solver.max_iter=0",
                 *out(tmp_path)]) == 1
    assert "max_iter must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_solve_both_records_transform_steps(tmp_path, capsys):
    """The MC runs the T that the LST trajectory picks (10 for uniform01
    at n = 2e4), capped by mc.iterations = 20."""
    assert main(["solve", "--method", "both", *UNIFORM, *FAST_MC,
                 *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "solve")
    mc = json.loads((rd / "solution.json").read_text())["mc"]
    assert mc["iterations"] == 10
    assert 0.0 < mc["transform_bias"] < 1e-3
    assert "iters=10," in json.loads((rd / "sample.json").read_text())[
        "provenance"]
    assert "T=10" in capsys.readouterr().out


def test_solve_mc_transform_steps_cap_and_rough_grid(tmp_path):
    """mc.iterations caps T; a grid that did not converge gives T = cap
    and a null bias (the MC-only solve still exits 0)."""
    two_atom = ["--set", "rho.atoms=0.3:0.5,1.2:0.5",
                "--set", "mc.n_samples=2000", "--set", "mc.master_seed=3"]
    for extra, steps, has_bias in ((["mc.iterations=5"], 5, True),
                                   (["mc.iterations=4", "solver.max_iter=3"],
                                    4, False)):
        runs = tmp_path / f"runs{steps}"
        sets = [a for e in extra for a in ("--set", e)]
        assert main(["solve", "--method", "mc", *two_atom, *sets,
                     "--set", f"output.dir={runs}"]) == 0
        mc = json.loads((next(runs.iterdir()) / "solution.json")
                        .read_text())["mc"]
        assert mc["iterations"] == steps
        assert (mc["transform_bias"] is not None) is has_bias


def test_mc_commands_refuse_a_law_the_lst_cannot_solve(tmp_path, capsys):
    """The MC route now solves the LST first, so a law whose LST iterate
    goes non-finite fails at once: exit 1, no run directory, and no numpy
    RuntimeWarning on the way."""
    law = ["--set", "rho.atoms=0.001:0.7,10000:0.3",
           "--set", "mc.master_seed=1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--method", "mc", *law, *out(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "LST iterate 4 is not finite" in err
    assert "a larger s_max (solver.s_max) may help" in err
    assert not (tmp_path / "runs").exists()


def test_moments_cli(tmp_path):
    assert main(["moments", "--order", "6", *UNIFORM, *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "moments")
    rows = (rd / "moments.csv").read_text().splitlines()
    assert rows[0] == "order,value"
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert vals[0] == 1.0 and len(vals) == 7          # orders 0..6
    assert vals[2] == pytest.approx(2.0, rel=1e-9)    # dyadic mean is exact
    sb = (rd / "sb_moments.csv").read_text().splitlines()
    assert float(sb[2].split(",")[1]) == pytest.approx(2.0, rel=1e-9)


def test_levy_cli(tmp_path):
    assert main(["levy", *UNIFORM, *FAST_MC,
                 "--set", "levy.n_samples=20000",
                 "--set", "levy.probes=0.5,1,2", *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "levy")
    assert "iters=10," in json.loads((rd / "sample.json").read_text())[
        "provenance"]
    steutel = json.loads((rd / "steutel.json").read_text())
    assert len(steutel["probes"]) == 3
    assert steutel["residual"] < 0.05
    assert json.loads(
        (rd / "levy.json").read_text())["total_mass_of_M"] == "infinity"
    check_manifest(rd)


def test_metric_cli(tmp_path):
    # exact characteristic functions only: no mc.master_seed needed
    assert main(["metric", "--q", "1.5", *UNIFORM,
                 "--set", "verify.quad_points=128", *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "metric")
    rep = json.loads((rd / "metric.json").read_text())
    assert rep["r_delta"]["value"] > 0.0
    assert rep["contraction"]["ratio"] <= rep["contraction"]["bound_g"] + 0.05
    assert rep["contraction"]["q"] == 1.5


def test_verify_pass_fail_and_reuse(tmp_path, capsys):
    args = [*UNIFORM, *FAST_MC, *FAST_VERIFY, *out(tmp_path)]
    assert main(["verify", *args]) == 0
    rd = only_run_dir(tmp_path, "verify")
    rep = json.loads((rd / "verify.json").read_text())
    assert rep["all_passed"] is True
    assert rep["mc"]["iterations"] == 10 and rep["mc"]["transform_bias"] > 0
    assert {"perpetuity", "steutel", "contraction"} <= set(rep["checks"])
    assert set(rep["checks"]["perpetuity"]) == {
        "passed", "negative_control", "ks_stat", "p_value", "n",
        "ks_crit_1pct"}
    contraction = rep["checks"]["contraction"]
    assert contraction["draws"] == 2
    assert len(contraction["per_pair"]) == 2
    assert contraction["pairs"] == sum(
        p["ratio"] is not None for p in contraction["per_pair"])
    assert "perpetuity: PASS" in capsys.readouterr().out

    # designed failure: the swapped-in point mass breaks the identity;
    # the flag is part of the content address, so it gets its own directory
    assert main(["verify", "--negative-control", *args]) == 4
    neg_dirs = [p for p in (tmp_path / "runs").iterdir()
                if p.name.startswith("verify-") and p != rd]
    assert len(neg_dirs) == 1
    neg = json.loads((neg_dirs[0] / "verify.json").read_text())
    assert neg["checks"]["perpetuity"]["passed"] is False
    assert neg["checks"]["perpetuity"]["negative_control"] is True
    manifest = json.loads((neg_dirs[0] / "manifest.json").read_text())
    assert "negative_control=True" in manifest["flags"]


def test_verify_from_prior_solve(tmp_path):
    assert main(["solve", "--method", "mc", *UNIFORM, *FAST_MC,
                 *out(tmp_path)]) == 0
    solve_dir = only_run_dir(tmp_path, "solve")
    args = [*UNIFORM, *FAST_MC, *FAST_VERIFY, *out(tmp_path)]
    assert main(["verify", "--from", str(solve_dir), *args]) == 0
    rep = json.loads((only_run_dir(tmp_path, "verify") / "verify.json")
                     .read_text())
    assert "mc" not in rep             # no sampling, so no transform count

    # tampering with the prior run must be caught before reuse
    sample = solve_dir / "sample.csv"
    sample.write_text(sample.read_text().replace("\n", "\n", 1) + "9.9\n")
    assert main(["verify", "--from", str(solve_dir), *args]) == 1


def test_reruns_are_byte_identical(tmp_path):
    a = ["solve", "--method", "both", *UNIFORM, *FAST_MC]
    assert main([*a, "--set", f"output.dir={tmp_path / 'r1'}"]) == 0
    assert main([*a, "--set", f"output.dir={tmp_path / 'r2'}"]) == 0
    d1 = next((tmp_path / "r1").iterdir())
    d2 = next((tmp_path / "r2").iterdir())
    for name in ("sample.csv", "grid.csv", "solution.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    # identical config into the same tree lands in the same directory
    assert main([*a, "--set", f"output.dir={tmp_path / 'r1'}"]) == 0
    assert len(list((tmp_path / "r1").iterdir())) == 1


def test_console_script(tmp_path):
    # the child imports the package this test imported, also when pytest
    # put it on sys.path itself (pyproject's ``pythonpath``)
    src = str(Path(perpetuity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "perpetuity.cli", "diagnose", *HALF,
         *out(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exists" in proc.stdout or "wrote" in proc.stdout
