"""End-to-end CLI runs against temp directories: artifacts, exit codes,
manifest integrity, and byte-level reproducibility."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import perpetuity
from perpetuity import distributions
from perpetuity.cli import main
from perpetuity.distributions import validate
from perpetuity.levy import levy_from_solution, steutel_residual
from perpetuity.lst_solver import solve
from perpetuity.montecarlo import (mc_fixed_point, perpetuity_residual,
                                   transform_steps)

FAST_MC = [
    "--set", "mc.n_samples=20000",
    "--set", "mc.iterations=20",
    "--set", "mc.master_seed=424242",
]
FAST_VERIFY = [
    "--set", "levy.n_samples=20000",
    "--set", "verify.pairs=2",
    "--set", "verify.quad_points=128",
]
UNIFORM = ["--set", "rho.family=uniform01", "--set", "rho.n=512"]
HALF = ["--set", "rho.atoms=0.5:1.0"]


def out(tmp_path):
    return ["--set", f"output.dir={tmp_path / 'runs'}"]


def assert_manifest_intact(run_dir):
    """Assert that each manifest entry names a file of run_dir whose sha256
    it records."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["artifacts"]
    for entry in manifest["artifacts"]:
        data = (run_dir / entry["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]


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
    assert_manifest_intact(rd)
    assert "diagnose-" in capsys.readouterr().out

    assert main(["diagnose", "--set", "rho.atoms=2.0:1.0",
                 *out(tmp_path)]) == 2


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["diagnose", "--set", "bogus.key=1", *out(tmp_path)]) == 1
    assert main(["diagnose", *out(tmp_path)]) == 1       # no rho given
    assert main(["solve", "--method", "both", *HALF, *out(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "master_seed" in err


@pytest.mark.parametrize("argv,words", [
    (["solve", "--method", "mc"],
     "perpetuity solve: argument --method: invalid choice: 'mc' "
     "(choose from 'lst', 'both')"),
    (["bogus"], "perpetuity: argument command: invalid choice: 'bogus'"),
    ([], "perpetuity: the following arguments are required: command"),
], ids=["retired-method", "unknown-command", "no-command"])
def test_usage_errors_exit_1(tmp_path, capsys, argv, words):
    """A malformed command line exits 1 with one error line, as a
    malformed config does (argparse alone would exit 2, the existence
    gate's code), and writes no run directory."""
    # with no command, --set would be read as the command
    assert main([*argv, *out(tmp_path)] if argv else []) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {words}") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--help"])
    assert exit_info.value.code == 0
    assert "--method {lst,both}" in capsys.readouterr().out


def test_failed_commands_leave_no_run_dir(tmp_path, capsys):
    assert main(["solve", "--set", "rho.atoms=2:1", *out(tmp_path)]) == 2
    assert main(["solve", "--method", "both", *HALF, *out(tmp_path)]) == 1
    assert "master_seed" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    # diagnose reports on the law that fails the gate, so it still writes
    assert main(["diagnose", "--set", "rho.atoms=2:1", *out(tmp_path)]) == 2
    rd = only_run_dir(tmp_path, "diagnose")
    assert json.loads((rd / "diagnostics.json").read_text())["exists"] is False
    assert_manifest_intact(rd)
    assert len(list((tmp_path / "runs").iterdir())) == 1


def test_response_artifacts(tmp_path):
    assert main(["response", *HALF, *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "response")
    lines = (rd / "response.csv").read_text().splitlines()
    assert lines[0] == "value,duration"
    assert json.loads((rd / "response.json").read_text())["lambda"] == 1.0
    curve = (rd / "response_curve.csv").read_text().splitlines()
    assert curve[0] == "u,h"
    assert_manifest_intact(rd)


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


def test_solve_records_the_map_the_lst_solved(tmp_path):
    """A uniform01-tagged law solves the continuous family's map, and the
    same 512 atoms without the tag solve as atoms."""
    atoms = ",".join(f"{(2 * k - 1) / 1024!r}:{1 / 512!r}"
                     for k in range(1, 513))
    for name, law in (("family", UNIFORM), ("atoms",
                                             ["--set", f"rho.atoms={atoms}"])):
        assert main(["solve", *law, "--set",
                     f"output.dir={tmp_path / name}"]) == 0
        rd = next((tmp_path / name).iterdir())
        report = json.loads((rd / "solution.json").read_text())
        assert report["lst"]["map"] == {"family": "uniform01 family",
                                        "atoms": "atoms"}[name]


def test_solve_both_exits_4_when_the_cross_check_fails(tmp_path):
    """uniform01 with 8 atoms: the LST solves the continuous law exactly,
    while the MC samples the 8 atoms, whose law misses Exp(1) by 1.5e-2,
    so the cross-check fails (max_ratio 7.7 at these settings); the run is
    written all the same."""
    argv = ["solve", "--method", "both", "--set", "rho.family=uniform01",
            "--set", "rho.n=8", *FAST_MC, *out(tmp_path)]
    assert main(argv) == 4
    report = json.loads((only_run_dir(tmp_path, "solve")
                         / "solution.json").read_text())
    assert report["cross_method"]["passed"] is False
    assert report["cross_method"]["max_ratio"] > 5.0


def test_solve_mc_and_both(tmp_path):
    assert main(["solve", "--method", "both", *HALF, *FAST_MC,
                 *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "solve")
    sidecar = json.loads((rd / "sample.json").read_text())
    assert sidecar["n"] == 20000
    report = json.loads((rd / "solution.json").read_text())
    assert report["mc"]["n"] == 20000
    assert abs(report["mc"]["mean"] - 1.0) < 0.15
    assert report["lst"]["converged"] is True
    assert report["cross_method"]["passed"] is True

    assert main(["solve", "--method", "both", *UNIFORM, *FAST_MC,
                 "--set", "output.dir=" + str(tmp_path / "runs2")]) == 0
    rd2 = next((tmp_path / "runs2").iterdir())
    both = json.loads((rd2 / "solution.json").read_text())
    assert both["cross_method"]["passed"] is True
    assert_manifest_intact(rd2)


def test_solve_mc_refuses_unboundable_law(tmp_path, capsys):
    law = ["--set", "rho.atoms=1e-7:0.5,1.5:0.5"]          # K = 5e6
    assert main(["solve", "--method", "both", *law, *FAST_MC,
                 *out(tmp_path)]) == 1
    assert "per-chunk cap" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_solve_mc_reports_effective_chunk(tmp_path):
    """K = 5000 gives 2**17 // 5000 = 26 slots per chunk, and the report
    carries that size.  With T capped at 1 the sample is far from the
    fixed point, and the cross-check says so (exit 4)."""
    assert main(["solve", "--method", "both",
                 "--set", "rho.atoms=1e-4:0.5,1.5:0.5",
                 "--set", "mc.n_samples=2000", "--set", "mc.iterations=1",
                 "--set", "mc.master_seed=7", *out(tmp_path)]) == 4
    rd = only_run_dir(tmp_path, "solve")
    report = json.loads((rd / "solution.json").read_text())
    assert report["mc"]["chunk_size"] == 26
    assert report["cross_method"]["passed"] is False
    assert "chunk=26," in json.loads((rd / "sample.json").read_text())[
        "provenance"]


def test_solve_mc_refuses_all_zero_iterate(tmp_path, capsys):
    """n = 3 half-point slots run T = 3 steps and are all zero at iterate
    3 with seed 8: no mean to rescale, so exit 1 and no run directory."""
    assert main(["solve", "--method", "both", *HALF,
                 "--set", "mc.n_samples=3", "--set", "mc.master_seed=8",
                 *out(tmp_path)]) == 1
    assert "iterate 3 of n = 3 samples is all zero" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_solve_mc_refuses_no_samples(tmp_path, capsys):
    """mc.n_samples=0 exits 1 with one error line, before any sampling and
    without a numpy RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--method", "both", *HALF,
                     "--set", "mc.n_samples=0", "--set", "mc.master_seed=1",
                     *out(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: n_samples must be >= 1\n"
    assert not (tmp_path / "runs").exists()


#: A lattice of step h = 1.83 in log s: its iterate 14 is not finite.
COARSE = ["--set", "rho.atoms=0.5:1", "--set", "solver.s_max=1e200"]


def test_solve_stops_at_first_non_finite_iterate(tmp_path, capsys):
    """On a lattice too coarse for the cubic read the iterate overflows at
    iterate 14: the solve stops there at the default max_iter, names the
    lattice step and writes nothing, so no artifact can hold NaN or
    Infinity."""
    assert main(["solve", *COARSE, *out(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "LST iterate 14 is not finite" in err
    assert "the lattice step h = 1.83 in log s" in err
    assert not (tmp_path / "runs").exists()
    # with no iteration the residual would be inf
    assert main(["solve", *UNIFORM, "--set", "solver.max_iter=0",
                 *out(tmp_path)]) == 1
    assert "max_iter must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_solve_both_records_transform_steps(tmp_path, capsys):
    """The MC runs the T that the LST trajectory picks from the Gamma
    start (1 for uniform01 at n = 2e4, whose start is Exp(1)), capped by
    mc.iterations = 20; the start law is recorded."""
    assert main(["solve", "--method", "both", *UNIFORM, *FAST_MC,
                 *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "solve")
    mc = json.loads((rd / "solution.json").read_text())["mc"]
    assert mc["iterations"] == 1
    assert mc["start"] == {"law": "gamma", "shape": 1.0, "scale": 1.0}
    assert 0.0 < mc["transform_bias"] < 1e-3
    assert "start=gamma(shape=1, scale=1), iters=1," in json.loads(
        (rd / "sample.json").read_text())["provenance"]
    assert "T=1\n" in capsys.readouterr().out


def test_solve_mc_transform_steps_cap_and_rough_grid(tmp_path):
    """mc.iterations caps T; a grid that did not converge gives T = cap
    and a null bias, and the solve exits 3 for the unconverged grid."""
    two_atom = ["--set", "rho.atoms=0.3:0.5,1.2:0.5",
                "--set", "mc.n_samples=2000", "--set", "mc.master_seed=3"]
    for extra, steps, has_bias, code in (
            (["mc.iterations=5"], 5, True, 0),
            (["mc.iterations=4", "solver.max_iter=3"], 4, False, 3)):
        runs = tmp_path / f"runs{steps}"
        sets = [a for e in extra for a in ("--set", e)]
        assert main(["solve", "--method", "both", *two_atom, *sets,
                     "--set", f"output.dir={runs}"]) == code
        mc = json.loads((next(runs.iterdir()) / "solution.json")
                        .read_text())["mc"]
        assert mc["iterations"] == steps
        assert (mc["transform_bias"] is not None) is has_bias


def test_mc_commands_refuse_a_law_the_lst_cannot_solve(tmp_path, capsys):
    """The MC route now solves the LST first, so a law whose LST iterate
    goes non-finite fails at once: exit 1, no run directory, and no numpy
    RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--method", "both", *COARSE,
                     "--set", "mc.master_seed=1", *out(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "LST iterate 14 is not finite" in err
    assert ("use more solver.grid_points or a narrower "
            "[solver.s_min, solver.s_max]") in err
    assert not (tmp_path / "runs").exists()


def test_solve_refuses_an_overflowing_mean(tmp_path, capsys):
    """A mean whose scaled grid end s_max / mean or s_min / mean is not
    finite or not positive exits 1 with a message that names the mean,
    without a numpy RuntimeWarning; so does one whose variance E eta^2
    overflows."""
    ends = ("must be a positive real with s_min / mean and s_max / mean "
            "finite and positive")
    for mean, words in (("1e-306", f"mean = 1e-306 {ends}"),
                        ("inf", f"mean = inf {ends}"),
                        ("1e-320", f"mean = 9.99989e-321 {ends}"),
                        ("1e306", "E eta^2 overflows a double at mean = "
                                  "1e+306; use a smaller mean")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--set", "rho.atoms=0.5:1",
                         "--set", f"mean={mean}", *out(tmp_path)]) == 1
        assert words in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_solve_refuses_a_mean_whose_sample_sum_overflows(tmp_path, capsys):
    """A mean whose n-sample sum n * mean overflows exits 1 before any
    draw, without a numpy RuntimeWarning: where E eta^2 exists it
    overflows first (n * mean cannot, for any n below 1e154), and where
    it does not (E A = 1.55) the law has no MC start law at any mean."""
    args = ["solve", "--method", "both", "--set", "mc.n_samples=2000",
            "--set", "mc.master_seed=5", "--set", "mean=1e306",
            *out(tmp_path)]
    for law, words in ((HALF, "E eta^2 overflows a double at mean = 1e+306"),
                       (["--set", "rho.atoms=0.1:0.5,3:0.5"],
                        "E A = 1.55, not below 1")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*args, *law]) == 1
        assert words in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


HEAVY = ["--set", "rho.atoms=0.1:0.8,5.9:0.2"]


def test_sampling_commands_refuse_a_law_without_a_mean(tmp_path, capsys,
                                                       monkeypatch):
    """On {0.1: .8, 5.9: .2}, E A = 1.26 (E A^0.5 = 0.74, so metric.q
    passes): eta_sb has no mean and no sample represents it.  solve
    --method both, levy and verify exit 1 naming E A and the LST route,
    with no run directory; levy and verify solve and draw nothing first."""
    words = "E A = 1.26, not below 1: eta_sb has no mean (kappa = 0.837"
    assert main(["solve", "--method", "both", *HEAVY, *FAST_MC,
                 *out(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert words in err and "use solve --method lst" in err

    def refuse(*args, **kwargs):
        raise AssertionError("solved, drew or read before the refusal")

    for name in ("solve", "mc_fixed_point"):
        monkeypatch.setattr(f"perpetuity.cli.{name}", refuse)
    for command in ("levy", "verify"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, *HEAVY, *FAST_MC, *FAST_VERIFY,
                         *out(tmp_path)]) == 1
        assert words in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_solve_lst_warns_on_a_law_without_a_mean(tmp_path, capsys):
    """solve --method lst on a law whose moment recursion finds no E eta^2
    (E A >= 1 - 1e-12, so the grid's v is 0) writes one warning line naming
    E A and kappa and exits 0 with the same artifacts as a direct solve:
    {0.1: .8, 5.9: .2} (E A = 1.26) and a law with E A = 1 - 5e-13.  A law
    with E A < 1 - 1e-12 prints no warning."""
    for atoms, shown in (
            ([(0.1, 0.8), (5.9, 0.2)], "1.26 is not below 1 - 1e-12, so E "
             "eta^2 does not exist (kappa = 0.837"),
            ([(0.5, 0.5000000000005), (1.5, 0.4999999999995)],
             "0.9999999999995 is not below 1 - 1e-12, so E eta^2 does not "
             "exist (kappa = 1)")):
        law = ",".join(f"{a!r}:{w!r}" for a, w in atoms)
        assert main(["solve", "--set", f"rho.atoms={law}",
                     *out(tmp_path)]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"warning: E A = {shown}")
        assert "phi can be off by up to 0.1 at the default grid" in line
        rd = only_run_dir(tmp_path, "solve")
        assert_manifest_intact(rd)
        grid = solve(validate(atoms), 1.0)
        assert grid.v == 0.0
        assert (rd / "grid.csv").read_text() == "".join(grid.to_csv("grid")[
            "grid.csv"])
        shutil.rmtree(rd)
    assert main(["solve", *HALF, *out(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_moments_cli(tmp_path):
    assert main(["moments", "--set", "moments.order=6", *UNIFORM,
                 *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "moments")
    rows = (rd / "moments.csv").read_text().splitlines()
    assert rows[0] == "order,value"
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert vals[0] == 1.0 and len(vals) == 7          # orders 0..6
    assert vals[2] == pytest.approx(2.0, rel=1e-9)    # dyadic mean is exact
    sb = (rd / "sb_moments.csv").read_text().splitlines()
    assert float(sb[2].split(",")[1]) == pytest.approx(2.0, rel=1e-9)
    # the manifest's config block records the order that ran
    manifest = json.loads((rd / "manifest.json").read_text())
    assert manifest["config"]["moments.order"] == "6"


def test_levy_cli(tmp_path):
    assert main(["levy", *UNIFORM, *FAST_MC,
                 "--set", "levy.n_samples=20000", *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "levy")
    assert "iters=1," in json.loads((rd / "sample.json").read_text())[
        "provenance"]
    steutel = json.loads((rd / "steutel.json").read_text())
    assert steutel["probes"] == [0.5, 1.0, 2.0, 4.0]
    assert steutel["residual"] < 0.05
    assert json.loads(
        (rd / "levy.json").read_text())["total_mass_of_M"] == "infinity"
    assert_manifest_intact(rd)


def test_levy_and_verify_count_probes_beyond_the_levy_sample(tmp_path):
    """On the point mass at 1/2 a 2000-value sample often ends below 8,
    so the levy sample A * eta_sb ends below the probe 4: every pair
    counts there, and levy exits 0 and verify 0 or 4, never 1."""
    beyond = 0
    for seed in range(1, 6):
        small = ["--set", "mc.n_samples=2000", "--set",
                 f"mc.master_seed={seed}", "--set", "levy.n_samples=20000"]
        assert main(["levy", *HALF, *small, *out(tmp_path)]) == 0
        rd = only_run_dir(tmp_path, "levy")
        last = (rd / "levy.csv").read_text().splitlines()[-1]
        beyond += float(last.split(",")[0]) < 4.0
        steutel = json.loads((rd / "steutel.json").read_text())
        assert steutel["probes"][-1] == 4.0 and steutel["rhs"][-1] <= 1.0
        shutil.rmtree(rd)
        assert main(["verify", *HALF, *small, *FAST_VERIFY,
                     *out(tmp_path)]) in (0, 4)
    assert beyond > 0


def test_levy_and_verify_refuse_bad_settings_before_solving(
        tmp_path, capsys, monkeypatch):
    """Each bad levy.*, verify.* or metric.q setting exits 1 naming its
    key before anything is solved or drawn, with no RuntimeWarning and no
    run directory."""
    def refuse(*args, **kwargs):
        raise AssertionError("solved or drew before checking the settings")

    monkeypatch.setattr("perpetuity.cli.solve", refuse)
    monkeypatch.setattr("perpetuity.cli.mc_fixed_point", refuse)
    levy_bad = ["levy.n_samples=0"]
    verify_bad = [*levy_bad, "verify.pairs=0", "verify.quad_points=8",
                  "metric.q=2.5"]
    for command, settings in (("levy", levy_bad), ("verify", verify_bad)):
        for setting in settings:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main([command, *UNIFORM, *FAST_MC,
                             "--set", setting, *out(tmp_path)]) == 1
            assert setting.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_retired_keys_are_unknown(tmp_path, capsys):
    """lambda (the dual kernel has lambda = 1), the band keys (metrics
    defines both bands), rho.csv (rho.atoms takes any atomic law),
    levy.probes (the Steutel probes are fixed) and verify.steutel_tol (the
    Steutel check's bound is its report's crit_1pct) are unknown keys:
    --set of one exits 1."""
    for key in ("lambda", "metric.s_lo", "metric.s_hi", "metric.quad_points",
                "verify.s_lo", "verify.s_hi", "rho.csv", "levy.probes",
                "verify.steutel_tol"):
        assert main(["metric", *HALF, "--set", f"{key}=1",
                     *out(tmp_path)]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_verify_and_metric_refuse_a_q_without_contraction(
        tmp_path, capsys, monkeypatch):
    """On {0.01: .3, .5: .5, 50: .2}, E A^0.5 = 1.80: verify and metric at
    the default metric.q exit 1 naming metric.q and E A^(q-1) before
    anything is solved, drawn or integrated."""
    def refuse(*args, **kwargs):
        raise AssertionError("computed before checking metric.q")

    for name in ("solve", "mc_fixed_point", "r_delta_report",
                 "contraction_ratio"):
        monkeypatch.setattr(f"perpetuity.cli.{name}", refuse)
    law = ["--set", "rho.atoms=0.01:0.3,0.5:0.5,50:0.2"]
    for command in ("verify", "metric"):
        assert main([command, *law, *FAST_MC, *out(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "metric.q=1.5: E A^(q-1) = 1.79" in err
    assert not (tmp_path / "runs").exists()


def test_q_refusal_names_the_admissible_range(tmp_path, capsys):
    """The metric.q refusal on {0.01: .3, .5: .5, 50: .2} names the orders
    that contract, q < 1 + kappa = 1.2088."""
    law = ["--set", "rho.atoms=0.01:0.3,0.5:0.5,50:0.2"]
    for command in ("verify", "metric"):
        assert main([command, *law, *FAST_MC, *out(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "metric.q=1.5: E A^(q-1) = 1.79" in err
        assert "only q < 1 + kappa = 1.2088" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["metric", "verify"])
def test_metric_and_verify_exit_2_on_a_law_failing_the_gate(
        tmp_path, capsys, command):
    """On {2: 1} (E log A = 0.693) metric and verify exit 2 with the
    existence gate's message, as solve and levy do, not 1 with the
    metric.q refusal, and write no run directory."""
    law = ["--set", "rho.atoms=2:1"]
    assert main([command, *law, *FAST_MC, *out(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "existence gate: no non-degenerate solution: E log A = 0.69314718056")
    assert not (tmp_path / "runs").exists()


def test_metric_refuses_a_band_the_mean_cannot_scale(tmp_path, capsys):
    """The metric and verify bands are in units of 1/mean: a mean of 0
    exits 1 naming it, and one that puts s_hi / mean at infinity exits 1
    naming the band, both with no RuntimeWarning and no run directory."""
    thetas = ["--set", "metric.theta1=1:1",
              "--set", "metric.theta2=0.5:0.5,1.5:0.5"]
    for mean, words in (("0", "mean = 0 must be a positive real"),
                        ("1e-305", "need 0 < s_lo < s_hi < inf")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["metric", *UNIFORM, *thetas, "--set", f"mean={mean}",
                         *out(tmp_path)]) == 1
        assert words in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def _scaled_runs(tmp_path, mean):
    """solve --method both, verify, levy and metric at ``mean``: their
    reports (verify's checks only) and grid.csv as an array."""
    runs = tmp_path / mean
    argv = [*UNIFORM, *FAST_MC, *FAST_VERIFY, "--set", f"mean={mean}",
            "--set", f"output.dir={runs}"]
    for command in (["solve", "--method", "both"], ["verify"], ["levy"],
                    ["metric"]):
        assert main([*command, *argv]) == 0

    def read(command, name):
        (run_dir,) = runs.glob(f"{command}-*")
        return (run_dir / name).read_text()

    return {
        "solve": json.loads(read("solve", "solution.json")),
        "grid": np.loadtxt(read("solve", "grid.csv").splitlines()[1:],
                           delimiter=","),
        "verify": json.loads(read("verify", "verify.json"))["checks"],
        "levy": json.loads(read("levy", "steutel.json")),
        "metric": json.loads(read("metric", "metric.json")),
    }


def test_every_length_is_in_units_of_the_mean(tmp_path):
    """A run at mean m is the mean-1 run rescaled: every s the package
    picks is in units of 1/m and every x in units of m, so verdicts,
    counts and ratios do not move, and r_q scales as m^q."""
    base = _scaled_runs(tmp_path, "1")
    q = base["metric"]["contraction"]["q"]
    for mean in ("1e-3", "1e3"):
        m, got = float(mean), _scaled_runs(tmp_path, mean)
        solved, ref = got["solve"], base["solve"]
        assert solved["lst"]["iterations"] == ref["lst"]["iterations"]
        for key in ("iterations", "zero_fraction"):
            assert solved["mc"][key] == ref["mc"][key]
        cross, ref_cross = solved["cross_method"], ref["cross_method"]
        assert cross["passed"] is ref_cross["passed"]
        assert cross["max_ratio"] == pytest.approx(ref_cross["max_ratio"],
                                                   rel=1e-9)
        np.testing.assert_allclose(got["grid"][:, 0] * m, base["grid"][:, 0],
                                   rtol=1e-9)
        np.testing.assert_allclose(got["grid"][:, 1:], base["grid"][:, 1:],
                                   rtol=1e-9)

        checks, ref = got["verify"], base["verify"]
        assert {k: c["passed"] for k, c in checks.items()} == {
            k: c["passed"] for k, c in ref.items()}
        perp = checks["perpetuity"]
        assert abs(perp["ks_stat"] - ref["perpetuity"]["ks_stat"]) <= (
            1.0 / perp["n"])
        for steutel, ref_steutel in ((checks["steutel"], ref["steutel"]),
                                     (got["levy"], base["levy"])):
            assert steutel["residual"] == pytest.approx(
                ref_steutel["residual"], rel=1e-6)
        ratios = [p["ratio"] for p in checks["contraction"]["per_pair"]]
        ref_ratios = [p["ratio"] for p in ref["contraction"]["per_pair"]]
        assert [r is None for r in ratios] == [r is None for r in ref_ratios]
        assert [r for r in ratios if r is not None] == pytest.approx(
            [r for r in ref_ratios if r is not None], rel=1e-9)

        metric, ref = got["metric"], base["metric"]
        assert metric["r_delta"]["value"] == pytest.approx(
            m ** q * ref["r_delta"]["value"], rel=1e-9)
        assert metric["contraction"]["ratio"] == pytest.approx(
            ref["contraction"]["ratio"], rel=1e-9)


def test_metric_cli(tmp_path):
    # exact characteristic functions only: no mc.master_seed needed
    assert main(["metric", "--set", "metric.q=1.5", *UNIFORM,
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
    assert rep["mc"]["iterations"] == 1 and rep["mc"]["transform_bias"] > 0
    assert rep["mc"]["start"]["law"] == "gamma"
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


def test_verify_checks_the_sample_that_solve_writes(tmp_path, monkeypatch):
    """verify draws its sample as solve --method both does: at one config,
    the sample its perpetuity check reads is bit for bit the sample.csv
    that solve writes."""
    args = [*HALF, *FAST_MC, *out(tmp_path)]
    assert main(["solve", "--method", "both", *args]) == 0
    header, *rows = (only_run_dir(tmp_path, "solve") / "sample.csv"
                     ).read_text().splitlines()
    assert header == "value"
    written = np.array([float(row) for row in rows])
    checked = []

    def capture(sample, *rest):
        checked.append(sample.values.copy())
        return perpetuity_residual(sample, *rest)

    monkeypatch.setattr("perpetuity.cli.perpetuity_residual", capture)
    assert main(["verify", *args, *FAST_VERIFY]) == 0
    (values,) = checked
    assert values.size == 20000 and values.tobytes() == written.tobytes()


def test_verify_judges_the_levy_sample_that_levy_writes(tmp_path):
    """levy and verify draw one levy sample per config: levy's
    steutel.json is verify.json's checks.steutel without its verdict."""
    args = ["--set", "rho.atoms=0.3:0.5,1.2:0.5", *FAST_MC, *FAST_VERIFY,
            *out(tmp_path)]
    assert main(["levy", *args]) == 0
    assert main(["verify", *args]) == 0
    steutel = json.loads((only_run_dir(tmp_path, "levy") / "steutel.json"
                          ).read_text())
    checked = json.loads((only_run_dir(tmp_path, "verify") / "verify.json"
                          ).read_text())["checks"]["steutel"]
    assert checked.pop("passed") is True
    assert checked == steutel


def _verify_checks(tmp_path, law, seed):
    """verify.json's perpetuity and Steutel checks at mc.n_samples=2e4
    and 1e5 levy draws."""
    runs = tmp_path / str(seed)
    assert main(["verify", "--set", f"rho.atoms={law}", "--set",
                 "mc.n_samples=20000", "--set", "levy.n_samples=100000",
                 "--set", f"mc.master_seed={seed}", "--set", "verify.pairs=1",
                 "--set", "verify.quad_points=16",
                 "--set", f"output.dir={runs}"]) in (0, 4)
    (run_dir,) = runs.iterdir()
    checks = json.loads((run_dir / "verify.json").read_text())["checks"]
    shutil.rmtree(runs)
    return checks["perpetuity"]["passed"], checks["steutel"]["passed"]


@pytest.mark.parametrize("law", ["0.1:0.5,1.5:0.5", "0.5:1"])
def test_sample_checks_pass_correct_small_samples(tmp_path, law):
    """At n = 2e4 the sample's size-bias weights count like n / 4.4 draws
    on {0.1, 1.5} and n / 2 on the point mass at 1/2; with that Kish size
    in the bound, the Steutel check passes every one of seeds 1-20 and
    the perpetuity check at least 19 (a fixed 3e-3 failed 18 and 16 of
    them)."""
    verdicts = [_verify_checks(tmp_path, law, seed) for seed in range(1, 21)]
    assert sum(perp for perp, _ in verdicts) >= 19
    assert all(steutel for _, steutel in verdicts)


def test_sample_checks_flag_a_wrong_law_and_a_short_run():
    """On {0.3, 1.2} at the default sizes, seeds 1-3: the checks run
    against weights 0.45/0.55 both fail, and so do the checks of a sample
    stopped after 1 of its transform steps."""
    rho = validate([(0.3, 0.5), (1.2, 0.5)])
    wrong = validate([(0.3, 0.45), (1.2, 0.55)])
    steps, _ = transform_steps(rho, solve(rho, 1.0), 200_000, 40)
    probes = [0.5, 1.0, 2.0, 4.0]
    for seed in range(1, 4):
        for sample, law in ((mc_fixed_point(rho, 1.0, 200_000, seed, steps),
                             wrong),
                            (mc_fixed_point(rho, 1.0, 200_000, seed, 1), rho)):
            perp = perpetuity_residual(sample, law, seed)
            assert perp.ks_stat > perp.ks_crit_1pct
            levy = levy_from_solution(law, sample, seed, n_out=1_000_000)
            steutel = steutel_residual(sample, levy, probes)
            assert steutel.residual > steutel.crit_1pct


def test_metric_reports_r_q_once(tmp_path):
    """metric computes its contraction on its own r_q band, so the
    contraction's r_before is r_delta's value bit for bit."""
    assert main(["metric", *UNIFORM, *out(tmp_path)]) == 0
    rep = json.loads((only_run_dir(tmp_path, "metric") / "metric.json"
                      ).read_text())
    assert rep["contraction"]["r_before"] == rep["r_delta"]["value"]
    assert rep["contraction"]["ratio"] <= rep["contraction"]["bound_g"]


def test_a_size_past_memory_exits_1(tmp_path, capsys, monkeypatch):
    """A grid past 2^16 points is refused before it is allocated, and a
    MemoryError in any command exits 1 with an error line, no traceback
    and no run directory."""
    assert main(["solve", *HALF, "--set", "solver.grid_points=65537",
                 *out(tmp_path)]) == 1
    assert "grid needs 16 to 65536 points, not 65537" in (
        capsys.readouterr().err)

    for exc, line in ((MemoryError("Unable to allocate 74.5 GiB"),
                       "Unable to allocate 74.5 GiB"),
                      (MemoryError(), "MemoryError")):
        def exhaust(*args, exc=exc):
            raise exc

        monkeypatch.setattr("perpetuity.cli.mc_fixed_point", exhaust)
        assert main(["verify", *HALF, *FAST_MC, *out(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "runs").exists()


def test_a_failure_while_writing_leaves_no_run_dir(tmp_path, capsys,
                                                   monkeypatch):
    """CSVs are rendered as they are written, after the run directory is
    made: a MemoryError rendering the second block of sample.csv (the
    only CSV with full 4096-row blocks here) exits 1 and removes the
    directory with the artifacts already written."""
    render = distributions._csv_cells
    full_blocks = []

    def exhaust_on_second_block(col, sep):
        if col.size == distributions._CSV_BLOCK_ROWS:
            full_blocks.append(col.size)
            if len(full_blocks) == 2:
                raise MemoryError("Unable to allocate 160. KiB")
        return render(col, sep)

    monkeypatch.setattr(distributions, "_csv_cells", exhaust_on_second_block)
    assert main(["solve", "--method", "both", *HALF, *FAST_MC,
                 *out(tmp_path)]) == 1
    assert capsys.readouterr().err.endswith(
        "error: Unable to allocate 160. KiB\n")
    assert len(full_blocks) == 2
    assert not list((tmp_path / "runs").glob("*"))


def test_a_law_with_a_tiny_mean_has_a_variance(tmp_path, capsys):
    """On the point mass at 1e-17, v = E A / (1 - E A) = 1e-17 > 0, so
    E eta^2 exists: solve --method lst warns of nothing, and verify gets
    past the start law to the shot-noise chunk cap, which refuses
    K = 1e17 (exit 1, no run directory)."""
    tiny = ["--set", "rho.atoms=1e-17:1"]
    assert main(["solve", *tiny, *out(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    shutil.rmtree(tmp_path / "runs")
    assert main(["verify", *tiny, *FAST_MC, *FAST_VERIFY,
                 *out(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: K = E[1/A] = 1e+17 expected arrivals per sample slot")
    assert not (tmp_path / "runs").exists()


def test_solver_s_min_is_the_first_grid_node(tmp_path):
    """solver.s_min, in units of 1/mean, is the first node of grid.csv and
    lst.s_min in solution.json."""
    assert main(["solve", *HALF, "--set", "solver.s_min=1e-2",
                 "--set", "mean=2", *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "solve")
    first = (rd / "grid.csv").read_text().splitlines()[1].split(",")[0]
    report = json.loads((rd / "solution.json").read_text())
    assert float(first) == report["lst"]["s_min"] == 5e-3


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


def test_runtime_imports_neither_scipy_nor_numpy_ma(tmp_path):
    """A solve imports no scipy (a test-only oracle), no numpy.ma and no
    statistics (with fractions and decimal), whose import inside a run
    would be paid by every call."""
    src = str(Path(perpetuity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = (
        "import sys\n"
        "from perpetuity.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *(name in sys.modules\n"
        "              for name in ('scipy', 'numpy.ma', 'statistics')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", "--method", "both", *HALF,
         "--set", "mc.n_samples=2000", "--set", "mc.master_seed=3",
         *out(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False False"


# the 512 uniform01 midpoint atoms without the family tag: solved by
# correlation with a 131-entry kernel, not by the family's prefix sum
MIDPOINT_ATOMS = ",".join(f"{(2 * k + 1) / 1024!r}:{1 / 512!r}"
                          for k in range(512))

# sha256 of every CSV artifact of small runs; any change to the CSV
# rendering that moves a byte shows here.  The two `solve --method lst`
# runs pin the atoms' lattice operator: the midpoint atoms (31 iterations)
# and a law whose 4-entry near kernel comes with a fold of the offsets at
# or below -G and 4 offsets at or above G (16 iterations, E A >= 1)
GOLDEN_RUNS = [
    (["solve", "--method", "both", *UNIFORM, *FAST_MC], {
        "grid.csv":
            "bd78f21f7060a63188e80b778e67880b758910656dfd39299d99fe55a702f3eb",
        "sample.csv":
            "93119f7f963f8c2492be749c6f56d58ad4e7aefd32bd70faac2d9320334f921c",
    }),
    (["solve", "--method", "both", "--set", "rho.atoms=0.3:0.5,1.2:0.5",
      *FAST_MC], {
        "grid.csv":
            "656a3ac4efda21262a946c244be819a3d8d9493c50065e38d6f13c0b26aee6f5",
        "sample.csv":
            "2e28154390891b16740e3238ffda403718b357fd8c36e66397d8538fe37e07c8",
    }),
    (["levy", *UNIFORM, *FAST_MC, "--set", "levy.n_samples=20000"], {
        "levy.csv":
            "d16f90336df1578cc807567414f31755d65e53e35b64b8f0a5f23ded76fe2c4b",
        "sample.csv":
            "93119f7f963f8c2492be749c6f56d58ad4e7aefd32bd70faac2d9320334f921c",
    }),
    (["response", *UNIFORM], {
        "response.csv":
            "5d78513e3784d5e215b0bd48e9b44280aa552e39f409a1b371f4ee06b2bf13fe",
        "response_curve.csv":
            "214eed352b9b918c2e9b9a2b1cf41d5a53074271b1f9eeff36d1ed3dab75a0ad",
    }),
    (["moments", "--set", "moments.order=6",
      "--set", "rho.atoms=0.3:0.5,1.2:0.5"], {
        "moments.csv":
            "94b982416cc68e5c2c4ebfa9cce988e3d866562cb607b45a3ac555139adf2f29",
        "sb_moments.csv":
            "41c756d0c666022710582c8437892bff056705175b11a1f1eea0e19cc466a598",
    }),
    (["solve", "--method", "lst", "--set", f"rho.atoms={MIDPOINT_ATOMS}"], {
        "grid.csv":
            "6662cf60ea16de24e97c41f15c0f1e8e247c56ae1c364ba014a7d39ef0ad2f90",
        "solution.json":
            "1a4f0352fc0126fd9624c74f5bd04efd7bd40d5ec8e9db44bbc80715f2e92fb0",
    }),
    (["solve", "--method", "lst",
      "--set", "rho.atoms=1e-7:0.5,0.5:0.3,2e6:0.2"], {
        "grid.csv":
            "837f6f25a56ea3196c9b4a619c55f321b2e89156363c2a000c682bf8da011899",
        "solution.json":
            "e56d06bd1e5f2ca32b3b8c993669e8c577f4a72d6991512d5518b152b37328b5",
    }),
]


@pytest.mark.parametrize("argv,digests", GOLDEN_RUNS, ids=[
    "solve-uniform01", "solve-atoms", "levy", "response", "moments",
    "lst-midpoint-atoms", "lst-far-atoms"])
def test_csv_artifact_digests_are_pinned(tmp_path, argv, digests):
    assert main([*argv, *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, argv[0])
    got = {name: hashlib.sha256((rd / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests


# sha256 of the JSON reports of the check kernels (KS statistic, Steutel
# pair counts, characteristic functions), taken before those kernels were
# rewritten; a kernel that counts or sums differently moves a byte here.
# verify.json also carries mc.transform_bias, read off the LST grid, so
# a change to the LST's node values moves it too.
# The two-atom run's levy sample of 1e6 values is mostly exact ties.
CHECK_RUNS = [
    (["verify", *UNIFORM, *FAST_MC, *FAST_VERIFY], 0, "verify.json",
     "1157d288921cfb98f3ed5d45a31e26e6ad15ca23c6953aa89f64d2ee758a83a5"),
    (["verify", "--negative-control", *UNIFORM, *FAST_MC, *FAST_VERIFY], 4,
     "verify.json",
     "f33b7370e0228361fe22a675fd9caac03ba696409b87c7ea4748544cfb13ea4e"),
    (["verify", "--set", "rho.atoms=0.3:0.5,1.2:0.5", *FAST_MC,
      "--set", "verify.pairs=2", "--set", "verify.quad_points=128"], 0,
     "verify.json",
     "f0888fb575edef149a64f0f7b2eae685540dca43309ed29f9f693aab2cebf1b5"),
    (["levy", *UNIFORM, *FAST_MC, "--set", "levy.n_samples=20000"], 0,
     "steutel.json",
     "92e450530bf5468379aedb6a6ba5b419d5153347907413ff7990b5debf37caa1"),
]


@pytest.mark.parametrize("argv,code,name,digest", CHECK_RUNS, ids=[
    "verify-uniform01", "verify-negative-control", "verify-atoms", "levy"])
def test_check_report_digests_are_pinned(tmp_path, argv, code, name, digest):
    assert main([*argv, *out(tmp_path)]) == code
    rd = only_run_dir(tmp_path, argv[0])
    assert hashlib.sha256((rd / name).read_bytes()).hexdigest() == digest


# The five calls of perfbench/workloads.py at its seed 2024, argv written
# out, with the sha256 of every artifact each manifest lists.  The
# benchmark refuses a change whose artifacts fail its own checks, so byte
# drift on these calls should fail here first.
BENCH_SEED = ["--set", "mc.master_seed=2024"]
BENCHMARK_CALLS = [
    (["solve", "--method", "both", *UNIFORM, *BENCH_SEED], {
        "grid.csv":
            "bd78f21f7060a63188e80b778e67880b758910656dfd39299d99fe55a702f3eb",
        "sample.csv":
            "4be53f2211ed7022a5e24a8e608ffd37fe17124eec2ea66d2b2a5d03c5c8b18f",
        "sample.json":
            "1a07684df06a390e45367bf089205cccca9af27f26b0ba5223d078285b65d0ac",
        "solution.json":
            "4af54eddc293d470fd339f56e3d515506e1bd6890eeae1f5d6a6a47907871dd4",
    }),
    (["solve", "--method", "lst", "--set", "rho.family=uniform01",
      "--set", "rho.n=2048", "--set", "solver.grid_points=2048",
      *BENCH_SEED], {
        "grid.csv":
            "3c19bee8273c218aeb26bd8640d35fca0459212dfb4d03816c0def82e1eac930",
        "solution.json":
            "60384c1a36e8c323bfae21b4febedd97e472c925d8842ca631d0bec897fbcc95",
    }),
    (["solve", "--method", "both", "--set", "rho.atoms=0.5:1",
      *BENCH_SEED], {
        "grid.csv":
            "ab617be5839f5a6c76ad9a6fc66a538ca0331fdb69a8c34a56a2c3c641c7f52e",
        "sample.csv":
            "32bc289a6d07f2bb834a61fab0fc4183154d82a4a6fcb5370d06edc0fdbd9a59",
        "sample.json":
            "17301844cb66cb3d6c18015ab523df57a7e07bdcd61df2cea58ea1c8fd76c9e3",
        "solution.json":
            "50df73de46920a9069e88d148cfe14a10b8fb94a328bb9717d9804181f3fbb4f",
    }),
    (["solve", "--method", "both", "--set", "rho.atoms=0.3:0.5,1.2:0.5",
      *BENCH_SEED], {
        "grid.csv":
            "656a3ac4efda21262a946c244be819a3d8d9493c50065e38d6f13c0b26aee6f5",
        "sample.csv":
            "59466e324a5088f85360944c06c81f7a3d4a37670187b8ded8d666a49b75c896",
        "sample.json":
            "f42e24a95bb598503ad31a025cbe7878687b0c7d88f1811ac8193af1cf4e086e",
        "solution.json":
            "4fce0095fecd89ff55428fb8a84eadcc40328517b5fe5ad3201c0b5bd8cd9cd1",
    }),
    (["verify", *UNIFORM, "--set", "verify.pairs=8",
      "--set", "verify.quad_points=64", *BENCH_SEED], {
        "verify.json":
            "2c624a42941592f9631178288a58022fcf19e58de4624ea6c1a5fd74d9294d26",
    }),
]


@pytest.mark.parametrize("argv,digests", BENCHMARK_CALLS, ids=[
    "solve-uniform01", "lst-fine", "solve-atoms-half", "solve-atoms-two",
    "verify-uniform01"])
def test_benchmark_calls_keep_their_bytes(tmp_path, argv, digests):
    assert main([*argv, *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, argv[0])
    listed = json.loads((rd / "manifest.json").read_text())["artifacts"]
    assert {e["path"]: e["sha256"] for e in listed} == digests
    assert {name: hashlib.sha256((rd / name).read_bytes()).hexdigest()
            for name in digests} == digests
