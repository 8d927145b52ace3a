"""End-to-end CLI runs against temp directories: artifacts, exit codes,
manifest integrity, and byte-level reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import perpetuity
from perpetuity.cli import main
from perpetuity.distributions import point_mass, quantize_family
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
    check_manifest(rd2)


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
    """Where E eta^2 does not exist (E A = 1.55) no variance refusal
    applies, so a mean whose n-sample sum n * mean overflows exits 1
    before any draw with a message naming the mean and n, without a numpy
    RuntimeWarning; at mean 1e303 the same solve completes, and exits 4
    since the MC misses this law (cross-check max_ratio 1.14, as at
    mean 1)."""
    args = ["solve", "--method", "both", "--set", "rho.atoms=0.1:0.5,3:0.5",
            "--set", "mc.n_samples=2000", "--set", "mc.master_seed=5",
            *out(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*args, "--set", "mean=1e306"]) == 1
        assert ("mean = 1e+306 must be a positive real with n * mean finite "
                "for n = 2000 samples") in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        assert main([*args, "--set", "mean=1e303"]) == 4
    sol = json.loads((only_run_dir(tmp_path, "solve")
                      / "solution.json").read_text())
    assert sol["mc"]["n"] == 2000 and sol["mc"]["mean"] == 1e303
    assert sol["cross_method"]["passed"] is False


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
                 "--set", "levy.n_samples=20000",
                 "--set", "levy.probes=0.5,1,2", *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "levy")
    assert "iters=1," in json.loads((rd / "sample.json").read_text())[
        "provenance"]
    steutel = json.loads((rd / "steutel.json").read_text())
    assert len(steutel["probes"]) == 3
    assert steutel["residual"] < 0.05
    assert json.loads(
        (rd / "levy.json").read_text())["total_mass_of_M"] == "infinity"
    check_manifest(rd)


def test_levy_refuses_empty_and_non_finite_probes(tmp_path, capsys):
    """An empty or NaN levy.probes exits 1 naming the probes, with no
    numpy RuntimeWarning and no run directory."""
    for probes, shown in (("", "[]"), ("nan", "[nan]")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["levy", *UNIFORM, *FAST_MC,
                         "--set", "levy.n_samples=20000",
                         "--set", f"levy.probes={probes}",
                         *out(tmp_path)]) == 1
        assert f"probes {shown} must be a nonempty list" in (
            capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()


def test_levy_and_verify_refuse_bad_settings_before_solving(
        tmp_path, capsys, monkeypatch):
    """Each bad levy.*, verify.* or metric.q setting exits 1 naming its
    key before anything is solved or drawn, with no RuntimeWarning and no
    run directory."""
    def refuse(*args, **kwargs):
        raise AssertionError("solved or drew before checking the settings")

    monkeypatch.setattr("perpetuity.cli.solve", refuse)
    monkeypatch.setattr("perpetuity.cli.mc_fixed_point", refuse)
    levy_bad = ["levy.probes=nan", "levy.n_samples=0"]
    verify_bad = [*levy_bad, "verify.pairs=0", "verify.steutel_tol=abc",
                  "verify.quad_points=8", "metric.q=2.5"]
    for command, settings in (("levy", levy_bad), ("verify", verify_bad)):
        for setting in settings:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main([command, *UNIFORM, *FAST_MC,
                             "--set", setting, *out(tmp_path)]) == 1
            assert setting.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_retired_keys_are_unknown(tmp_path, capsys):
    """lambda (the dual kernel has lambda = 1) and the band keys (metrics
    defines both bands) are unknown keys: --set of one exits 1."""
    for key in ("lambda", "metric.s_lo", "metric.s_hi", "metric.quad_points",
                "verify.s_lo", "verify.s_hi"):
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


def test_verify_from_prior_solve(tmp_path):
    assert main(["solve", "--method", "both", *UNIFORM, *FAST_MC,
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


def test_verify_from_refuses_a_sample_of_another_law(tmp_path, capsys):
    """verify --from exits 1 on a sample drawn for another law or mean,
    naming the sample's and the config's law digest and mean."""
    seed = ["--set", "mc.master_seed=3"]
    assert main(["solve", "--method", "both", *HALF, *seed,
                 "--set", "mc.n_samples=20000", *out(tmp_path)]) == 0
    solve_dir = only_run_dir(tmp_path, "solve")
    drawn = f"rho={point_mass(0.5).digest()}, m=1,"
    for other, wanted in (
            (UNIFORM, f"rho={quantize_family('uniform01', 512).digest()}, m=1"),
            ([*HALF, "--set", "mean=2"], f"rho={point_mass(0.5).digest()}, m=2")):
        assert main(["verify", "--from", str(solve_dir), *other, *seed,
                     *FAST_VERIFY, *out(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert drawn in err and wanted in err
    assert [p.name.split("-")[0] for p in (tmp_path / "runs").iterdir()] == [
        "solve"]


def _solve_both_run(tmp_path):
    assert main(["solve", "--method", "both", *HALF, *FAST_MC,
                 *out(tmp_path)]) == 0
    return only_run_dir(tmp_path, "solve")


def _verify_from(tmp_path, run_dir):
    return main(["verify", "--from", str(run_dir), *HALF, *FAST_MC,
                 *FAST_VERIFY, *out(tmp_path)])


LACKS = "expected a JSON object with seed, provenance and n"


def _without(key):
    return lambda meta: json.dumps({k: v for k, v in meta.items() if k != key})


@pytest.mark.parametrize("rewrite,words", [
    (lambda meta: json.dumps([meta]), LACKS),
    (_without("seed"), LACKS),
    (_without("provenance"), LACKS),
    (_without("n"), LACKS),
    (lambda meta: "{seed: 1}", "not valid JSON (Expecting property name"),
    (lambda meta: json.dumps({**meta, "seed": "abc"}),
     "seed 'abc' is not an integer"),
], ids=["None", "seed", "provenance", "n", "not-json", "text-seed"])
def test_verify_from_refuses_a_malformed_sample_sidecar(tmp_path, capsys,
                                                         rewrite, words):
    """A sample.json that is not a JSON object (None), lacks seed,
    provenance or n, is not valid JSON or has a seed that is not an
    integer exits 1 naming the file, also under a manifest whose digests
    match."""
    run_dir = _solve_both_run(tmp_path)
    sidecar = run_dir / "sample.json"
    sidecar.write_text(rewrite(json.loads(sidecar.read_text())))
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["artifacts"]:
        if entry["path"] == sidecar.name:
            entry["sha256"] = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    assert _verify_from(tmp_path, run_dir) == 1
    assert f"{sidecar}: {words}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["path", "sha256"])
def test_verify_from_refuses_a_manifest_entry_without_path_or_sha256(
        tmp_path, capsys, key):
    run_dir = _solve_both_run(tmp_path)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["artifacts"][0][key]
    manifest_path.write_text(json.dumps(manifest))
    assert _verify_from(tmp_path, run_dir) == 1
    assert f"{manifest_path}: artifact entry" in capsys.readouterr().err


def test_verify_from_refuses_a_manifest_that_is_not_an_object(tmp_path,
                                                               capsys):
    run_dir = _solve_both_run(tmp_path)
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_text("[]")
    assert _verify_from(tmp_path, run_dir) == 1
    assert (f"error: {manifest_path}: expected a JSON object\n"
            == capsys.readouterr().err)


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


# sha256 of every CSV artifact of small runs; any change to the CSV
# rendering that moves a byte shows here
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
]


@pytest.mark.parametrize("argv,digests", GOLDEN_RUNS, ids=[
    "solve-uniform01", "solve-atoms", "levy", "response", "moments"])
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
     "d23621b7aa0e91d2f3234ef89f7d60fc805d573f82e3421f4cb06f0042d630a9"),
    (["verify", "--negative-control", *UNIFORM, *FAST_MC, *FAST_VERIFY], 4,
     "verify.json",
     "fe60a4a87a2e90444d74545cc47f43f7c3ff41f4d94550d71a5853c3dcfdaefc"),
    (["verify", "--set", "rho.atoms=0.3:0.5,1.2:0.5", *FAST_MC,
      "--set", "verify.pairs=2", "--set", "verify.quad_points=128",
      "--set", "verify.steutel_tol=0.05"], 0, "verify.json",
     "5265aed5f41b7fd3b9ab676b075238c591404c0faf6ce80fb032a8ee9b2d5ffc"),
    (["levy", *UNIFORM, *FAST_MC, "--set", "levy.n_samples=20000"], 0,
     "steutel.json",
     "c6c6b73455e78bf28d720b6a7d405bff6ff06e92bd649c421d4e5847879f8a4e"),
]


@pytest.mark.parametrize("argv,code,name,digest", CHECK_RUNS, ids=[
    "verify-uniform01", "verify-negative-control", "verify-atoms", "levy"])
def test_check_report_digests_are_pinned(tmp_path, argv, code, name, digest):
    assert main([*argv, *out(tmp_path)]) == code
    rd = only_run_dir(tmp_path, argv[0])
    assert hashlib.sha256((rd / name).read_bytes()).hexdigest() == digest
