"""End-to-end CLI runs against temp directories: artifacts, exit codes,
manifest integrity, and byte-level reproducibility."""

import hashlib
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
    """K = 5000 gives 2**17 // 5000 = 26 slots per chunk, and the report
    carries that size."""
    assert main(["solve", "--method", "mc",
                 "--set", "rho.atoms=1e-4:0.5,1.5:0.5",
                 "--set", "mc.n_samples=2000", "--set", "mc.iterations=1",
                 "--set", "mc.master_seed=7", *out(tmp_path)]) == 0
    rd = only_run_dir(tmp_path, "solve")
    report = json.loads((rd / "solution.json").read_text())
    assert report["mc"]["chunk_size"] == 26
    assert "chunk=26," in json.loads((rd / "sample.json").read_text())[
        "provenance"]


def test_solve_mc_refuses_all_zero_iterate(tmp_path, capsys):
    """n = 3 half-point slots run T = 3 steps and are all zero at iterate
    3 with seed 8: no mean to rescale, so exit 1 and no run directory."""
    assert main(["solve", "--method", "mc", *HALF,
                 "--set", "mc.n_samples=3", "--set", "mc.master_seed=8",
                 *out(tmp_path)]) == 1
    assert "iterate 3 of n = 3 samples is all zero" in capsys.readouterr().err
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--method", "mc", *COARSE,
                     "--set", "mc.master_seed=1", *out(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "LST iterate 14 is not finite" in err
    assert ("use more solver.grid_points or a narrower "
            "[solver.s_min, solver.s_max]") in err
    assert not (tmp_path / "runs").exists()


def test_solve_refuses_an_overflowing_mean(tmp_path, capsys):
    """A mean whose LST start m * s_max overflows a double exits 1 with a
    message that names the mean, without a numpy RuntimeWarning; so does
    one whose variance E eta^2 overflows."""
    for mean, words in (("1e306", "mean = 1e+306 must be a positive real "
                                  "small enough that mean * s_max"),
                        ("1e200", "E eta^2 overflows a double at mean = "
                                  "1e+200; use a smaller mean")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--set", "rho.atoms=0.5:1",
                         "--set", f"mean={mean}", *out(tmp_path)]) == 1
        assert words in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


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
            "a80ed9fc3a07b4236d43668df011da81ea09feb58c089d8cf4d4e5bb28f304f7",
        "sample.csv":
            "93119f7f963f8c2492be749c6f56d58ad4e7aefd32bd70faac2d9320334f921c",
    }),
    (["solve", "--method", "both", "--set", "rho.atoms=0.3:0.5,1.2:0.5",
      *FAST_MC], {
        "grid.csv":
            "a5964b498524fc42a74f3aa8987bb8e2183efef9e520a7e758b6627c14424f89",
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
     "506c466ebc6a320f7904a7f2d4f7a247b982b055456f680366324428c0b1e799"),
    (["verify", "--negative-control", *UNIFORM, *FAST_MC, *FAST_VERIFY], 4,
     "verify.json",
     "97c366c31aabd9b5433b2ea913b7403052b56df5da3b0970a40faf88782fe64e"),
    (["verify", "--set", "rho.atoms=0.3:0.5,1.2:0.5", *FAST_MC,
      "--set", "verify.pairs=2", "--set", "verify.quad_points=128",
      "--set", "verify.steutel_tol=0.05"], 0, "verify.json",
     "aa7d0e8dd9ad09802bb2223f6e253b6fec3d701441ebcd6d0860809b3e21807a"),
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
