"""Config parsing, typed access, artifact naming, manifest integrity."""

import hashlib
import json

import pytest

from perpetuity.distributions import FAMILY_UNIFORM01
from perpetuity.runconfig import (
    DEFAULTS,
    RunConfig,
    check_manifest,
    write_manifest,
    write_run,
)


def test_defaults_complete():
    cfg = RunConfig.load(None, [])
    assert cfg.get_float("mean") == 1.0
    assert cfg.get_int("solver.grid_points") == 256
    assert cfg.get_int("mc.n_samples") == 200_000
    assert cfg.get_float_list("levy.probes") == [0.5, 1.0, 2.0, 4.0]
    # every key resolves to a string in the frozen view
    assert set(cfg.resolved()) == set(DEFAULTS)


def test_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "\n"
        "mean = 2.5\n"
        "rho.atoms=0.5:1.0\n"
        "solver.tol=1e-10\n"
    )
    cfg = RunConfig.load(str(p), [])
    assert cfg.get_float("mean") == 2.5
    assert cfg.get_float("solver.tol") == 1e-10
    assert cfg.rho().locations.tolist() == [0.5]


def test_file_errors(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        RunConfig.load(str(tmp_path / "absent.cfg"), [])
    bad = tmp_path / "bad.cfg"
    bad.write_text("solver.tol\n")
    with pytest.raises(ValueError, match="key=value"):
        RunConfig.load(str(bad), [])
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("solver.typo=1\n")
    with pytest.raises(ValueError, match="unknown key"):
        RunConfig.load(str(unknown), [])


def test_overrides_win(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("mean=2.0\n")
    cfg = RunConfig.load(str(p), ["mean=3.0", "mc.master_seed=7"])
    assert cfg.get_float("mean") == 3.0
    assert cfg.master_seed() == 7
    with pytest.raises(ValueError, match="unknown key"):
        RunConfig.load(None, ["nope=1"])
    with pytest.raises(ValueError):
        RunConfig.load(None, ["justakey"])


def test_typed_accessor_errors():
    cfg = RunConfig.load(None, ["mean=abc"])
    with pytest.raises(ValueError, match="not a real number"):
        cfg.get_float("mean")
    cfg = RunConfig.load(None, ["solver.max_iter=1e5"])
    assert cfg.get_int("solver.max_iter") == 100_000
    cfg = RunConfig.load(None, ["levy.probes=1,x"])
    with pytest.raises(ValueError, match="number list"):
        cfg.get_float_list("levy.probes")


def test_get_int_accepts_only_exact_integers():
    cfg = RunConfig.load(None, ["mc.iterations=40.0", "mc.n_samples=2e3",
                                "moments.order=+64"])
    assert cfg.get_int("mc.iterations") == 40
    assert cfg.get_int("mc.n_samples") == 2000
    assert cfg.get_int("moments.order") == 64
    for key, value in (("mc.iterations", "4.05e1"), ("mc.n_samples", "2.5e0"),
                       ("mc.iterations", "inf"), ("mc.iterations", "nan"),
                       ("mc.iterations", "forty")):
        cfg = RunConfig.load(None, [f"{key}={value}"])
        with pytest.raises(ValueError, match=f"{key}=.* is not an integer"):
            cfg.get_int(key)


def test_rho_n_is_an_exact_integer():
    fam = RunConfig.load(None, ["rho.family=uniform01", "rho.n=1e3"]).rho()
    assert fam.locations.size == 1000
    with pytest.raises(ValueError, match="rho.n='2.5' is not an integer"):
        RunConfig.load(None, ["rho.family=uniform01", "rho.n=2.5"]).rho()


def test_master_seed_required():
    cfg = RunConfig.load(None, [])
    with pytest.raises(ValueError, match="master_seed is unset"):
        cfg.master_seed()
    with pytest.raises(ValueError, match="not an integer"):
        RunConfig.load(None, ["mc.master_seed=pi"]).master_seed()


def test_rho_sources(tmp_path):
    with pytest.raises(ValueError, match="no multiplier law"):
        RunConfig.load(None, []).rho()
    with pytest.raises(ValueError, match="multiple rho sources"):
        RunConfig.load(
            None, ["rho.atoms=0.5:1", "rho.family=uniform01"]).rho()

    inline = RunConfig.load(None, ["rho.atoms=0.25:0.5,0.75:0.5"]).rho()
    assert inline.locations.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        RunConfig.load(None, ["rho.atoms=0.25+0.5"]).rho()

    fam = RunConfig.load(None, ["rho.family=uniform01", "rho.n=16"]).rho()
    assert fam.family == FAMILY_UNIFORM01 and fam.locations.size == 16
    with pytest.raises(ValueError, match="rho.n"):
        RunConfig.load(None, ["rho.family=uniform01"]).rho()

    csv = tmp_path / "rho.csv"
    csv.write_text("location,weight\n0.5,1.0\n")
    loaded = RunConfig.load(None, [f"rho.csv={csv}"]).rho()
    assert loaded.locations.tolist() == [0.5]


def test_theta_pair_defaults_and_inline():
    t1, t2 = RunConfig.load(None, ["mean=2.0"]).theta_pair()
    assert t1.mean() == pytest.approx(2.0) and t2.mean() == pytest.approx(2.0)
    assert t1.locations.size == 1 and t2.locations.size == 2
    t1, t2 = RunConfig.load(
        None, ["metric.theta1=0.9:0.5,1.1:0.5", "metric.theta2=1:1"]
    ).theta_pair()
    assert t1.locations.tolist() == [0.9, 1.1]
    assert t2.locations.tolist() == [1.0]


def test_digest_and_run_dir():
    a = RunConfig.load(None, ["mean=1.0"])
    b = RunConfig.load(None, ["mean=1.0"])
    c = RunConfig.load(None, ["mean=2.0"])
    assert a.digest("solve") == b.digest("solve")
    assert a.digest("solve") != a.digest("verify")
    assert a.digest("solve") != c.digest("solve")
    # command flags change artifact contents, so they address the run too
    assert a.digest("solve", ("method=lst",)) != a.digest("solve")
    assert a.digest("solve", ("method=lst",)) != a.digest("solve", ("method=mc",))
    assert a.digest("solve", ("method=lst",)) == b.digest("solve", ("method=lst",))
    rd = a.run_dir("solve")
    assert rd.name == f"solve-{a.digest('solve')[:12]}"
    assert rd.parent.name == "runs"
    rdf = a.run_dir("solve", ("method=mc",))
    assert rdf.name == f"solve-{a.digest('solve', ('method=mc',))[:12]}"


def test_manifest_round_trip_and_tamper(tmp_path):
    cfg = RunConfig.load(None, [])
    run_dir = tmp_path / "solve-abc"
    run_dir.mkdir()
    art = run_dir / "grid.csv"
    art.write_text("s,psi,phi\n1,1,0.37\n")
    digest = hashlib.sha256(art.read_bytes()).hexdigest()
    write_manifest(run_dir, "solve", cfg, {"grid.csv": digest}, ("method=lst",))
    manifest = check_manifest(run_dir)
    assert manifest["command"] == "solve"
    assert manifest["flags"] == ["method=lst"]
    assert manifest["config_digest"] == cfg.digest("solve", ("method=lst",))
    assert manifest["artifacts"][0]["path"] == "grid.csv"

    art.write_text("s,psi,phi\n1,1,0.99\n")
    with pytest.raises(ValueError, match="checksum mismatch"):
        check_manifest(run_dir)
    art.unlink()
    with pytest.raises(ValueError, match="missing artifact"):
        check_manifest(run_dir)
    with pytest.raises(ValueError, match="missing manifest"):
        check_manifest(tmp_path / "nowhere")


def test_write_run_writes_artifacts_then_manifest(tmp_path):
    cfg = RunConfig.load(None, [f"output.dir={tmp_path / 'runs'}"])
    files = {"a.json": "{}\n", "b.csv": ["x\n", "1\n2\n", "3\n"]}
    run_dir = write_run(cfg, "solve", files, ("method=lst",))
    assert run_dir == cfg.run_dir("solve", ("method=lst",))
    assert (run_dir / "a.json").read_bytes() == b"{}\n"
    assert (run_dir / "b.csv").read_bytes() == b"x\n1\n2\n3\n"
    manifest = check_manifest(run_dir)
    assert [e["path"] for e in manifest["artifacts"]] == ["a.json", "b.csv"]
    assert manifest["flags"] == ["method=lst"]
