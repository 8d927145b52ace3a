"""Workload table, closed-form references and artifact checks.

Each workload is a list of CLI calls (argv lists for ``perpetuity.cli.main``)
made from the benchmark seed.  Everything here reads the program's output
files only; nothing imports the package, so the references cannot share a
bug with the code they check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: Tolerance on the LST atom at zero against the Lambert-W closed form.
ATOM_TOL = 1e-12
#: Loose sanity bound on max |phi - 1/(1+s)| for uniform01 grids; the
#: measured errors are 4.1e-4 (rho.n=512, G=256) and 6.8e-5 (2048, 2048).
PHI_TOL = 1e-3
#: Laplace-transform points for the Monte Carlo phi error (the
#: cross-oracle grid of the solver).
MC_PHI_POINTS = 32

#: The README verify example: its contraction sweep reaches the 1-ulp
#: pair behind the false FAIL at draw 11.
VERIFY_SEED = 2024

UNIFORM01 = "uniform01"
POINT_MASS = ((0.5, 1.0),)
TWO_ATOMS = ((0.3, 0.5), (1.2, 0.5))


@dataclass(frozen=True)
class Call:
    """One CLI call and the law its closed-form checks refer to."""

    argv: tuple
    law: object            # UNIFORM01 or a tuple of (location, weight)
    ok_exits: tuple = (0,)  # exit codes that mean the call completed

    @property
    def overrides(self) -> list:
        """The ``--set`` values of the call, in order."""
        return [self.argv[i + 1] for i, a in enumerate(self.argv)
                if a == "--set"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_calls: object     # seed -> list[Call]

    def calls(self, seed: int) -> list:
        return self.make_calls(int(seed))


def _sets(*pairs) -> tuple:
    out = []
    for p in pairs:
        out += ["--set", p]
    return tuple(out)


def _atoms_arg(law) -> str:
    return ",".join(f"{a:g}:{w:g}" for a, w in law)


def _solve_uniform01(seed):
    argv = ("solve", "--method", "both") + _sets(
        "rho.family=uniform01", "rho.n=512", f"mc.master_seed={seed}")
    return [Call(argv, UNIFORM01)]


def _lst_fine(seed):
    argv = ("solve", "--method", "lst") + _sets(
        "rho.family=uniform01", "rho.n=2048", "solver.grid_points=2048",
        f"mc.master_seed={seed}")
    return [Call(argv, UNIFORM01)]


def _solve_atoms(seed):
    return [Call(("solve", "--method", "both")
                 + _sets(f"rho.atoms={_atoms_arg(law)}",
                         f"mc.master_seed={seed}"), law)
            for law in (POINT_MASS, TWO_ATOMS)]


def _verify_uniform01(seed):
    # The sweep redraws a seed-dependent number of pairs (8 to 12 sampled
    # pairs over seeds 1..30), so a varying seed would make both the cost
    # and the known false FAIL come and go.  The README seed keeps both
    # fixed; ``seed`` is unused here.  64 quadrature points instead of 256
    # cut the sampled characteristic function 4x (24 s instead of 55-67 s
    # per call on 2 Xeon CPUs) and keep the same 12 draws, with the 1-ulp
    # pair of draw 11 still failing (ratio 1.18 against 0.717).
    argv = ("verify",) + _sets(
        "rho.family=uniform01", "rho.n=512", "verify.pairs=8",
        "verify.quad_points=64", f"mc.master_seed={VERIFY_SEED}")
    return [Call(argv, UNIFORM01, ok_exits=(0, 4))]


WORKLOADS = {w.name: w for w in (
    Workload("solve-uniform01",
             "README solve: 90% shot-noise MC on a 512-step kernel, LST 3%; "
             "shows MC sampler changes, not LST ones",
             _solve_uniform01),
    Workload("lst-fine",
             "LST only, 2048 atoms x 2048 grid points x 31 iterations; shows "
             "LST operator changes, no MC at all",
             _lst_fine),
    Workload("solve-atoms",
             "point mass at 1/2, then two atoms with ess sup > 1: 1-2 step "
             "kernels, K about 2, slow LST convergence, CSV writers weigh most",
             _solve_atoms),
    Workload("verify-uniform01",
             "verify with 8 contraction pairs: sampled char_function dominates; "
             "only workload running levy, perpetuity_residual and metrics",
             _verify_uniform01),
)}


# ----------------------------------------------------------------------
# closed forms (independent of the package)

def uniform01_phi(s):
    """Laplace transform of Exp(1), the uniform01 solution law."""
    return 1.0 / (1.0 + s)


def lambert_atom(law) -> float:
    """Mass at zero of the solution for an atomic law: the root in (0, 1/K)
    of c = exp(-K (1 - c)), which is -W0(-K e^-K) / K with K = E[1/A]."""
    from scipy.special import lambertw

    k = sum(w / a for a, w in law)
    return float(-lambertw(-k * math.exp(-k), 0).real / k)


# ----------------------------------------------------------------------
# artifacts

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_run_dir(out_dir: Path):
    """The single run directory a call wrote, its manifest, and whether
    every artifact still matches its manifest digest."""
    dirs = [p for p in sorted(Path(out_dir).iterdir()) if p.is_dir()]
    if len(dirs) != 1:
        raise ValueError(f"expected one run directory in {out_dir}, "
                         f"found {len(dirs)}")
    run_dir = dirs[0]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    intact = all(_sha256(run_dir / e["path"]) == e["sha256"]
                 for e in manifest["artifacts"])
    return run_dir, manifest, intact


def fingerprint(manifest: dict) -> str:
    """sha256 over the manifest's artifact entries (paths and digests).

    The manifest's config block names the output directory, so it is left
    out; the artifacts themselves never mention it.
    """
    lines = "".join(f"{e['path']} {e['sha256']}\n"
                    for e in sorted(manifest["artifacts"],
                                    key=lambda e: e["path"]))
    return hashlib.sha256(lines.encode()).hexdigest()


def _read_csv_columns(path: Path):
    import numpy as np

    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data.T


@dataclass
class Check:
    name: str
    passed: bool
    reference: bool   # True: the benchmark's own reference check


def inspect_call(call: Call, exit_code, out_dir: Path, detail: bool = False):
    """Checks and measured values for one finished call.

    ``exit_code`` is None when the call never finished.  With ``detail``
    the Monte Carlo sample is read back for its phi error (slow for large
    samples, so only traced runs ask for it).
    Returns (checks, values, fingerprint or None).
    """
    checks = [Check("exit_code", exit_code == 0, reference=False)]
    values: dict = {}
    if exit_code not in call.ok_exits:
        return checks, values, None
    run_dir, manifest, intact = read_run_dir(out_dir)
    checks.append(Check("manifest_intact", intact, reference=True))
    values["artifact_bytes"] = sum(p.stat().st_size
                                   for p in run_dir.iterdir())
    command = manifest["command"]
    if command == "solve":
        _inspect_solve(call, run_dir, checks, values, detail)
    elif command == "verify":
        _inspect_verify(run_dir, checks, values)
    return checks, values, fingerprint(manifest)


def _inspect_solve(call, run_dir, checks, values, detail):
    import numpy as np

    report = json.loads((run_dir / "solution.json").read_text())
    if "lst" in report:
        s, _psi, phi = _read_csv_columns(run_dir / "grid.csv")
        if call.law == UNIFORM01:
            err = float(np.max(np.abs(phi - uniform01_phi(s))))
            values["lst_phi_err"] = err
            checks.append(Check("lst_phi_closed_form", err <= PHI_TOL,
                                reference=True))
        else:
            atom = lambert_atom(call.law)
            err = abs(report["lst"]["atom_at_zero"] - atom)
            values["lst_atom_err"] = err
            checks.append(Check("lst_atom_lambert_w", err <= ATOM_TOL,
                                reference=True))
    if "mc" in report:
        sample_csv = run_dir / "sample.csv"
        values["sample_csv_bytes"] = sample_csv.stat().st_size
        if call.law != UNIFORM01:
            values["mc_zero_frac_err"] = abs(report["mc"]["zero_fraction"]
                                             - lambert_atom(call.law))
        elif detail:
            (x,) = _read_csv_columns(sample_csv)
            s = np.geomspace(1e-2, 1e2, MC_PHI_POINTS)
            emp = np.exp(-np.multiply.outer(s, x)).mean(axis=1)
            values["mc_phi_err"] = float(np.max(np.abs(emp - uniform01_phi(s))))
    if "cross_method" in report:
        values["cross_max_ratio"] = report["cross_method"]["max_ratio"]
        checks.append(Check("cross_method", report["cross_method"]["passed"],
                            reference=False))


def _inspect_verify(run_dir, checks, values):
    report = json.loads((run_dir / "verify.json").read_text())
    for name in sorted(report["checks"]):
        checks.append(Check(f"verify.{name}", report["checks"][name]["passed"],
                            reference=False))
    contraction = report["checks"]["contraction"]
    values["max_ratio"] = contraction["max_ratio"]
    values["resolved_frac"] = contraction["pairs"] / contraction["draws"]
    values["steutel_residual"] = report["checks"]["steutel"]["residual"]
