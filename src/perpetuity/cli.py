"""Batch command-line interface.

Exit codes (total mapping):
  0  success; for verify, every check passed
  1  bad command line, config or input files, or a size past memory
  2  existence gate failed (E log A >= 0)
  3  solver hit max_iter without reaching tol
  4  verification matrix has failures (the designed outcome of
     --negative-control); for solve --method both, the cross-check of
     the two routes failed

Artifacts land in <output.dir>/<command>-<config-hash>/, timestamp-free,
with a manifest.json recording sha256 digests; reruns byte-reproduce.
Each command writes its directory only after all computation, so one that
fails leaves none (diagnose still reports a failed existence gate).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

import numpy as np

from .diagnostics import (ExistenceError, diagnose, moment_index,
                          require_existence)
from .distributions import json_text, point_mass
from .levy import levy_from_solution, steutel_residual
from .lst_solver import solve
from .metrics import (VERIFY_BAND, RDeltaConfig, contraction_bound,
                      contraction_ratio, r_delta_report, random_mean_law)
from .moments import eta_moments, sb_moments
from .montecarlo import (
    chunk_slots,
    cross_oracle_distance,
    derive_seed,
    mc_fixed_point,
    perpetuity_residual,
    start_law,
    transform_steps,
)
from .response import response_from_rho
from .runconfig import RunConfig, write_run

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GATE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY = 4

#: Probes of the Steutel check of levy and verify, in units of the mean.
_STEUTEL_PROBES = np.array([0.5, 1.0, 2.0, 4.0])


def _finish(cfg: RunConfig, command: str, files: dict,
            flags: tuple[str, ...] = ()) -> None:
    print(f"wrote {write_run(cfg, command, files, flags)}")


def _band(cfg: RunConfig, rho, band: RDeltaConfig) -> RDeltaConfig:
    """``band`` at q = metric.q and with ends in units of 1/mean.  A band
    r_q cannot use, or a q that ``contraction_bound`` refuses, is refused
    naming the keys and their values; a law that fails the existence gate
    is refused as such first."""
    m, q = cfg.get_float("mean"), cfg.get_float("metric.q")
    if not m > 0.0:
        raise ValueError(f"mean = {m:g} must be a positive real")
    try:
        band = replace(band, delta=q, s_lo=band.s_lo / m, s_hi=band.s_hi / m)
    except ValueError as exc:
        raise ValueError(f"metric.q={q:g}, mean={m:g}: {exc}") from None
    require_existence(rho)
    try:
        contraction_bound(rho, q)
    except ValueError as exc:
        raise ValueError(f"metric.q={q:g}: {exc}") from None
    return band


def _count(cfg: RunConfig, key: str, low: int) -> int:
    """Integer config ``key``, checked up front to be at least ``low``."""
    value = cfg.get_int(key)
    if value < low:
        raise ValueError(f"{key}={value} must be at least {low}")
    return value


def _solve_lst(cfg: RunConfig, rho):
    return solve(
        rho,
        cfg.get_float("mean"),
        tol=cfg.get_float("solver.tol"),
        max_iter=cfg.get_int("solver.max_iter"),
        s_min=cfg.get_float("solver.s_min"),
        s_max=cfg.get_float("solver.s_max"),
        grid_points=cfg.get_int("solver.grid_points"),
    )


def _sample(cfg: RunConfig, rho, grid=None):
    """MC sample of the solution, run for the transform count T that
    ``transform_steps`` picks from the LST solve (``grid``, or a solve on
    the solver.* keys), with mc.iterations as the cap.

    Returns (sample, report): report holds n, the mean, the start law, T,
    the bias left after T steps (None when the grid did not converge) and
    the layout.
    """
    n = cfg.get_int("mc.n_samples")
    m = cfg.get_float("mean")
    seed = cfg.master_seed()
    start = start_law(rho, m)
    if grid is None:
        grid = _solve_lst(cfg, rho)
    steps, bias = transform_steps(rho, grid, n, cfg.get_int("mc.iterations"))
    sample = mc_fixed_point(rho, m, n, seed, steps)
    return sample, {
        "n": int(sample.values.size),
        "mean": sample.mean(),
        "zero_fraction": float(np.mean(sample.values == 0.0)),
        "start": start,
        "iterations": steps,
        "transform_bias": bias,
        "chunk_size": chunk_slots(rho),
        "master_seed": seed,
    }


def cmd_diagnose(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    report = diagnose(rho)
    table = report.render_table()
    print(table)
    # the report is the result here: a failed gate still writes it
    _finish(cfg, "diagnose", {"diagnostics.json": json_text(report),
                              "diagnostics.txt": table + "\n"})
    return EXIT_OK if report.exists else EXIT_GATE


def cmd_response(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    h = response_from_rho(rho, lam=1.0)
    print(f"{h.n_steps} steps, support [0, {h.support_end:.6g}), "
          f"lambda*int h = {h.integral():.12g}")
    _finish(cfg, "response", h.to_csv("response"))
    return EXIT_OK


def cmd_solve(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    report: dict = {"method": args.method, "m": cfg.get_float("mean")}
    grid = _solve_lst(cfg, rho)
    if args.method == "lst" and grid.v == 0.0:
        print(f"warning: E A = {rho.mean():.15g} is not below 1 - 1e-12, so "
              f"E eta^2 does not exist (kappa = {moment_index(rho):.12g}): the "
              "nodes below s_min hold m s, and phi can be off by up to 0.1 at "
              "the default grid", file=sys.stderr)
    report["lst"] = grid.report_obj()
    code = EXIT_OK if grid.converged else EXIT_NO_CONVERGENCE
    files = grid.to_csv("grid")
    if args.method == "both":
        sample, report["mc"] = _sample(cfg, rho, grid)
        report["cross_method"] = cross_oracle_distance(sample, grid)
        if code == EXIT_OK and not report["cross_method"].passed:
            code = EXIT_VERIFY
        files.update(sample.to_csv("sample"))
    print(f"lst: iterations={grid.iteration_count} "
          f"residual={grid.residual:.3g} converged={grid.converged}")
    if "mc" in report:
        mc = report["mc"]
        print(f"mc: n={mc['n']} mean={mc['mean']:.6g} T={mc['iterations']}")
    _finish(cfg, "solve", {"solution.json": json_text(report), **files},
            (f"method={args.method}",))
    return code


def cmd_moments(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    mv = eta_moments(rho, cfg.get_float("mean"), cfg.get_int("moments.order"))
    shown = ", ".join(f"{v:.12g}" for v in mv.values)
    print(f"moments 0..{mv.max_order}: {shown}"
          + (" (marginal stop)" if mv.marginal else ""))
    _finish(cfg, "moments",
            {**mv.to_csv("moments"), **sb_moments(mv).to_csv("sb_moments")})
    return EXIT_OK


def cmd_levy(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    n_out = _count(cfg, "levy.n_samples", 1)
    sample, _ = _sample(cfg, rho)
    seed = derive_seed(cfg.master_seed(), "levy-command")
    est = levy_from_solution(rho, sample, seed, n_out=n_out)
    steutel = steutel_residual(sample, est,
                               _STEUTEL_PROBES * cfg.get_float("mean"))
    print(f"levy sample n={est.n}, total mass of M = {est.total_mass_of_m:.6g}, "
          f"steutel residual {steutel.residual:.3g}")
    _finish(cfg, "levy", {**sample.to_csv("sample"), **est.to_csv("levy"),
                          "steutel.json": json_text(steutel)})
    return EXIT_OK


def cmd_metric(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    band = _band(cfg, rho, RDeltaConfig())
    theta1, theta2 = cfg.theta_pair()
    distance = r_delta_report(theta1, theta2, band)
    ratio = contraction_ratio(rho, theta1, theta2, band)
    shown = "degenerate" if ratio.degenerate else f"{ratio.ratio:.4f}"
    print(f"r_{ratio.q:g} = {distance.value:.6g}, contraction ratio {shown} "
          f"(bound {ratio.bound_g:.4f})")
    _finish(cfg, "metric",
            {"metric.json": json_text({"r_delta": distance,
                                       "contraction": ratio})})
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    m = cfg.get_float("mean")
    master = cfg.master_seed()
    n_levy = _count(cfg, "levy.n_samples", 1)
    points = _count(cfg, "verify.quad_points", 16)
    rd_cfg = _band(cfg, rho, replace(VERIFY_BAND, quad_points=points))
    n_draws = _count(cfg, "verify.pairs", 1)
    sample, report = _sample(cfg, rho)
    mc = {key: report[key] for key in ("start", "iterations", "transform_bias")}

    checks: dict = {}

    # 1. perpetuity identity (negative control swaps rho for a point mass at 1)
    perp_rho = point_mass(1.0) if args.negative_control else rho
    perp = perpetuity_residual(sample, perp_rho, derive_seed(master, "verify-perp"))
    checks["perpetuity"] = {
        "passed": bool(perp.ks_stat <= perp.ks_crit_1pct),
        "negative_control": bool(args.negative_control),
        **asdict(perp),
    }

    # 2. Steutel convolution identity, on the levy command's levy sample
    est = levy_from_solution(rho, sample, derive_seed(master, "levy-command"),
                             n_out=n_levy)
    steutel = steutel_residual(sample, est, _STEUTEL_PROBES * m)
    checks["steutel"] = {
        "passed": bool(steutel.residual <= steutel.crit_1pct),
        **asdict(steutel),
    }

    # 3. contraction sweep over random equal-mean pairs
    pair_rng = np.random.default_rng(derive_seed(master, "verify-pairs"))
    per_pair = []
    for _ in range(n_draws):
        t1 = random_mean_law(pair_rng, mean=m)
        t2 = random_mean_law(pair_rng, mean=m)
        rep = contraction_ratio(rho, t1, t2, rd_cfg)
        per_pair.append({"r_before": rep.r_before, "r_after": rep.r_after,
                         "ratio": rep.ratio})
    # degenerate pairs (ratio None) are roundoff, not contraction
    ratios = [p["ratio"] for p in per_pair if p["ratio"] is not None]
    if not ratios:
        raise ValueError(
            f"contraction sweep: all {n_draws} drawn pairs are degenerate "
            "(input distance at the roundoff floor)"
        )
    worst = max(ratios)
    checks["contraction"] = {
        "passed": bool(worst <= rep.bound_g + 0.05),
        "max_ratio": worst,
        "bound_g": rep.bound_g,
        "q": rep.q,
        "pairs": len(ratios),
        "draws": n_draws,
        "per_pair": per_pair,
    }

    all_pass = all(c["passed"] for c in checks.values())
    for name, c in checks.items():
        print(f"{name}: {'PASS' if c['passed'] else 'FAIL'}")
    _finish(cfg, "verify",
            {"verify.json": json_text({"all_passed": all_pass, "checks": checks,
                                       "mc": mc})},
            (f"negative_control={bool(args.negative_control)}",))
    return EXIT_OK if all_pass else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError: main's exit 1, not argparse's 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perpetuity",
        description="Size-biased perpetuity fixed points: solve, sample, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")

    common(sub.add_parser("diagnose", help="existence gate and tail class"))
    common(sub.add_parser("response", help="dual step kernel of rho"))

    p_solve = sub.add_parser("solve", help="solve the fixed point")
    common(p_solve)
    p_solve.add_argument("--method", choices=["lst", "both"], default="lst")

    common(sub.add_parser("moments", help="integer moments"))

    common(sub.add_parser("levy", help="Levy measure sample and Steutel check"))

    p_verify = sub.add_parser("verify", help="verification matrix")
    common(p_verify)
    p_verify.add_argument("--negative-control", action="store_true",
                          help="swap rho for a point mass at 1 in the "
                               "perpetuity check (designed failure)")

    common(sub.add_parser("metric", help="r_q distance and contraction"))

    return parser


_COMMANDS = {
    "diagnose": cmd_diagnose,
    "response": cmd_response,
    "solve": cmd_solve,
    "moments": cmd_moments,
    "levy": cmd_levy,
    "verify": cmd_verify,
    "metric": cmd_metric,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = RunConfig.load(args.config, args.overrides)
        return _COMMANDS[args.command](cfg, args)
    except ExistenceError as exc:
        print(f"existence gate: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
