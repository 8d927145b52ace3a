"""Batch command-line interface.

Exit codes (total mapping):
  0  success; for verify, every check passed
  1  malformed config, bad input files, missing or corrupted artifacts
  2  existence gate failed (E log A >= 0)
  3  solver hit max_iter without reaching tol
  4  verification matrix has failures (the designed outcome of
     --negative-control)

Artifacts land in <output.dir>/<command>-<config-hash>/, timestamp-free,
with a manifest.json recording sha256 digests; reruns byte-reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .diagnostics import ExistenceError, diagnose
from .distributions import EmpiricalSample, point_mass
from .levy import levy_from_solution, steutel_residual
from .lst_solver import solve
from .metrics import RDeltaConfig, contraction_ratio, r_delta_report, random_mean_law
from .moments import eta_moments, sb_moments
from .montecarlo import (
    McConfig,
    cross_oracle_distance,
    derive_seed,
    mc_fixed_point,
    perpetuity_residual,
)
from .response import response_from_rho
from .runconfig import RunConfig, check_manifest, write_manifest

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GATE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY = 4


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _prepare(cfg: RunConfig, command: str,
             flags: tuple[str, ...] = ()) -> Path:
    run_dir = cfg.run_dir(command, flags)
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _mc_config(cfg: RunConfig) -> McConfig:
    return McConfig(
        n_samples=cfg.get_int("mc.n_samples"),
        master_seed=cfg.master_seed(),
        n_transform_iterations=cfg.get_int("mc.iterations"),
        chunk_size=cfg.get_int("mc.chunk_size"),
    )


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


def cmd_diagnose(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    report = diagnose(rho)
    run_dir = _prepare(cfg, "diagnose")
    json_path = run_dir / "diagnostics.json"
    _json_dump(report.to_json_obj(), json_path)
    txt_path = run_dir / "diagnostics.txt"
    txt_path.write_text(report.render_table() + "\n")
    write_manifest(run_dir, "diagnose", cfg, [json_path, txt_path])
    print(report.render_table())
    print(f"wrote {run_dir}")
    return EXIT_OK if report.exists else EXIT_GATE


def cmd_response(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    h = response_from_rho(rho, lam=cfg.get_float("lambda"))
    run_dir = _prepare(cfg, "response")
    steps_path = run_dir / "response.csv"
    h.to_csv(steps_path)
    curve_path = run_dir / "response_curve.csv"
    with curve_path.open("w", newline="") as fh:
        fh.write("u,h\n")
        for u, v in h.curve_points():
            fh.write(f"{u:.17g},{v:.17g}\n")
    artifacts = [steps_path, steps_path.with_suffix(".json"), curve_path]
    write_manifest(run_dir, "response", cfg, artifacts)
    print(f"{h.n_steps} steps, support [0, {h.support_end:.6g}), "
          f"lambda*int h = {h.integral():.12g}")
    print(f"wrote {run_dir}")
    return EXIT_OK


def cmd_solve(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    m = cfg.get_float("mean")
    flags = (f"method={args.method}",)
    run_dir = _prepare(cfg, "solve", flags)
    artifacts = []
    report: dict = {"method": args.method, "m": m}
    code = EXIT_OK

    grid = None
    if args.method in ("lst", "both"):
        grid = _solve_lst(cfg, rho)
        grid_path = run_dir / "grid.csv"
        grid.to_csv(grid_path)
        artifacts.append(grid_path)
        report["lst"] = grid.report_obj()
        if not grid.converged:
            code = EXIT_NO_CONVERGENCE

    sample = None
    if args.method in ("mc", "both"):
        mc_cfg = _mc_config(cfg)
        sample = mc_fixed_point(rho, m, mc_cfg)
        sample_path = run_dir / "sample.csv"
        sample.to_csv(sample_path)
        artifacts += [sample_path, sample_path.with_suffix(".json")]
        report["mc"] = {
            "n": int(sample.values.size),
            "mean": sample.mean(),
            "zero_fraction": float(np.mean(sample.values < 1e-9)),
            "iterations": mc_cfg.n_transform_iterations,
            "chunk_size": mc_cfg.chunk_size,
            "master_seed": mc_cfg.master_seed,
        }

    if grid is not None and sample is not None:
        report["cross_method"] = cross_oracle_distance(
            sample, grid, rho=rho,
            transform_iterations=cfg.get_int("mc.iterations"),
        ).to_json_obj()

    report_path = run_dir / "solution.json"
    _json_dump(report, report_path)
    artifacts.append(report_path)
    write_manifest(run_dir, "solve", cfg, artifacts, flags)
    if grid is not None:
        print(f"lst: iterations={grid.iteration_count} "
              f"residual={grid.residual:.3g} converged={grid.converged}")
    if sample is not None:
        print(f"mc: n={sample.values.size} mean={sample.mean():.6g}")
    print(f"wrote {run_dir}")
    return code


def cmd_moments(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    order = args.order if args.order is not None else cfg.get_int("moments.order")
    mv = eta_moments(rho, cfg.get_float("mean"), order)
    flags = (f"order={order}",)
    run_dir = _prepare(cfg, "moments", flags)
    eta_path = run_dir / "moments.csv"
    mv.to_csv(eta_path)
    sb_path = run_dir / "sb_moments.csv"
    sb_moments(mv).to_csv(sb_path)
    artifacts = [eta_path, eta_path.with_suffix(".json"),
                 sb_path, sb_path.with_suffix(".json")]
    write_manifest(run_dir, "moments", cfg, artifacts, flags)
    shown = ", ".join(f"{v:.12g}" for v in mv.values)
    print(f"moments 0..{mv.max_order}: {shown}"
          + (" (marginal stop)" if mv.marginal else ""))
    print(f"wrote {run_dir}")
    return EXIT_OK


def cmd_levy(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    m = cfg.get_float("mean")
    mc_cfg = _mc_config(cfg)
    sample = mc_fixed_point(rho, m, mc_cfg)
    seed = derive_seed(mc_cfg.require_seed(), "levy-command")
    est = levy_from_solution(rho, sample, seed,
                             n_out=cfg.get_int("levy.n_samples"))
    probes = cfg.get_float_list("levy.probes")
    steutel = steutel_residual(sample, est, probes)
    run_dir = _prepare(cfg, "levy")
    sample_path = run_dir / "sample.csv"
    sample.to_csv(sample_path)
    levy_path = run_dir / "levy.csv"
    est.to_csv(levy_path)
    steutel_path = run_dir / "steutel.json"
    _json_dump(steutel.to_json_obj(), steutel_path)
    artifacts = [sample_path, sample_path.with_suffix(".json"),
                 levy_path, levy_path.with_suffix(".json"), steutel_path]
    write_manifest(run_dir, "levy", cfg, artifacts)
    print(f"levy sample n={est.n}, total mass of M = {est.total_mass_of_m:.6g}, "
          f"steutel residual {steutel.residual:.3g}")
    print(f"wrote {run_dir}")
    return EXIT_OK


def cmd_metric(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    q = args.q if args.q is not None else cfg.get_float("metric.q")
    rd_cfg = RDeltaConfig(
        delta=q,
        s_lo=cfg.get_float("metric.s_lo"),
        s_hi=cfg.get_float("metric.s_hi"),
        quad_points=cfg.get_int("metric.quad_points"),
    )
    theta1, theta2 = cfg.theta_pair()
    distance = r_delta_report(theta1, theta2, rd_cfg)
    # the distance uses the metric.* band; the contraction ratio uses the
    # verify.* band, so it matches the verify sweep
    ratio = contraction_ratio(
        rho, theta1, theta2, q,
        cfg=RDeltaConfig(
            delta=q,
            s_lo=cfg.get_float("verify.s_lo"),
            s_hi=cfg.get_float("verify.s_hi"),
            quad_points=cfg.get_int("verify.quad_points"),
        ),
    )
    flags = (f"q={q!r}",)
    run_dir = _prepare(cfg, "metric", flags)
    metric_path = run_dir / "metric.json"
    _json_dump({"r_delta": distance.to_json_obj(),
                "contraction": ratio.to_json_obj()}, metric_path)
    write_manifest(run_dir, "metric", cfg, [metric_path], flags)
    shown = "degenerate" if ratio.degenerate else f"{ratio.ratio:.4f}"
    print(f"r_{q:g} = {distance.value:.6g}, contraction ratio {shown} "
          f"(bound {ratio.bound_g:.4f})")
    print(f"wrote {run_dir}")
    return EXIT_OK


def _load_prior_sample(from_dir: str) -> EmpiricalSample:
    run_dir = Path(from_dir)
    check_manifest(run_dir)
    sample_path = run_dir / "sample.csv"
    if not sample_path.exists():
        raise ValueError(f"no sample.csv in {run_dir}")
    return EmpiricalSample.from_csv(sample_path)


def cmd_verify(cfg: RunConfig, args) -> int:
    rho = cfg.rho()
    m = cfg.get_float("mean")
    master = cfg.master_seed()
    if args.from_dir:
        sample = _load_prior_sample(args.from_dir)
    else:
        sample = mc_fixed_point(rho, m, _mc_config(cfg))

    checks: dict = {}

    # 1. perpetuity identity (negative control swaps rho for a point mass at 1)
    perp_rho = point_mass(1.0) if args.negative_control else rho
    perp = perpetuity_residual(sample, perp_rho, derive_seed(master, "verify-perp"))
    perp_pass = perp.ks_stat <= 1.5 * perp.ks_crit_1pct
    checks["perpetuity"] = {
        "passed": bool(perp_pass),
        "negative_control": bool(args.negative_control),
        **perp.to_json_obj(),
    }

    # 2. Steutel convolution identity
    est = levy_from_solution(rho, sample, derive_seed(master, "verify-levy"),
                             n_out=cfg.get_int("levy.n_samples"))
    steutel = steutel_residual(sample, est, cfg.get_float_list("levy.probes"))
    tol = cfg.get_float("verify.steutel_tol")
    checks["steutel"] = {
        "passed": bool(steutel.residual < tol),
        "tolerance": tol,
        **steutel.to_json_obj(),
    }

    # 3. contraction sweep over random equal-mean pairs
    q = cfg.get_float("metric.q")
    rd_cfg = RDeltaConfig(
        delta=q,
        s_lo=cfg.get_float("verify.s_lo"),
        s_hi=cfg.get_float("verify.s_hi"),
        quad_points=cfg.get_int("verify.quad_points"),
    )
    pair_rng = np.random.default_rng(derive_seed(master, "verify-pairs"))
    bound = rho.mellin(q - 1.0)
    n_draws = cfg.get_int("verify.pairs")
    if n_draws < 1:
        raise ValueError(f"verify.pairs={n_draws} must be at least 1")
    per_pair = []
    for _ in range(n_draws):
        t1 = random_mean_law(pair_rng, mean=m)
        t2 = random_mean_law(pair_rng, mean=m)
        rep = contraction_ratio(rho, t1, t2, q, cfg=rd_cfg)
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
        "passed": bool(worst <= bound + 0.05),
        "max_ratio": worst,
        "bound_g": bound,
        "q": q,
        "pairs": len(ratios),
        "draws": n_draws,
        "per_pair": per_pair,
    }

    all_pass = all(c["passed"] for c in checks.values())
    flags = (f"negative_control={bool(args.negative_control)}",)
    if args.from_dir:
        flags += (f"from={args.from_dir}",)
    run_dir = _prepare(cfg, "verify", flags)
    verify_path = run_dir / "verify.json"
    _json_dump({"all_passed": all_pass, "checks": checks}, verify_path)
    write_manifest(run_dir, "verify", cfg, [verify_path], flags)
    for name, c in checks.items():
        print(f"{name}: {'PASS' if c['passed'] else 'FAIL'}")
    print(f"wrote {run_dir}")
    return EXIT_OK if all_pass else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_solve.add_argument("--method", choices=["lst", "mc", "both"],
                         default="lst")

    p_moments = sub.add_parser("moments", help="integer moments")
    common(p_moments)
    p_moments.add_argument("--order", type=int, default=None)

    common(sub.add_parser("levy", help="Levy measure sample and Steutel check"))

    p_verify = sub.add_parser("verify", help="verification matrix")
    common(p_verify)
    p_verify.add_argument("--negative-control", action="store_true",
                          help="swap rho for a point mass at 1 in the "
                               "perpetuity check (designed failure)")
    p_verify.add_argument("--from", dest="from_dir", default=None,
                          metavar="RUN_DIR",
                          help="reuse a prior solve run's sample artifacts")

    p_metric = sub.add_parser("metric", help="r_q distance and contraction")
    common(p_metric)
    p_metric.add_argument("--q", type=float, default=None)

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
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.overrides)
        return _COMMANDS[args.command](cfg, args)
    except ExistenceError as exc:
        print(f"existence gate: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
