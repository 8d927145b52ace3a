"""Benchmark of the perpetuity CLI on fixed workloads.

    python3 perfbench/run.py --workload NAME|all [--seed 2024] [--seconds 15]
                             [--trace 0|1]

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src``.  Each repetition runs the workload's CLI calls through
``perpetuity.cli.main`` in a fresh child process (``harness.py``), one
child at a time (a closed loop with one client), with one BLAS and
OpenMP thread.  Repetitions start until ``--seconds``
have passed; every repetition uses the same seed, so their artifacts must
be byte-identical.

``--trace 0`` reports the end-to-end metrics, untraced: median wall and
CPU time of the calls, median set-up time (one discarded warm-up child,
then set-up-only children plus the set-up of each repetition) and median
peak RSS.  ``--trace 1`` alternates untraced and traced repetitions; the
traced ones give the per-layer metrics from spans around public
functions, and the wall-time difference is the tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI calls made, and calls that crashed or exited with a code
outside the workload's outcomes), and ``metrics``.  ``correct`` is false
when a call failed or one of the benchmark's own reference checks failed
(closed forms, manifest digests, byte-identical reruns).  The program's
own verdicts (nonzero exit, ``cross_method.passed``, the ``verify``
checks) are counted with the reference checks in ``checks_failed_frac``,
which is printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

from harness import covered_s, self_times
from workloads import WORKLOADS, Check, inspect_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for run directories, removed when the benchmark ends.
TMP_ROOT = ROOT / ".perfbench-tmp"

SETUP_REPS = 2        # set-up-only children measured after the warm-up
BUDGET_S = 170.0      # every child of one workload ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

#: Per-layer metrics: name -> unit.  ``JSON_LAYER`` names the ones that have
#: a value on every workload and go into the JSON line; the rest print as
#: n/a where their layer does not run.
LAYER_UNITS = {
    "lst_solver.solve_s": "s",
    "lst_solver.iterate_once_call_s": "s",
    "lst_solver.iterations": "count",
    "lst_solver.interp_targets": "count",
    "lst_solver.err_bar_cover": "ratio",
    "montecarlo.mc_fixed_point_s": "s",
    "montecarlo.shot_noise_resample_call_s": "s",
    "montecarlo.shot_noise_calls": "count",
    "montecarlo.arrivals": "count",
    "montecarlo.slot_steps_per_s": "1/s",
    "montecarlo.cross_oracle_s": "s",
    "montecarlo.cross_max_ratio": "ratio",
    "montecarlo.perpetuity_residual_s": "s",
    "montecarlo.phi_err": "abs",
    "montecarlo.zero_frac_err": "abs",
    "metrics.contraction_ratio_call_s": "s",
    "metrics.contraction_calls": "count",
    "metrics.resolved_frac": "ratio",
    "metrics.char_function_s": "s",
    "metrics.char_function_evals": "count",
    "metrics.r_delta_report_s": "s",
    "metrics.max_ratio": "ratio",
    "levy.levy_from_solution_s": "s",
    "levy.steutel_residual_s": "s",
    "levy.steutel_residual": "abs",
    "distributions.size_bias_resample_s": "s",
    "distributions.sample_to_csv_s": "s",
    "distributions.sample_csv_bytes": "bytes",
    "runconfig.write_manifest_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.unattributed_s": "s",
    "trace.overhead_frac": "frac",
}
JSON_LAYER = (
    "lst_solver.iterations", "lst_solver.interp_targets",
    "montecarlo.shot_noise_calls", "montecarlo.arrivals",
    "metrics.contraction_calls", "metrics.char_function_evals",
    "distributions.sample_csv_bytes", "runconfig.write_manifest_s",
    "cli.artifact_bytes", "cli.unattributed_s", "trace.overhead_frac",
)


def _median(values):
    return statistics.median(values) if values else None


def child_env() -> dict:
    """The parent's environment with one BLAS/OpenMP thread.

    The LST matvec is the only BLAS call that threads.  On 2 CPUs its
    second thread buys no wall time on lst-fine (3.6-4.3 s either way) but
    doubles cpu_s, and wall_s then depends on the other CPU being idle
    (5.8-6.1 s when it is not).
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, env: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


class Runner:
    """Spawns children for one workload and keeps their results."""

    def __init__(self, workload, seed, env, tmp: Path):
        self.calls = workload.calls(seed)
        self.env = env
        self.tmp = tmp
        self.deadline = time.monotonic() + BUDGET_S
        self.reps: list = []          # finished repetitions, in order
        self.setup_s: list = []
        self.blas = "unknown"

    def _spawn(self, calls, out_dir: Path, trace: bool) -> dict:
        result_path = out_dir / "result.json"
        spec = {"setup_overrides": self.calls[0].overrides,
                "calls": [list(c.argv) for c in calls],
                "out_dir": str(out_dir), "trace": trace,
                "spawned": time.monotonic()}
        proc = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), json.dumps(spec),
             str(result_path)],
            env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text())

    def setup_only(self, keep: bool):
        """A child that only sets up; returns an error text or None."""
        out_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        try:
            res = self._spawn([], out_dir, trace=False)
        except Exception:  # the repetitions report the same failure
            return traceback.format_exc(limit=3)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.blas = res["blas"]
        if keep:
            self.setup_s.append(res["setup_s"])
        return None

    def repetition(self, trace: bool, detail: bool) -> dict:
        """One child running every call; failures become a failed rep."""
        out_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        rep = {"trace": trace, "error": None, "checks": [], "values": [],
               "fingerprints": []}
        try:
            res = self._spawn(self.calls, out_dir, trace)
            rep.update(res)
            self.setup_s.append(res["setup_s"])
            for i, (call, code) in enumerate(zip(self.calls,
                                                 res["exit_codes"])):
                checks, values, fp = inspect_call(
                    call, code, out_dir / f"call{i}", detail)
                rep["checks"] += checks
                rep["values"].append(values)
                rep["fingerprints"].append(fp)
        except Exception:  # any harness failure is a failed run, not a crash
            rep["error"] = traceback.format_exc(limit=3)
            rep["checks"].append(Check("harness", False, reference=True))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if rep["error"] is None and self.reps:
            first = next((r for r in self.reps if r["error"] is None), None)
            if first is not None:
                rep["checks"].append(Check(
                    "reproducible",
                    rep["fingerprints"] == first["fingerprints"],
                    reference=True))
        self.reps.append(rep)
        return rep

    def time_left(self, last_s: float) -> bool:
        return time.monotonic() + last_s < self.deadline

    # ------------------------------------------------------------------

    def ops(self):
        attempted = failed = 0
        for rep in self.reps:
            attempted += len(self.calls)
            if rep["error"] is not None:
                failed += len(self.calls)
                continue
            failed += sum(code not in call.ok_exits
                          for call, code in zip(self.calls,
                                                rep["exit_codes"]))
        return attempted, failed

    def checks(self):
        return [c for rep in self.reps for c in rep["checks"]]

    def ok_reps(self, trace: bool):
        return [r for r in self.reps if r["error"] is None
                and r["trace"] == trace]


def run_workload(name, seed, seconds, trace, env, tmp):
    """Run one workload; returns (report lines, result dict)."""
    runner = Runner(WORKLOADS[name], seed, env, tmp)
    lines = [f"workload {name}: seed {seed}, {seconds} s, trace {int(trace)}"]
    for call in runner.calls:
        lines.append("  call: " + " ".join(call.argv))
    # one discarded warm-up child fills caches and writes bytecode
    for keep in [False] + ([] if trace else [True] * SETUP_REPS):
        error = runner.setup_only(keep)
        if error is not None:
            lines.append("  set-up child FAILED:\n" + error)
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            rep = runner.repetition(traced, detail=traced)
            tag = "traced" if traced else "untraced"
            if rep["error"] is not None:
                lines.append(f"  rep {len(runner.reps)} ({tag}) FAILED:\n"
                             + rep["error"])
                continue
            lines.append(
                f"  rep {len(runner.reps)} ({tag}): exit {rep['exit_codes']} "
                f"wall {rep['wall_s']:.4f} s, fingerprint "
                + " ".join((fp or "none")[:16] for fp in rep["fingerprints"]))
            if rep["stderr"]:
                lines.append("    stderr: " + rep["stderr"].strip())
        last = time.monotonic() - t0
        if time.monotonic() - start >= seconds or not runner.time_left(last):
            break

    untraced = runner.ok_reps(trace=False)
    if not untraced or (trace and not runner.ok_reps(trace=True)):
        lines.append("  no repetition finished; nothing to measure")
        return lines, None
    attempted, failed = runner.ops()
    checks = runner.checks()
    bad = [c for c in checks if not c.passed]
    correct = failed == 0 and all(c.passed for c in checks if c.reference)
    lines.append(f"  checks_failed_frac {len(bad)}/{len(checks)} = "
                 f"{len(bad) / len(checks):.4f}"
                 + (f" (failed: {', '.join(sorted({c.name for c in bad}))})"
                    if bad else ""))
    lines.append(f"  calls attempted {attempted}, failed {failed}, "
                 f"correct {correct}")

    if trace:
        metrics, layer_lines = layer_metrics(runner)
        lines += layer_lines
        json_metrics = {k: {"value": metrics[k], "unit": LAYER_UNITS[k]}
                        for k in JSON_LAYER}
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in untraced],
            "cpu_s": [r["cpu_s"] for r in untraced],
            "setup_s": runner.setup_s,
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        json_metrics = {}
        lines.append("  end-to-end (median over samples):")
        for key, unit in END_TO_END:
            vals = samples[key]
            json_metrics[key] = {"value": _median(vals), "unit": unit}
            lines.append(f"    {key:<20} {_median(vals):.6g} {unit}  "
                         f"n={len(vals)} min={min(vals):.6g} "
                         f"max={max(vals):.6g}")
        phi = [v["lst_phi_err"] for r in untraced for v in r["values"]
               if "lst_phi_err" in v]
        lines.append(f"    {'lst_phi_err':<20} "
                     + (f"{max(phi):.6g} abs  n={len(phi)}" if phi
                        else "n/a (no uniform01 LST grid)"))
        lines.append(f"    {'checks_failed_frac':<20} "
                     f"{len(bad) / len(checks):.6g}  "
                     f"failed={len(bad)} attempted={len(checks)}")
    lines.append(f"  blas {runner.blas}")
    return lines, {"correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": json_metrics}


def layer_metrics(runner):
    """Per-layer metrics from the traced repetitions (medians over them)."""
    traced = runner.ok_reps(trace=True)
    untraced_wall = _median([r["wall_s"] for r in runner.ok_reps(False)])
    per_rep = [_rep_layer_metrics(r) for r in traced]
    metrics = {}
    for key in LAYER_UNITS:
        vals = [m[key] for m in per_rep if m.get(key) is not None]
        # counts stay whole numbers: take the lower median, a sample
        ints = vals and all(isinstance(v, int) for v in vals)
        metrics[key] = statistics.median_low(vals) if ints else _median(vals)
    traced_wall = _median([r["wall_s"] for r in traced])
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall

    lines = [f"  per-layer (traced, median of {len(traced)} repetitions; "
             f"traced wall {traced_wall:.4f} s, untraced {untraced_wall:.4f} s):"]
    for key, unit in LAYER_UNITS.items():
        val = metrics[key]
        if val is None:
            shown = "n/a"
        elif isinstance(val, int):
            shown = f"{val} {unit}"
        else:
            shown = f"{val:.6g} {unit}"
        lines.append(f"    {key:<40} {shown}")
    rep = traced[0]
    own = self_times(rep["spans"])
    layers: dict = {}
    for span, t in zip(rep["spans"], own):
        layer = span[0].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + t
    lines.append(f"  layer self time, first traced repetition "
                 f"(wall {rep['wall_s']:.4f} s, spans cover "
                 f"{covered_s(rep['spans']) / rep['wall_s']:.1%}):")
    layers["(no span)"] = rep["wall_s"] - covered_s(rep["spans"])
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<16} {t:.4f} s")
    return metrics, lines


def _rep_layer_metrics(rep) -> dict:
    spans = rep["spans"]
    durs: dict = {}
    counts: dict = {}
    for name, start, end, _parent, extra in spans:
        durs.setdefault(name, []).append(end - start)
        for key, val in (extra or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + val

    def total(name):
        return sum(durs[name]) if name in durs else None

    def per_call(name):
        return _median(durs.get(name, []))

    def value(key, how=max):
        vals = [v[key] for v in rep["values"] if key in v]
        return how(vals) if vals else None

    def spanned(key):
        vals = [extra[key] for name, *_r, extra in spans
                if extra and key in extra]
        return max(vals) if vals else None

    shot = "montecarlo.shot_noise_resample"
    slots = counts.get((shot, "slots"), 0)
    return {
        "lst_solver.solve_s": total("lst_solver.solve"),
        "lst_solver.iterate_once_call_s": per_call("lst_solver.iterate_once"),
        "lst_solver.iterations": len(durs.get("lst_solver.iterate_once", [])),
        "lst_solver.interp_targets":
            counts.get(("lst_solver.iterate_once", "targets"), 0),
        "lst_solver.err_bar_cover": spanned("err_bar_cover"),
        "montecarlo.mc_fixed_point_s": total("montecarlo.mc_fixed_point"),
        "montecarlo.shot_noise_resample_call_s": per_call(shot),
        "montecarlo.shot_noise_calls": len(durs.get(shot, [])),
        "montecarlo.arrivals": round(counts.get((shot, "arrivals"), 0)),
        "montecarlo.slot_steps_per_s":
            slots / total(shot) if slots else None,
        "montecarlo.cross_oracle_s":
            total("montecarlo.cross_oracle_distance"),
        "montecarlo.cross_max_ratio": value("cross_max_ratio"),
        "montecarlo.perpetuity_residual_s":
            total("montecarlo.perpetuity_residual"),
        "montecarlo.phi_err": value("mc_phi_err"),
        "montecarlo.zero_frac_err": value("mc_zero_frac_err"),
        "metrics.contraction_ratio_call_s":
            per_call("metrics.contraction_ratio"),
        "metrics.contraction_calls":
            len(durs.get("metrics.contraction_ratio", [])),
        "metrics.resolved_frac": value("resolved_frac"),
        "metrics.char_function_s": total("metrics.char_function"),
        "metrics.char_function_evals":
            counts.get(("metrics.char_function", "evals"), 0),
        "metrics.r_delta_report_s": total("metrics.r_delta_report"),
        "metrics.max_ratio": value("max_ratio"),
        "levy.levy_from_solution_s": total("levy.levy_from_solution"),
        "levy.steutel_residual_s": total("levy.steutel_residual"),
        "levy.steutel_residual": value("steutel_residual"),
        "distributions.size_bias_resample_s":
            total("distributions.EmpiricalSample.size_bias_resample"),
        "distributions.sample_to_csv_s":
            total("distributions.EmpiricalSample.to_csv"),
        "distributions.sample_csv_bytes": value("sample_csv_bytes", sum) or 0,
        "runconfig.write_manifest_s": total("runconfig.write_manifest"),
        "cli.artifact_bytes": value("artifact_bytes", sum) or 0,
        "cli.unattributed_s": rep["wall_s"] - covered_s(spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perpetuity" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'perpetuity'}",
              file=sys.stderr)
        return 2

    env = child_env()
    print("env " + json.dumps(environment(args.seed, env), sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    results = {}
    try:
        for name in names:
            lines, result = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), env, tmp)
            print("\n".join(lines), flush=True)
            if result is None:
                return 1
            results[name] = result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:     # another benchmark still uses it
            pass
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
