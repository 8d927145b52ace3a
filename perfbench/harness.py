"""Benchmark child process: set up, run a workload's CLI calls, report.

    python3 perfbench/harness.py SPEC_JSON RESULT_PATH

SPEC_JSON holds ``spawned`` (the parent's ``time.monotonic()`` just before
it started this process; the clock is system-wide on Linux),
``setup_overrides`` (the ``--set`` values of the workload's first call),
``calls`` (argv lists for ``perpetuity.cli.main``), ``out_dir`` and
``trace``.  Set-up covers interpreter start, package import, config load
and the build of ``rho``; with no calls the child stops there.

A traced child wraps the public functions in ``TARGETS`` at every module
attribute that binds them, records one span per call in memory and puts
the spans in its result.  The wrappers are removed before it returns.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from perpetuity import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported perpetuity from {cli.__file__}, "
                           f"not from {SRC}")
    return cli


def setup(overrides: list):
    """Import the package, load the config and build rho, as the CLI does."""
    cli = _load_package()
    cli.RunConfig.load(None, overrides).rho()
    return cli


# ----------------------------------------------------------------------
# tracing

def _shot_noise_counts(args, kwargs, result):
    h = args[1] if len(args) > 1 else kwargs["h"]
    slots = int(result.values.size)
    return {"slots": slots,
            "arrivals": slots * h.lam * float(h.durations.sum())}


def _char_function_evals(args, kwargs, result):
    nu = args[0] if args else kwargs["nu"]
    points = getattr(nu, "values", None)
    if points is None:
        points = nu.locations
    return {"evals": int(points.size) * int(result.size)}


def _interp_targets(args, kwargs, result):
    grid, rho = args[0], args[1]
    return {"targets": int(grid.s_points.size) * int(rho.locations.size)}


def _err_bar_cover(args, kwargs, result):
    """Measured uniform01 node error over the solver's own error bar."""
    import numpy as np
    from workloads import UNIFORM01, uniform01_phi

    if getattr(args[0], "family", None) != UNIFORM01:
        return None
    s = result.s_points
    err = float(np.max(np.abs(result.eval_lst(s) - uniform01_phi(s))))
    return {"err_bar_cover": err / float(np.max(result.error_estimate(s)))}


#: (module, function or Class.method, annotation hook or None).  A hook
#: maps (args, kwargs, result) to counts stored on the span.
TARGETS = (
    ("perpetuity.lst_solver", "solve", _err_bar_cover),
    ("perpetuity.lst_solver", "iterate_once", _interp_targets),
    ("perpetuity.lst_solver", "LstGrid.to_csv", None),
    ("perpetuity.montecarlo", "mc_fixed_point", None),
    ("perpetuity.montecarlo", "shot_noise_resample", _shot_noise_counts),
    ("perpetuity.montecarlo", "cross_oracle_distance", None),
    ("perpetuity.montecarlo", "empirical_lst", None),
    ("perpetuity.montecarlo", "perpetuity_residual", None),
    ("perpetuity.metrics", "contraction_ratio", None),
    ("perpetuity.metrics", "r_delta_report", None),
    ("perpetuity.metrics", "char_function", _char_function_evals),
    ("perpetuity.metrics", "random_mean_law", None),
    ("perpetuity.levy", "levy_from_solution", None),
    ("perpetuity.levy", "steutel_residual", None),
    ("perpetuity.distributions", "quantize_family", None),
    ("perpetuity.distributions", "EmpiricalSample.resample", None),
    ("perpetuity.distributions", "EmpiricalSample.size_bias_resample", None),
    ("perpetuity.distributions", "EmpiricalSample.to_csv", None),
    ("perpetuity.distributions", "AtomicDistribution.sample", None),
    ("perpetuity.response", "response_from_rho", None),
    ("perpetuity.runconfig", "RunConfig.load", None),
    ("perpetuity.runconfig", "RunConfig.rho", None),
    ("perpetuity.runconfig", "write_manifest", None),
)


def target_bindings():
    """Every (owner, attribute, function) binding of a TARGETS entry.

    A function is bound in its own module and in each module that imported
    it by name (``shot_noise_resample`` also lives in ``metrics`` and the
    package namespace); a method has one binding, on its class.
    """
    _load_package()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "perpetuity" or n.startswith("perpetuity.")]
    out = []
    for modname, qualname, hook in TARGETS:
        name = f"{modname.rsplit('.', 1)[1]}.{qualname}"
        owner = sys.modules[modname]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name)
            out.append((cls, attr, cls.__dict__[attr], name, hook))
            continue
        fn = getattr(owner, qualname)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    out.append((mod, attr, fn, name, hook))
    return out


class Tracer:
    """Spans [name, start, end, parent index, counts] kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, None]
            if hook is not None:
                spans[idx][4] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for owner, attr, fn, name, hook in target_bindings():
            if id(fn) not in wrappers:
                if isinstance(fn, classmethod):
                    wrappers[id(fn)] = classmethod(
                        self._wrap(fn.__func__, name, hook))
                else:
                    wrappers[id(fn)] = self._wrap(fn, name, hook)
            setattr(owner, attr, wrappers[id(fn)])
            self._patched.append((owner, attr, fn))

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _n, start, end, _p, _c in spans]
    for _n, start, end, parent, _c in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def covered_s(spans) -> float:
    """Wall time covered by spans (top-level spans never overlap)."""
    return sum(end - start for _n, start, end, parent, _c in spans
               if parent is None)


# ----------------------------------------------------------------------
# running calls

def run_calls(argvs, out_dir: Path, tracer: Tracer | None = None) -> dict:
    """Run the CLI calls one after another, each into out_dir/call<i>.

    Times the whole sequence; stdout and stderr of the calls are captured.
    """
    cli = _load_package()
    exits, stderr = [], io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        for i, argv in enumerate(argvs):
            dest = Path(out_dir) / f"call{i}"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(list(argv) + ["--set", f"output.dir={dest}"])
                except SystemExit as exc:   # argparse rejects bad argv
                    code = exc.code
            exits.append(code)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": wall, "cpu_s": cpu, "exit_codes": exits,
              "stderr": stderr.getvalue()[-2000:]}
    if tracer is not None:
        result["spans"] = [[n, s - t0, e - t0, p, c]
                           for n, s, e, p, c in tracer.spans]
    return result


def _blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main(argv) -> int:
    spec = json.loads(argv[0])
    setup(spec["setup_overrides"])
    result = {"setup_s": time.monotonic() - spec["spawned"],
              "blas": _blas_info()}
    if spec["calls"]:
        tracer = Tracer() if spec["trace"] else None
        result.update(run_calls(spec["calls"], Path(spec["out_dir"]), tracer))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
