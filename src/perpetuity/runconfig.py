"""Flat key=value run configuration shared by all CLI commands.

Files hold one ``key=value`` per line with ``#`` comments; keys use
section prefixes (``solver.tol``, ``mc.master_seed``).  Command-line
``--set key=value`` pairs override file values.  Every field has a
documented default except ``mc.master_seed``, which must be set
explicitly by any command that samples.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from .distributions import AtomicDistribution, json_text, quantize_family, validate

#: Known keys and default values (None = unset).
DEFAULTS = {
    "rho.atoms": None,          # inline atoms "loc:weight,loc:weight"
    "rho.family": None,         # uniform01 (with rho.n)
    "rho.n": None,
    "mean": "1.0",
    "solver.grid_points": "256",
    "solver.s_min": "1e-3",
    "solver.s_max": "1e3",
    "solver.tol": "1e-13",
    "solver.max_iter": "100000",
    "mc.n_samples": "200000",
    "mc.iterations": "40",
    "mc.master_seed": None,
    "moments.order": "8",
    "levy.n_samples": "1000000",
    "metric.q": "1.5",
    "metric.theta1": None,      # inline atoms; default: point mass at mean
    "metric.theta2": None,      # inline atoms; default: 50/50 pair at mean
    "verify.pairs": "20",
    "verify.quad_points": "256",
    "output.dir": "runs",
}


def _parse_kv_line(line: str, where: str) -> tuple[str, str] | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "=" not in stripped:
        raise ValueError(f"{where}: expected key=value, got {stripped!r}")
    key, _, value = stripped.partition("=")
    key = key.strip()
    value = value.strip()
    if not key:
        raise ValueError(f"{where}: empty key")
    return key, value


def _parse_atoms_inline(text: str, where: str) -> list[tuple[float, float]]:
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"{where}: expected loc:weight, got {part!r}")
        loc, _, w = part.partition(":")
        try:
            pairs.append((float(loc), float(w)))
        except ValueError as exc:
            raise ValueError(f"{where}: bad atom {part!r}") from exc
    if not pairs:
        raise ValueError(f"{where}: no atoms given")
    return pairs


@dataclass
class RunConfig:
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, config_path: str | None, overrides: list[str] | None) -> "RunConfig":
        raw = dict(DEFAULTS)
        if config_path is not None:
            path = Path(config_path)
            if not path.exists():
                raise ValueError(f"config file not found: {path}")
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                kv = _parse_kv_line(line, f"{path}:{lineno}")
                if kv is None:
                    continue
                key, value = kv
                if key not in DEFAULTS:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                raw[key] = value
        for item in overrides or []:
            kv = _parse_kv_line(item, f"--set {item!r}")
            if kv is None:
                raise ValueError(f"--set needs key=value, got {item!r}")
            key, value = kv
            if key not in DEFAULTS:
                raise ValueError(f"--set: unknown key {key!r}")
            raw[key] = value
        return cls(raw=raw)

    # ------------------------------------------------------------------
    # typed accessors

    def _get(self, key: str) -> str | None:
        return self.raw[key]

    def get_float(self, key: str) -> float:
        value = self._get(key)
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config {key}={value!r} is not a real number") from exc

    def get_int(self, key: str) -> int:
        """Integer value; a float literal (1e3, 40.0) must be an exact integer."""
        value = self._get(key)
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
        try:
            number = float(value)
            if number.is_integer():
                return int(number)
        except (TypeError, ValueError):
            pass
        raise ValueError(f"config {key}={value!r} is not an integer")

    def master_seed(self) -> int:
        value = self._get("mc.master_seed")
        if value is None or str(value).strip() == "":
            raise ValueError(
                "mc.master_seed is unset: sampling commands require an "
                "explicit seed (no silent nondeterminism)"
            )
        return self.get_int("mc.master_seed")

    def rho(self) -> AtomicDistribution:
        sources = [k for k in ("rho.atoms", "rho.family")
                   if self._get(k) not in (None, "")]
        if not sources:
            raise ValueError("no multiplier law given: set rho.atoms or rho.family")
        if len(sources) > 1:
            raise ValueError(f"multiple rho sources given: {', '.join(sources)}")
        if sources == ["rho.atoms"]:
            return validate(_parse_atoms_inline(self._get("rho.atoms"),
                                                "rho.atoms"))
        if self._get("rho.n") in (None, ""):
            raise ValueError("rho.family needs rho.n (atom count)")
        return quantize_family(str(self._get("rho.family")),
                               self.get_int("rho.n"))

    def theta_pair(self) -> tuple[AtomicDistribution, AtomicDistribution]:
        """Metric-command operand pair; defaults keep the configured mean."""
        m = self.get_float("mean")
        t1_raw = self._get("metric.theta1")
        t2_raw = self._get("metric.theta2")
        t1 = (validate(_parse_atoms_inline(t1_raw, "metric.theta1"))
              if t1_raw else validate([(m, 1.0)]))
        t2 = (validate(_parse_atoms_inline(t2_raw, "metric.theta2"))
              if t2_raw else validate([(0.5 * m, 0.5), (1.5 * m, 0.5)]))
        return t1, t2

    # ------------------------------------------------------------------
    # reproducible artifact naming

    def resolved(self) -> dict:
        return {k: ("" if v is None else str(v)) for k, v in sorted(self.raw.items())}

    def digest(self, command: str, flags: tuple[str, ...] = ()) -> str:
        # command-specific flags change artifact contents, so they are part
        # of the content address alongside the resolved config
        payload = "\n".join(f"{k}={v}" for k, v in self.resolved().items())
        payload += f"\ncommand={command}"
        for flag in flags:
            payload += f"\nflag={flag}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def run_dir(self, command: str, flags: tuple[str, ...]) -> Path:
        root = Path(str(self._get("output.dir")))
        return root / f"{command}-{self.digest(command, flags)[:12]}"


def write_manifest(run_dir: Path, command: str, cfg: RunConfig,
                   digests: dict, flags: tuple[str, ...]) -> Path:
    """Write manifest.json (itself excluded) from ``digests``, a map of
    artifact names in run_dir to the sha256 hex digests of their bytes."""
    entries = [{"path": name, "sha256": digests[name]}
               for name in sorted(digests)]
    manifest = {
        "command": command,
        "flags": list(flags),
        "config_digest": cfg.digest(command, flags),
        "config": cfg.resolved(),
        "artifacts": entries,
    }
    out = run_dir / "manifest.json"
    out.write_text(json_text(manifest))
    return out


def write_run(cfg: RunConfig, command: str, files: dict,
              flags: tuple[str, ...]) -> Path:
    """Write a run directory: each artifact, then manifest.json last.

    ``files`` maps artifact names to text, either one string or a
    re-iterable of blocks (csv_text), each block rendered, written as UTF-8
    and hashed in turn, so no artifact's whole text is held.  Commands call
    this only after every computation succeeded, and an exception raised
    while writing (a MemoryError in a block's rendering, an OSError)
    removes the directory before it propagates, so a failed command leaves
    no directory behind.
    """
    run_dir = cfg.run_dir(command, flags)
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        digests = {}
        for name, text in files.items():
            sha = hashlib.sha256()
            with (run_dir / name).open("wb") as fh:
                for block in [text] if isinstance(text, str) else text:
                    data = block.encode()
                    sha.update(data)
                    fh.write(data)
            digests[name] = sha.hexdigest()
        write_manifest(run_dir, command, cfg, digests, flags)
    except BaseException:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise
    return run_dir
