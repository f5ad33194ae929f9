"""Experiment configuration: INI-style tables, validation, run manifests.

A config file has flat ``key = value`` tables, one nesting level::

    [levy]
    kind = slice
    c = 1.0
    theta0 = 0.4
    dim = 1
    theta = 1.0

    [model]
    force = damped_gradient
    potential = double_well_poly
    ...

Unknown sections or keys are rejected with the offending line number, and
so is a ``[levy]`` key that only the other ``kind`` reads.
A run's ``RunManifest`` writes every file of the run: the data files (a
JSON report serialises from its dataclass fields) and ``run_manifest.json``
with the config hash, seed, library versions, timings and output list.
Data outputs are bitwise-stable for a fixed (config, seed); only the
manifest records wall times.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np
import scipy

from . import measures as ms
from . import model as md
from .errors import ConfigError
from .generator import QuadratureScheme
from .simulate import SimConfig

__all__ = ["ExperimentConfig", "RunManifest", "load_config", "SCHEMA"]

# section -> key -> (type, default); a None default leaves the key unset
SCHEMA = {
    "levy": {
        "kind": (str, "slice"),            # slice | stable
        "c": (float, 1.0),
        "theta0": (float, 0.4),
        "alpha0": (float, 1.5),
        "scale": (float, 1.0),
        "dim": (int, 1),
        "theta": (float, 1.0),
        "slice_c": (float, None),          # optional explicit coupling slice
        "slice_theta0": (float, None),
    },
    "model": {
        "a": (float, 0.0),
        "b": (float, 1.0),
        "force": (str, "damped_gradient"),
        "alpha_damp": (float, 1.0),
        "beta": (float, 1.0),
        "potential": (str, "double_well_poly"),  # double_well_poly|double_well_exp|quadratic
        "pot_c1": (float, 1.0),
        "pot_c2": (float, 2.0),
        "pot_l": (float, 2.0),
        "pot_k": (float, 1.0),
        "dim": (int, 1),
    },
    "lyapunov": {
        "grid_radius": (float, 20.0),
        "grid_points": (int, 21),
    },
    "quadrature": {
        "rho_in": (float, 1e-6),
        "rho_out": (float, 1e6),
        "nodes_radial": (int, 12),
        "panels_per_decade": (int, 4),      # Gauss-Legendre panels per decade, 1-d tables
    },
    "sim": {
        "h": (float, 0.02),
        "delta": (float, 1e-3),
        "horizon": (float, 20.0),
        "n_replicas": (int, 200),
        "seed": (int, 0),
        "n_save": (int, 41),
        "x0": (float, 2.0),
        "v0": (float, 0.0),
        "x0_prime": (float, -2.0),
        "v0_prime": (float, 0.0),
    },
    "constants": {
        "r0_jump": (float, 0.5),
        "position_radius": (float, None),
        "decay_threshold": (float, None),   # equilibrium diagnostics threshold
    },
}

# (section, old key) -> new key; the old name is rejected with a pointer to the new one
_RENAMED = {("quadrature", "nodes_angular"): "panels_per_decade"}

# [levy] kind -> the keys only that kind reads
_KIND_KEYS = {"slice": ("c", "theta0"), "stable": ("alpha0", "scale", "slice_c", "slice_theta0")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with typed per-table dictionaries."""

    levy: dict
    model: dict
    lyapunov: dict
    quadrature: dict
    sim: dict
    constants: dict

    def config_hash(self) -> str:
        body = json.dumps(vars(self), sort_keys=True, default=str)
        return hashlib.sha256(body.encode()).hexdigest()

    # -- builders ---------------------------------------------------------

    def build_levy(self) -> ms.LevyMeasureSpec:
        t = self.levy
        if t["kind"] == "slice":
            measure = ms.SliceMeasure(c=t["c"], theta0=t["theta0"], dim=t["dim"])
            slice_part = None
        elif t["kind"] == "stable":
            measure = ms.IsotropicStable(alpha0=t["alpha0"], scale=t["scale"], dim=t["dim"])
            slice_part = None
            if t["slice_c"] is not None or t["slice_theta0"] is not None:
                slice_part = ms.SliceMeasure(
                    c=t["slice_c"] if t["slice_c"] is not None else t["scale"],
                    theta0=t["slice_theta0"] if t["slice_theta0"] is not None else t["alpha0"],
                    dim=t["dim"])
        else:
            raise ConfigError(f"unknown levy kind {t['kind']!r}")
        return ms.LevyMeasureSpec(measure=measure, theta=t["theta"], slice_part=slice_part)

    def build_potential(self):
        t = self.model
        kind = t["potential"]
        if kind == "double_well_poly":
            return md.DoubleWellPoly(t["pot_c1"], t["pot_c2"], t["pot_l"])
        if kind == "double_well_exp":
            return md.DoubleWellExp(t["pot_c1"], t["pot_c2"], t["pot_l"])
        if kind == "quadratic":
            return md.Quadratic(t["pot_k"])
        raise ConfigError(f"unknown potential {kind!r}")

    def build_langevin(self) -> md.KineticLangevinSpec:
        t = self.model
        if t["force"] != "damped_gradient":
            raise ConfigError(f"unknown force kind {t['force']!r}")
        return md.KineticLangevinSpec(alpha_damp=t["alpha_damp"], beta=t["beta"],
                                      potential=self.build_potential(), dim=t["dim"],
                                      a=t["a"], b=t["b"])

    def build_scheme(self) -> QuadratureScheme:
        q = self.quadrature
        return QuadratureScheme(rho_in=q["rho_in"], rho_out=q["rho_out"],
                                panels_per_decade=q["panels_per_decade"],
                                nodes_per_panel=q["nodes_radial"])

    def build_sim(self, seed: int | None = None, n_replicas: int | None = None) -> SimConfig:
        """The stepper settings, with optional seed and replica overrides; a value
        out of range, override or not, is a ``[sim]`` ConfigError."""
        s = self.sim
        try:
            return SimConfig(h=s["h"], delta=s["delta"], horizon=s["horizon"],
                             n_replicas=n_replicas if n_replicas is not None else s["n_replicas"],
                             seed=seed if seed is not None else s["seed"],
                             n_save=s["n_save"])
        except ValueError as exc:
            raise ConfigError(f"[sim] {exc}") from exc

    def initial_pair(self):
        s = self.sim
        d = self.model["dim"]
        mk = lambda val: np.full(d, float(val))
        return mk(s["x0"]), mk(s["v0"]), mk(s["x0_prime"]), mk(s["v0_prime"])


def _coerce(raw: str, typ, section: str, key: str, line: int):
    try:
        return typ(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}", line=line) from exc


def _line_of(text: str, section: str, key: str | None) -> int | None:
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            in_section = stripped[1:-1].strip() == section
            if in_section and key is None:
                return i
        elif in_section and key is not None:
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return i
    return None


def load_config(path: str | None = None, text: str | None = None) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    if text is None:
        if path is None:
            text = ""
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    tables = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]", line=_line_of(text, section, None))
        for key in parser[section]:
            if (section, key) in _RENAMED:
                raise ConfigError(f"key {key!r} in [{section}] is now "
                                  f"{_RENAMED[section, key]!r}",
                                  line=_line_of(text, section, key))
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]",
                                  line=_line_of(text, section, key))
    kind = parser.get("levy", "kind", fallback=SCHEMA["levy"]["kind"][1]).strip()
    for other, keys in _KIND_KEYS.items():
        stray = [key for key in keys if parser.has_option("levy", key)]
        if kind in _KIND_KEYS and other != kind and stray:
            raise ConfigError(f"[levy] {stray[0]} applies to kind = {other}, not kind = {kind}",
                              line=_line_of(text, "levy", stray[0]))
    for section, keys in SCHEMA.items():
        table = {}
        for key, (typ, default) in keys.items():
            if parser.has_option(section, key):
                table[key] = _coerce(parser.get(section, key), typ, section, key,
                                     _line_of(text, section, key) or 0)
            else:
                table[key] = default
        tables[section] = table
    cfg = ExperimentConfig(**tables)
    _validate_physics(cfg)
    return cfg


def _validate_physics(cfg: ExperimentConfig):
    # build each spec once: its constructor's range checks name the bad value
    for section, build in (("levy", cfg.build_levy), ("model", cfg.build_langevin)):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    cfg.build_sim()
    if cfg.constants["r0_jump"] <= 0:
        raise ConfigError("constants r0_jump must be positive")
    if cfg.levy["dim"] != cfg.model["dim"]:
        raise ConfigError(f"[levy] dim = {cfg.levy['dim']} and [model] dim = "
                          f"{cfg.model['dim']} must be equal")


def _jsonable(obj):
    # the dump's hook: a report dataclass becomes its fields, a numpy value a list or scalar
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


@dataclass
class RunManifest:
    """Provenance record of one run, and the one writer of the run's files.

    ``write_json`` and ``write_csv`` write a data file under ``out`` and
    record its path; ``finish`` adds the total wall time and the library
    versions and writes ``run_manifest.json`` next to them.
    """

    config_hash: str
    seed: int
    command: str
    out: str = "."
    versions: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    started: float = field(default_factory=time.monotonic)

    def _record(self, name: str) -> str:
        path = os.path.join(self.out, name)
        self.outputs.append(path)
        return path

    def write_json(self, name: str, payload) -> None:
        _dump_json(self._record(name), payload)

    def write_csv(self, name: str, header, columns) -> None:
        """One row per entry of the equal-length ``columns``, each value as ``repr(float)``."""
        rows = np.column_stack(columns)
        with open(self._record(name), "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def finish(self) -> None:
        self.timings["total_s"] = time.monotonic() - self.started
        self.versions = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        _dump_json(os.path.join(self.out, "run_manifest.json"), {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "command": self.command,
            "versions": self.versions,
            "timings": self.timings,
            "outputs": self.outputs,
        })
