"""Experiment configuration: JSON loading, defaults, and strict validation.

A config is a flat JSON object.  Unknown keys are rejected so that typos in
tolerance names fail loudly instead of silently running with defaults.
Complex scalars are written as two-element [re, im] arrays (a bare number is
accepted and read as a real).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from .errors import ConfigInvalid

_FAMILIES = ("elliptic", "jumping", "siegel-diagonal")
_BACKENDS = ("grid", "spectral")

# Effective tolerance defaults, each read by some command; every report echoes
# the merged set.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "identity": 1e-10,
    "hodge_decomposition": 1e-9,
    "minimal_solution": 1e-8,
    "admissibility": 1e-5,
    "routes_rel": 1e-5,
    "fd_rel": 1e-3,
    "nakano": 1e-6,
    "sff_psd": 1e-10,
    "primitivity": 1e-8,
    "hr_equality": 1e-12,
    "rank_tol": 1e-7,
}

# Budget on the unknowns of one form space: N² (grid) or (2M+1)^{2n} (spectral)
# samples times C(n, n//2)² components, the most any bidegree has.  It is four
# times the largest config of the tests, the benchmark and the README: spectral
# n = 2 at the default M = 8, whose (1,1) forms hold 4·17⁴ = 334,084 unknowns
# (a grid at the default N = 64 holds 4,096).
MAX_UNKNOWNS = 4 * 4 * 17 ** 4

# Budget on the nonzeros of a grid Laplacian box, the product of two y-Fourier
# derivatives of order + 1 entries a row: N² rows times 2·order + 1 entries, for
# the largest grid MAX_UNKNOWNS admits at the default order 10.  It bounds the
# order before any derivative is built.
MAX_STENCIL_NNZ = MAX_UNKNOWNS * 21

_SCAN_KEYS = {"center", "direction", "radius", "samples"}
_BLS_KEYS = {"instances", "step", "t"}

_TOP_KEYS = {
    "family", "t", "tau", "d", "chi", "backend", "N", "M", "order",
    "step", "seed", "tolerances", "scan", "bls",
}


def _real(value) -> bool:
    """A JSON number (not a bool) that is a finite float; NaN, ±inf and an
    integer too large for a float are not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _as_complex(value, key: str) -> complex:
    pair = value if isinstance(value, (list, tuple)) else (value, 0.0)
    if len(pair) == 2 and all(_real(x) for x in pair):
        return complex(float(pair[0]), float(pair[1]))
    raise ConfigInvalid(f"{key!r} must be a finite number or a [re, im] pair, got {value!r}")


def _as_int(value, key: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigInvalid(f"{key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _as_pos_float(value, key: str) -> float:
    if not _real(value) or value <= 0:
        raise ConfigInvalid(f"{key!r} must be a finite positive number, got {value!r}")
    return float(value)


@dataclass
class ExperimentConfig:
    family: str = "elliptic"
    t: complex = 0.3 + 1.1j
    tau: complex = 1.0 + 0.0j
    d: int = 1                       # bundle degree; 0 means flat with characters chi
    chi: tuple = ()
    backend: str = "grid"
    N: int = 64                      # grid points per real direction
    M: int = 8                       # spectral mode cut |k| <= M
    order: int = 10                  # grid stencil order
    step: float = 1e-3               # base finite-difference step
    seed: int = 0
    tolerances: Dict[str, float] = field(default_factory=dict)
    scan: Dict[str, object] = field(default_factory=dict)
    bls: Dict[str, object] = field(default_factory=dict)

    def tol(self, name: str) -> float:
        return self.tolerances[name]

    def scan_samples(self):
        center = self.scan.get("center", 1j)
        direction = self.scan.get("direction", 1.0 + 0.0j)
        radius = self.scan.get("radius", 0.05)
        samples = self.scan.get("samples", 101)
        return [center + direction * radius * (2.0 * i / (samples - 1) - 1.0)
                for i in range(samples)]

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "t": [self.t.real, self.t.imag],
            "tau": [self.tau.real, self.tau.imag],
            "d": self.d,
            "chi": list(self.chi),
            "backend": self.backend,
            "N": self.N,
            "M": self.M,
            "order": self.order,
            "step": self.step,
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
            "scan": {k: ([v.real, v.imag] if isinstance(v, complex) else v)
                     for k, v in sorted(self.scan.items())},
            "bls": {k: ([v.real, v.imag] if isinstance(v, complex) else v)
                    for k, v in sorted(self.bls.items())},
        }


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config root must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")

    cfg = ExperimentConfig()
    if "family" in raw:
        if raw["family"] not in _FAMILIES:
            raise ConfigInvalid(f"family must be one of {_FAMILIES}, got {raw['family']!r}")
        cfg.family = raw["family"]
    if "t" in raw:
        cfg.t = _as_complex(raw["t"], "t")
    if "tau" in raw:
        cfg.tau = _as_complex(raw["tau"], "tau")
    if "d" in raw:
        cfg.d = _as_int(raw["d"], "d", minimum=0)
    if "chi" in raw:
        chi = raw["chi"]
        if not isinstance(chi, (list, tuple)) or not all(_real(x) for x in chi):
            raise ConfigInvalid(f"'chi' must be a list of finite real characters, got {chi!r}")
        cfg.chi = tuple(float(x) for x in chi)
    # the spectral backend discretizes flat bundles, the grid backend positive
    # ones (elliptic with d >= 1); the default follows the bundle
    positive = cfg.family == "elliptic" and cfg.d >= 1
    cfg.backend = "grid" if positive else "spectral"
    if "backend" in raw:
        if raw["backend"] not in _BACKENDS:
            raise ConfigInvalid(f"backend must be one of {_BACKENDS}, got {raw['backend']!r}")
        if raw["backend"] != cfg.backend:
            bundle = f"degree-{cfg.d} elliptic" if positive else f"flat {cfg.family}"
            raise ConfigInvalid(f"backend {raw['backend']!r} cannot discretize the "
                                f"{bundle} bundle; use {cfg.backend!r}")
    n = 2 if cfg.family == "siegel-diagonal" else 1
    if cfg.chi and len(cfg.chi) != 2 * n:
        raise ConfigInvalid(f"'chi' of the {cfg.family} family needs {2 * n} entries, "
                            f"got {len(cfg.chi)}")
    if cfg.t.imag <= 0:
        raise ConfigInvalid(f"'t' must have Im t > 0, got {cfg.t}")
    # the grid eigensolver needs more than one unknown, so N >= 2
    for key, minimum in (("N", 2), ("M", 1), ("order", 2)):
        if key in raw:
            setattr(cfg, key, _as_int(raw[key], key, minimum))
    if cfg.order % 2:   # a central stencil of an odd order does not exist
        raise ConfigInvalid(f"'order' must be even, got {cfg.order}")
    size_key = "N" if cfg.backend == "grid" else "M"
    samples = cfg.N ** 2 if cfg.backend == "grid" else (2 * cfg.M + 1) ** (2 * n)
    if samples * math.comb(n, n // 2) ** 2 > MAX_UNKNOWNS:
        raise ConfigInvalid(f"{size_key!r} is too large: a {cfg.backend} form space would "
                            f"hold more than {MAX_UNKNOWNS:,} unknowns")
    if cfg.backend == "grid" and samples * (2 * cfg.order + 1) > MAX_STENCIL_NNZ:
        raise ConfigInvalid(f"'order' is too large: a grid Laplacian would hold more "
                            f"than {MAX_STENCIL_NNZ:,} nonzeros")
    if "seed" in raw:
        cfg.seed = _as_int(raw["seed"], "seed", minimum=0)
    if "step" in raw:
        cfg.step = _as_pos_float(raw["step"], "step")

    tols = dict(DEFAULT_TOLERANCES)
    if "tolerances" in raw:
        if not isinstance(raw["tolerances"], dict):
            raise ConfigInvalid("'tolerances' must be an object")
        unknown = set(raw["tolerances"]) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigInvalid(f"unknown tolerance keys: {sorted(unknown)}")
        for k, v in raw["tolerances"].items():
            tols[k] = _as_pos_float(v, f"tolerances.{k}")
    cfg.tolerances = tols

    if "scan" in raw:
        if not isinstance(raw["scan"], dict):
            raise ConfigInvalid("'scan' must be an object")
        unknown = set(raw["scan"]) - _SCAN_KEYS
        if unknown:
            raise ConfigInvalid(f"unknown scan keys: {sorted(unknown)}")
        scan = dict(raw["scan"])
        for k in ("center", "direction"):
            if k in scan:
                scan[k] = _as_complex(scan[k], f"scan.{k}")
        if "radius" in scan:
            scan["radius"] = _as_pos_float(scan["radius"], "scan.radius")
        if "samples" in scan:
            scan["samples"] = _as_int(scan["samples"], "scan.samples", minimum=2)
        cfg.scan = scan

    if "bls" in raw:
        if not isinstance(raw["bls"], dict):
            raise ConfigInvalid("'bls' must be an object")
        unknown = set(raw["bls"]) - _BLS_KEYS
        if unknown:
            raise ConfigInvalid(f"unknown bls keys: {sorted(unknown)}")
        bls = dict(raw["bls"])
        if "instances" in bls:
            bls["instances"] = _as_int(bls["instances"], "bls.instances")
        if "step" in bls:
            bls["step"] = _as_pos_float(bls["step"], "bls.step")
        if "t" in bls:
            bls["t"] = _as_complex(bls["t"], "bls.t")
            if bls["t"].imag <= 0:
                raise ConfigInvalid(f"'bls.t' must have Im t > 0, got {bls['t']}")
        cfg.bls = bls

    return cfg


def load_config(path: Optional[str]) -> ExperimentConfig:
    """Read a JSON config file; None gives the documented defaults."""
    if path is None:
        return config_from_dict({})
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise ConfigInvalid(f"config {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
