"""Strict, flat-sectioned configuration for the command-line tools.

INI-style files with a fixed schema: unknown sections or keys are rejected
so that a typo can never silently fall back to a default.  All lengths are
in multiples of the attenuation length, times in seconds, rates in 1/s.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .ensemble import EnsembleParams
from .montecarlo import TrialConfig
from .protocol import RepeaterParams


class ConfigError(ValueError):
    """Configuration failed validation; message names the field path."""


@dataclass(frozen=True)
class FreeSpaceGeometry:
    density: float
    sample_length: float
    wavenumber: float

    def __post_init__(self):
        for name in ("density", "sample_length", "wavenumber"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ScalingOptions:
    total_length: float          # in attenuation lengths
    target_infidelity: float
    per_connection_dark: float
    asym: float
    n_max: int

    def __post_init__(self):
        if self.total_length <= 0:
            raise ValueError("total_length must be positive")
        if not 0 < self.target_infidelity < 1:
            raise ValueError("target_infidelity must be in (0, 1)")
        if self.per_connection_dark < 0 or self.asym < 0:
            raise ValueError("budget terms must be non-negative")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.n_max > 1023:
            raise ValueError(f"n_max must be <= 1023, got {self.n_max}: the segment "
                             "length L/2^n must be a float")


@dataclass(frozen=True)
class ApplicationOptions:
    vacuum_coeff: float
    phase: float
    rounds: int

    def __post_init__(self):
        if self.vacuum_coeff < 0:
            raise ValueError("vacuum_coeff must be >= 0")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass(frozen=True)
class OutputOptions:
    format: str
    path: str
    precision: int

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if not 1 <= self.precision <= 17:
            raise ValueError("precision must be in [1, 17]")


@dataclass(frozen=True)
class Config:
    ensemble: EnsembleParams
    free_space: FreeSpaceGeometry
    repeater: RepeaterParams
    scaling: ScalingOptions
    applications: ApplicationOptions
    trials: TrialConfig
    output: OutputOptions


# section -> key -> (converter, default-as-string)
SCHEMA = {
    "ensemble": {
        "atom_count": (int, "100"),
        "rabi": (float, "1.0"),
        "detuning": (float, "10.0"),
        "coupling": (float, "1.0"),
        "cavity_decay": (float, "10.0"),
        "spont_rate": (float, "1.0"),
        "interaction_time": (float, "0.0502"),
        "density": (float, "100.0"),
        "sample_length": (float, "1.0"),
        "wavenumber": (float, "10.0"),
    },
    "repeater": {
        "excitation_prob": (float, "0.01"),
        "pulse_time": (float, "1e-6"),
        "local_efficiency": (float, "0.5"),
        "swap_efficiency": (float, "0.6666666666666666"),
        "app_efficiency": (float, "0.5"),
        "dark_prob": (float, "1e-5"),
        "attenuation_length": (float, "1.0"),
        "segment_length": (float, "1.0"),
        "levels": (int, "2"),
    },
    "scaling": {
        "total_length": (float, "100.0"),
        "target_infidelity": (float, "0.05"),
        "per_connection_dark": (float, "1e-5"),
        "asym": (float, "1e-4"),
        "n_max": (int, "12"),
    },
    "applications": {
        "vacuum_coeff": (float, "0.0"),
        "phase": (float, "0.0"),
        "rounds": (int, "100000"),
    },
    "trials": {
        "seed": (int, "42"),
        "n_trials": (int, "10000"),
        "policy": (str, "parallel_max"),
        "threads": (int, "1"),
    },
    "output": {
        "format": (str, "json"),
        "path": (str, ""),
        "precision": (int, "9"),
    },
}


def default_raw() -> dict:
    return {section: {key: spec[1] for key, spec in keys.items()}
            for section, keys in SCHEMA.items()}


def parse_raw(text: str) -> dict:
    """Merge an INI document over the defaults, rejecting unknown keys."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    raw = default_raw()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{section}: unknown section")
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            raw[section][key] = value
    return raw


def _convert(raw: dict) -> dict:
    values = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, (conv, _default) in keys.items():
            text = raw[section][key]
            try:
                value = values[section][key] = conv(text)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{section}.{key}: cannot parse {text!r} "
                                  f"as {conv.__name__}") from exc
            if conv is float and not math.isfinite(value):
                raise ConfigError(f"{section}.{key}: {text!r} is not a finite number")
    return values


def _build_section(section: str, cls, values: dict):
    try:
        return cls(**values)
    except ValueError as exc:
        # surface the offending field with its section path
        msg = str(exc)
        for key in values:
            if key in msg:
                raise ConfigError(f"{section}.{key}: {msg}") from exc
        raise ConfigError(f"{section}: {msg}") from exc


def from_raw(raw: dict) -> Config:
    values = _convert(raw)
    ens = dict(values["ensemble"])
    geometry = {k: ens.pop(k) for k in ("density", "sample_length", "wavenumber")}
    return Config(
        ensemble=_build_section("ensemble", EnsembleParams, ens),
        free_space=_build_section("ensemble", FreeSpaceGeometry, geometry),
        repeater=_build_section("repeater", RepeaterParams, values["repeater"]),
        scaling=_build_section("scaling", ScalingOptions, values["scaling"]),
        applications=_build_section("applications", ApplicationOptions,
                                    values["applications"]),
        trials=_build_section("trials", TrialConfig, values["trials"]),
        output=_build_section("output", OutputOptions, values["output"]),
    )


def read_raw(path: str | None = None) -> dict:
    """Raw values of the config file at ``path`` (the defaults if None)."""
    if path is None:
        return default_raw()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_raw(text)


def load(path: str | None = None) -> Config:
    return from_raw(read_raw(path))


def schema_key(dotted_key: str) -> tuple:
    """``(section, key)`` of a ``section.key`` name in the schema."""
    if "." not in dotted_key:
        raise ConfigError(f"{dotted_key}: sweep keys use section.key form")
    section, key = dotted_key.split(".", 1)
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ConfigError(f"{dotted_key}: unknown key")
    return section, key


def set_raw(raw: dict, dotted_key: str, value: str) -> dict:
    """Return a copy of ``raw`` with ``section.key`` replaced (sweep support)."""
    section, key = schema_key(dotted_key)
    out = {s: dict(kv) for s, kv in raw.items()}
    out[section][key] = value
    return out
