"""Strict, flat-sectioned configuration for the command-line tools.

INI-style files with a fixed schema: unknown sections or keys are rejected
so that a typo can never silently fall back to a default.  All lengths are
in multiples of the attenuation length, times in seconds, rates in 1/s.
"""

from __future__ import annotations

import io
import math
from collections import namedtuple

from ._records import check_in
from .ensemble import EnsembleParams
from .montecarlo import TrialConfig
from .protocol import RepeaterParams


class ConfigError(ValueError):
    """Configuration failed validation; message names the field path."""


# section -> key -> (converter, default-as-string[, rule]).  A key that
# EnsembleParams, RepeaterParams or TrialConfig takes is checked by that
# record; every other key carries its rule here: an interval of check_in, or
# output.format's tuple of choices.
SCHEMA = {
    "ensemble": {
        "atom_count": (int, "100"),
        "rabi": (float, "1.0"),
        "detuning": (float, "10.0"),
        "coupling": (float, "1.0"),
        "cavity_decay": (float, "10.0"),
        "spont_rate": (float, "1.0"),
        "interaction_time": (float, "0.0502"),
        "density": (float, "100.0", "(0, inf)"),
        "sample_length": (float, "1.0", "(0, inf)"),
        "wavenumber": (float, "10.0", "(0, inf)"),
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
        "total_length": (float, "100.0", "(0, inf)"),   # in attenuation lengths
        "target_infidelity": (float, "0.05", "(0, 1)"),
        "per_connection_dark": (float, "1e-5", "[0, inf)"),
        "asym": (float, "1e-4", "[0, inf)"),
        "n_max": (int, "12", "[1, 1023]"),   # the segment length L/2^n is a float
    },
    "applications": {
        "vacuum_coeff": (float, "0.0", "[0, inf)"),
        "phase": (float, "0.0"),
        "rounds": (int, "100000", "[1, inf)"),
    },
    "trials": {
        "seed": (int, "42"),
        "n_trials": (int, "10000"),
        "policy": (str, "parallel_max"),
        "threads": (int, "1"),
    },
    "output": {
        "format": (str, "json", ("json", "csv")),
        "path": (str, ""),
        "precision": (int, "9", "[1, 17]"),
    },
}

# the sections that no library record owns, and Config; FreeSpace holds the
# ensemble keys that EnsembleParams does not take
FreeSpace = namedtuple("FreeSpace", ("density", "sample_length", "wavenumber"))
Scaling = namedtuple("Scaling", SCHEMA["scaling"])
Applications = namedtuple("Applications", SCHEMA["applications"])
Output = namedtuple("Output", SCHEMA["output"])
Config = namedtuple("Config", ("ensemble", "free_space", "repeater", "scaling",
                               "applications", "trials", "output"))


def default_raw() -> dict:
    return {section: {key: spec[1] for key, spec in keys.items()}
            for section, keys in SCHEMA.items()}


def parse_raw(text: str) -> dict:
    """Merge an INI document over the defaults, rejecting unknown keys."""
    import configparser   # here, so a run without --config does not load it

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
        texts, converted = raw[section], {}
        values[section] = converted
        for key, spec in keys.items():
            conv, text = spec[0], texts[key]
            try:
                value = converted[key] = conv(text)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{section}.{key}: cannot parse {text!r} "
                                  f"as {conv.__name__}") from exc
            if conv is float and not math.isfinite(value):
                raise ConfigError(f"{section}.{key}: {text!r} is not a finite number")
    return values


def _section(section: str, cls, values: dict):
    """``cls`` of ``values``: each key first against its schema rule (none
    for a key that a library record owns and checks itself), then the
    record's own checks, their message prefixed with the key's path."""
    try:
        for key, value in values.items():
            for rule in SCHEMA[section][key][2:]:
                if isinstance(rule, str):
                    check_in(rule, key, value)
                elif value not in rule:
                    raise ValueError(f"{key} must be {' or '.join(rule)}")
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
    ens = values["ensemble"]
    geometry = {k: ens.pop(k) for k in FreeSpace._fields}
    return Config(
        ensemble=_section("ensemble", EnsembleParams, ens),
        free_space=_section("ensemble", FreeSpace, geometry),
        repeater=_section("repeater", RepeaterParams, values["repeater"]),
        scaling=_section("scaling", Scaling, values["scaling"]),
        applications=_section("applications", Applications, values["applications"]),
        trials=_section("trials", TrialConfig, values["trials"]),
        output=_section("output", Output, values["output"]),
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
