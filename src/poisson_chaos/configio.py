"""Flat key = value config files, each read once: sections and hash share its bytes.

[control] sets the fields of the CONTROLS dataclass its `type` names (default
discrete, "-" read as "_"; a tuple field by a comma-separated list): a field
with a default may be left out, and any other key is refused.
"""

import dataclasses
import hashlib
import io

from .point_process import (BetaControl, DiscreteControl, ExtendedGammaControl,
                            GeneralizedGammaControl)

CONTROLS = {"discrete": DiscreteControl, "generalized_gamma": GeneralizedGammaControl,
            "extended_gamma": ExtendedGammaControl, "beta": BetaControl}


class ConfigError(ValueError):
    pass


def read_config(path) -> tuple[dict, str]:
    """Reads path once: its sections, {name: {key: value}}, and the
    config_hash of the bytes they were parsed from."""
    import configparser   # only runs that name a config file need it
    parser = configparser.ConfigParser()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        parser.read_file(io.StringIO(data.decode("utf-8"), newline=None), source=str(path))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return {name: dict(parser.items(name)) for name in parser.sections()}, config_hash(data)


def config_hash(data: bytes = b"") -> str:
    """The first 16 hex digits of the SHA-256 of a config file's bytes (b"": none)."""
    return hashlib.sha256(data).hexdigest()[:16]


def check_keys(name: str, section: dict, known) -> None:
    unknown = sorted(section.keys() - set(known))
    if unknown:
        raise ConfigError(f"bad [{name}] section: unknown keys {', '.join(unknown)}")


def control_from_section(section: dict):
    kind = section.get("type", "discrete").strip().lower()
    cls = CONTROLS.get(kind.replace("-", "_"))
    if cls is None:
        raise ConfigError(f"unknown control type {kind!r}")
    fields = dataclasses.fields(cls)
    check_keys("control", section, ["type", *(f.name for f in fields)])
    try:
        return cls(**{f.name: (tuple(float(v) for v in section[f.name].split(","))
                               if f.type.startswith("tuple") else float(section[f.name]))
                      for f in fields if f.name in section or f.default is dataclasses.MISSING})
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [control] section: {exc}") from exc
