"""Flat key = value configuration files with one section per object.

Sections name the objects they configure ([control], [experiment]); values
are plain scalars, diff-friendly, no schema dependency.  A value has one
source, but --seed and --reps take precedence over [experiment] seed and reps.
"""

from __future__ import annotations

import hashlib

from .point_process import (BetaControl, DiscreteControl, ExtendedGammaControl,
                            GeneralizedGammaControl)


class ConfigError(ValueError):
    pass


def read_config(path) -> dict:
    import configparser   # only runs that name a config file need it
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def config_hash(path=None, text: str | None = None) -> str:
    if text is None:
        if path is None:
            return hashlib.sha256(b"").hexdigest()[:16]
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def control_from_section(section: dict):
    kind = section.get("type", "discrete").strip().lower()
    try:
        if kind == "discrete":
            values = tuple(float(v) for v in section["values"].split(","))
            weights = tuple(float(v) for v in section["weights"].split(","))
            return DiscreteControl(values=values, weights=weights)
        if kind in ("generalized_gamma", "generalized-gamma"):
            return GeneralizedGammaControl(
                sigma=float(section["sigma"]), gamma=float(section["gamma"]),
                eps=float(section.get("eps", "0")))
        if kind in ("extended_gamma", "extended-gamma"):
            return ExtendedGammaControl(
                beta0=float(section.get("beta0", "1")),
                beta1=float(section.get("beta1", "1")),
                eps=float(section.get("eps", "1e-4")))
        if kind == "beta":
            return BetaControl(c0=float(section.get("c0", "1")),
                               c1=float(section.get("c1", "1")))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [control] section: {exc}") from exc
    raise ConfigError(f"unknown control type {kind!r}")
