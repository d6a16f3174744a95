"""INI config files for the command-line front end.

One file describes one experiment run. Sections group keys by module; every
key is optional and falls back to the experiment defaults, but unknown
sections (a ``[DEFAULT]`` with any key among them) or keys are rejected
outright so typos cannot silently change a run. Values are plain text,
with no ``%`` interpolation. The values are checked by
:class:`ExperimentConfig` when it is built, as for a config built in
Python. ``noise_epsilon`` accepts a comma-separated list, which turns the
run into a sweep (one run per level, shared everything else).

    [experiment]
    name = cavity_viscosity

    [grid]
    n = 21

    [model]
    variant = dnn2d
    init_seed = 21

    [observations]
    n_points = 40
    seed = 7
    noise_epsilon = 0.0, 0.01, 0.05

    [optimizer]
    max_steps = 100
"""

import configparser
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, ContractError
from .experiments import ExperimentConfig

__all__ = ["ConfigBundle", "load_config"]


def _schema():
    """section -> key -> (ExperimentConfig field, parser), in field order,
    from the INI key each field declares; the parser is the field's type,
    but for the list of noise levels.  ``[output] directory`` is the one
    key that is not a field."""
    schema = {}
    for f in fields(ExperimentConfig):
        if f.metadata["ini"] is not None:
            section, key = f.metadata["ini"].split()
            kind = "float_list" if f.name == "noise_epsilon" else f.type
            schema.setdefault(section, {})[key] = (f.name, kind)
    schema["output"] = {"directory": (None, str)}
    return schema


_SCHEMA = _schema()


@dataclass(frozen=True)
class ConfigBundle:
    """Parsed file: one config per noise level, plus the output directory."""

    configs: tuple
    out_dir: str = None

    @property
    def is_sweep(self):
        return len(self.configs) > 1


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw.strip()!r}")
    return value


def _parse_value(raw, kind, where):
    try:
        if kind is str:
            return raw.strip()
        if kind is int:
            return int(raw)
        if kind is float:
            return _finite(raw)
        if kind == "float_list":
            values = tuple(_finite(part) for part in raw.split(","))
            if not values:
                raise ValueError("empty list")
            return values
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise AssertionError(f"unhandled kind {kind!r}")


def load_config(path):
    """Parse an INI file and build one ExperimentConfig per noise level.

    Values are plain text: a ``%`` is a character like any other.  Raises
    ConfigError for a missing, unreadable or non-UTF-8 file, a path with a
    NUL byte, unknown sections (a non-empty ``[DEFAULT]`` among them) or
    keys, malformed values, or values the config rejects.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # not UTF-8, or a NUL byte in path
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    kwargs = {}
    out_dir = None
    # a [DEFAULT] key would reach every section as a key of its own
    sections = parser.sections()
    if parser.defaults():
        sections.insert(0, parser.default_section)
    for section in sections:
        if section not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(f"unknown section [{section}]; expected one of {known}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                known = ", ".join(sorted(_SCHEMA[section]))
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; expected one of {known}")
            field, kind = _SCHEMA[section][key]
            value = _parse_value(raw, kind, f"[{section}] {key}")
            if section == "output":
                out_dir = value
            else:
                kwargs[field] = value

    levels = kwargs.pop("noise_epsilon", (ExperimentConfig.noise_epsilon,))
    try:
        configs = tuple(ExperimentConfig(**kwargs, noise_epsilon=eps)
                        for eps in levels)
    except ContractError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None
    return ConfigBundle(configs, out_dir)
