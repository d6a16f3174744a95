"""INI config files for the command-line front end.

One file describes one experiment run. Sections group keys by module; every
key is optional and falls back to the experiment defaults, but unknown
sections or keys are rejected outright so typos cannot silently change a
run. The values are checked by :class:`ExperimentConfig` when it is built,
as for a config built in Python. ``noise_epsilon`` accepts a
comma-separated list, which turns the run into a sweep (one run per level,
shared everything else).

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
from dataclasses import dataclass

from .errors import ConfigError, ContractError
from .experiments import ExperimentConfig

__all__ = ["ConfigBundle", "load_config"]

# section -> key -> (ExperimentConfig field, parser)
_SCHEMA = {
    "experiment": {
        "name": ("experiment", str),
    },
    "grid": {
        "n": ("grid_n", int),
    },
    "model": {
        "variant": ("variant", str),
        "init_seed": ("init_seed", int),
        "init_scale": ("init_scale", float),
        "offset": ("offset", float),
        "clamp_floor": ("clamp_floor", float),
    },
    "optimizer": {
        "max_steps": ("max_steps", int),
        "memory": ("memory", int),
    },
    "observations": {
        "n_points": ("n_points", int),
        "seed": ("obs_seed", int),
        "noise_epsilon": ("noise_epsilon", "float_list"),
    },
    "physics": {
        "rho": ("rho", float),
        "cp": ("cp", float),
        "heat_source": ("heat_source", float),
        "heat_bc_value": ("heat_bc_value", float),
        "kappa1": ("kappa1", float),
        "kappa2": ("kappa2", float),
        "lid_speed": ("lid_speed", float),
    },
    "solver": {
        "newton_tol": ("newton_tol", float),
        "newton_max_iter": ("newton_max_iter", int),
        "beta": ("beta", float),
        "dt": ("dt", float),
        "transport_steps": ("transport_steps", int),
    },
    "output": {
        "directory": (None, str),
    },
}


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

    Raises ConfigError for a missing, unreadable or non-UTF-8 file,
    unknown sections or keys, malformed values, or values the config
    rejects.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    kwargs = {}
    out_dir = None
    for section in parser.sections():
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
