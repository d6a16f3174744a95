"""INI parsing, strict validation, and sweep expansion."""

import pytest

from flowgrad.config import load_config
from flowgrad.errors import ConfigError
from flowgrad.experiments import ExperimentConfig


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_full_round_trip(tmp_path):
    path = _write(tmp_path, """
[experiment]
name = conjugate_heat

[grid]
n = 11

[model]
variant = dnn2d
init_seed = 5
init_scale = 0.5
offset = 2.0
clamp_floor = 1e-5

[optimizer]
max_steps = 17
memory = 9
debug_fd_check = yes

[observations]
n_points = 25
seed = 13
noise_epsilon = 0.02

[physics]
rho = 2.0
cp = 3.0
heat_source = 0.5
heat_bc_value = 0.25
kappa1 = 1.5
kappa2 = 2.5
lid_speed = 0.75

[solver]
newton_tol = 1e-9
newton_max_iter = 12
beta = 0.02
dt = 0.05
transport_steps = 30

[output]
directory = results
""")
    bundle = load_config(path)
    assert not bundle.is_sweep
    assert bundle.out_dir == "results"
    cfg = bundle.configs[0]
    assert cfg.experiment == "conjugate_heat"
    assert cfg.grid_n == 11
    assert cfg.variant == "dnn2d"
    assert cfg.init_seed == 5
    assert cfg.init_scale == 0.5
    assert cfg.offset == 2.0
    assert cfg.clamp_floor == 1e-5
    assert cfg.max_steps == 17
    assert cfg.memory == 9
    assert cfg.debug_fd_check is True
    assert cfg.n_points == 25
    assert cfg.obs_seed == 13
    assert cfg.noise_epsilon == 0.02
    assert cfg.rho == 2.0
    assert cfg.cp == 3.0
    assert cfg.heat_source == 0.5
    assert cfg.heat_bc_value == 0.25
    assert cfg.kappa1 == 1.5
    assert cfg.kappa2 == 2.5
    assert cfg.lid_speed == 0.75
    assert cfg.newton_tol == 1e-9
    assert cfg.newton_max_iter == 12
    assert cfg.beta == 0.02
    assert cfg.dt == 0.05
    assert cfg.transport_steps == 30


def test_empty_file_gives_defaults(tmp_path):
    bundle = load_config(_write(tmp_path, ""))
    assert bundle.configs[0] == ExperimentConfig()
    assert bundle.out_dir is None


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.ini"))


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, "[turbulence]\nn = 3\n")
    with pytest.raises(ConfigError, match=r"unknown section \[turbulence\]"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "[grid]\nresolution = 21\n")
    with pytest.raises(ConfigError, match="unknown key 'resolution'"):
        load_config(path)


def test_malformed_int_names_location(tmp_path):
    path = _write(tmp_path, "[grid]\nn = twenty\n")
    with pytest.raises(ConfigError, match=r"\[grid\] n"):
        load_config(path)


def test_malformed_bool_rejected(tmp_path):
    path = _write(tmp_path, "[optimizer]\ndebug_fd_check = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_config(path)


def test_noise_list_expands_to_sweep(tmp_path):
    path = _write(tmp_path, "[observations]\nnoise_epsilon = 0.0, 0.01, 0.05\n")
    bundle = load_config(path)
    assert bundle.is_sweep
    assert [c.noise_epsilon for c in bundle.configs] == [0.0, 0.01, 0.05]
    base = bundle.configs[0]
    for cfg in bundle.configs[1:]:
        assert cfg.experiment == base.experiment
        assert cfg.obs_seed == base.obs_seed


def test_negative_noise_rejected(tmp_path):
    path = _write(tmp_path, "[observations]\nnoise_epsilon = -0.01\n")
    with pytest.raises(ConfigError, match="nonnegative"):
        load_config(path)


def test_rectangular_grid_rejected(tmp_path):
    # experiments run on square grids, whose one size is [grid] n
    for key in ("nx", "ny"):
        path = _write(tmp_path, f"[grid]\nn = 11\n{key} = 11\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)


def test_degenerate_grid_rejected(tmp_path):
    path = _write(tmp_path, "[grid]\nn = 1\n")
    with pytest.raises(ConfigError, match="at least 2 nodes"):
        load_config(path)


def test_nonpositive_density_rejected(tmp_path):
    path = _write(tmp_path, "[physics]\nrho = -1.0\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_experiment_name_rejected(tmp_path):
    path = _write(tmp_path, "[experiment]\nname = plasma\n")
    with pytest.raises(ConfigError):
        load_config(path)
