import configparser
import json
from pathlib import Path

import numpy as np
import pytest

from robustpi import harness
from robustpi.dynsys import SystemModel
from robustpi.errors import EXIT_CODES, ConfigParse, PEViolation, StateDivergence
from robustpi.harness import (
    ObservedRegion,
    RunConfig,
    load_config,
    run_algorithm_1,
    select_invariant_set,
    write_csv,
)
from robustpi.online_pi import ExplorationNoise


def _write_cfg(path, body):
    path.write_text(body)
    return path


MINIMAL = """
[run]
format_version = 1
kind = scalar_lqr
seed = 3

[exploration]
amplitude = 0.8

[sampling]
interval = 0.1
n_intervals = 40

[pi]
value_degree = 2
policy_degree = 2
tol = 1.0e-4
max_iter = 12

[output]
dir = {out}
"""


def test_load_config_round_trip(tmp_path):
    cfg_path = _write_cfg(tmp_path / "a.cfg", MINIMAL.format(out=tmp_path / "out"))
    cfg = load_config(cfg_path)
    assert cfg.kind == "scalar_lqr"
    assert cfg.seed == 3
    assert cfg.exploration_amplitude == 0.8
    assert cfg.n_intervals == 40
    assert not cfg.robust_enabled


def test_missing_config_raises():
    with pytest.raises(ConfigParse):
        load_config("/nonexistent/missing.cfg")


def test_bad_values_raise(tmp_path):
    bad = MINIMAL.format(out=tmp_path).replace("seed = 3", "seed = banana")
    with pytest.raises(ConfigParse):
        load_config(_write_cfg(tmp_path / "b.cfg", bad))
    with pytest.raises(ConfigParse):
        load_config(
            _write_cfg(
                tmp_path / "c.cfg",
                MINIMAL.format(out=tmp_path).replace("kind = scalar_lqr", "kind = nope"),
            )
        )
    no_seed = MINIMAL.format(out=tmp_path).replace("seed = 3", "")
    with pytest.raises(ConfigParse):
        load_config(_write_cfg(tmp_path / "d.cfg", no_seed))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, key",
    [
        ("integration", "step"),
        ("sampling", "interval"),
        ("pi", "tol"),
        ("integration", "blowup"),
        ("robustness", "sim_step"),
        ("robustness", "sim_horizon"),
    ],
)
def test_non_finite_values_raise(tmp_path, section, key, value):
    parser = configparser.ConfigParser()
    parser.read_string(MINIMAL.format(out=tmp_path / "out"))
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    path = tmp_path / "non_finite.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigParse):
        load_config(path)
    assert harness.cli(["run", str(path)]) == EXIT_CODES[ConfigParse.category]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("step", ["nan", "inf", "0"])
def test_non_finite_step_override_raises(tmp_path, scalar_config_path, step):
    out = tmp_path / "out"
    argv = ["run", str(scalar_config_path), "--out-dir", str(out), "--step", step]
    assert harness.cli(argv) == EXIT_CODES[ConfigParse.category]
    assert not out.exists()


def test_shipped_configs_parse(arm_config_path, scalar_config_path, cascade_config_path):
    for path in (arm_config_path, scalar_config_path, cascade_config_path):
        cfg = load_config(path)
        assert cfg.format_version if hasattr(cfg, "format_version") else True
        assert cfg.seed is not None


def test_run_writes_expected_artifacts(tmp_path, scalar_config_path):
    cfg = load_config(scalar_config_path)
    cfg.out_dir = str(tmp_path / "run")
    run = run_algorithm_1(cfg)
    out = Path(cfg.out_dir)
    for name in (
        "config.cfg",
        "run.json",
        "iterations.csv",
        "trajectory_learning.csv",
        "trajectory_engaged.csv",
        "trajectory_movement.csv",
        "value_surface.csv",
    ):
        assert (out / name).is_file(), name
    info = json.loads((out / "run.json").read_text())
    assert info["error"] is None
    assert info["converged_iteration"] is not None
    assert info["audit"]["contained"] is True
    assert np.isfinite(info["audit"]["drift_lipschitz_bound"])
    # the scalar run's learned gain lands on the closed-form optimum
    gain = info["final_policy_weights"]["weights"][0]
    assert abs(gain + (np.sqrt(2.0) - 1.0)) <= 1e-3


def test_zero_amplitude_aborts_with_diagnostics(tmp_path, scalar_config_path):
    cfg = load_config(scalar_config_path)
    cfg.out_dir = str(tmp_path / "broken")
    cfg.exploration_amplitude = 0.0
    with pytest.raises(PEViolation):
        run_algorithm_1(cfg)
    info = json.loads((Path(cfg.out_dir) / "run.json").read_text())
    assert info["error"]["category"] == "PEViolation"


def test_cli_run_and_exit_codes(tmp_path, scalar_config_path):
    out = tmp_path / "cli_run"
    code = harness.cli(["run", str(scalar_config_path), "--out-dir", str(out)])
    assert code == 0
    assert (out / "run.json").is_file()
    assert harness.cli(["run", str(tmp_path / "missing.cfg")]) == 2


def test_cli_overrides_change_the_run(tmp_path, scalar_config_path):
    out = tmp_path / "cli_override"
    code = harness.cli(
        ["run", str(scalar_config_path), "--out-dir", str(out), "--max-iter", "1"]
    )
    assert code == 0
    info = json.loads((out / "run.json").read_text())
    assert info["n_iterations"] == 1


def test_cli_replay_is_byte_identical(tmp_path, scalar_config_path):
    out = tmp_path / "orig"
    assert harness.cli(["run", str(scalar_config_path), "--out-dir", str(out)]) == 0
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert harness.cli(["replay", str(out), "--out-dir", str(r1)]) == 0
    assert harness.cli(["replay", str(out), "--out-dir", str(r2)]) == 0
    files1 = sorted(p.name for p in r1.iterdir())
    files2 = sorted(p.name for p in r2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name


def test_cli_check_gains(tmp_path, cascade_config_path, capsys):
    out = tmp_path / "gains"
    code = harness.cli(
        ["check-gains", str(cascade_config_path), "--out-dir", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "holds: True" in captured.out
    assert "gamma" in captured.out or "rho" in captured.out


def test_schedule_drives_two_loop(tmp_path, scalar_config_path):
    cfg = load_config(scalar_config_path)
    cfg.out_dir = str(tmp_path / "sched")
    cfg.schedule = (1, 2)
    cfg.residual_threshold = 1e-6
    cfg.tol = 1e-6
    run = run_algorithm_1(cfg)
    assert run.analysis["schedule_index"] == 1
    assert run.pi_result.iterates[-1].residual_rms <= 1e-6


def test_cli_oracle_writes_reference(tmp_path, scalar_config_path):
    out = tmp_path / "oracle"
    code = harness.cli(
        ["oracle", str(scalar_config_path), "--out-dir", str(out), "--max-iter", "8"]
    )
    assert code == 0
    payload = json.loads((out / "oracle_final.json").read_text())
    assert payload["iterations"] <= 8
    assert (out / "oracle_iterations.csv").is_file()


def _stable_scalar_model():
    return SystemModel(
        n=1,
        drift=lambda x: -np.asarray(x, dtype=float),
        input_gain=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )


def test_select_invariant_set_contains_later_trajectories():
    model = _stable_scalar_model()
    noise = ExplorationNoise(amplitude=0.3, seed=1)
    region = select_invariant_set(
        model, None, lambda x: -0.5 * np.asarray(x, dtype=float)[..., 0], noise,
        [{"x0": [0.5]}, {"x0": [-0.5]}],
        step=1e-3, horizon=8.0,
    )
    assert not region.degenerate
    from robustpi.dynsys import integrate

    other = ExplorationNoise(amplitude=0.3, seed=2)
    rec = integrate(
        model, None,
        lambda x, t: -0.5 * x[0] + other(t), [0.25],
        horizon=8.0, step=1e-3,
    )
    assert np.all(region.contains(rec.trajectory.x))


def test_select_invariant_set_flags_divergence_and_degeneracy():
    model = SystemModel(
        n=1,
        drift=lambda x: np.asarray(x, dtype=float),
        input_gain=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )
    with pytest.raises(StateDivergence):
        select_invariant_set(
            model, None, lambda x: np.asarray(x, dtype=float)[..., 0], None,
            [{"x0": [1.0]}], step=1e-3, horizon=30.0,
        )
    stable = _stable_scalar_model()
    region = select_invariant_set(
        stable, None, lambda x: 0.0 * np.asarray(x, dtype=float)[..., 0], None,
        [{"x0": [0.0]}], step=1e-3, horizon=2.0,
    )
    assert region.degenerate


def test_box_audit_flags_violations(tmp_path, scalar_config_path):
    cfg = load_config(scalar_config_path)
    cfg.out_dir = str(tmp_path / "narrow")
    run = run_algorithm_1(cfg)
    # shrink the declared region after the fact: the audit must notice
    system = {"region_low": np.array([-0.01]), "region_high": np.array([0.01])}
    audit = harness._box_audit(run.learning_record, system)
    assert audit["x_violations"] > 0
    assert audit["contained"] is False


def test_write_csv_is_deterministic(tmp_path):
    cols = [np.array([1.0, 2.5e-7, -3.125]), np.array([4, 5, 6])]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["x", "n"], cols)
    write_csv(p2, ["x", "n"], cols)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text().splitlines()
    assert text[0] == "x,n"
    assert text[1] == "1.0,4"


def test_run_config_validation():
    with pytest.raises(ConfigParse):
        RunConfig(kind="nope", seed=1, out_dir="x")
    with pytest.raises(ConfigParse):
        RunConfig(kind="arm", seed=1, out_dir="x", step=-1.0)
    cfg = RunConfig(kind="arm", seed=1, out_dir="x")
    assert cfg.exploration_seed == 2
