import ast
import configparser
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpi import experiments, harness
from robustpi.errors import EXIT_CODES, ConfigParse, PEViolation
from robustpi.harness import (
    CONFIG_KEYS,
    RunConfig,
    load_config,
    run_algorithm_1,
    write_json,
    write_table,
)
from robustpi.rundiff import compare_runs, relative_gap


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


def test_missing_config_raises():
    with pytest.raises(ConfigParse):
        load_config("/nonexistent/missing.cfg")


def test_bad_values_raise(tmp_path):
    bad = MINIMAL.format(out=tmp_path).replace("seed = 3", "seed = banana")
    with pytest.raises(ConfigParse):
        load_config(_write_cfg(tmp_path / "b.cfg", bad))
    no_seed = MINIMAL.format(out=tmp_path).replace("seed = 3", "")
    with pytest.raises(ConfigParse):
        load_config(_write_cfg(tmp_path / "d.cfg", no_seed))


# Every RunConfig field of the bundled configs and MINIMAL, recorded before
# the loader read CONFIG_KEYS: a changed default or cast shows up here.
SCALAR_FIELDS = {
    "kind": "scalar_lqr", "seed": 7, "out_dir": "runs/scalar_lqr", "step": 0.001,
    "exploration_amplitude": 0.8, "exploration_freq_low": 0.1, "exploration_freq_high": 10.0,
    "exploration_seed": 8, "interval": 0.1, "n_intervals": 40,
    "value_degree": 2, "policy_degree": 2, "oracle_degree": 0, "delta_rel": 1e-06,
    "delta1_rel": 0.0, "tol": 0.0001, "max_iter": 16, "schedule": (),
    "residual_threshold": float("inf"), "s_max": None, "sim_step": 0.0005, "sim_horizon": 5.0,
}
EXPECTED_FIELDS = {
    "scalar_lqr.cfg": SCALAR_FIELDS,
    "MINIMAL": {
        **SCALAR_FIELDS, "seed": 3, "out_dir": "OUT", "exploration_seed": 4, "max_iter": 12,
    },
    "arm.cfg": {
        **SCALAR_FIELDS, "kind": "arm", "out_dir": "runs/arm",
        "exploration_amplitude": 2.0, "exploration_freq_low": 0.02,
        "exploration_freq_high": 1.0, "exploration_seed": 9, "n_intervals": 160,
        "value_degree": 5, "policy_degree": 5, "oracle_degree": 11, "delta_rel": 1e-12,
        "tol": 0.001, "s_max": 3.55, "sim_step": 0.00025,
    },
    "cascade_unmatched.cfg": {
        **SCALAR_FIELDS, "kind": "cascade", "seed": 11, "out_dir": "runs/cascade",
        "step": 0.0005, "exploration_amplitude": 1.0, "exploration_seed": 12,
        "delta1_rel": 1e-11, "s_max": 3.0, "sim_step": 0.001, "sim_horizon": 8.0,
    },
}


@pytest.mark.parametrize("name", sorted(EXPECTED_FIELDS))
def test_loaded_fields_keep_their_values(tmp_path, name):
    if name == "MINIMAL":
        path = _write_cfg(tmp_path / "minimal.cfg", MINIMAL.format(out="OUT"))
    else:
        path = Path(harness.__file__).parent / "configs" / name
    loaded = dataclasses.asdict(load_config(path))
    assert loaded.pop("source_text") == path.read_text()
    expected = EXPECTED_FIELDS[name]
    assert loaded == expected
    assert {k: type(v) for k, v in loaded.items()} == {k: type(v) for k, v in expected.items()}


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("n_intervals = 40", "n_interval = 40", "did you mean 'n_intervals'"),
        ("[pi]", "[pii]", "unknown section 'pii' (did you mean 'pi'?)"),
        ("[output]", "[plant]\nmass = 2.0\n\n[output]", "unknown section 'plant'"),
        ("[run]", "[DEFAULT]\nseed = 5\n\n[run]", "[DEFAULT]"),
    ],
)
def test_unknown_names_raise(tmp_path, old, new, message):
    text = MINIMAL.format(out=tmp_path / "out")
    assert old in text
    path = _write_cfg(tmp_path / "unknown.cfg", text.replace(old, new))
    with pytest.raises(ConfigParse, match=re.escape(message)):
        load_config(path)
    assert harness.cli(["run", str(path)]) == EXIT_CODES[ConfigParse.category]
    assert not (tmp_path / "out").exists()


@settings(max_examples=300, deadline=None)
@given(
    entry=st.sampled_from(CONFIG_KEYS),
    value=st.text(st.characters(blacklist_categories=("Cs",))),
)
def test_any_value_loads_or_raises_config_parse(entry, value):
    section, key = entry[:2]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(MINIMAL.format(out="out"))
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        with path.open("w") as fh:
            parser.write(fh)
        try:
            assert isinstance(load_config(path), RunConfig)
        except ConfigParse:
            pass


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert sorted(rows) == sorted((section, key) for section, key, _, _ in CONFIG_KEYS)


def _assert_rejected(tmp_path, section, key, value, match=None):
    """`load_config` and `robustpi run` both reject MINIMAL with one key set."""
    parser = configparser.ConfigParser()
    parser.read_string(MINIMAL.format(out=tmp_path / "out"))
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    path = tmp_path / "rejected.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigParse, match=match):
        load_config(path)
    assert harness.cli(["run", str(path)]) == EXIT_CODES[ConfigParse.category]
    assert not (tmp_path / "out").exists()


# linear_2state's plant is a test fixture (tests/oracles.py), not a harness kind
@pytest.mark.parametrize("kind", ["nope", "linear_2state"])
def test_unknown_kinds_are_rejected(tmp_path, kind):
    _assert_rejected(tmp_path, "run", "kind", kind, re.escape(f"unknown plant kind {kind!r}"))


# Keys that once carried one value in every config and are now constants,
# with the values the bundled configs gave them ([plant] plant_seed was
# never set; 3 was its default).  A config that still sets one is
# rejected by name, so it never runs differently without notice.
FOLDED_KEYS = [
    ("integration", "blowup", "1.0e6"),
    ("plant", "tau_n", "0.1"),
    ("plant", "plant_seed", "3"),
    ("exploration", "n_components", "10"),
    ("sampling", "start", "0.0"),
    ("robustness", "margin", "0.95"),
    ("robustness", "rho", "0.5"),
    ("robustness", "rho_ladder_min", "0.5"),
    ("robustness", "rho_ladder_max", "60.0"),
    ("robustness", "rho_ladder_n", "160"),
    ("robustness", "relative_margin", "0.10"),
    ("robustness", "d_samples", "4000"),
    ("robustness", "d_ladder_n", "60"),
]


@pytest.mark.parametrize("section, key, value", FOLDED_KEYS)
def test_folded_keys_are_rejected_by_name(tmp_path, section, key, value):
    name = "section 'plant'" if section == "plant" else f"[{section}] key {key!r}"
    _assert_rejected(tmp_path, section, key, value, re.escape(f"unknown {name}"))


# The cases of keys in FOLDED_KEYS hold because those keys are rejected by name.
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
        ("exploration", "amplitude"),
        ("exploration", "freq_low"),
        ("exploration", "freq_high"),
        ("pi", "delta_rel"),
        ("pi", "delta1_rel"),
        ("sampling", "start"),
        ("plant", "tau_n"),
        ("robustness", "rho_ladder_min"),
        ("robustness", "rho_ladder_max"),
        ("robustness", "relative_margin"),
        ("robustness", "margin"),
        ("robustness", "rho"),
        ("robustness", "s_max"),
    ],
)
def test_non_finite_values_raise(tmp_path, section, key, value):
    _assert_rejected(tmp_path, section, key, value)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("pi", "value_degree", "0"),
        ("pi", "policy_degree", "0"),
        ("pi", "oracle_degree", "-1"),
        ("sampling", "n_intervals", "-4"),
        ("sampling", "n_intervals", "0"),
        ("exploration", "n_components", "0"),
        ("exploration", "freq_low", "0"),
        ("exploration", "freq_low", "-1"),
        ("exploration", "freq_low", "20"),
        ("pi", "delta_rel", "0"),
        ("pi", "delta_rel", "-1"),
        ("pi", "delta1_rel", "-1e-6"),
        ("sampling", "start", "-1"),
        ("run", "seed", "-3"),
        ("exploration", "seed", "-3"),
        ("plant", "tau_n", "0"),
        ("plant", "tau_n", "-0.1"),
        ("plant", "plant_seed", "-1"),
        ("robustness", "rho_ladder_n", "0"),
        ("robustness", "d_ladder_n", "0"),
        ("robustness", "d_samples", "0"),
        ("robustness", "rho_ladder_min", "0"),
        ("robustness", "rho_ladder_min", "100"),
        ("robustness", "rho_ladder_max", "-1"),
        ("robustness", "relative_margin", "-0.1"),
        ("robustness", "margin", "0"),
        ("robustness", "rho", "-1"),
        ("robustness", "s_max", "0"),
        ("pi", "schedule", "0,2"),
        ("pi", "schedule", "2,2"),
        ("pi", "schedule", "3,2"),
        ("integration", "step", "0.5"),  # longer than the sampling interval
        ("integration", "step", "5.0"),  # also longer than sim_horizon
        # steps that do not divide the 0.1 s interval: 0.06 once ran short of
        # dense points (Internal), 0.07 once sampled every 0.07 s
        ("integration", "step", "0.06"),
        ("integration", "step", "0.07"),
        ("robustness", "sim_horizon", "0.0001"),
        ("robustness", "sim_step", "10"),
    ],
)
def test_out_of_range_values_raise(tmp_path, section, key, value):
    _assert_rejected(tmp_path, section, key, value)


@pytest.mark.parametrize("step", ["nan", "inf", "0"])
def test_non_finite_step_override_raises(tmp_path, scalar_config_path, step):
    out = tmp_path / "out"
    argv = ["run", str(scalar_config_path), "--out-dir", str(out), "--step", step]
    assert harness.cli(argv) == EXIT_CODES[ConfigParse.category]
    assert not out.exists()


def test_run_imports_no_scipy(tmp_path, scalar_config_path):
    """A whole run in a fresh interpreter loads numpy but not scipy."""
    script = (
        "import sys, robustpi, robustpi.harness\n"
        "code = robustpi.harness.cli(sys.argv[1:])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    src = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["run", str(scalar_config_path), "--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_no_module_imports_scipy():
    """No module of the package imports scipy, at any level: scipy is a test
    dependency, and an import inside a function fails only on its path."""
    package = Path(harness.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_negative_seed_override_raises(tmp_path, scalar_config_path):
    out = tmp_path / "out"
    argv = ["run", str(scalar_config_path), "--out-dir", str(out), "--seed", "-3"]
    assert harness.cli(argv) == EXIT_CODES[ConfigParse.category]
    assert not out.exists()


def test_shipped_configs_parse(arm_config_path, scalar_config_path, cascade_config_path):
    for path in (arm_config_path, scalar_config_path, cascade_config_path):
        cfg = load_config(path)
        assert cfg.format_version if hasattr(cfg, "format_version") else True
        assert cfg.seed is not None


# Short scalar_lqr runs, each key drawn from a small set (its usual value
# first).  Learning horizons (interval x n_intervals) stay at 4 s or less.
# Step 0.03 divides neither interval, one interval is fewer than the
# unknowns of any pair of bases, and amplitude 0 excites nothing.
SHORT_RUN_VALUES = (
    ("integration", "step", ("0.001", "0.005", "0.002", "0.03")),
    ("sampling", "interval", ("0.1", "0.05")),
    ("sampling", "n_intervals", ("20", "40", "10", "1")),
    ("pi", "value_degree", ("2", "1", "3")),
    ("pi", "policy_degree", ("2", "1", "3")),
    ("exploration", "amplitude", ("0.8", "0.3", "0")),
    ("pi", "max_iter", ("12", "3", "1")),
    ("robustness", "sim_step", ("0.0005", "0.01", "0.1")),
    ("robustness", "sim_horizon", ("2.0", "0.5", "0.05")),
)


@settings(max_examples=15, deadline=None)
@given(values=st.tuples(*(st.sampled_from(choices) for _, _, choices in SHORT_RUN_VALUES)))
def test_short_runs_complete_or_end_in_their_category(values):
    """A run completes with no error record, or exits with its category's
    code: a config that loads writes that category's record, and one that
    does not load writes nothing."""
    parser = configparser.ConfigParser()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        parser.read_string(MINIMAL.format(out=out))
        for (section, key, _), value in zip(SHORT_RUN_VALUES, values):
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)
        path = Path(tmp) / "short.cfg"
        with path.open("w") as fh:
            parser.write(fh)
        try:
            load_config(path)
        except ConfigParse:
            assert harness.cli(["run", str(path)]) == EXIT_CODES[ConfigParse.category]
            assert not out.exists()
            return
        code = harness.cli(["run", str(path)])
        error = json.loads((out / "run.json").read_text())["error"]
        if code == 0:
            assert error is None
        else:
            assert error is not None and code == EXIT_CODES[error["category"]]


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


def test_internal_error_writes_its_record(tmp_path, scalar_config_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("surface broke")

    monkeypatch.setattr(harness, "cost_surface_compare", broken)
    cfg = load_config(scalar_config_path)
    cfg.out_dir = str(tmp_path / "internal")
    with pytest.raises(ValueError, match="surface broke"):
        run_algorithm_1(cfg)
    info = json.loads((Path(cfg.out_dir) / "run.json").read_text())
    assert info["error"] == {"category": "Internal", "message": "ValueError: surface broke"}
    assert (Path(cfg.out_dir) / "iterations.csv").is_file()


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


def test_cli_one_iteration_cascade_completes(tmp_path, cascade_config_path):
    # with one online iterate the certification reference is the plant's
    # initial policy, a plain callable; no level certifies, and the cascade
    # block still carries its result keys, as null
    out = tmp_path / "one_iteration"
    argv = ["run", str(cascade_config_path), "--out-dir", str(out), "--max-iter", "1"]
    assert harness.cli(argv) == 0
    info = json.loads((out / "run.json").read_text())
    assert info["error"] is None and info["n_iterations"] == 1
    for key in ("certified_d", "certified_worst_ratio", "sigma_level"):
        assert key in info["cascade"] and info["cascade"][key] is None


def test_robust_and_cascade_blocks_share_result_keys(arm_run, cascade_run):
    # both plants certify through one routine, so run.json's robust and
    # cascade blocks carry the same result keys; both bundled runs certify
    levels = ("certified_d", "certified_worst_ratio", "sigma_level")
    shared = (
        "rho", "margin", "small_gain_holds", "small_gain_margin",
        "small_gain_relative_margin", *levels,
    )
    for run, block in ((arm_run, "robust"), (cascade_run, "cascade")):
        info = json.loads((Path(run.config.out_dir) / "run.json").read_text())
        assert set(shared) <= set(info[block]), block
        assert all(info[block][key] is not None for key in levels), block
    assert "certified_d1" not in info["cascade"]


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


def test_cli_replay_replaces_only_an_earlier_run(tmp_path, scalar_config_path):
    out = tmp_path / "orig"
    assert harness.cli(["run", str(scalar_config_path), "--out-dir", str(out)]) == 0
    (out / "note.txt").write_text("keep\n")
    other = tmp_path / "other"
    other.mkdir()
    (other / "note.txt").write_text("keep\n")
    code = EXIT_CODES[ConfigParse.category]
    for target in (out, tmp_path / "other" / ".." / "orig", tmp_path, other):
        assert harness.cli(["replay", str(out), "--out-dir", str(target)]) == code
    assert (out / "note.txt").read_text() == "keep\n"
    assert (out / "run.json").is_file()
    assert (other / "note.txt").read_text() == "keep\n"
    # an earlier replay is replaced
    again = tmp_path / "again"
    for _ in range(2):
        assert harness.cli(["replay", str(out), "--out-dir", str(again)]) == 0


def test_cli_check_gains(tmp_path, cascade_config_path, capsys):
    out = tmp_path / "gains"
    code = harness.cli(
        ["check-gains", str(cascade_config_path), "--out-dir", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "holds: True" in captured.out
    assert "gamma" in captured.out or "rho" in captured.out
    # the ladder has one home: the file, which check-gains prints and run.json omits
    assert captured.out == (out / "gain_check_cascade.txt").read_text() + "\nholds: True\n"
    info = json.loads((out / "run.json").read_text())
    assert info["cascade"]["small_gain_holds"] is True
    assert "gain_table" not in info["cascade"]


def test_check_gains_needs_an_uncertainty(tmp_path, scalar_config_path):
    # scalar_lqr's record has no uncertainty: refused before any output is written
    out = tmp_path / "gains"
    argv = ["check-gains", str(scalar_config_path), "--out-dir", str(out)]
    assert harness.cli(argv) == EXIT_CODES[ConfigParse.category]
    assert not out.exists()


def test_a_plant_registered_under_a_new_name_runs_by_its_record(
    tmp_path, cascade_config_path, cascade_run, monkeypatch, capsys
):
    # the harness reads the cascade path off the record, not the kind name:
    # the cascade's builder under another name writes the cascade's artifacts
    def renamed_cascade():
        return experiments.build_cascade_system()

    monkeypatch.setitem(harness.PLANTS, "renamed_cascade", renamed_cascade)
    text = cascade_config_path.read_text()
    assert text.count("kind = cascade\n") == 1
    cfg = _write_cfg(
        tmp_path / "renamed.cfg", text.replace("kind = cascade\n", "kind = renamed_cascade\n")
    )
    out = tmp_path / "renamed"
    assert harness.cli(["check-gains", str(cfg), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.endswith("\nholds: True\n")
    reference = Path(cascade_run.config.out_dir)
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in reference.iterdir())
    for name in names:
        renamed = (out / name).read_text()
        if name in ("config.cfg", "run.json"):
            renamed = renamed.replace("renamed_cascade", "cascade")
        assert renamed == (reference / name).read_text(), name


def test_schedule_on_a_z_channel_plant_is_rejected(tmp_path, cascade_config_path):
    # phase one learns on one basis pair: a schedule would be ignored, so it is refused
    text = cascade_config_path.read_text().replace(
        "[pi]\n", "[pi]\nschedule = 1,2\nresidual_threshold = 1e-30\n"
    )
    cfg = _write_cfg(tmp_path / "scheduled.cfg", text)
    with pytest.raises(ConfigParse, match="z channel"):
        load_config(cfg)
    out = tmp_path / "out"
    argv = ["run", str(cfg), "--out-dir", str(out)]
    assert harness.cli(argv) == EXIT_CODES[ConfigParse.category]
    assert not out.exists()


def test_seed_override_keeps_an_explicit_exploration_seed(tmp_path):
    # --seed moves the exploration seed only where the file leaves it unset
    unset = _write_cfg(tmp_path / "unset.cfg", MINIMAL.format(out=tmp_path / "unused"))
    assert load_config(unset, seed=5).exploration_seed == 6
    explicit = _write_cfg(
        tmp_path / "explicit.cfg",
        MINIMAL.format(out=tmp_path / "unused").replace(
            "amplitude = 0.8", "amplitude = 0.8\nseed = 9"
        ),
    )
    assert load_config(explicit).exploration_seed == 9
    assert load_config(explicit, seed=5).exploration_seed == 9
    # passing the file's own seed changes nothing in the run
    plain, again = tmp_path / "plain", tmp_path / "again"
    assert harness.cli(["run", str(explicit), "--out-dir", str(plain)]) == 0
    assert harness.cli(["run", str(explicit), "--out-dir", str(again), "--seed", "3"]) == 0
    for path in sorted(plain.iterdir()):
        assert path.read_bytes() == (again / path.name).read_bytes(), path.name


def test_same_artifacts_runs_every_bundled_config():
    # tools/same_artifacts.py is the byte-identity gate of a refactor: it
    # must run each config the package ships
    tool = Path(__file__).parents[1] / "tools" / "same_artifacts.py"
    spec = importlib.util.spec_from_file_location("same_artifacts", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    bundled = {p.name for p in (Path(harness.__file__).parent / "configs").glob("*.cfg")}
    assert bundled
    assert {config for command, config in module.CASES if command == "run"} == bundled


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


@pytest.mark.parametrize("kind", harness.PLANTS)
def test_build_system_is_the_plant_record(kind, monkeypatch):
    # every kind's builder returns one Benchmark record, and the harness gets
    # exactly that record's fields, under their own names
    plant = harness.PLANTS[kind]()
    assert isinstance(plant, experiments.Benchmark)
    monkeypatch.setitem(harness.PLANTS, kind, lambda: plant)
    system = harness._build_system(RunConfig(kind=kind, seed=1))
    names = [f.name for f in dataclasses.fields(experiments.Benchmark)]
    assert list(system) == names
    for name in names:
        assert system[name] is getattr(plant, name), name


@pytest.mark.parametrize("run_fixture", ["arm_run", "cascade_run"])
def test_learning_starts_at_the_plant_record_start(run_fixture, request):
    run = request.getfixturevalue(run_fixture)
    plant = harness.PLANTS[run.config.kind]()
    record = run.learning_record
    assert np.array_equal(record.trajectory.x[0], plant.x0)
    assert np.array_equal(record.w[0], plant.w0)
    if plant.z0 is None:
        assert record.trajectory.z is None
    else:
        assert record.trajectory.z[0] == plant.z0


def test_box_audit_flags_violations(tmp_path, scalar_config_path):
    cfg = load_config(scalar_config_path)
    cfg.out_dir = str(tmp_path / "narrow")
    run = run_algorithm_1(cfg)
    # shrink the declared region after the fact: the audit must notice
    system = {"region_low": np.array([-0.01]), "region_high": np.array([0.01])}
    audit = harness._box_audit(run.learning_record, system)
    assert audit["x_violations"] > 0
    assert audit["contained"] is False


def test_write_table_is_deterministic(tmp_path):
    table = {"x": np.array([1.0, 2.5e-7, -3.125, np.inf]), "n": np.array([4, 5, 6, 7])}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(p1, table)
    write_table(p2, table)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text().splitlines()
    assert text[0] == "x,n"
    assert text[1] == "1.0,4"
    # floats print as repr(float) and ints as str(int)
    assert text[2:] == ["2.5e-07,5", "-3.125,6", "inf,7"]
    # rows are converted in chunks; a table of several chunks reads the same
    long = np.linspace(0.0, 1.0, 2 * harness.TABLE_CHUNK_ROWS + 3)
    write_table(p1, {"t": long, "k": np.arange(long.size)})
    assert p1.read_text().splitlines()[1:] == [f"{float(v)!r},{k}" for k, v in enumerate(long)]


def test_run_config_validation():
    with pytest.raises(ConfigParse):
        RunConfig(kind="nope", seed=1, out_dir="x")
    with pytest.raises(ConfigParse):
        RunConfig(kind="arm", seed=1, out_dir="x", step=-1.0)
    cfg = RunConfig(kind="arm", seed=1, out_dir="x")
    assert cfg.exploration_seed == 2


def _run_dir(path, iterations="iteration,value\n0,1.0\n1,0.5\n", info=None, note="ok\n"):
    path.mkdir()
    (path / "iterations.csv").write_text(iterations)
    write_json(path / "run.json", info or {"rho": 9.5, "levels": [1.0, 2.0], "holds": True})
    (path / "gain_check.txt").write_text(note)
    return path


def test_diff_identical_runs_exit_zero(tmp_path, capsys):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    assert harness.cli(["diff", str(a), str(b)]) == 0
    assert "no difference in 3 files" in capsys.readouterr().out


def test_diff_reports_largest_relative_difference(tmp_path, capsys):
    a = _run_dir(tmp_path / "a", iterations="iteration,value\n0,1.0\n1,0.5000001\n")
    b = _run_dir(tmp_path / "b", info={"rho": 9.5, "levels": [1.0, 2.000002], "holds": True})
    assert harness.cli(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "iterations.csv: largest relative difference 2.000e-07" in out
    assert "run.json: largest relative difference 1.000e-06" in out
    assert "gain_check.txt" not in out
    assert harness.cli(["diff", str(a), str(b), "--rtol", "1e-6"]) == 0
    assert harness.cli(["diff", str(a), str(b), "--rtol", "5e-7"]) == 1


@pytest.mark.parametrize(
    "changes",
    [
        {"iterations": "iteration,weight\n0,1.0\n1,0.5\n"},  # header
        {"iterations": "iteration,value\n0,1.0\n"},  # row count
        {"info": {"rho": 9.5, "levels": [1.0, 2.0], "holds": False}},  # bool
        {"info": {"rho": 9.5, "levels": [1.0, 2.0]}},  # key
        {"note": "ok \n"},  # other file, bytes
    ],
)
def test_diff_non_numeric_differences_fail_at_any_rtol(tmp_path, changes):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b", **changes)
    assert harness.cli(["diff", str(a), str(b), "--rtol", "1e9"]) == 1


def test_diff_holds_txt_numbers_to_rtol_and_words_exactly(tmp_path, capsys):
    note = "rho = 9.5  margin = 0.95\nholds = True\n\n  1.000000e-02    2.345678e-01\n"
    b = _run_dir(tmp_path / "b", note=note)
    a = _run_dir(tmp_path / "a", note=note.replace("2.345678e-01", "2.345679e-01"))
    assert compare_runs(a, b)["gain_check.txt"] == pytest.approx(1e-7 / 0.2345678, rel=1e-6)
    assert harness.cli(["diff", str(a), str(b), "--rtol", "1e-6"]) == 0
    assert harness.cli(["diff", str(a), str(b)]) == 1
    assert "gain_check.txt: largest relative difference 4.263e-07" in capsys.readouterr().out
    c = _run_dir(tmp_path / "c", note=note.replace("True", "False"))
    assert compare_runs(c, b)["gain_check.txt"] == float("inf")
    assert harness.cli(["diff", str(c), str(b), "--rtol", "1e9"]) == 1


def test_diff_needs_the_same_file_names(tmp_path, capsys):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    (b / "extra.csv").write_text("x\n1\n")
    assert harness.cli(["diff", str(a), str(b)]) == 1
    assert "extra.csv: in one run only" in capsys.readouterr().out


def test_diff_bad_arguments_raise_config_parse(tmp_path):
    a = _run_dir(tmp_path / "a")
    code = EXIT_CODES[ConfigParse.category]
    assert harness.cli(["diff", str(a), str(tmp_path / "missing")]) == code
    assert harness.cli(["diff", str(a), str(a), "--rtol", "-1"]) == code
    assert harness.cli(["diff", str(a), str(a), "--rtol", "nan"]) == code


def test_relative_gap_edge_cases():
    assert relative_gap(1.0, 1.0) == 0.0
    assert relative_gap(float("nan"), float("nan")) == 0.0
    assert relative_gap(float("inf"), float("inf")) == 0.0
    assert relative_gap(1e-300, 0.0) == float("inf")
    assert relative_gap(float("nan"), 1.0) == float("inf")
    assert relative_gap(1.0, float("inf")) == float("inf")
    assert relative_gap(-2.0, -4.0) == 0.5
