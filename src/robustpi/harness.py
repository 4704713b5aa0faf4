"""End-to-end run orchestration, configuration, serialization and CLI.

A run follows the four-step recipe: excite the plant under the initial
policy plus exploration noise while collecting data; iterate the
regression solves (two-phase for cascade plants); terminate the noise;
engage the final (robustified) policy.  Every artifact is written with
fixed formatting so that replaying a config byte-reproduces the run.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import backstep, online_pi, pi_oracle, robust
from .basis import make_polynomial_basis
from .dynsys import Plant, integrate, lipschitz_probe
from .errors import EXIT_CODES, ConfigParse, ToolkitError
from .experiments import (
    build_arm_system,
    build_cascade_system,
    build_linear_plant,
    build_scalar_plant,
    cost_surface_compare,
    speed_profile_analysis,
)

FORMAT_VERSION = 1
KINDS = ("scalar_lqr", "linear_2state", "arm", "cascade")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    kind: str
    seed: int
    out_dir: str
    step: float = 1e-3
    blowup: float = 1e6
    plant: dict = field(default_factory=dict)
    exploration_amplitude: float = 0.5
    exploration_components: int = 10
    exploration_freq_low: float = 0.1
    exploration_freq_high: float = 10.0
    exploration_seed: Optional[int] = None
    interval: float = 0.1
    n_intervals: Optional[int] = None
    sample_start: float = 0.0
    value_degree: int = 2
    policy_degree: int = 2
    oracle_degree: int = 0  # 0 -> same as value_degree
    delta_rel: float = 1e-6
    delta1_rel: float = 0.0  # 0 -> same as delta_rel
    tol: float = 1e-3
    max_iter: int = 20
    schedule: tuple = ()
    residual_threshold: float = np.inf
    robust_enabled: bool = False
    margin: Optional[float] = None
    rho: Optional[float] = None  # None -> ladder search
    rho_ladder_min: float = 0.1
    rho_ladder_max: float = 60.0
    rho_ladder_n: int = 160
    relative_margin: float = 0.10
    s_max: Optional[float] = None
    d_samples: int = 4000
    d_ladder_n: int = 60
    sim_step: float = 5e-4
    sim_horizon: float = 5.0
    source_text: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigParse(f"unknown plant kind {self.kind!r}")
        for name in ("step", "interval", "tol", "blowup", "sim_step", "sim_horizon"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ConfigParse(f"{name} must be positive and finite")
        if self.exploration_amplitude < 0:
            raise ConfigParse("exploration amplitude must be nonnegative")
        if self.max_iter < 1:
            raise ConfigParse("max_iter must be at least 1")
        if self.exploration_seed is None:
            self.exploration_seed = self.seed + 1


def _get(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key) or parser.get(section, key).strip() == "":
        if required:
            raise ConfigParse(f"missing required key [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as exc:
        raise ConfigParse(f"bad value for [{section}] {key}: {raw!r}") from exc


def load_config(path) -> RunConfig:
    """Parse a run configuration file (INI sections, units in comments)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigParse(f"config file not found: {path}")
    text = path.read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParse(f"cannot parse {path}: {exc}") from exc

    version = _get(parser, "run", "format_version", int, required=True)
    if version != FORMAT_VERSION:
        raise ConfigParse(f"unsupported format_version {version}")
    kind = _get(parser, "run", "kind", str, required=True)
    seed = _get(parser, "run", "seed", int, required=True)
    out_dir = _get(parser, "output", "dir", str, default="runs/latest")

    plant = {}
    if parser.has_section("plant"):
        for key, raw in parser.items("plant"):
            try:
                plant[key] = float(raw)
            except ValueError:
                plant[key] = raw

    schedule = ()
    raw_schedule = _get(parser, "pi", "schedule", str, default="")
    if raw_schedule:
        try:
            schedule = tuple(int(v) for v in raw_schedule.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigParse(f"bad schedule: {raw_schedule!r}") from exc

    cfg = RunConfig(
        kind=kind,
        seed=seed,
        out_dir=out_dir,
        step=_get(parser, "integration", "step", float, default=1e-3),
        blowup=_get(parser, "integration", "blowup", float, default=1e6),
        plant=plant,
        exploration_amplitude=_get(parser, "exploration", "amplitude", float, default=0.5),
        exploration_components=_get(parser, "exploration", "n_components", int, default=10),
        exploration_freq_low=_get(parser, "exploration", "freq_low", float, default=0.1),
        exploration_freq_high=_get(parser, "exploration", "freq_high", float, default=10.0),
        exploration_seed=_get(parser, "exploration", "seed", int, default=None),
        interval=_get(parser, "sampling", "interval", float, default=0.1),
        n_intervals=_get(parser, "sampling", "n_intervals", int, default=None),
        sample_start=_get(parser, "sampling", "start", float, default=0.0),
        value_degree=_get(parser, "pi", "value_degree", int, default=2),
        policy_degree=_get(parser, "pi", "policy_degree", int, default=2),
        oracle_degree=_get(parser, "pi", "oracle_degree", int, default=0),
        delta1_rel=_get(parser, "pi", "delta1_rel", float, default=0.0),
        delta_rel=_get(parser, "pi", "delta_rel", float, default=1e-6),
        tol=_get(parser, "pi", "tol", float, default=1e-3),
        max_iter=_get(parser, "pi", "max_iter", int, default=20),
        schedule=schedule,
        residual_threshold=_get(parser, "pi", "residual_threshold", float, default=np.inf),
        robust_enabled=parser.has_section("robustness"),
        margin=_get(parser, "robustness", "margin", float, default=None)
        if parser.has_section("robustness")
        else None,
        rho=_get(parser, "robustness", "rho", float, default=None)
        if parser.has_section("robustness")
        else None,
        rho_ladder_min=_get(parser, "robustness", "rho_ladder_min", float, default=0.1)
        if parser.has_section("robustness")
        else 0.1,
        rho_ladder_max=_get(parser, "robustness", "rho_ladder_max", float, default=60.0)
        if parser.has_section("robustness")
        else 60.0,
        rho_ladder_n=_get(parser, "robustness", "rho_ladder_n", int, default=160)
        if parser.has_section("robustness")
        else 160,
        relative_margin=_get(parser, "robustness", "relative_margin", float, default=0.10)
        if parser.has_section("robustness")
        else 0.10,
        s_max=_get(parser, "robustness", "s_max", float, default=None)
        if parser.has_section("robustness")
        else None,
        d_samples=_get(parser, "robustness", "d_samples", int, default=4000)
        if parser.has_section("robustness")
        else 4000,
        d_ladder_n=_get(parser, "robustness", "d_ladder_n", int, default=60)
        if parser.has_section("robustness")
        else 60,
        sim_step=_get(parser, "robustness", "sim_step", float, default=5e-4)
        if parser.has_section("robustness")
        else 5e-4,
        sim_horizon=_get(parser, "robustness", "sim_horizon", float, default=5.0)
        if parser.has_section("robustness")
        else 5.0,
        source_text=text,
    )
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, header, columns) -> None:
    columns = [np.asarray(c) for c in columns]
    rows = columns[0].shape[0]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def _to_builtin(obj):
    if isinstance(obj, dict):
        return {k: _to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_builtin(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_to_builtin(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# invariant-set selection
# ---------------------------------------------------------------------------


@dataclass
class ObservedRegion:
    low: np.ndarray
    high: np.ndarray
    degenerate: bool

    def contains(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.all((x >= self.low - 1e-12) & (x <= self.high + 1e-12), axis=1)


def select_invariant_set(
    model,
    uncertainty,
    initial_policy,
    exploration,
    probe_plan,
    *,
    step: float,
    horizon: float,
    blowup: float = 1e6,
    inflation: float = 0.10,
) -> ObservedRegion:
    """Bounding box (inflated) of probe trajectories under policy + noise.

    StateDivergence propagates if the initial policy cannot contain a
    probe.  A (near) zero-volume box is flagged as degenerate: it cannot
    support persistent excitation.
    """
    lows, highs = [], []
    noise = exploration if exploration is not None else (lambda t: 0.0)
    for entry in probe_plan:
        x0 = entry["x0"]
        w0 = entry.get("w0")
        rec = integrate(
            model,
            uncertainty,
            lambda x, t: initial_policy(x) + noise(t),
            x0,
            horizon=horizon,
            step=step,
            w0=w0,
            blowup=blowup,
        )
        lows.append(rec.trajectory.x.min(axis=0))
        highs.append(rec.trajectory.x.max(axis=0))
    low = np.min(np.asarray(lows), axis=0)
    high = np.max(np.asarray(highs), axis=0)
    span = high - low
    pad = inflation * np.where(span > 0, span, 1e-12)
    degenerate = bool(np.any(span < 1e-9))
    return ObservedRegion(low=low - pad, high=high + pad, degenerate=degenerate)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


@dataclass
class LearningRun:
    """Everything one pipeline execution produced, ready to serialize."""

    config: RunConfig
    pi_result: online_pi.OnlinePIResult = None
    learning_record: object = None
    oracle_states: list = None
    robust_report: dict = field(default_factory=dict)
    cascade_report: dict = field(default_factory=dict)
    engaged_record: object = None
    movement_record: object = None
    audit: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    error: Optional[dict] = None

    def save(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.cfg").write_text(self.config.source_text or "")
        info = {
            "format_version": FORMAT_VERSION,
            "kind": self.config.kind,
            "seed": self.config.seed,
            "error": self.error,
            "audit": self.audit,
            "analysis": {
                k: v for k, v in self.analysis.items() if not isinstance(v, np.ndarray)
            },
            "robust": {
                k: v
                for k, v in self.robust_report.items()
                if isinstance(v, (int, float, bool, str, dict, list))
            },
            "cascade": {
                k: v
                for k, v in self.cascade_report.items()
                if isinstance(v, (int, float, bool, str, dict, list))
            },
        }
        if self.pi_result is not None:
            info["converged_iteration"] = self.pi_result.converged_iteration
            info["n_iterations"] = len(self.pi_result.iterates)
            info["final_residual_rms"] = self.pi_result.iterates[-1].residual_rms
            info["final_value_weights"] = self.pi_result.final_value.to_dict()
            info["final_policy_weights"] = self.pi_result.final_policy.to_dict()
            self._write_iterations(out / "iterations.csv")
        if self.learning_record is not None:
            self._write_trajectory(out / "trajectory_learning.csv", self.learning_record)
        if self.engaged_record is not None:
            self._write_trajectory(out / "trajectory_engaged.csv", self.engaged_record)
        if self.movement_record is not None:
            self._write_trajectory(out / "trajectory_movement.csv", self.movement_record)
            self._write_speed_profile(out / "speed_profile.csv")
        if "surface_points" in self.analysis:
            self._write_surface(out / "value_surface.csv")
        if "gain_table" in self.robust_report:
            (out / "gain_check.txt").write_text(self.robust_report["gain_table"])
        if "gain_table" in self.cascade_report:
            (out / "gain_check_cascade.txt").write_text(
                self.cascade_report["gain_table"]
            )
        if "roa_boundary" in self.robust_report:
            pts = np.asarray(self.robust_report["roa_boundary"])
            headers = [f"x{i + 1}" for i in range(pts.shape[1] - 1)] + ["w_max"]
            write_csv(out / "roa_boundary.csv", headers, [pts[:, i] for i in range(pts.shape[1])])
        write_json(out / "run.json", info)
        return out

    def _write_iterations(self, path: Path) -> None:
        its = self.pi_result.iterates
        n1 = len(its[0].value.weights)
        n2 = len(its[0].policy.weights)
        header = (
            ["iteration", "residual_rms", "min_singular_value", "weight_change"]
            + [f"c_{j + 1}" for j in range(n1)]
            + [f"w_{j + 1}" for j in range(n2)]
        )
        cols = [
            np.asarray([it.iteration for it in its]),
            np.asarray([it.residual_rms for it in its]),
            np.asarray([it.min_singular_value for it in its]),
            np.asarray([it.weight_change for it in its]),
        ]
        for j in range(n1):
            cols.append(np.asarray([it.value.weights[j] for it in its]))
        for j in range(n2):
            cols.append(np.asarray([it.policy.weights[j] for it in its]))
        write_csv(path, header, cols)

    def _write_trajectory(self, path: Path, record) -> None:
        traj = record.trajectory
        header = ["time_s"]
        cols = [traj.t]
        for i in range(traj.x.shape[1]):
            header.append(f"x{i + 1}")
            cols.append(traj.x[:, i])
        if traj.z is not None:
            header.append("z")
            cols.append(traj.z)
        if record.w is not None:
            for i in range(record.w.shape[1]):
                header.append(f"w{i + 1}")
                cols.append(record.w[:, i])
        header += ["u", "x_input"]
        cols += [traj.u, traj.x_input]
        if traj.z_input is not None:
            header.append("z_input")
            cols.append(traj.z_input)
        write_csv(path, header, cols)

    def _write_speed_profile(self, path: Path) -> None:
        traj = self.movement_record.trajectory
        if traj.x.shape[1] < 2:
            return
        write_csv(
            path,
            ["time_s", "position", "speed"],
            [traj.t, traj.x[:, 0], np.abs(traj.x[:, 1])],
        )

    def _write_surface(self, path: Path) -> None:
        pts = self.analysis["surface_points"]
        header = [f"x{i + 1}" for i in range(pts.shape[1])] + ["value_initial", "value_final"]
        cols = [pts[:, i] for i in range(pts.shape[1])]
        cols += [self.analysis["surface_initial"], self.analysis["surface_final"]]
        write_csv(path, header, cols)


def _build_system(config: RunConfig):
    if config.kind == "scalar_lqr":
        bench = build_scalar_plant()
        return {
            "bench": bench,
            "model": bench.model,
            "uncertainty": None,
            "cost": bench.cost,
            "initial_policy": bench.initial_policy,
            "region_low": bench.region_low,
            "region_high": bench.region_high,
            "x0": np.array([0.8]),
            "w0": None,
            "z0": None,
        }
    if config.kind == "linear_2state":
        bench = build_linear_plant(int(config.plant.get("plant_seed", 3)))
        return {
            "bench": bench,
            "model": bench.model,
            "uncertainty": None,
            "cost": bench.cost,
            "initial_policy": bench.initial_policy,
            "region_low": bench.region_low,
            "region_high": bench.region_high,
            "x0": np.array([0.9, -0.6]),
            "w0": None,
            "z0": None,
        }
    if config.kind == "arm":
        from .experiments import ArmParameters

        params = ArmParameters(tau_n=float(config.plant.get("tau_n", 0.1)))
        bench = build_arm_system(params)
        return {
            "bench": bench,
            "model": bench.model,
            "uncertainty": bench.uncertainty,
            "cost": bench.cost,
            "initial_policy": bench.initial_policy,
            "region_low": bench.region_low,
            "region_high": bench.region_high,
            "x0": bench.initial_state[1:],
            "w0": bench.initial_state[:1],
            "z0": None,
        }
    bench = build_cascade_system()
    return {
        "bench": bench,
        "model": bench.model,
        "uncertainty": bench.uncertainty,
        "cost": bench.cost,
        "initial_policy": bench.initial_virtual_policy,
        "region_low": bench.region_low,
        "region_high": bench.region_high,
        "x0": np.array([0.4]),
        "w0": np.array([0.5]),
        "z0": -0.2,
    }


def _oracle_reference(system, config, n_online_iterates):
    """Model-based iterates matching the online indexing, for certification."""
    model, cost = system["model"], system["cost"]
    if model.has_z_channel:
        # phase one treats z as the input: the reference is the x-subsystem
        from .dynsys import SystemModel

        model = SystemModel(n=model.n, drift=model.drift, input_gain=model.input_gain)
    low, high = system["region_low"], system["region_high"]
    dim = model.n
    degree = config.oracle_degree or config.value_degree
    basis_v = make_polynomial_basis(dim, degree)
    basis_u = make_polynomial_basis(dim, degree)
    grid = pi_oracle.collocation_grid(low, high, max(8 * len(basis_v), 160))
    corners = [low.copy(), high.copy()]
    states = pi_oracle.run_policy_iteration(
        model,
        cost,
        system["initial_policy"],
        basis_v,
        basis_u,
        grid,
        max_iter=n_online_iterates,
        tol=0.0,
        probe_ics=corners,
        probe_step=5e-3,
    )
    return states, grid


def _matched_certification(config, system, pi_result, run: LearningRun):
    cost = system["cost"]
    gains = system["uncertainty"].iss_bounds
    s_max = config.s_max if config.s_max is not None else gains["s_max"]
    margin = config.margin if config.margin is not None else cost.margin

    i_star = len(pi_result.iterates) - 1
    oracle_states, grid = _oracle_reference(system, config, i_star + 1)
    run.oracle_states = oracle_states
    value_star = oracle_states[i_star].value
    policy_star = (
        oracle_states[i_star - 1].policy if i_star >= 1 else system["initial_policy"]
    )
    policy_star_next = oracle_states[i_star].policy

    alpha_lo, alpha_hi = robust.radial_envelopes(
        value_star,
        system["model"].n,
        s_max,
        clip_low=system["region_low"],
        clip_high=system["region_high"],
    )
    gain_set = {
        "kappa1": gains["kappa1"],
        "kappa2": gains["kappa2"],
        "kappa3": gains["kappa3"],
        "lam_lo": gains["lam_lo"],
        "alpha_lo": alpha_lo,
        "alpha_hi": alpha_hi,
    }
    if config.rho is not None:
        rho_value = float(config.rho)
        gamma = robust.iss_gain_from_rho(lambda s: np.full_like(np.asarray(s, float), rho_value), margin)
        report = robust.check_small_gain(
            gamma, gains["kappa1"], gains["kappa2"], gains["kappa3"],
            gains["lam_lo"], alpha_lo, alpha_hi, s_max=s_max,
        )
    else:
        ladder = np.geomspace(config.rho_ladder_min, config.rho_ladder_max, config.rho_ladder_n)
        rho_value, report = robust.select_rho(
            ladder, margin, gain_set, s_max=s_max, relative_margin=config.relative_margin
        )
    rho_fn = lambda s: np.full_like(np.asarray(s, dtype=float), rho_value)
    policy_ro = robust.robust_redesign(pi_result.final_policy, rho_fn, cost.control_weight, margin)

    e_ro = robust.redesign_error(
        pi_result.final_policy, policy_star, policy_star_next, rho_fn, cost.control_weight
    )
    # cap d so the sublevel set stays inside both the certified ball and
    # the region box the envelopes were built on, then sample that box
    d_top = 0.999 * min(
        float(alpha_lo(np.asarray(s_max))),
        robust.boundary_minimum(value_star, system["region_low"], system["region_high"]),
    )
    d_ladder = np.geomspace(d_top * 1e-3, d_top, config.d_ladder_n)
    certified = robust.certify_error_bound(
        e_ro,
        policy_ro.gamma,
        value_star,
        d_ladder=d_ladder,
        sample_low=system["region_low"],
        sample_high=system["region_high"],
        n_samples=config.d_samples,
        seed=config.seed + 17,
    )
    chi1, chi2 = robust.build_chi_pair(
        policy_ro.gamma, gains["kappa1"], gains["kappa3"], gains["lam_lo"],
        alpha_lo, alpha_hi, s_max,
    )
    sigma = None
    roa = None
    if certified is not None:
        sigma = robust.interconnection_sigma(chi1, chi2, 2.0 * certified.d)
        roa = robust.estimate_roa(value_star, gains["W"], certified.d, sigma)
    run.robust_report = {
        "rho": rho_value,
        "margin": margin,
        "small_gain_holds": bool(report.holds),
        "small_gain_margin": report.margin,
        "small_gain_relative_margin": report.relative_margin,
        "certified_d": certified.d if certified else None,
        "certified_worst_ratio": certified.worst_ratio if certified else None,
        "sigma_level": roa.level if roa else None,
        "gain_table": "rho = %r  margin = %r\nholds = %r  abs margin = %r  rel margin = %r\n\n%s\n"
        % (rho_value, margin, report.holds, report.margin, report.relative_margin, report.table()),
        "policy": policy_ro,
        "gamma": policy_ro.gamma,
        "value_star": value_star,
        "policy_star": policy_star,
        "policy_star_next": policy_star_next,
        "alpha_lo": alpha_lo,
        "alpha_hi": alpha_hi,
        "e_ro": e_ro,
        "sigma": sigma,
        "roa": roa,
        "chi1": chi1,
    }
    if roa is not None and system["model"].n <= 2:
        pts = roa.boundary_points(system["model"].n)
        w_max = roa.w_bound()
        run.robust_report["roa_boundary"] = np.hstack(
            [pts, np.full((pts.shape[0], 1), w_max)]
        )
    return policy_ro


def _cascade_pipeline(config: RunConfig, system, run: LearningRun):
    bench = system["bench"]
    cost = system["cost"]
    gains = bench.gains
    s_max = config.s_max if config.s_max is not None else gains["s_max"]
    margin = config.margin if config.margin is not None else cost.margin
    rho_value = config.rho if config.rho is not None else bench.rho_value
    rho_fn = lambda s: np.full_like(np.asarray(s, dtype=float), rho_value)

    noise = online_pi.ExplorationNoise(
        amplitude=config.exploration_amplitude,
        seed=config.exploration_seed,
        n_components=config.exploration_components,
        freq_low=config.exploration_freq_low,
        freq_high=config.exploration_freq_high,
    )
    plant = Plant(
        system["model"], system["uncertainty"], system["x0"],
        step=config.step, z0=system["z0"], w0=system["w0"], blowup=config.blowup,
    )
    basis_v = make_polynomial_basis(1, config.value_degree)
    basis_u = make_polynomial_basis(1, config.policy_degree)
    n_intervals = config.n_intervals or 4 * (len(basis_v) + len(basis_u))
    drive = lambda x, z, t: bench.drive_policy(x, z, t) + noise(t)

    phase1 = backstep.phase_one(
        plant, system["initial_policy"], drive, basis_v, basis_u, cost,
        rho_fn, margin,
        interval=config.interval, n_intervals=n_intervals,
        delta_rel=config.delta_rel, tol=config.tol, max_iter=config.max_iter,
        start=config.sample_start,
    )
    run.pi_result = phase1.pi_result
    run.learning_record = plant.last_record
    xi = phase1.xi

    # phase two: fresh window with xi frozen
    noise2 = online_pi.ExplorationNoise(
        amplitude=config.exploration_amplitude, seed=config.exploration_seed + 1,
        n_components=config.exploration_components,
        freq_low=config.exploration_freq_low, freq_high=config.exploration_freq_high,
    )
    drive2 = lambda x, z, t: bench.drive_policy(x, z, t) + noise2(t)
    psi_basis = make_polynomial_basis(2, 2)
    phi_basis = make_polynomial_basis(1, 2, vanish_at_origin=False, include_constant=True)
    n2 = config.n_intervals or 4 * (len(psi_basis) + len(phi_basis))
    traj2 = plant.observe(drive2, config.sample_start + config.interval * n2)
    window2 = online_pi.SampleWindow.from_trajectory(
        traj2, config.interval, n2, config.sample_start
    )
    problem2 = backstep.assemble_phase_two(window2, psi_basis, phi_basis, xi)
    phase2 = backstep.solve_phase_two(
        problem2, delta_rel=config.delta1_rel or config.delta_rel
    )

    final_policy = backstep.BacksteppedPolicy(
        phase2.f1_hat, phase2.g1_hat, phase1.pi_result.final_policy,
        xi, rho_fn, margin, cost.control_weight,
    )

    # certification against the model-based reference
    i_star = len(phase1.pi_result.iterates) - 1
    oracle_states, _ = _oracle_reference(system, config, i_star + 1)
    run.oracle_states = oracle_states
    value_star = oracle_states[i_star].value
    policy_star = (
        oracle_states[i_star - 1].policy if i_star >= 1 else system["initial_policy"]
    )
    policy_star_next = oracle_states[i_star].policy

    composite = backstep.CompositeLyapunov(value_star, xi)
    alpha1_lo, alpha1_hi = robust.radial_envelopes(composite, 2, s_max)
    kappa8 = robust.monotone_envelope(xi, 1, 2.0 * s_max)
    gamma1 = backstep.cascade_gain_from_rho(rho_fn, margin, robust.BRACKET)
    report = backstep.check_small_gain_cascade(
        gamma1, gains["kappa5"], gains["kappa6"], gains["kappa7"], kappa8,
        gains["kappa1"], gains["kappa2"], gains["kappa3"], gains["lam_lo"],
        alpha1_lo, alpha1_hi, s_max=s_max,
    )

    xi_grad = lambda x: backstep.finite_difference_gradient(xi, x)
    f1_bar, g1_bar = backstep.cascade_truth(system["model"], xi, xi_grad)
    e_ro1 = backstep.backstepped_redesign_error(
        f1_bar, phase2.f1_hat, policy_star_next, phase1.pi_result.final_policy,
        g1_bar, phase2.g1_hat, backstep.make_rho1(rho_fn), xi, cost.control_weight,
    )
    e_ro = robust.redesign_error(
        phase1.pi_result.final_policy, policy_star, policy_star_next,
        rho_fn, cost.control_weight,
    )

    # certify max(|e_ro1|, |e_ro|) < gamma1(|X1|) on sampled sublevels of U;
    # the sample box covers the certified ball in (x, zeta)
    ball = np.full(system["model"].n + 1, s_max)
    d_top = float(alpha1_lo(np.asarray(s_max))) * 0.999
    certified = robust.certify_error_bound(
        lambda pts: np.maximum(
            np.abs(e_ro1(pts[:, :1], pts[:, 1])), np.abs(np.asarray(e_ro(pts[:, :1])))
        ),
        gamma1,
        composite,
        d_ladder=np.geomspace(d_top * 1e-3, d_top, config.d_ladder_n),
        sample_low=-ball,
        sample_high=ball,
        n_samples=config.d_samples,
        seed=config.seed + 23,
    )
    certified_d1 = certified.d if certified else None
    worst = certified.worst_ratio if certified else None

    kappa1_eff, _ = backstep.cascade_effective_gains(
        gains["kappa5"], gains["kappa6"], gains["kappa7"], kappa8,
        gains["kappa1"], gains["kappa2"], s_max,
    )
    chi1, chi2 = robust.build_chi_pair(
        gamma1, kappa1_eff, gains["kappa3"], gains["lam_lo"],
        alpha1_lo, alpha1_hi, s_max,
    )
    sigma1 = roa1 = None
    if certified_d1 is not None:
        sigma1 = robust.interconnection_sigma(chi1, chi2, 2.0 * certified_d1)
        roa1 = robust.estimate_roa(composite, gains["W"], certified_d1, sigma1)

    run.cascade_report = {
        "rho": float(rho_value),
        "margin": margin,
        "phase2_residual_rms": phase2.residual_rms,
        "phase2_min_singular_value": phase2.min_singular_value,
        "small_gain_holds": bool(report.holds),
        "small_gain_margin": report.margin,
        "small_gain_relative_margin": report.relative_margin,
        "certified_d1": certified_d1,
        "certified_worst_ratio": worst,
        "gain_table": "rho = %r  margin = %r\nholds = %r  abs margin = %r  rel margin = %r\n\n%s\n"
        % (rho_value, margin, report.holds, report.margin, report.relative_margin, report.table()),
        "xi": xi,
        "f1_hat": phase2.f1_hat,
        "g1_hat": phase2.g1_hat,
        "policy": final_policy,
        "gamma1": gamma1,
        "value_star": value_star,
        "composite": composite,
        "alpha1_lo": alpha1_lo,
        "alpha1_hi": alpha1_hi,
        "kappa8": kappa8,
        "sigma1": sigma1,
        "roa1": roa1,
        "e_ro1": e_ro1,
    }

    # engage the backstepped policy from the end of the learning window
    record = plant.last_record
    x_end = record.trajectory.x[-1]
    z_end = record.trajectory.z[-1]
    w_end = record.w[-1]
    engaged = integrate(
        system["model"], system["uncertainty"],
        lambda x, z, t: final_policy(x, z), x_end,
        horizon=config.sim_horizon, step=config.sim_step,
        z0=z_end, w0=w_end, blowup=config.blowup,
    )
    run.engaged_record = engaged
    run.audit = _box_audit(run.learning_record, system, bench.z_bound, bench.w_bound)
    phase2_audit = _box_audit(record, system, bench.z_bound, bench.w_bound)
    run.audit["phase2_contained"] = phase2_audit["contained"]
    run.audit["contained"] = run.audit["contained"] and phase2_audit["contained"]
    run.analysis["final_state_norm"] = float(
        np.linalg.norm(engaged.trajectory.x[-1])
        + abs(engaged.trajectory.z[-1])
        + np.linalg.norm(engaged.w[-1])
    )
    return final_policy


def _box_audit(record, system, z_bound=None, w_bound=None) -> dict:
    """Containment check of the learning trajectory in the declared region."""
    traj = record.trajectory
    low, high = system["region_low"], system["region_high"]
    inside = np.all((traj.x >= low) & (traj.x <= high), axis=1)
    audit = {
        "x_samples": int(traj.x.shape[0]),
        "x_violations": int(np.sum(~inside)),
        "x_max_abs": [float(v) for v in np.max(np.abs(traj.x), axis=0)],
        "contained": bool(np.all(inside)),
    }
    if record.w is not None and w_bound is not None:
        w_ok = np.all(np.abs(record.w) <= w_bound, axis=1)
        audit["w_violations"] = int(np.sum(~w_ok))
        audit["w_max_abs"] = float(np.max(np.abs(record.w)))
        audit["contained"] = audit["contained"] and bool(np.all(w_ok))
    if traj.z is not None and z_bound is not None:
        z_ok = np.abs(traj.z) <= z_bound
        audit["z_violations"] = int(np.sum(~z_ok))
        audit["contained"] = audit["contained"] and bool(np.all(z_ok))
    return audit


def run_algorithm_1(config: RunConfig) -> LearningRun:
    """Execute the full pipeline for one configuration.

    On a toolkit error the partial run (with the error record) is still
    serialized to the output directory before the exception propagates.
    """
    run = LearningRun(config=config)
    system = _build_system(config)
    try:
        _run_pipeline(config, system, run)
    except ToolkitError as exc:
        run.error = {"category": exc.category, "message": str(exc)}
        run.save(config.out_dir)
        raise
    run.save(config.out_dir)
    return run


def _run_pipeline(config: RunConfig, system, run: LearningRun) -> None:
    if config.kind == "cascade":
        _cascade_pipeline(config, system, run)
        return

    model, cost = system["model"], system["cost"]
    noise = online_pi.ExplorationNoise(
        amplitude=config.exploration_amplitude,
        seed=config.exploration_seed,
        n_components=config.exploration_components,
        freq_low=config.exploration_freq_low,
        freq_high=config.exploration_freq_high,
    )
    plant = Plant(
        model, system["uncertainty"], system["x0"],
        step=config.step, w0=system["w0"], blowup=config.blowup,
    )
    if config.schedule and len(config.schedule) > 1:
        schedule = [
            (make_polynomial_basis(model.n, d), make_polynomial_basis(model.n, d))
            for d in config.schedule
        ]
        two_loop = online_pi.two_loop_optimize(
            plant, system["initial_policy"], noise, cost, schedule,
            config.residual_threshold,
            interval=config.interval, delta_rel=config.delta_rel,
            tol=config.tol, max_iter=config.max_iter, start=config.sample_start,
        )
        result = two_loop.result
        run.analysis["schedule_index"] = two_loop.schedule_index
    else:
        basis_v = make_polynomial_basis(model.n, config.value_degree)
        basis_u = make_polynomial_basis(model.n, config.policy_degree)
        n_intervals = config.n_intervals or 4 * (len(basis_v) + len(basis_u))
        result = online_pi.run_online_pi(
            plant, system["initial_policy"], noise, basis_v, basis_u, cost,
            interval=config.interval, n_intervals=n_intervals,
            delta_rel=config.delta_rel, tol=config.tol, max_iter=config.max_iter,
            start=config.sample_start,
        )
    run.pi_result = result
    run.learning_record = plant.last_record
    run.audit = _box_audit(
        run.learning_record, system,
        w_bound=getattr(system["bench"], "w_bound", None),
    )
    run.audit["drift_lipschitz_bound"] = lipschitz_probe(
        model.drift, system["region_low"], system["region_high"], seed=config.seed
    )

    final_policy = result.final_policy
    if config.robust_enabled and system["uncertainty"] is not None:
        final_policy = _matched_certification(config, system, result, run)

    # terminate the noise and engage the final policy from where learning ended
    record = plant.last_record
    x_end = record.trajectory.x[-1]
    w_end = record.w[-1] if record.w is not None else None
    controller = (
        (lambda x, t: final_policy.evaluate(x))
        if hasattr(final_policy, "evaluate")
        else (lambda x, t: final_policy(x))
    )
    engaged = integrate(
        model, system["uncertainty"], controller, x_end,
        horizon=config.sim_horizon, step=config.sim_step,
        w0=w_end, blowup=config.blowup,
    )
    run.engaged_record = engaged
    roa = run.robust_report.get("roa")
    if roa is not None:
        run.audit["engaged_inside_roa_x"] = bool(
            float(roa.sigma(np.asarray(roa.value.evaluate(x_end)))) <= roa.level
        )
        if w_end is not None:
            run.audit["engaged_inside_roa_full"] = roa.contains(x_end, w_end)

    # movement replay: the learned (pre-redesign) policy from the original start
    learned = result.final_policy
    movement = integrate(
        model, system["uncertainty"],
        lambda x, t: learned.evaluate(x), system["x0"],
        horizon=config.sim_horizon, step=config.step,
        w0=system["w0"], blowup=config.blowup,
    )
    run.movement_record = movement
    if model.n >= 2:
        profile = speed_profile_analysis(movement.trajectory)
        run.analysis["speed_profile"] = {
            "peak_count": profile.peak_count,
            "peak_time": profile.peak_time,
            "symmetry_index": profile.symmetry_index,
            "duration": profile.duration,
            "peak_speed": profile.peak_speed,
        }

    surface = cost_surface_compare(
        result.iterates[0].value, result.final_value,
        system["region_low"], system["region_high"],
    )
    run.analysis["surface_points"] = surface["points"]
    run.analysis["surface_initial"] = surface["initial"]
    run.analysis["surface_final"] = surface["final"]
    run.analysis["reduction_fraction"] = surface["reduction_fraction"]
    run.analysis["max_ratio"] = surface["max_ratio"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        config.seed = args.seed
        config.exploration_seed = args.seed + 1
    if args.out_dir is not None:
        config.out_dir = args.out_dir
    if args.step is not None:
        config.step = args.step
    if args.max_iter is not None:
        config.max_iter = args.max_iter
    config.__post_init__()  # overrides pass the same checks as file values
    return config


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    run_algorithm_1(config)
    print(f"run complete: {config.out_dir}")
    return 0


def _cmd_oracle(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    system = _build_system(config)
    states, _ = _oracle_reference(system, config, config.max_iter)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["iteration", "value_change", "improvement_residual"]
    cols = [
        np.asarray([s.iteration for s in states]),
        np.asarray([0.0 if np.isinf(s.value_change) else s.value_change for s in states]),
        np.asarray([s.improvement_residual for s in states]),
    ]
    write_csv(out / "oracle_iterations.csv", header, cols)
    write_json(
        out / "oracle_final.json",
        {
            "value": states[-1].value.to_dict(),
            "policy": states[-1].policy.to_dict(),
            "iterations": len(states),
        },
    )
    print(f"oracle complete: {out}")
    return 0


def _cmd_check_gains(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.kind not in ("arm", "cascade"):
        raise ConfigParse("check-gains needs a plant with an uncertainty channel")
    run = run_algorithm_1(config)
    report = run.cascade_report if config.kind == "cascade" else run.robust_report
    print(report["gain_table"])
    print(f"holds: {report['small_gain_holds']}")
    return 0 if report["small_gain_holds"] else 1


def _cmd_configs(args) -> int:
    config_dir = Path(__file__).parent / "configs"
    for path in sorted(config_dir.glob("*.cfg")):
        print(path)
    return 0


def _cmd_replay(args) -> int:
    run_dir = Path(args.run_dir)
    cfg_path = run_dir / "config.cfg"
    if not cfg_path.is_file():
        raise ConfigParse(f"no config.cfg in {run_dir}")
    config = load_config(cfg_path)
    out_dir = args.out_dir or str(run_dir) + "_replay"
    if Path(out_dir).exists():
        shutil.rmtree(out_dir)
    config.out_dir = out_dir
    run_algorithm_1(config)
    for path in sorted(Path(out_dir).iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.name}")
    return 0


def cli(argv=None) -> int:
    """Entry point; returns a stable exit code per error category."""
    parser = argparse.ArgumentParser(
        prog="robustpi",
        description="online policy iteration with robust redesign",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", _cmd_run),
        ("oracle", _cmd_oracle),
        ("check-gains", _cmd_check_gains),
    ):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.set_defaults(func=fn)
    p = sub.add_parser("replay")
    p.add_argument("run_dir")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_replay)
    p = sub.add_parser("configs", help="list the bundled configuration files")
    p.set_defaults(func=_cmd_configs)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)


def main() -> None:
    sys.exit(cli())
