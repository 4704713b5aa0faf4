"""End-to-end run orchestration, configuration, serialization and CLI.

Every plant runs one sequence, `_run_pipeline`, and each per-plant choice
reads the plant's `experiments.Benchmark` record, never its kind name:
excite the plant under its initial (or drive) policy plus exploration
noise and iterate the regression solves on the window (phase one of
backstepping for a plant with a z channel); audit the window; for a plant
with an uncertainty, redesign for robustness and certify the loop by the
small-gain theorem (a z channel adds phase two and the backstepped
policy); terminate the noise and engage the final policy.  Every artifact
is written with fixed formatting so that replaying a config
byte-reproduces the run.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import hashlib
import json
import shutil
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import backstep, online_pi, pi_oracle, robust
from .basis import make_polynomial_basis
from .dynsys import Plant, integrate, lipschitz_probe
from .errors import EXIT_CODES, ConfigParse, EmptyInterval, ToolkitError
from .experiments import (
    build_arm_system,
    build_cascade_system,
    build_scalar_plant,
    cost_surface_compare,
    speed_profile_analysis,
)
from .rundiff import compare_runs

FORMAT_VERSION = 1
# the builder of each plant kind; a kind is whatever this table names, and
# a run reads every fact about its plant from the record the builder returns
PLANTS = {
    "scalar_lqr": build_scalar_plant,
    "arm": build_arm_system,
    "cascade": build_cascade_system,
}
# the certification values that `_certify` writes to both the robust and the
# cascade block; None when no level certifies, written as null so the keys of
# run.json do not depend on the outcome
NULLABLE_RESULTS = ("certified_d", "certified_worst_ratio", "sigma_level")
TABLE_CHUNK_ROWS = 256  # rows of a CSV artifact converted to Python numbers at a time
RHO_LADDER = np.geomspace(0.5, 60.0, 160)  # constant rho values a matched plant searches
D_LADDER_N = 60  # candidate levels d of each error-bound certification


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    kind: str
    seed: int
    out_dir: str = "runs/latest"
    step: float = 1e-3
    exploration_amplitude: float = 0.5
    exploration_freq_low: float = 0.1
    exploration_freq_high: float = 10.0
    exploration_seed: Optional[int] = None
    interval: float = 0.1
    n_intervals: Optional[int] = None
    value_degree: int = 2
    policy_degree: int = 2
    oracle_degree: int = 0  # 0 -> same as value_degree
    delta_rel: float = 1e-6
    delta1_rel: float = 0.0  # 0 -> same as delta_rel
    tol: float = 1e-3
    max_iter: int = 20
    schedule: tuple = ()
    residual_threshold: float = np.inf
    s_max: Optional[float] = None
    sim_step: float = 5e-4
    sim_horizon: float = 5.0
    source_text: str = ""

    def __post_init__(self):
        if self.kind not in PLANTS:
            raise ConfigParse(f"unknown plant kind {self.kind!r}")
        if self.schedule and PLANTS[self.kind]().model.has_z_channel:
            raise ConfigParse(
                f"schedule: plant kind {self.kind!r} has a z channel, whose phase one "
                "learns on the value_degree and policy_degree bases only"
            )
        for name in ("step", "interval", "tol", "sim_step", "sim_horizon"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ConfigParse(f"{name} must be positive and finite")
        if self.step > self.interval:
            raise ConfigParse("step must not exceed the sampling interval")
        # the learning window samples every interval / step steps
        try:
            online_pi.interval_stride(self.interval, self.step)
        except EmptyInterval:
            raise ConfigParse(
                f"step {self.step:g} must divide the sampling interval {self.interval:g}"
            ) from None
        # the engaged run steps by sim_step and the movement replay by step
        if max(self.step, self.sim_step) > self.sim_horizon:
            raise ConfigParse("sim_horizon must cover at least one step and one sim_step")
        for name in ("exploration_amplitude", "exploration_freq_low", "exploration_freq_high"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigParse(f"{name} must be finite")
        if self.exploration_amplitude < 0:
            raise ConfigParse("exploration amplitude must be nonnegative")
        if not 0 < self.exploration_freq_low <= self.exploration_freq_high:
            raise ConfigParse("exploration frequencies need 0 < freq_low <= freq_high")
        for name, least in (
            ("value_degree", 1),
            ("policy_degree", 1),
            ("oracle_degree", 0),
            ("max_iter", 1),
        ):
            if getattr(self, name) < least:
                raise ConfigParse(f"{name} must be at least {least}")
        if any(degree < 1 for degree in self.schedule):
            raise ConfigParse("schedule degrees must be at least 1")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ConfigParse("schedule degrees must be strictly increasing")
        # only a schedule of two or more degrees runs the basis search
        if len(self.schedule) == 1:
            raise ConfigParse(
                "schedule: one degree runs no basis search; name two or more, or leave "
                "it out and set value_degree and policy_degree"
            )
        if not self.schedule and self.residual_threshold != np.inf:
            raise ConfigParse(
                "residual_threshold is read only by the basis search, which needs a "
                "schedule of two or more degrees"
            )
        if self.n_intervals is not None and self.n_intervals < 1:
            raise ConfigParse("n_intervals must be at least 1")
        # NaN fails every comparison, so a NaN delta_rel would switch off the PE guard
        if not np.isfinite(self.delta_rel) or self.delta_rel <= 0:
            raise ConfigParse("delta_rel must be positive and finite")
        if not np.isfinite(self.delta1_rel) or self.delta1_rel < 0:
            raise ConfigParse("delta1_rel must be nonnegative and finite")
        if self.s_max is not None and (not np.isfinite(self.s_max) or self.s_max <= 0):
            raise ConfigParse("s_max must be positive and finite")
        if self.exploration_seed is None:
            self.exploration_seed = self.seed + 1
        for name in ("seed", "exploration_seed"):
            if getattr(self, name) < 0:
                raise ConfigParse(f"{name} must be nonnegative")


def _schedule(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(",") if v.strip())


# Every key a config file may set: (section, key, RunConfig field, cast).
# A key left out or blank keeps the field's default.
CONFIG_KEYS = (
    ("run", "format_version", "format_version", int),
    ("run", "kind", "kind", str),
    ("run", "seed", "seed", int),
    ("output", "dir", "out_dir", str),
    ("integration", "step", "step", float),
    ("exploration", "amplitude", "exploration_amplitude", float),
    ("exploration", "freq_low", "exploration_freq_low", float),
    ("exploration", "freq_high", "exploration_freq_high", float),
    ("exploration", "seed", "exploration_seed", int),
    ("sampling", "interval", "interval", float),
    ("sampling", "n_intervals", "n_intervals", int),
    ("pi", "value_degree", "value_degree", int),
    ("pi", "policy_degree", "policy_degree", int),
    ("pi", "oracle_degree", "oracle_degree", int),
    ("pi", "delta_rel", "delta_rel", float),
    ("pi", "delta1_rel", "delta1_rel", float),
    ("pi", "tol", "tol", float),
    ("pi", "max_iter", "max_iter", int),
    ("pi", "schedule", "schedule", _schedule),
    ("pi", "residual_threshold", "residual_threshold", float),
    ("robustness", "s_max", "s_max", float),
    ("robustness", "sim_step", "sim_step", float),
    ("robustness", "sim_horizon", "sim_horizon", float),
)
_REQUIRED = {"format_version"} | {
    f.name for f in fields(RunConfig) if f.default is MISSING and f.default_factory is MISSING
}


def _unknown(what: str, name: str, valid) -> ConfigParse:
    close = difflib.get_close_matches(name, valid, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return ConfigParse(f"unknown {what} {name!r}{hint}")


def load_config(path, **overrides) -> RunConfig:
    """Parse a run configuration file (INI sections, units in comments).

    Values are read literally (no `%` interpolation).  A section or key
    missing from `CONFIG_KEYS`, or any `[DEFAULT]` entry, is rejected.
    `overrides` ({RunConfig field: value}) replace the file's values
    before the checks, so a field the file leaves unset still takes its
    default from them: an overridden `seed` moves an unset exploration
    seed, not one the file sets.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigParse(f"config file not found: {path}")
    text = path.read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParse(f"cannot parse {path}: {exc}") from exc

    if parser.defaults():
        raise ConfigParse("[DEFAULT] entries are not supported; set each key in its section")
    keys = {}
    for section, key, _, _ in CONFIG_KEYS:
        keys.setdefault(section, []).append(key)
    for section in parser.sections():
        if section not in keys:
            raise _unknown("section", section, keys)
        for key in parser.options(section):
            if key not in keys[section]:
                raise _unknown(f"[{section}] key", key, keys[section])

    values = {}
    for section, key, name, cast in CONFIG_KEYS:
        raw = parser.get(section, key, fallback="")
        if not raw.strip():
            if name in _REQUIRED:
                raise ConfigParse(f"missing required key [{section}] {key}")
            continue
        try:
            value = cast(raw)
        except ValueError as exc:
            raise ConfigParse(f"bad value for [{section}] {key}: {raw!r}") from exc
        values[name] = value
    values.update(overrides)
    version = values.pop("format_version")
    if version != FORMAT_VERSION:
        raise ConfigParse(f"unsupported format_version {version}")
    return RunConfig(**values, source_text=text)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def write_table(path: Path, table: dict) -> None:
    """Write an ordered {header: column} table as CSV.

    Each cell is converted once with `tolist()`, so an int cell prints as
    `str(int)` and a float cell as `repr(float)` (a bool cell would print
    as `True`; no artifact has a bool column).  Rows are converted
    `TABLE_CHUNK_ROWS` at a time, so a long trajectory never exists as
    Python floats all at once.
    """
    columns = [np.asarray(c) for c in table.values()]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(table) + "\n")
        for start in range(0, len(columns[0]), TABLE_CHUNK_ROWS):
            chunk = [c[start:start + TABLE_CHUNK_ROWS].tolist() for c in columns]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*chunk))


def _columns(prefix: str, array) -> dict:
    """The columns of a 2-D array as {prefix1: col, prefix2: col, ...}."""
    return {f"{prefix}{i + 1}": col for i, col in enumerate(np.asarray(array).T)}


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=lambda v: v.tolist())
        fh.write("\n")


def gain_table(report: dict) -> str:
    """The small-gain verdict and ladder of a robust or cascade report, the
    text of its gain-check file and of `check-gains`."""
    return report["small_gain"].summary(report["rho"], report["margin"])


def _json_results(report: dict) -> dict:
    """A report's JSON-valued entries, with None NULLABLE_RESULTS as null."""
    json_types = (int, float, bool, str, dict, list)
    return {
        k: v for k, v in report.items()
        if isinstance(v, json_types) or (v is None and k in NULLABLE_RESULTS)
    }


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


@dataclass
class LearningRun:
    """Everything one pipeline execution produced, ready to serialize."""

    config: RunConfig
    pi_result: online_pi.OnlinePIResult = None
    learning_record: object = None
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
            "robust": _json_results(self.robust_report),
            "cascade": _json_results(self.cascade_report),
        }
        if self.pi_result is not None:
            its = self.pi_result.iterates
            info["converged_iteration"] = self.pi_result.converged_iteration
            info["n_iterations"] = len(its)
            info["final_residual_rms"] = its[-1].residual_rms
            info["final_value_weights"] = self.pi_result.final_value.to_dict()
            info["final_policy_weights"] = self.pi_result.final_policy.to_dict()
            write_table(out / "iterations.csv", {
                "iteration": [it.iteration for it in its],
                "residual_rms": [it.residual_rms for it in its],
                "min_singular_value": [it.min_singular_value for it in its],
                "weight_change": [it.weight_change for it in its],
                **_columns("c_", [it.value.weights for it in its]),
                **_columns("w_", [it.policy.weights for it in its]),
            })
        for name in ("learning", "engaged", "movement"):
            record = getattr(self, f"{name}_record")
            if record is not None:
                write_table(out / f"trajectory_{name}.csv", _trajectory_table(record))
        if "surface_points" in self.analysis:
            write_table(out / "value_surface.csv", {
                **_columns("x", self.analysis["surface_points"]),
                "value_initial": self.analysis["surface_initial"],
                "value_final": self.analysis["surface_final"],
            })
        for name, report in (
            ("gain_check.txt", self.robust_report),
            ("gain_check_cascade.txt", self.cascade_report),
        ):
            if "small_gain" in report:
                (out / name).write_text(gain_table(report))
        if "roa_boundary" in self.robust_report:
            pts = self.robust_report["roa_boundary"]
            write_table(
                out / "roa_boundary.csv", {**_columns("x", pts[:, :-1]), "w_max": pts[:, -1]}
            )
        write_json(out / "run.json", info)
        return out


def _trajectory_table(record) -> dict:
    """The CSV columns of a simulation record: time, states, inputs."""
    traj = record.trajectory
    table = {"time_s": traj.t, **_columns("x", traj.x)}
    if traj.z is not None:
        table["z"] = traj.z
    if record.w is not None:
        table.update(_columns("w", record.w))
    table["u"] = traj.u
    table["x_input"] = traj.x_input
    if traj.z_input is not None:
        table["z_input"] = traj.z_input
    return table


def _build_system(config: RunConfig) -> dict:
    """The fields of the `experiments.Benchmark` record of `config.kind`, as
    a {field name: value} dict; perfbench's workloads index it by key."""
    plant = PLANTS[config.kind]()
    return {f.name: getattr(plant, f.name) for f in fields(plant)}


def noise_from_config(config: RunConfig, seed_offset: int = 0):
    """The exploration signal of `config`, seeded `seed_offset` past its seed."""
    return online_pi.ExplorationNoise(
        amplitude=config.exploration_amplitude,
        seed=config.exploration_seed + seed_offset,
        freq_low=config.exploration_freq_low,
        freq_high=config.exploration_freq_high,
    )


def _oracle_reference(system, config, n_online_iterates):
    """Model-based iterates matching the online indexing, for certification.

    Returns the states and, for the last online iterate i*, the reference
    value V*_{i*}, the policy u*_{i*} it evaluates (the initial policy when
    i* = 0) and the improved policy u*_{i*+1}.
    """
    model, cost = system["model"], system["cost"]
    if model.has_z_channel:
        # phase one treats z as the input: the reference is the x-subsystem
        model = replace(model, f1=None)
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
    i_star = n_online_iterates - 1
    policy_star = states[i_star - 1].policy if i_star >= 1 else system["initial_policy"]
    return states, (states[i_star].value, policy_star, states[i_star].policy)


def _certify(
    rho, margin, report, policy, value, error, gains, s_max, d_top, low, high, seed,
) -> dict:
    """The result entries of one plant's small-gain certificate.

    `report` is the ladder check of the gain set `gains` against gamma =
    `robust.iss_gain_from_rho(rho, margin)`, the gain with which `policy`
    was redesigned.  The error function must stay below gamma on a
    sublevel set of `value`, one of `D_LADDER_N` levels up to `d_top`,
    sampled in the box [low, high].  At the highest certified level the
    loop gains (chi1, chi2) of `gains` give sigma and, with its W, the
    region estimate; with no certified level, the level entries are None.
    `gains` is the set `select_rho` reads on the matched plant and, on the
    cascade, the effective set (kappa1 -> max(kappa1, kappa5), kappa2 ->
    max(kappa2, kappa9)).  `value` is kept as "value_star": V* on the
    matched plant, U = V + zeta^2 / 2 on the cascade.
    """
    gamma = robust.iss_gain_from_rho(rho, margin)
    certified = robust.certify_error_bound(
        error, gamma, value,
        d_ladder=np.geomspace(d_top * 1e-3, d_top, D_LADDER_N),
        sample_low=low, sample_high=high, seed=seed,
    )
    chi1, chi2 = robust.build_chi_pair(
        gamma, gains["kappa1"], gains["kappa3"], gains["lam_lo"],
        gains["alpha_lo"], gains["alpha_hi"], s_max,
    )
    sigma = roa = None
    if certified is not None:
        sigma = robust.interconnection_sigma(chi1, chi2, 2.0 * certified.d)
        roa = robust.estimate_roa(value, gains["W"], certified.d, sigma)
    return {
        "rho": rho,
        "margin": margin,
        "small_gain_holds": bool(report.holds),
        "small_gain_margin": report.margin,
        "small_gain_relative_margin": report.relative_margin,
        "small_gain": report,
        "policy": policy,
        "value_star": value,
        "certified_d": certified.d if certified else None,
        "certified_worst_ratio": certified.worst_ratio if certified else None,
        "sigma_level": roa.level if roa else None,
        "chi1": chi1,
        "sigma": sigma,
        "roa": roa,
    }


def _engage(config, system, policy, record):
    """Run `policy` with the noise terminated, from where `record` ended."""
    traj = record.trajectory
    if traj.z is None:  # the compiled one-point function, called as it is
        controller = policy.evaluate
    else:  # named arguments: a `*args` form costs ~0.4 us per RK4 stage
        controller = lambda x, z, t: policy(x, z)
    return integrate(
        system["model"], system["uncertainty"], controller, traj.x[-1],
        horizon=config.sim_horizon, step=config.sim_step,
        z0=None if traj.z is None else traj.z[-1],
        w0=None if record.w is None else record.w[-1],
    )


def _matched_certification(config, system, result, reference, gains, s_max, run):
    """Redesign the learned policy with the smallest passing rho of
    `RHO_LADDER` and certify it; returns the redesigned policy."""
    cost = system["cost"]
    margin = cost.margin
    value_star, policy_star, policy_star_next = reference
    alpha_lo, alpha_hi = robust.radial_envelopes(
        value_star,
        system["model"].n,
        s_max,
        clip_low=system["region_low"],
        clip_high=system["region_high"],
    )
    gain_set = {**gains, "alpha_lo": alpha_lo, "alpha_hi": alpha_hi}
    rho_value, report = robust.select_rho(RHO_LADDER, margin, gain_set, s_max=s_max)
    policy_ro = robust.robust_redesign(
        result.final_policy, rho_value, cost.control_weight, margin
    )

    e_ro = robust.redesign_error(
        result.final_policy, policy_star, policy_star_next, rho_value, cost.control_weight
    )
    # cap d so the sublevel set stays inside both the certified ball and
    # the region box the envelopes were built on, then sample that box
    d_top = 0.999 * min(
        float(alpha_lo(np.asarray(s_max))),
        robust.boundary_minimum(value_star, system["region_low"], system["region_high"]),
    )
    run.robust_report = _certify(
        rho_value, margin, report, policy_ro, value_star, e_ro, gain_set, s_max, d_top,
        system["region_low"], system["region_high"], config.seed + 17,
    )
    roa = run.robust_report["roa"]
    if roa is not None and system["model"].n <= 2:
        pts = roa.boundary_points(system["model"].n)
        w_max = roa.w_bound()
        run.robust_report["roa_boundary"] = np.hstack(
            [pts, np.full((pts.shape[0], 1), w_max)]
        )
    return policy_ro


def _cascade_certification(config, system, plant, phase1, reference, gains, s_max, run):
    """Identify the z channel on a second window with xi frozen (phase two),
    backstep, and certify the cascade; returns the backstepped policy."""
    cost = system["cost"]
    margin = cost.margin
    rho_value = system["rho"]
    value_star, policy_star, policy_star_next = reference
    learned, xi = phase1.pi_result.final_policy, phase1.xi

    noise2 = noise_from_config(config, seed_offset=1).rk4_lookup(plant.step)
    drive_policy = system["drive_policy"]
    drive2 = lambda x, z, t: drive_policy(x, z, t) + noise2(t)
    psi_basis = make_polynomial_basis(2, 2)
    phi_basis = make_polynomial_basis(1, 2, vanish_at_origin=False, include_constant=True)
    n2 = config.n_intervals or online_pi.default_intervals(psi_basis, phi_basis)
    traj2 = plant.observe(drive2, config.interval * n2)
    window2 = online_pi.SampleWindow.from_trajectory(traj2, config.interval, n2)
    problem2 = backstep.assemble_phase_two(window2, psi_basis, phi_basis, xi)
    phase2 = backstep.solve_phase_two(
        problem2, delta_rel=config.delta1_rel or config.delta_rel
    )
    f1_hat, g1_hat = phase2.parts
    phase2_audit = _box_audit(plant.last_record, system)
    run.audit["phase2_contained"] = phase2_audit["contained"]
    run.audit["contained"] = run.audit["contained"] and phase2_audit["contained"]

    final_policy = backstep.BacksteppedPolicy(
        f1_hat, g1_hat, xi, rho_value, margin, cost.control_weight,
    )
    composite = backstep.CompositeLyapunov(value_star, xi)
    alpha1_lo, alpha1_hi = robust.radial_envelopes(composite, 2, s_max)
    kappa8 = robust.monotone_envelope(xi, 1, 2.0 * s_max)
    gamma1 = robust.iss_gain_from_rho(rho_value, margin)
    report, effective = backstep.check_small_gain_cascade(
        gamma1, {**gains, "alpha_lo": alpha1_lo, "alpha_hi": alpha1_hi}, kappa8, s_max=s_max,
    )

    f1_bar, g1_bar = backstep.cascade_truth(system["model"], xi)
    e_ro1 = backstep.backstepped_redesign_error(
        f1_bar, f1_hat, policy_star_next, learned,
        g1_bar, g1_hat, 2.0 * rho_value, xi, cost.control_weight,
    )
    e_ro = robust.redesign_error(
        learned, policy_star, policy_star_next, rho_value, cost.control_weight
    )

    # certify max(|e_ro1|, |e_ro|) < gamma1(|X1|) on sampled sublevels of U;
    # the sample box covers the certified ball in (x, zeta)
    ball = np.full(system["model"].n + 1, s_max)
    d_top = float(alpha1_lo(np.asarray(s_max))) * 0.999
    run.cascade_report = _certify(
        rho_value, margin, report, final_policy, composite,
        lambda pts: np.maximum(
            np.abs(e_ro1(pts[:, :1], pts[:, 1])), np.abs(np.asarray(e_ro(pts[:, :1])))
        ),
        effective, s_max, d_top, -ball, ball, config.seed + 23,
    )
    run.cascade_report.update(
        phase2_residual_rms=phase2.residual_rms,
        phase2_min_singular_value=phase2.min_singular_value,
        xi=xi, f1_hat=f1_hat, g1_hat=g1_hat,
    )
    return final_policy


def _box_audit(record, system) -> dict:
    """Containment check of a learning trajectory in the plant's region box,
    and of its w and z, where it has them, within the plant's bounds."""
    traj = record.trajectory
    low, high = system["region_low"], system["region_high"]
    inside = np.all((traj.x >= low) & (traj.x <= high), axis=1)
    audit = {
        "x_samples": int(traj.x.shape[0]),
        "x_violations": int(np.sum(~inside)),
        "x_max_abs": [float(v) for v in np.max(np.abs(traj.x), axis=0)],
        "contained": bool(np.all(inside)),
    }
    if record.w is not None:
        w_ok = np.all(np.abs(record.w) <= system["w_bound"], axis=1)
        audit["w_violations"] = int(np.sum(~w_ok))
        audit["w_max_abs"] = float(np.max(np.abs(record.w)))
        audit["contained"] = audit["contained"] and bool(np.all(w_ok))
    if traj.z is not None:
        z_ok = np.abs(traj.z) <= system["z_bound"]
        audit["z_violations"] = int(np.sum(~z_ok))
        audit["contained"] = audit["contained"] and bool(np.all(z_ok))
    return audit


def run_algorithm_1(config: RunConfig) -> LearningRun:
    """Execute the full pipeline for one configuration.

    On any exception the partial run is still serialized to the output
    directory before the exception propagates.  Its error record carries
    a toolkit error's category and message, or `Internal` and the type
    and message of any other exception.
    """
    run = LearningRun(config=config)
    try:
        _run_pipeline(config, _build_system(config), run)
    except Exception as exc:
        if isinstance(exc, ToolkitError):
            run.error = {"category": exc.category, "message": str(exc)}
        else:
            run.error = {"category": "Internal", "message": f"{type(exc).__name__}: {exc}"}
        run.save(config.out_dir)
        raise
    run.save(config.out_dir)
    return run


def _run_pipeline(config: RunConfig, system, run: LearningRun) -> None:
    """The one sequence of every plant (the module docstring); a plant
    without a z channel also gets the Lipschitz probe, the movement replay
    and the analyses."""
    model, cost = system["model"], system["cost"]
    plant = Plant(
        model, system["uncertainty"], system["x0"],
        step=config.step, z0=system["z0"], w0=system["w0"],
    )
    noise = noise_from_config(config)
    basis_v = make_polynomial_basis(model.n, config.value_degree)
    basis_u = make_polynomial_basis(model.n, config.policy_degree)
    window = dict(
        interval=config.interval, delta_rel=config.delta_rel,
        tol=config.tol, max_iter=config.max_iter,
    )
    n_intervals = config.n_intervals or online_pi.default_intervals(basis_v, basis_u)
    if model.has_z_channel:
        lookup = noise.rk4_lookup(plant.step)
        drive_policy = system["drive_policy"]
        phase1 = backstep.phase_one(
            plant, system["initial_policy"], lambda x, z, t: drive_policy(x, z, t) + lookup(t),
            basis_v, basis_u, cost, system["rho"], cost.margin,
            n_intervals=n_intervals, **window,
        )
        result = phase1.pi_result
    elif len(config.schedule) > 1:
        schedule = [
            (make_polynomial_basis(model.n, d), make_polynomial_basis(model.n, d))
            for d in config.schedule
        ]
        two_loop = online_pi.two_loop_optimize(
            plant, system["initial_policy"], noise, cost, schedule,
            config.residual_threshold, **window,
        )
        result = two_loop.result
        run.analysis["schedule_index"] = two_loop.schedule_index
    else:
        result = online_pi.run_online_pi(
            plant, system["initial_policy"], noise, basis_v, basis_u, cost,
            n_intervals=n_intervals, **window,
        )
    run.pi_result = result
    run.learning_record = plant.last_record
    run.audit = _box_audit(run.learning_record, system)
    if not model.has_z_channel:
        run.audit["drift_lipschitz_bound"] = lipschitz_probe(
            model.drift, system["region_low"], system["region_high"], seed=config.seed
        )

    final_policy = result.final_policy
    if system["uncertainty"] is not None:
        gains = system["uncertainty"].iss_bounds
        s_max = config.s_max if config.s_max is not None else gains["s_max"]
        _, reference = _oracle_reference(system, config, len(result.iterates))
        if model.has_z_channel:
            final_policy = _cascade_certification(
                config, system, plant, phase1, reference, gains, s_max, run
            )
        else:
            final_policy = _matched_certification(
                config, system, result, reference, gains, s_max, run
            )

    # terminate the noise and engage the final policy from where the last window ended
    record = plant.last_record
    engaged = run.engaged_record = _engage(config, system, final_policy, record)
    if model.has_z_channel:
        run.analysis["final_state_norm"] = float(
            np.linalg.norm(engaged.trajectory.x[-1])
            + abs(engaged.trajectory.z[-1])
            + np.linalg.norm(engaged.w[-1])
        )
        return

    roa = run.robust_report.get("roa")
    if roa is not None:  # a certified plant has a hidden state w
        x_end = record.trajectory.x[-1]
        run.audit["engaged_inside_roa_x"] = bool(
            float(roa.sigma(np.asarray(roa.value.evaluate(x_end)))) <= roa.level
        )
        run.audit["engaged_inside_roa_full"] = roa.contains(x_end, record.w[-1])

    # movement replay: the learned (pre-redesign) policy from the original start
    learned = result.final_policy
    movement = integrate(
        model, system["uncertainty"],
        learned.evaluate, system["x0"],
        horizon=config.sim_horizon, step=config.step,
        w0=system["w0"],
    )
    run.movement_record = movement
    if model.n >= 2:
        profile = speed_profile_analysis(movement.trajectory)
        run.analysis["speed_profile"] = asdict(profile)

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


def _load(args) -> RunConfig:
    """The config of a command, with its command-line overrides; they pass
    the same checks as file values."""
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "out_dir", "step", "max_iter")
        if getattr(args, name) is not None
    }
    return load_config(args.config, **overrides)


def _cmd_run(args) -> int:
    config = _load(args)
    run_algorithm_1(config)
    print(f"run complete: {config.out_dir}")
    return 0


def _cmd_oracle(args) -> int:
    config = _load(args)
    system = _build_system(config)
    states, _ = _oracle_reference(system, config, config.max_iter)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "oracle_iterations.csv", {
        "iteration": [s.iteration for s in states],
        "value_change": [0.0 if np.isinf(s.value_change) else s.value_change for s in states],
        "improvement_residual": [s.improvement_residual for s in states],
    })
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
    config = _load(args)
    if PLANTS[config.kind]().uncertainty is None:
        raise ConfigParse("check-gains needs a plant with an uncertainty channel")
    run = run_algorithm_1(config)
    report = run.cascade_report or run.robust_report
    print(gain_table(report))
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
    out = Path(args.out_dir or f"{run_dir}_replay")
    if out.exists():
        # only an earlier run's output is replaced, and never the run replayed
        if run_dir.resolve().is_relative_to(out.resolve()):
            raise ConfigParse(f"replay output {out} would replace the run {run_dir}")
        if not (out / "run.json").is_file():
            raise ConfigParse(f"replay output {out} exists and holds no run.json")
        shutil.rmtree(out)
    config.out_dir = str(out)
    run_algorithm_1(config)
    for path in sorted(out.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.name}")
    return 0


def _cmd_diff(args) -> int:
    if not np.isfinite(args.rtol) or args.rtol < 0:
        raise ConfigParse("rtol must be nonnegative and finite")
    gaps = compare_runs(args.run_a, args.run_b)
    differing = {name: gap for name, gap in gaps.items() if gap is None or gap > args.rtol}
    for name, gap in differing.items():
        if gap is None:
            print(f"{name}: in one run only")
        else:
            print(f"{name}: largest relative difference {gap:.3e}")
    if differing:
        print(f"{len(differing)} of {len(gaps)} files differ (rtol {args.rtol:g})")
        return 1
    print(f"no difference in {len(gaps)} files (rtol {args.rtol:g})")
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
    p = sub.add_parser("diff", help="compare the artifacts of two run directories")
    p.add_argument("run_a")
    p.add_argument("run_b")
    p.add_argument(
        "--rtol", type=float, default=0.0,
        help="numbers in .csv/.json match when |a-b| <= rtol*|b| (default 0: exact)",
    )
    p.set_defaults(func=_cmd_diff)
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
