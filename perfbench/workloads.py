"""The benchmark's workloads: set-up, one unit of work, output checks.

A unit is one `run_algorithm_1` call for the three pipeline workloads and
one batch of trajectories for certify_bundle.  Every unit reports how many
operations it attempted (a pipeline run, or one bundle trajectory) and how
many failed: a categorized ToolkitError and a missed output check both
count as a failure, and neither stops the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np

from robustpi import dynsys, harness, robust
from robustpi.basis import Approximant
from robustpi.errors import ToolkitError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG_DIR = ROOT / "src" / "robustpi" / "configs"
OUT_ROOT = ROOT / ".perfbench_out"
GOLDEN = json.loads((HERE / "golden.json").read_text())

# closed-form optimum of dx = -x + u with cost x^2 + u^2, which is also the
# x-subsystem of the cascade plant
RICCATI_WEIGHT = math.sqrt(2.0) - 1.0
RICCATI_GAIN = -RICCATI_WEIGHT
CLOSED_FORM_RTOL = 1e-3

BUNDLE_SIZE = 1  # trajectories per timed batch: short units, so a run has several
BUNDLE_HORIZON = 2.0  # s, long enough for every trajectory to settle below 1e-3
BUNDLE_FINAL_NORM = 1e-3
BUNDLE_DESCENT_SLACK = 1e-4


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    reasons: list


def _close(value, target, rtol) -> bool:
    return abs(value - target) <= rtol * abs(target)


class Pipeline:
    """`run_algorithm_1` on one bundled config, artifacts included."""

    def __init__(self, name: str, config_name: str, check):
        self.name = name
        self.config_name = config_name
        self.check = check

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.config = harness.load_config(CONFIG_DIR / self.config_name)
        self.system = harness._build_system(self.config)

    def exploration_seed(self, unit: int) -> int:
        seeds = GOLDEN["seeds"][self.name]
        return seeds[(self.seed + unit) % len(seeds)]

    def prepare(self, unit: int, out_dir: Path):
        """Untimed: the config for this unit and an empty output directory."""
        config = dataclasses.replace(
            self.config, exploration_seed=self.exploration_seed(unit), out_dir=str(out_dir)
        )
        shutil.rmtree(out_dir, ignore_errors=True)

        def work() -> Outcome:
            try:
                misses = self.check(harness.run_algorithm_1(config))
            except ToolkitError as exc:
                return Outcome(1, 1, [exc.category])
            return Outcome(1, int(bool(misses)), misses)

        return work


def check_scalar(run) -> list:
    misses = []
    if not _close(run.pi_result.final_value.weights[1], RICCATI_WEIGHT, CLOSED_FORM_RTOL):
        misses.append("scalar value weight")
    if not _close(run.pi_result.final_policy.weights[0], RICCATI_GAIN, CLOSED_FORM_RTOL):
        misses.append("scalar policy gain")
    return misses


def check_arm(run) -> list:
    golden = GOLDEN["arm"]
    expected = golden["per_seed"][str(run.config.exploration_seed)]
    rr = run.robust_report
    misses = []
    converged = run.pi_result.converged_iteration
    if converged is None or converged > golden["max_iterations"]:
        misses.append("arm convergence")
    if not rr["small_gain_holds"]:
        misses.append("arm small gain")
    for key, value in expected.items():
        if rr[key] is None or not _close(rr[key], value, golden["rtol"]):
            misses.append(f"arm {key}")
    return misses


def check_cascade(run) -> list:
    misses = []
    gain = run.pi_result.final_policy.weights[0]
    if not _close(gain, RICCATI_GAIN, CLOSED_FORM_RTOL):
        misses.append("cascade phase-one gain")
    if not run.cascade_report["small_gain_holds"]:
        misses.append("cascade small gain")
    return misses


@dataclasses.dataclass
class CertifiedLoop:
    """The arm's robust policy with the gains and region it was certified with."""

    system: dict
    policy: robust.RobustPolicy
    value_star: Approximant
    chi1: robust.ClassKFunction
    roa: robust.RegionEstimate

    @classmethod
    def from_fixture(cls, data: dict, system: dict) -> "CertifiedLoop":
        gains = system["uncertainty"].iss_bounds
        cost = system["cost"]
        s_max = data["s_max"]
        value_star = Approximant.from_dict(data["value_star"])
        learned = Approximant.from_dict(data["learned_policy"])
        rho = data["rho"]
        policy = robust.robust_redesign(
            learned, lambda s: np.full_like(np.asarray(s, dtype=float), rho),
            cost.control_weight, data["margin"],
        )
        alpha_lo, alpha_hi = robust.radial_envelopes(
            value_star, system["model"].n, s_max,
            clip_low=system["region_low"], clip_high=system["region_high"],
        )
        chi1, _ = robust.build_chi_pair(
            policy.gamma, gains["kappa1"], gains["kappa3"], gains["lam_lo"],
            alpha_lo, alpha_hi, s_max,
        )
        sigma = robust.ClassKFunction.from_samples(
            np.asarray(data["sigma_ladder"]), np.asarray(data["sigma_values"]), name="sigma"
        )
        roa = robust.estimate_roa(value_star, gains["W"], data["certified_d"], sigma)
        return cls(system=system, policy=policy, value_star=value_star, chi1=chi1, roa=roa)


class Bundle:
    """Monte-Carlo check of the certified arm loop on seeded ROA samples."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.config = harness.load_config(CONFIG_DIR / "arm.cfg")
        system = harness._build_system(self.config)
        fixture = json.loads((HERE / "arm_certified.json").read_text())
        self.loop = CertifiedLoop.from_fixture(fixture, system)
        self.w_lim = self.loop.roa.w_bound()

    def _initial_states(self, rng) -> tuple:
        system, value, roa = self.loop.system, self.loop.value_star, self.loop.roa
        pts = np.empty((0, system["model"].n))
        while pts.shape[0] < BUNDLE_SIZE:
            cand = rng.uniform(system["region_low"], system["region_high"], size=(64, pts.shape[1]))
            vv = value.evaluate_many(cand)
            pts = np.vstack([pts, cand[(vv > 0) & (vv <= roa.d)]])
        return pts[:BUNDLE_SIZE], rng.uniform(-self.w_lim, self.w_lim, size=(BUNDLE_SIZE, 1))

    def prepare(self, unit: int, out_dir: Path):
        rng = np.random.default_rng([self.seed, unit])
        return lambda: self._check_batch(rng)

    def _check_batch(self, rng) -> Outcome:
        loop = self.loop
        system = loop.system
        cost = system["cost"]
        x0, w0 = self._initial_states(rng)
        try:
            ts, xs, _, ws = dynsys.simulate_batch(
                system["model"], system["uncertainty"],
                lambda X, t: loop.policy.evaluate_many(X), x0,
                horizon=BUNDLE_HORIZON, step=self.config.sim_step, w0_batch=w0,
            )
        except ToolkitError as exc:
            return Outcome(BUNDLE_SIZE, BUNDLE_SIZE, [exc.category])
        final = np.sqrt(np.sum(xs[-1] ** 2, axis=1) + np.sum(ws[-1] ** 2, axis=1))

        # descent surrogate of the acceptance suite: wherever V dominates
        # the w-channel threshold chi1(|w|^2) inside the certified level,
        # dV/dt <= -Q0 up to the central-difference slack
        k, b, n = xs.shape
        flat = xs.reshape(-1, n)
        vvals = loop.value_star.evaluate_many(flat).reshape(k, b)
        thresh = np.asarray(loop.chi1(np.sum(ws**2, axis=2).ravel())).reshape(k, b)
        q0 = (cost.state_cost(flat) - cost.margin**2 * np.sum(flat**2, axis=1)).reshape(k, b)
        vdot = (vvals[2:] - vvals[:-2]) / (2.0 * (ts[1] - ts[0]))
        inner = vvals[1:-1]
        mask = (inner >= thresh[1:-1]) & (inner <= loop.roa.d) & (inner > 0)
        excess = np.where(mask, vdot + q0[1:-1], -np.inf).max(axis=0)

        reasons = []
        for i in range(b):
            if not loop.roa.contains(x0[i], w0[i]):
                reasons.append("bundle start outside ROA")
            elif final[i] > BUNDLE_FINAL_NORM:
                reasons.append("bundle convergence")
            elif excess[i] > BUNDLE_DESCENT_SLACK:
                reasons.append("bundle descent")
        return Outcome(b, len(reasons), reasons)


WORKLOADS = {
    "arm": lambda: Pipeline("arm", "arm.cfg", check_arm),
    "cascade": lambda: Pipeline("cascade", "cascade_unmatched.cfg", check_cascade),
    "scalar": lambda: Pipeline("scalar", "scalar_lqr.cfg", check_scalar),
    "certify_bundle": Bundle,
}
