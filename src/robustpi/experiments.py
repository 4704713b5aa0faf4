"""Benchmark systems and analysis utilities.

The plants of the harness kinds: the single-joint arm problem plus the
scalar and synthetic-cascade benchmarks.  Each builder returns one
`Benchmark` record: the model, cost, initial policy and region, the start
state (x0, w0, z0), the uncertainty whose `iss_bounds` hold the declared
gains, the audit bounds on w and z and, for the cascade, the drive policy
and the fixed rho.  The harness reads every fact about a plant from it.
The plant and uncertainty maps and the initial policies take one state as
lists of Python floats (x, w) and a float z, as the RK4 stage passes
them, and compute on floats; arrays, one state (n,) or a batch (B, n),
take the numpy path with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import Approximant
from .dynsys import CostSpec, SystemModel, Trajectory, UncertaintyModel
from .robust import BRACKET, ClassKFunction


@dataclass(frozen=True)
class Benchmark:
    """One plant as the harness runs it.

    The learner starts at (x0, w0, z0); the learning trajectory is audited
    against the region box in x and the bounds |w| <= w_bound and
    |z| <= z_bound.  A plant without a hidden channel has no uncertainty,
    w0 or w_bound; only a cascade (a model with `f1`) has z0, z_bound, the
    drive policy of its z channel and the fixed rho of its redesign.  A
    cascade's initial policy is the x-subsystem's, with z as its input.
    """

    model: SystemModel
    cost: CostSpec
    initial_policy: Callable
    region_low: np.ndarray
    region_high: np.ndarray
    x0: np.ndarray
    w0: Optional[np.ndarray] = None
    z0: Optional[float] = None
    uncertainty: Optional[UncertaintyModel] = None
    w_bound: Optional[float] = None
    z_bound: Optional[float] = None
    drive_policy: Optional[Callable] = None
    rho: Optional[float] = None


def _constant_input_gain(values) -> Callable:
    """Input gain of a plant whose gain does not depend on the state: one
    shared tuple for a list state, a fresh array of its shape for an array."""
    row = tuple(float(v) for v in values)
    gain = np.array(row)

    def input_gain(x):
        if isinstance(x, list):
            return row
        return np.broadcast_to(gain, np.shape(x)).copy()

    return input_gain


def _negated(x):
    """dx/dt = -x, the drift of the scalar and cascade benchmarks."""
    if isinstance(x, list):
        return [-v for v in x]
    return -np.asarray(x, dtype=float)


def _zero_policy(x):
    """u = 0 times x1, the initial policy of the scalar and cascade
    benchmarks: on floats at a list state, where 0.0 * x[0] has the bits
    of the array form."""
    if isinstance(x, list):
        return 0.0 * x[0]
    return 0.0 * np.asarray(x, dtype=float)[..., 0]


# ---------------------------------------------------------------------------
# single-joint arm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmParameters:
    """Physical parameters of the single-joint arm.

    The neural-integrator time constant is a modelling choice (0.1 s
    default, physiologically plausible for a low-pass stage); results
    are checked for robustness across 0.05-0.2 s.  The gravity torque is
    restoring toward the target posture, which is what makes the weak
    declared initial policy stabilizing.
    """

    mass: float = 1.65  # kg
    com_distance: float = 0.179  # m
    gravity: float = 9.81  # m/s^2
    inertia: float = 0.0779  # kg m^2
    tau_n: float = 0.1  # s
    target_angle: float = np.pi / 4  # rad

    def __post_init__(self):
        for name in ("mass", "com_distance", "gravity", "inertia", "tau_n"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def torque_scale(self) -> float:
        return self.mass * self.gravity * self.com_distance

    @property
    def leak_rate(self) -> float:
        return (1.0 + self.tau_n) / self.tau_n


def _gravity_shape(params: ArmParameters, x1):
    if isinstance(x1, float) and math.isfinite(x1):
        # math.sin has np.sin's bits at a finite float (checked by the tests)
        half = 0.5 * x1
        return math.sin(half) * math.sin(half + params.target_angle)
    half = 0.5 * np.asarray(x1, dtype=float)
    return np.sin(half) * np.sin(half + params.target_angle)


def build_arm_system(params: Optional[ArmParameters] = None) -> Benchmark:
    """Arm as an x-subsystem with a matched hidden integrator channel.

    The disturbance channel carries w + I*x2 through the 1/I input gain,
    so the nominal plant seen by the learner is the undamped restoring
    pendulum; the cost is 100*x1^2 + x2^2 + u^2 and the declared initial
    policy is -0.5*x1 - 0.5*x2.
    """
    p = params or ArmParameters()
    mgl2 = 2.0 * p.torque_scale
    inertia = p.inertia

    def drift(x):
        if isinstance(x, list):
            return [x[1], -(mgl2 / inertia) * _gravity_shape(p, x[0])]
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        out[..., 0] = x[..., 1]
        out[..., 1] = -(mgl2 / inertia) * _gravity_shape(p, x[..., 0])
        return out

    leak_rate = p.leak_rate

    # w and x are lists of floats or float arrays, as the RK4 stage passes them
    def w_dynamics(w, x):
        if isinstance(x, list):
            return [-leak_rate * (w[0] + inertia * x[1]) + mgl2 * _gravity_shape(p, x[0])]
        dw = -leak_rate * (w[..., 0] + inertia * x[..., 1]) + mgl2 * _gravity_shape(p, x[..., 0])
        return dw[..., None]

    def matched(w, x):
        if isinstance(x, list):
            return w[0] + inertia * x[1]
        return w[..., 0] + inertia * x[..., 1]

    def state_cost(x):
        x = np.asarray(x, dtype=float)
        return 100.0 * x[..., 0] ** 2 + x[..., 1] ** 2

    def initial_policy(x, t=None):
        if isinstance(x, list):
            return -0.5 * x[0] - 0.5 * x[1]
        x = np.asarray(x, dtype=float)
        return -0.5 * x[..., 0] - 0.5 * x[..., 1]

    uncertainty = UncertaintyModel(
        p=1,
        w_dynamics=w_dynamics,
        matched_disturbance=matched,
        iss_bounds=arm_gain_declarations(p),
    )
    return Benchmark(
        model=SystemModel(n=2, drift=drift, input_gain=_constant_input_gain([0.0, 1.0 / inertia])),
        cost=CostSpec(state_cost=state_cost, control_weight=1.0, margin=0.95),
        initial_policy=initial_policy,
        region_low=np.array([-0.8, -3.5]),
        region_high=np.array([0.8, 3.5]),
        x0=np.array([-np.pi / 4, 0.0]),
        w0=np.array([1.0]),
        uncertainty=uncertainty,
        w_bound=1.0,
    )


def arm_gain_declarations(params: ArmParameters) -> dict:
    """Declared gain set for the arm's hidden channel.

    The disturbance w + I*x2 is split by the weighted-max inequality
    (the split weight mu = 9 trades the w-side against the x-side); the
    Lyapunov decay condition keeps nu = 0.9 of the leak rate.  The gains
    are declared up to s_max = 8.  All members are verified on sample
    grids by the test suite.
    """
    inertia = params.inertia
    c = params.leak_rate
    mu = 9.0
    nu = 0.9
    q3 = np.sqrt(inertia**2 + (params.torque_scale / c) ** 2) / nu

    def lyap_w(w):
        w = np.asarray(w, dtype=float)
        return np.sum(w**2, axis=-1)

    return {
        "kappa1": ClassKFunction.linear(1.0 + 1.0 / mu, BRACKET, name="kappa1"),
        "kappa2": ClassKFunction.linear((1.0 + mu) * inertia, BRACKET, name="kappa2"),
        "kappa3": ClassKFunction.power(q3**2, 2.0, BRACKET, name="kappa3"),
        "kappa4": ClassKFunction.power(
            2.0 * c * (1.0 - nu), 2.0, BRACKET, name="kappa4"
        ),
        "lam_lo": ClassKFunction.power(1.0, 2.0, BRACKET, name="lam_lo"),
        "lam_hi": ClassKFunction.power(1.0, 2.0, BRACKET, name="lam_hi"),
        "W": lyap_w,
        "s_max": 8.0,
    }


# ---------------------------------------------------------------------------
# scalar benchmark
# ---------------------------------------------------------------------------


def build_scalar_plant() -> Benchmark:
    """dx/dt = -x + u with quadratic cost; optimum known in closed form."""

    def state_cost(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2

    return Benchmark(
        model=SystemModel(n=1, drift=_negated, input_gain=_constant_input_gain([1.0])),
        cost=CostSpec(state_cost=state_cost, control_weight=1.0, margin=0.9),
        initial_policy=_zero_policy,
        region_low=np.array([-1.0]),
        region_high=np.array([1.0]),
        x0=np.array([0.8]),
    )


# ---------------------------------------------------------------------------
# synthetic cascade with unmatched uncertainty
# ---------------------------------------------------------------------------


def build_cascade_system() -> Benchmark:
    """Scalar cascade: dx = -x + z + 0.5 w, dz = x z + u + 0.2 w.

    The x-subsystem optimum is the scalar closed form again, so both
    phases have independent references; all declared gains are linear or
    quadratic and sized generously against the true couplings.
    """

    # x and w are lists of floats or float arrays, as the RK4 stage passes them
    def f1(x, z):
        if isinstance(x, list):
            return x[0] * z
        return x[..., 0] * np.asarray(z, dtype=float)

    def w_dynamics(w, x):
        if isinstance(x, list):
            return [-2.0 * w[0] + 0.25 * x[0]]
        dw = -2.0 * w[..., 0] + 0.25 * x[..., 0]
        return dw[..., None]

    def matched(w, x):
        return 0.5 * w[0] if isinstance(w, list) else 0.5 * w[..., 0]

    def unmatched(w, x, z):
        return 0.2 * w[0] if isinstance(w, list) else 0.2 * w[..., 0]

    def state_cost(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2

    def lyap_w(w):
        w = np.asarray(w, dtype=float)
        return np.sum(w**2, axis=-1)

    gains = {
        "kappa1": ClassKFunction.linear(0.5, BRACKET, name="kappa1"),
        "kappa2": ClassKFunction.linear(0.05, BRACKET, name="kappa2"),
        "kappa3": ClassKFunction.power(0.0625, 2.0, BRACKET, name="kappa3"),
        "kappa4": ClassKFunction.power(2.0, 2.0, BRACKET, name="kappa4"),
        "kappa5": ClassKFunction.linear(0.25, BRACKET, name="kappa5"),
        "kappa6": ClassKFunction.linear(0.01, BRACKET, name="kappa6"),
        "kappa7": ClassKFunction.linear(0.02, BRACKET, name="kappa7"),
        "lam_lo": ClassKFunction.power(1.0, 2.0, BRACKET, name="lam_lo"),
        "lam_hi": ClassKFunction.power(1.0, 2.0, BRACKET, name="lam_hi"),
        "W": lyap_w,
        "s_max": 6.0,
    }
    uncertainty = UncertaintyModel(
        p=1,
        w_dynamics=w_dynamics,
        matched_disturbance=matched,
        unmatched_disturbance=unmatched,
        iss_bounds=gains,
    )
    return Benchmark(
        model=SystemModel(n=1, drift=_negated, input_gain=_constant_input_gain([1.0]), f1=f1),
        cost=CostSpec(state_cost=state_cost, control_weight=1.0, margin=0.8),
        initial_policy=_zero_policy,
        region_low=np.array([-1.0]),
        region_high=np.array([1.0]),
        x0=np.array([0.4]),
        w0=np.array([0.5]),
        z0=-0.2,
        uncertainty=uncertainty,
        w_bound=1.0,
        z_bound=1.0,
        drive_policy=lambda x, z, t=None: -2.0 * z,
        rho=0.5,
    )


# ---------------------------------------------------------------------------
# analysis utilities
# ---------------------------------------------------------------------------


@dataclass
class SpeedProfile:
    peak_count: int
    peak_time: float
    symmetry_index: float
    duration: float
    peak_speed: float


def speed_profile_analysis(traj: Trajectory) -> SpeedProfile:
    """Count speed peaks and locate them within the movement.

    Position is x[:, 0] and speed x[:, 1].  A movement is from rest; its
    duration is the first passage of the position below 2% of its initial
    offset, capped at 5 s.  Peaks are strict local maxima of |speed| above
    5% of the global maximum; a single peak means the profile is bell
    shaped.
    """
    t = traj.t
    speed = np.abs(traj.x[:, 1])
    position = np.abs(traj.x[:, 0])

    start_offset = position[0]
    duration = min(5.0, float(t[-1]))
    if start_offset > 0:
        below = np.nonzero(position <= 0.02 * start_offset)[0]
        if below.size:
            duration = min(duration, float(t[below[0]]))

    vmax = float(speed.max())
    level = 0.05 * vmax
    interior = speed[1:-1]
    is_peak = (interior > speed[:-2]) & (interior > speed[2:]) & (interior > level)
    peak_idx = np.nonzero(is_peak)[0] + 1
    if peak_idx.size:
        main = peak_idx[np.argmax(speed[peak_idx])]
        peak_time = float(t[main])
    else:
        peak_time = float(t[np.argmax(speed)])
    mid = 0.5 * duration
    symmetry = abs(peak_time - mid) / duration if duration > 0 else np.inf
    return SpeedProfile(
        peak_count=int(peak_idx.size),
        peak_time=peak_time,
        symmetry_index=float(symmetry),
        duration=duration,
        peak_speed=vmax,
    )


def cost_surface_compare(
    value_initial: Approximant,
    value_final: Approximant,
    region_low,
    region_high,
    n: int = 51,
) -> dict:
    """Pointwise comparison of two value surfaces on a regular grid.

    Reports the fraction of grid points (origin-adjacent points with a
    vanishing reference excluded) where the final surface lies strictly
    below the initial one, and the worst final/initial ratio.
    """
    low = np.atleast_1d(np.asarray(region_low, dtype=float))
    high = np.atleast_1d(np.asarray(region_high, dtype=float))
    axes = [np.linspace(low[d], high[d], n) for d in range(low.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    v0 = value_initial.evaluate_many(pts)
    vf = value_final.evaluate_many(pts)
    scale = float(np.max(np.abs(v0))) or 1.0
    valid = np.abs(v0) > 1e-9 * scale
    reduced = vf[valid] < v0[valid]
    positive = valid & (v0 > 0)
    max_ratio = float(np.max(vf[positive] / v0[positive])) if np.any(positive) else np.inf
    return {
        "reduction_fraction": float(np.mean(reduced)) if reduced.size else 0.0,
        "max_ratio": max_ratio,
        "points": pts,
        "initial": v0,
        "final": vf,
    }
