"""Plant models, deterministic RK4 integration, and trajectory records.

A plant is split into the learner-visible part (state x, optional
z integrator channel) and a hidden uncertainty subsystem (state w) that
the learning algorithms must never read.  The split is enforced by the
types: `Trajectory` carries no field derived from w; the full
`SimulationRecord` (with w) stays on the simulation side and is used
only for post-hoc audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteDynamics, StateDivergence

DEFAULT_BLOWUP = 1e6


@dataclass(frozen=True)
class SystemModel:
    """Control-affine plant: dx/dt = drift(x) + input_gain(x) * (input)."""

    n: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_gain: Callable[[np.ndarray], np.ndarray]
    has_z_channel: bool = False
    f1: Optional[Callable[[np.ndarray, float], float]] = None

    def __post_init__(self):
        if self.has_z_channel and self.f1 is None:
            raise ValueError("z-channel plants need f1(x, z)")


@dataclass(frozen=True)
class UncertaintyModel:
    """Hidden subsystem dw/dt = w_dynamics(w, x) with disturbance outputs.

    `iss_bounds` holds the declared gain functions (kappa_1..kappa_7,
    lam_lo, lam_hi, kappa_3/kappa_4, W) used by the small-gain checks;
    they are declarations about the maps above, verified numerically by
    the test suite, never consulted by the simulator itself.
    """

    p: int
    w_dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    matched_disturbance: Callable[[np.ndarray, np.ndarray], float]
    unmatched_disturbance: Optional[Callable] = None
    iss_bounds: Optional[dict] = None


@dataclass(frozen=True)
class CostSpec:
    """Running cost Q(x) + control_weight * u^2 with margin reserve.

    `margin` is the constant eps with Q(x) - eps^2 |x|^2 still positive
    definite; the robust redesign spends exactly that reserve.
    """

    state_cost: Callable[[np.ndarray], float]
    control_weight: float
    margin: float

    def q_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.asarray([self.state_cost(x) for x in pts], dtype=float)


@dataclass
class Trajectory:
    """Learner-visible record of one closed-loop run on a fixed grid.

    `x_input` is the composite input seen by the x-subsystem at each
    grid node: applied control plus whatever the disturbance channel
    added (or z plus disturbance for cascade plants).  The learner may
    measure this total actuation effect but never the disturbance alone.
    """

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    x_input: np.ndarray
    z: Optional[np.ndarray] = None
    z_input: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        k = self.t.shape[0]
        for name in ("x", "u", "x_input", "z", "z_input"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != k:
                raise ValueError(f"{name} length does not match the time grid")

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass
class SimulationRecord:
    """Full simulation output including the hidden w channel."""

    trajectory: Trajectory
    w: Optional[np.ndarray] = None

    def learner_view(self) -> Trajectory:
        return self.trajectory


def _check_finite(arr, what):
    if not np.isfinite(arr).all():
        raise NonFiniteDynamics(f"{what} returned a non-finite value")


def integrate(
    model: SystemModel,
    uncertainty: Optional[UncertaintyModel],
    controller: Callable,
    x0,
    *,
    horizon: float,
    step: float,
    z0: Optional[float] = None,
    w0=None,
    blowup: float = DEFAULT_BLOWUP,
) -> SimulationRecord:
    """Integrate the closed loop with classical fixed-step RK4.

    The controller is a feedback map, `controller(x, t)` or
    `controller(x, z, t)` for z-channel plants, evaluated at every RK4
    substage (continuous feedback, no zero-order hold).  The controller
    and disturbance maps run once per stage, 4 * n_steps + 1 times in
    all: the record at a grid node (`u`, `x_input`, `z_input`) reuses the
    first-stage evaluation there, and the final node evaluates the
    plant maps too, so a non-finite derivative at the last node raises
    NonFiniteDynamics.  Divergence past `blowup` raises StateDivergence
    instead of silently producing NaN.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < step:
        raise ValueError("horizon must cover at least one step")

    n = model.n
    has_z = model.has_z_channel
    p = uncertainty.p if uncertainty is not None else 0
    x0 = np.asarray(x0, dtype=float).reshape(n)
    if has_z and z0 is None:
        raise ValueError("z-channel plant needs z0")
    if uncertainty is not None:
        if w0 is None:
            raise ValueError("uncertain plant needs w0")
        w0 = np.asarray(w0, dtype=float).reshape(p)
    if not np.all(np.isfinite(x0)) or (w0 is not None and not np.all(np.isfinite(w0))):
        raise ValueError("initial states must be finite")

    n_steps = int(round(horizon / step))
    size = n + (1 if has_z else 0) + p

    def stage(t, s):
        """Derivative at (t, s), with the u, x_input and z_input behind it."""
        x = s[:n]
        z = s[n] if has_z else None
        w = s[n + (1 if has_z else 0):] if p else None
        u = controller(x, z, t) if has_z else controller(x, t)
        delta = uncertainty.matched_disturbance(w, x) if uncertainty else 0.0
        xin = (z + delta) if has_z else (u + delta)
        ds = np.empty(size)
        ds[:n] = model.drift(x) + model.input_gain(x) * xin
        zin = None
        if has_z:
            d1 = (
                uncertainty.unmatched_disturbance(w, x, z)
                if uncertainty is not None and uncertainty.unmatched_disturbance
                else 0.0
            )
            zin = u + d1
            ds[n] = model.f1(x, z) + u + d1
        if p:
            ds[n + (1 if has_z else 0):] = uncertainty.w_dynamics(w, x)
        _check_finite(ds, "dynamics")
        return ds, u, xin, zin

    ts = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, size))
    u_rec = np.empty(n_steps + 1)
    xin_rec = np.empty(n_steps + 1)
    zin_rec = np.empty(n_steps + 1) if has_z else None

    s = np.concatenate([x0, [z0] if has_z else [], w0 if p else []])
    h = step
    for k in range(n_steps + 1):
        t = k * h
        k1, u, xin, zin = stage(t, s)
        ts[k] = t
        states[k] = s
        u_rec[k] = u
        xin_rec[k] = xin
        if has_z:
            zin_rec[k] = zin
        if k == n_steps:
            break
        k2 = stage(t + h / 2, s + (h / 2) * k1)[0]
        k3 = stage(t + h / 2, s + (h / 2) * k2)[0]
        k4 = stage(t + h, s + h * k3)[0]
        s = s + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        _check_finite(s, "state update")
        if np.linalg.norm(s) > blowup:
            raise StateDivergence(
                f"|state| exceeded {blowup:g} at t = {t + h:.6g} s"
            )

    traj = Trajectory(
        t=ts,
        x=states[:, :n].copy(),
        u=u_rec,
        x_input=xin_rec,
        z=states[:, n].copy() if has_z else None,
        z_input=zin_rec,
    )
    w_hist = states[:, n + (1 if has_z else 0):].copy() if p else None
    return SimulationRecord(trajectory=traj, w=w_hist)


def simulate_batch(
    model: SystemModel,
    uncertainty: Optional[UncertaintyModel],
    controller: Callable,
    x0_batch: np.ndarray,
    *,
    horizon: float,
    step: float,
    z0_batch=None,
    w0_batch=None,
    blowup: float = DEFAULT_BLOWUP,
):
    """Integrate many independent trajectories in lockstep.

    Vectorized variant for trajectory bundles (region-of-attraction
    sweeps); all callbacks must accept batched rows: drift/input_gain
    (B, n) -> (B, n), controller (B, n)[, (B,)] , t -> (B,), disturbance
    maps likewise.  Returns (t, x, z, w) history arrays.
    """
    x0_batch = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    B, n = x0_batch.shape
    has_z = model.has_z_channel
    p = uncertainty.p if uncertainty is not None else 0
    n_steps = int(round(horizon / step))

    x = x0_batch.copy()
    z = np.asarray(z0_batch, dtype=float).reshape(B) if has_z else None
    w = (
        np.asarray(w0_batch, dtype=float).reshape(B, p)
        if uncertainty is not None
        else None
    )

    def rhs(t, x, z, w):
        u = controller(x, z, t) if has_z else controller(x, t)
        delta = uncertainty.matched_disturbance(w, x) if uncertainty else 0.0
        xin = (z + delta) if has_z else (u + delta)
        dx = model.drift(x) + model.input_gain(x) * xin[:, None]
        dz = None
        if has_z:
            d1 = (
                uncertainty.unmatched_disturbance(w, x, z)
                if uncertainty is not None and uncertainty.unmatched_disturbance
                else 0.0
            )
            dz = model.f1(x, z) + u + d1
        dw = uncertainty.w_dynamics(w, x) if uncertainty is not None else None
        return dx, dz, dw

    ts = np.arange(n_steps + 1) * step
    xs = np.empty((n_steps + 1, B, n))
    zs = np.empty((n_steps + 1, B)) if has_z else None
    ws = np.empty((n_steps + 1, B, p)) if uncertainty is not None else None

    def axpy(state, k, h):
        x2 = state[0] + h * k[0]
        z2 = state[1] + h * k[1] if has_z else None
        w2 = state[2] + h * k[2] if w is not None else None
        return x2, z2, w2

    for step_i in range(n_steps + 1):
        t = step_i * step
        xs[step_i] = x
        if has_z:
            zs[step_i] = z
        if ws is not None:
            ws[step_i] = w
        if step_i == n_steps:
            break
        state = (x, z, w)
        k1 = rhs(t, *state)
        k2 = rhs(t + step / 2, *axpy(state, k1, step / 2))
        k3 = rhs(t + step / 2, *axpy(state, k2, step / 2))
        k4 = rhs(t + step, *axpy(state, k3, step))
        x = x + (step / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        if has_z:
            z = z + (step / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if w is not None:
            w = w + (step / 6) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        norms = np.linalg.norm(x, axis=1)
        if has_z:
            norms = norms + np.abs(z)
        if w is not None:
            norms = norms + np.linalg.norm(w, axis=1)
        if not np.all(np.isfinite(norms)):
            raise NonFiniteDynamics("batched state update non-finite")
        if np.any(norms > blowup):
            raise StateDivergence(
                f"a batched trajectory exceeded {blowup:g} at t = {t + step:.6g} s"
            )
    return ts, xs, zs, ws


class Plant:
    """Apply-control-and-observe handle handed to the learners.

    `observe` runs the closed loop and returns only the learner view.
    The full record (with the hidden channel) is retained on
    `last_record` for post-hoc audits by the harness; learner code must
    not touch it, and nothing in the returned Trajectory derives from w.
    """

    def __init__(
        self,
        model: SystemModel,
        uncertainty: Optional[UncertaintyModel],
        x0,
        *,
        step: float,
        z0: Optional[float] = None,
        w0=None,
        blowup: float = DEFAULT_BLOWUP,
    ):
        self.model = model
        self.uncertainty = uncertainty
        self.x0 = np.asarray(x0, dtype=float)
        self.z0 = z0
        self.w0 = w0
        self.step = step
        self.blowup = blowup
        self.last_record: Optional[SimulationRecord] = None

    def observe(self, controller: Callable, horizon: float) -> Trajectory:
        record = integrate(
            self.model,
            self.uncertainty,
            controller,
            self.x0,
            horizon=horizon,
            step=self.step,
            z0=self.z0,
            w0=self.w0,
            blowup=self.blowup,
        )
        self.last_record = record
        return record.learner_view()


def lipschitz_probe(fn, low, high, samples: int = 200, seed: int = 0) -> float:
    """Largest difference quotient |f(a)-f(b)| / |a-b| over sampled pairs.

    Samples a seeded cloud in the box plus short coordinate offsets, so
    local slopes near the sup are seen.  Returns a finite bound or
    raises NonFiniteDynamics.
    """
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    if samples < 2:
        raise ValueError("need at least two samples")
    if np.any(high <= low):
        raise ValueError("degenerate domain box")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(low, high, size=(samples, low.size))
    pts = np.vstack([pts, low[None, :], high[None, :]])

    def f(x):
        val = np.atleast_1d(np.asarray(fn(x if x.size > 1 else float(x[0])), dtype=float))
        if not np.all(np.isfinite(val)):
            raise NonFiniteDynamics("map returned a non-finite value in the probe box")
        return val

    vals = [f(x) for x in pts]
    best = 0.0
    # random pairs
    idx = rng.integers(0, len(pts), size=(4 * samples, 2))
    for i, j in idx:
        if i == j:
            continue
        dist = np.linalg.norm(pts[i] - pts[j])
        if dist < 1e-12:
            continue
        best = max(best, np.linalg.norm(vals[i] - vals[j]) / dist)
    # short coordinate offsets capture local slope maxima
    h = 1e-5 * np.linalg.norm(high - low)
    for i, x in enumerate(pts):
        for d in range(low.size):
            xo = x.copy()
            xo[d] = min(xo[d] + h, high[d]) if x[d] + h <= high[d] else x[d] - h
            dist = abs(xo[d] - x[d])
            if dist < 1e-15:
                continue
            best = max(best, np.linalg.norm(f(xo) - vals[i]) / dist)
    return float(best)
