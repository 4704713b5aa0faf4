"""Plant models, deterministic RK4 integration, and trajectory records.

A plant is split into the learner-visible part (state x, optional
z integrator channel) and a hidden uncertainty subsystem (state w) that
the learning algorithms must never read.  The split is enforced by the
types: `Trajectory` carries no field derived from w; the full
`SimulationRecord` (with w) stays on the simulation side and is used
only for post-hoc audits.

One RK4 kernel steps the stacked state s = [x, z, w] of `integrate` and
`simulate_batch`.  Both share the input checks and failure rules: a
non-finite derivative at any stage or state after a step raises
NonFiniteDynamics, and a trajectory whose Euclidean norm of s exceeds
`blowup` raises StateDivergence.  One trajectory is stepped as a list of
Python floats in numpy's order of operations,
s + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), so each float has the bits of the
array form; the finiteness checks scan that list, and a sum of squares
settles the blow-up test unless it is within 0.1% of blowup**2, where the
numpy norm decides.  A one-row `simulate_batch` steps on those floats too.

Every callback of one trajectory, the controller included, gets the
stepped floats themselves: x and w as lists of Python floats, z as a
float.  drift, input_gain and w_dynamics return a sequence of floats, and
the controller and the scalar maps a float; a map that returns ndarrays
also works, at numpy's speed.  The controller of a one-row
`simulate_batch` is a batch controller and gets that list wrapped as
x (1, n), z (1,).  Two rows or more step on arrays, and every callback
gets a batch.  A map that indexes x[..., 0] without `np.asarray` first
therefore fails at one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteDynamics, StateDivergence

DEFAULT_BLOWUP = 1e6


@dataclass(frozen=True)
class SystemModel:
    """Control-affine plant: dx/dt = drift(x) + input_gain(x) * (input).

    A plant with `f1` has a z channel between the control and the x
    subsystem: dz/dt = f1(x, z) + u, and z is the input of the x
    subsystem.

    Every map, like the controller `integrate` runs, must take one state,
    x a list of n Python floats and z a float, and a batch, x (B, n) and
    z (B,), in the forms the module docstring sets out.
    """

    n: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_gain: Callable[[np.ndarray], np.ndarray]
    f1: Optional[Callable[[np.ndarray, float], float]] = None

    @property
    def has_z_channel(self) -> bool:
        return self.f1 is not None


@dataclass(frozen=True)
class UncertaintyModel:
    """Hidden subsystem dw/dt = w_dynamics(w, x) with disturbance outputs.

    `iss_bounds` holds the declared gain functions (kappa_1..kappa_7,
    lam_lo, lam_hi, kappa_3/kappa_4, W) used by the small-gain checks;
    they are declarations about the maps above, verified numerically by
    the test suite, never consulted by the simulator itself.  Like the
    plant's maps, every map here must take one state, w and x lists of
    Python floats (z a float), and a batch, w (B, p).
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


def _check_finite(s, what):
    finite = all(map(math.isfinite, s)) if isinstance(s, list) else np.isfinite(s).all()
    if not finite:
        raise NonFiniteDynamics(f"{what} returned a non-finite value")


def _exceeds(s, blowup) -> bool:
    """Whether some trajectory's Euclidean |s| exceeds `blowup`, as decided
    by ``(np.sqrt((s * s).sum(-1)) > blowup).any()``.

    For one trajectory, a list of floats, a Python sum of squares decides
    when it lies clearly below blowup**2, where numpy's rounding cannot
    change the answer; otherwise the numpy expression decides.
    """
    if isinstance(s, list):
        if blowup > 0 and sum([v * v for v in s]) < 0.999 * blowup * blowup:
            return False
        s = np.array(s)
    return bool((np.sqrt((s * s).sum(-1)) > blowup).any())


def _stacked_start(model, uncertainty, x0, z0, w0, lead, *, horizon, step):
    """Checked initial state [x0, z0, w0] of shape lead + (size,)."""
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < step:
        raise ValueError("horizon must cover at least one step")
    parts = [np.asarray(x0, dtype=float).reshape(lead + (model.n,))]
    if model.has_z_channel:
        if z0 is None:
            raise ValueError("z-channel plant needs z0")
        parts.append(np.asarray(z0, dtype=float).reshape(lead + (1,)))
    if uncertainty is not None:
        if w0 is None:
            raise ValueError("uncertain plant needs w0")
        parts.append(np.asarray(w0, dtype=float).reshape(lead + (uncertainty.p,)))
    s0 = np.concatenate(parts, axis=-1)
    if not np.isfinite(s0).all():
        raise ValueError("initial states must be finite")
    return s0


def stage_times(k0, k1, step):
    """The times `_rk4` hands the controller on steps k0 <= k < k1.

    Yields (t, t + step/2, t + step) with t = k * step, in the kernel's own
    float arithmetic: the first stage, the two midpoint stages and the last
    stage of step k.  The record at the final node uses only t.
    """
    for k in range(k0, k1):
        t = k * step
        yield t, t + step / 2, t + step


def _rk4(model, uncertainty, controller, s0, *, horizon, step, blowup):
    """Classical fixed-step RK4 on the stacked state s = [x, z, w].

    `s0` has shape (size,) or (B, size); the callbacks see x, z and w with
    the same leading axes.  Returns t, the x, z, w histories and the u,
    x_input, z_input records (None where a channel is absent).
    """
    n = model.n
    has_z = model.has_z_channel
    p = uncertainty.p if uncertainty is not None else 0
    iw = n + (1 if has_z else 0)
    one = s0.ndim == 1
    drift, gain, f1 = model.drift, model.input_gain, model.f1
    matched = unmatched = w_dynamics = None
    if uncertainty is not None:
        matched = uncertainty.matched_disturbance
        unmatched = uncertainty.unmatched_disturbance
        w_dynamics = uncertainty.w_dynamics

    def stage(t, s):
        """Derivative at (t, s), with the u, x_input and z_input behind it."""
        x = s[:n] if one else s[..., :n]
        z = (s[n] if one else s.T[n]) if has_z else None
        w = (s[iw:] if one else s[..., iw:]) if p else None
        u = controller(x, z, t) if has_z else controller(x, t)
        u = float(u) if one else u
        delta = matched(w, x) if matched else 0.0
        xin = (z + delta) if has_z else (u + delta)
        dx, gx = drift(x), gain(x)
        zin = dz = dw = None
        if has_z:
            d1 = unmatched(w, x, z) if unmatched else 0.0
            zin = u + d1
            dz = f1(x, z) + u + d1
        if p:
            dw = w_dynamics(w, x)
        if one:
            ds = [d + g * xin for d, g in zip(dx, gx)]
            if has_z:
                ds.append(dz)
            if p:
                ds.extend(dw)
        else:
            ds = np.empty(s.shape)
            ds[..., :n] = dx + (gx.T * xin).T
            if has_z:
                ds[..., n] = dz
            if p:
                ds[..., iw:] = dw
        _check_finite(ds, "dynamics")
        return ds, u, xin, zin

    def ahead(s, a, k):
        """s + a * k, for a list s as for an array."""
        return [v + a * d for v, d in zip(s, k)] if one else s + a * k

    n_steps = int(round(horizon / step))
    ts = np.arange(n_steps + 1) * step
    states = np.empty((n_steps + 1,) + s0.shape)
    rec_shape = (n_steps + 1,) + s0.shape[:-1]
    u_rec, xin_rec = np.empty(rec_shape), np.empty(rec_shape)
    zin_rec = np.empty(rec_shape) if has_z else None

    s, h = (s0.tolist() if one else s0), step
    for k, (t, t_mid, t_end) in enumerate(stage_times(0, n_steps + 1, h)):
        k1, u, xin, zin = stage(t, s)
        states[k], u_rec[k], xin_rec[k] = s, u, xin
        if has_z:
            zin_rec[k] = zin
        if k == n_steps:
            break
        k2 = stage(t_mid, ahead(s, h / 2, k1))[0]
        k3 = stage(t_mid, ahead(s, h / 2, k2))[0]
        k4 = stage(t_end, ahead(s, h, k3))[0]
        if one:
            slope = [b1 + 2 * b2 + 2 * b3 + b4 for b1, b2, b3, b4 in zip(k1, k2, k3, k4)]
        else:
            slope = k1 + 2 * k2 + 2 * k3 + k4
        s = ahead(s, h / 6, slope)
        _check_finite(s, "state update")
        if _exceeds(s, blowup):
            raise StateDivergence(f"|state| exceeded {blowup:g} at t = {t_end:.6g} s")

    x = states[..., :n].copy()
    z = states[..., n].copy() if has_z else None
    w = states[..., iw:].copy() if p else None
    return ts, x, z, w, u_rec, xin_rec, zin_rec


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
    """Integrate one closed-loop trajectory with classical fixed-step RK4.

    The controller is a feedback map, `controller(x, t)` or
    `controller(x, z, t)` for z-channel plants, evaluated at every RK4
    substage (continuous feedback, no zero-order hold).  The controller
    and disturbance maps run once per stage, 4 * n_steps + 1 times in all:
    the record at a grid node (`u`, `x_input`, `z_input`) reuses the
    first-stage evaluation there.  Failures follow the module rules
    (NonFiniteDynamics at a stage or a step, StateDivergence past `blowup`
    on |[x, z, w]|).  The state steps as a list of Python floats, with the
    bits of the batched numpy form; the controller and the plant and
    uncertainty maps get its slices, x a list of n floats and z a float
    (module docstring).
    """
    s0 = _stacked_start(model, uncertainty, x0, z0, w0, (), horizon=horizon, step=step)
    ts, x, z, w, u, xin, zin = _rk4(
        model, uncertainty, controller, s0, horizon=horizon, step=step, blowup=blowup
    )
    traj = Trajectory(t=ts, x=x, u=u, x_input=xin, z=z, z_input=zin)
    return SimulationRecord(trajectory=traj, w=w)


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
    """Integrate B independent trajectories in lockstep.

    The kernel, input checks and failure rules of `integrate` with a
    leading batch axis: callbacks get x (B, n), z (B,), w (B, p) and
    return (B, n) for drift/input_gain, (B,) for the controller and the
    disturbance maps.  Divergence is judged per trajectory.  Returns the
    (t, x, z, w) histories, shaped (K,), (K, B, n), (K, B), (K, B, p),
    None for an absent channel.

    A batch of one row steps on `integrate`'s Python floats, with the same
    bits: the plant maps then get x and w as lists of floats and z a float,
    and the controller gets the list x wrapped as x (1, n), z as (1,), and
    returns one value.
    """
    x0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    s0 = _stacked_start(
        model, uncertainty, x0, z0_batch, w0_batch, x0.shape[:1],
        horizon=horizon, step=step,
    )
    if s0.shape[0] > 1:
        return _rk4(
            model, uncertainty, controller, s0, horizon=horizon, step=step, blowup=blowup
        )[:4]
    if model.has_z_channel:
        def row(x, z, t):
            return np.asarray(controller(np.array(x)[None], np.array([z]), t)).item()
    else:
        def row(x, t):
            return np.asarray(controller(np.array(x)[None], t)).item()
    ts, x, z, w = _rk4(
        model, uncertainty, row, s0[0], horizon=horizon, step=step, blowup=blowup
    )[:4]
    return ts, x[:, None], None if z is None else z[:, None], None if w is None else w[:, None]


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
    local slopes near the sup are seen.  `fn` gets (P, n) batches, the
    cloud and then its offsets along each coordinate, and returns (P, m)
    or (P,).  Returns a finite bound or raises NonFiniteDynamics.
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
        val = np.asarray(fn(x), dtype=float).reshape(len(x), -1)
        if not np.all(np.isfinite(val)):
            raise NonFiniteDynamics("map returned a non-finite value in the probe box")
        return val

    vals = f(pts)
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
    for d in range(low.size):
        offsets, up = pts.copy(), pts[:, d] + h
        offsets[:, d] = np.where(up <= high[d], up, pts[:, d] - h)
        dist = np.abs(offsets[:, d] - pts[:, d])
        keep = dist >= 1e-15
        if keep.any():
            for val, base, q in zip(f(offsets[keep]), vals[keep], dist[keep]):
                best = max(best, np.linalg.norm(val - base) / q)
    return float(best)
