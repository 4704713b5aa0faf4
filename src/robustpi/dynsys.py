"""Plant models, deterministic RK4 integration, and trajectory records.

A plant is split into the learner-visible part (state x, optional
z integrator channel) and a hidden uncertainty subsystem (state w) that
the learning algorithms must never read.  The split is enforced by the
types: `Trajectory` carries no field derived from w; the full
`SimulationRecord` (with w) stays on the simulation side and is used
only for post-hoc audits.

Classical RK4 steps the stacked state s = [x, z, w] of `integrate` and
`simulate_batch`, with one set of input checks and failure rules: a
non-finite derivative at any stage or state after a step raises
NonFiniteDynamics, and a trajectory whose Euclidean norm of s exceeds
`blowup` raises StateDivergence.  One trajectory, that of `integrate` or of
a one-row `simulate_batch`, steps on Python floats in a loop compiled once
per state layout (n, has_z, p, has_unmatched) and cached (`_float_loop`):
straight-line Python with the state unpacked into locals, in numpy's order
of operations, s + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), so each float has the
bits of the array form.  The controller and the plant and uncertainty maps
are arguments of the loop, never inlined, so one compiled loop serves every
plant of its layout.  The loop checks every stage derivative and every
updated state with `math.isfinite`, settles the blow-up test with a sum of
squares unless it is within 0.1% of blowup**2, where the numpy norm decides,
and writes the states and the u, x_input and z_input records into arrays
allocated for the whole run.  Two rows or more step on (B, size) arrays in
`_rk4`, which records the states only.

Every callback of one trajectory, the controller included, gets the
stepped floats themselves: x and w as lists of Python floats, z as a
float.  drift and input_gain return n floats, w_dynamics p floats (any
sequence), and the controller and the scalar maps a float; a map that
returns ndarrays also works, at numpy's speed.  The controller of a one-row
`simulate_batch` is a batch controller and gets that list wrapped as
x (1, n), z (1,).  Two rows or more step on arrays, and every callback
gets a batch.  A map that indexes x[..., 0] without `np.asarray` first
therefore fails at one state.
"""

from __future__ import annotations

import functools
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
    if not np.isfinite(s).all():
        raise NonFiniteDynamics(f"{what} returned a non-finite value")


def _exceeds(s, blowup) -> bool:
    """Whether some trajectory's Euclidean |s| exceeds `blowup`: the numpy
    decision ``(np.sqrt((s * s).sum(-1)) > blowup).any()`` on an array s."""
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
    """The times the RK4 loops hand the controller on steps k0 <= k < k1.

    Yields (t, t + step/2, t + step) with t = k * step, in the loops' own
    float arithmetic: the first stage, the two midpoint stages and the last
    stage of step k.  The record at the final node uses only t.
    """
    for k in range(k0, k1):
        t = k * step
        yield t, t + step / 2, t + step


def _layout(model, uncertainty):
    """The state layout (n, has_z, p, has_unmatched) of a plant: the unmatched
    disturbance enters only through a z channel."""
    p = uncertainty.p if uncertainty is not None else 0
    has_unmatched = (
        model.has_z_channel and p > 0 and uncertainty.unmatched_disturbance is not None
    )
    return model.n, model.has_z_channel, p, has_unmatched


def _histories(states, step, n, has_z, p):
    """The grid t and the x, z, w histories of the stacked states (K, ..., size)."""
    ts = np.arange(states.shape[0]) * step
    z = states[..., n].copy() if has_z else None
    w = states[..., n + has_z:].copy() if p else None
    return ts, states[..., :n].copy(), z, w


def _rk4(model, uncertainty, controller, s0, *, horizon, step, blowup):
    """Classical fixed-step RK4 of B trajectories on the stacked states
    s0 (B, size), on arrays; the callbacks get x (B, n), z (B,), w (B, p).
    Returns t and the x, z, w histories (None where a channel is absent)."""
    n, has_z, p, has_unmatched = _layout(model, uncertainty)
    iw = n + has_z

    def stage(t, s):
        """The derivative at (t, s)."""
        x = s[..., :n]
        z = s.T[n] if has_z else None
        w = s[..., iw:] if p else None
        u = controller(x, z, t) if has_z else controller(x, t)
        delta = uncertainty.matched_disturbance(w, x) if p else 0.0
        xin = (z + delta) if has_z else (u + delta)
        ds = np.empty(s.shape)
        ds[..., :n] = model.drift(x) + (model.input_gain(x).T * xin).T
        if has_z:
            d1 = uncertainty.unmatched_disturbance(w, x, z) if has_unmatched else 0.0
            ds[..., n] = model.f1(x, z) + u + d1
        if p:
            ds[..., iw:] = uncertainty.w_dynamics(w, x)
        _check_finite(ds, "dynamics")
        return ds

    n_steps = int(round(horizon / step))
    states = np.empty((n_steps + 1,) + s0.shape)
    s, h = s0, step
    for k, (t, t_mid, t_end) in enumerate(stage_times(0, n_steps + 1, h)):
        k1 = stage(t, s)
        states[k] = s
        if k == n_steps:
            break
        k2 = stage(t_mid, s + h / 2 * k1)
        k3 = stage(t_mid, s + h / 2 * k2)
        k4 = stage(t_end, s + h * k3)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        _check_finite(s, "state update")
        if _exceeds(s, blowup):
            raise StateDivergence(f"|state| exceeded {blowup:g} at t = {t_end:.6g} s")
    return _histories(states, step, n, has_z, p)


@functools.cache
def _float_loop(n, has_z, p, has_unmatched):
    """The one-trajectory RK4 loop of a state layout (`_layout`), generated
    as straight-line Python on floats and compiled once per layout (module
    docstring).

    ``loop(model, uncertainty, controller, s, last, h, blowup, states, u_rec,
    xin_rec, zin_rec)`` steps the list of floats s over
    ``stage_times(0, last + 1, h)`` and writes each grid node's state, u,
    x_input and z_input into the flat float memoryviews (zin_rec None without
    a z channel).  It reads the controller and the maps from its arguments
    and keeps `_rk4`'s expressions, order of map calls and checks.
    """
    size = n + has_z + p

    def names(prefix):
        return [f"{prefix}{i}" for i in range(size)]

    def unpacked(items):
        return "".join(f"{item}, " for item in items)

    def finite(items, what):
        test = " and ".join(f"isfinite({item})" for item in items)
        return [
            f"if not ({test}):",
            f'    raise NonFiniteDynamics("{what} returned a non-finite value")',
        ]

    def stage(at, t, out, record):
        """Lines of one stage at the state `at` and time t; its derivative
        goes to `out`, and u, xin and zin stay set for the record."""
        x, z, w = at[:n], at[n] if has_z else None, at[n + has_z:]
        lines = [f"x = [{', '.join(x)}]"]
        if p:
            lines.append(f"w = [{', '.join(w)}]")
        args = f"x, {z}, {t}" if has_z else f"x, {t}"
        lines.append(f"u = float(controller({args}))")
        delta = "matched(w, x)" if p else "0.0"
        lines.append(f"xin = {z if has_z else 'u'} + {delta}")
        lines.append(f"{unpacked(f'd{i}' for i in range(n))}= drift(x)")
        lines.append(f"{unpacked(f'g{i}' for i in range(n))}= gain(x)")
        lines += [f"{out[i]} = d{i} + g{i} * xin" for i in range(n)]
        if has_z:
            d1 = "d1z" if has_unmatched else "0.0"
            if has_unmatched:
                lines.append(f"d1z = unmatched(w, x, {z})")
            if record:
                lines.append(f"zin = u + {d1}")
            lines.append(f"{out[n]} = f1(x, {z}) + u + {d1}")
        if p:
            lines.append(f"{unpacked(out[n + has_z:])}= w_dynamics(w, x)")
        return lines + finite(out, "dynamics")

    s, y = names("s"), names("y")
    k1, k2, k3, k4 = (names(f"k{j}_") for j in range(1, 5))
    body = stage(s, "t", k1, True)
    body += [f"states[j + {i}] = {v}" if i else f"states[j] = {v}" for i, v in enumerate(s)]
    body += ["u_rec[i] = u", "xin_rec[i] = xin"] + (["zin_rec[i] = zin"] if has_z else [])
    body += ["if i == last:", "    break", f"j += {size}", "i += 1"]
    later = (("half", k1, "t_mid", k2), ("half", k2, "t_mid", k3), ("h", k3, "t_end", k4))
    for a, k, t, out in later:
        body += [f"{yi} = {si} + {a} * {ki}" for yi, si, ki in zip(y, s, k)]  # s + a * k
        body += stage(y, t, out, False)
    body += [
        f"{s[i]} = {s[i]} + sixth * ({k1[i]} + 2 * {k2[i]} + 2 * {k3[i]} + {k4[i]})"
        for i in range(size)
    ]
    body += finite(s, "state update")
    squares = " + ".join(f"{v} * {v}" for v in s)
    body += [
        f"if {squares} >= clear and _exceeds(np.array([{', '.join(s)}]), blowup):",
        '    raise StateDivergence(f"|state| exceeded {blowup:g} at t = {t_end:.6g} s")',
    ]
    maps = ["drift, gain = model.drift, model.input_gain"]
    if has_z:
        maps.append("f1 = model.f1")
    if p:
        maps.append("matched = uncertainty.matched_disturbance")
        maps.append("w_dynamics = uncertainty.w_dynamics")
    if has_unmatched:
        maps.append("unmatched = uncertainty.unmatched_disturbance")
    lines = [
        "def loop(model, uncertainty, controller, s, last, h, blowup,",
        "         states, u_rec, xin_rec, zin_rec):",
        *(f"    {line}" for line in maps),
        f"    {unpacked(s)}= s",
        "    half, sixth = h / 2, h / 6",
        # entries are finite, so the sum is never NaN; blowup <= 0 or NaN leaves it to numpy
        "    clear = 0.999 * blowup * blowup if blowup > 0 else -inf",
        "    i = j = 0",
        "    for t, t_mid, t_end in stage_times(0, last + 1, h):",
        *(f"        {line}" for line in body),
    ]
    namespace = dict(
        isfinite=math.isfinite, inf=math.inf, np=np, _exceeds=_exceeds,
        stage_times=stage_times, NonFiniteDynamics=NonFiniteDynamics,
        StateDivergence=StateDivergence,
    )
    exec(compile("\n".join(lines), "<rk4 loop>", "exec"), namespace)
    return namespace["loop"]


def _rk4_floats(model, uncertainty, controller, s0, *, horizon, step, blowup):
    """RK4 of one trajectory s0 (size,) on Python floats, in the compiled loop
    of its layout.  Returns t, the x, z, w histories and the u, x_input,
    z_input records (None where a channel is absent)."""
    layout = _layout(model, uncertainty)
    n, has_z, p, _ = layout
    n_steps = int(round(horizon / step))
    states = np.empty((n_steps + 1, s0.size))
    u, xin = np.empty(n_steps + 1), np.empty(n_steps + 1)
    zin = np.empty(n_steps + 1) if has_z else None
    _float_loop(*layout)(
        model, uncertainty, controller, s0.tolist(), n_steps, step, blowup,
        memoryview(states.reshape(-1)), memoryview(u), memoryview(xin),
        None if zin is None else memoryview(zin),
    )
    return (*_histories(states, step, n, has_z, p), u, xin, zin)


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
    on |[x, z, w]|).  The state steps on Python floats in the RK4 loop
    compiled for the plant's layout (n, has_z, p, has_unmatched), with the
    bits of the batched numpy form; the controller and the plant and
    uncertainty maps are its arguments and get x as a list of n floats and
    z a float (module docstring).  The loop writes the states and the u,
    x_input and z_input records into arrays allocated for the whole run.
    """
    s0 = _stacked_start(model, uncertainty, x0, z0, w0, (), horizon=horizon, step=step)
    ts, x, z, w, u, xin, zin = _rk4_floats(
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

    A batch of one row steps in `integrate`'s compiled loop on Python
    floats, with the same bits: the plant maps then get x and w as lists of
    floats and z a float, and the controller gets the list x wrapped as
    x (1, n), z as (1,), and returns one value.  Two rows or more step on
    arrays, and only the states are recorded.
    """
    x0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    s0 = _stacked_start(
        model, uncertainty, x0, z0_batch, w0_batch, x0.shape[:1],
        horizon=horizon, step=step,
    )
    if s0.shape[0] > 1:
        return _rk4(
            model, uncertainty, controller, s0, horizon=horizon, step=step, blowup=blowup
        )
    if model.has_z_channel:
        def row(x, z, t):
            return np.asarray(controller(np.array(x)[None], np.array([z]), t)).item()
    else:
        def row(x, t):
            return np.asarray(controller(np.array(x)[None], t)).item()
    ts, x, z, w = _rk4_floats(
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

    def norms(v):
        # each row's np.linalg.norm, bit for bit (norm(axis=1) and einsum round otherwise)
        return np.sqrt(np.vecdot(v, v))

    vals = f(pts)
    # random pairs; a point paired with itself (i == j) has distance 0 and is dropped
    i, j = rng.integers(0, len(pts), size=(4 * samples, 2)).T
    dist = norms(pts[i] - pts[j])
    apart = dist >= 1e-12
    best = np.max(norms(vals[i] - vals[j])[apart] / dist[apart], initial=0.0)
    # short coordinate offsets capture local slope maxima
    h = 1e-5 * np.linalg.norm(high - low)
    for d in range(low.size):
        offsets, up = pts.copy(), pts[:, d] + h
        offsets[:, d] = np.where(up <= high[d], up, pts[:, d] - h)
        dist = np.abs(offsets[:, d] - pts[:, d])
        keep = dist >= 1e-15
        if keep.any():
            best = max(best, np.max(norms(f(offsets[keep]) - vals[keep]) / dist[keep]))
    return float(best)
