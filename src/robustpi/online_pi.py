"""Model-free policy iteration from trajectory data.

One excitation run is collected under the initial policy plus
exploration noise; every iteration afterwards reuses that window,
re-targeting the least-squares problem with the current policy iterate.
Each row couples the change of the value basis across a sampling
interval with integrals of the policy basis against the composite-input
mismatch; the stacked system is solved by SVD least squares under a
persistent-excitation guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .basis import Approximant, BasisSet, policy_values
from .dynsys import CostSpec, Plant, Trajectory, stage_times
from .errors import EmptyInterval, PEViolation, ScheduleExhausted

# the excitation-failure message of each guarded solve, by stage
PE_MESSAGES = {
    "policy iteration": "persistent-excitation check failed: "
    "min/max eigenvalue ratio {ratio:.3e} below delta_rel = {delta_rel:g}",
    "phase two": "persistent-excitation check failed in phase two: "
    "eigenvalue ratio {ratio:.3e} below {delta_rel:g}",
}

# RK4 steps whose stage times one batched evaluation of the exploration
# signal covers; the lookup holds one block, so its memory stays bounded
LOOKUP_BLOCK_STEPS = 1024
STRIDE_RTOL = 1e-9  # how far interval / step may lie from a whole number of steps


@dataclass
class ExplorationNoise:
    """Sum of seeded sinusoids; peak magnitude bounded by `amplitude`.

    Frequencies are log-spaced over [freq_low, freq_high] Hz and phases
    are drawn once from the seeded generator, so the signal is fully
    reproducible.
    """

    amplitude: float
    seed: int
    n_components: int = 10
    freq_low: float = 0.1
    freq_high: float = 10.0

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        self.frequencies = np.logspace(
            np.log10(self.freq_low), np.log10(self.freq_high), self.n_components
        )
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=self.n_components)
        self.angular_frequencies = 2.0 * np.pi * self.frequencies

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        args = self.angular_frequencies * t[..., None] + self.phases
        return self.amplitude * (np.add.reduce(np.sin(args), axis=-1) / self.n_components)

    def rk4_lookup(self, step: float) -> Callable[[float], float]:
        """The signal at the stage times of an RK4 run at `step`, as t -> float.

        A t that is not in the current block refills it with the block of
        LOOKUP_BLOCK_STEPS steps from t's step on (`dynsys.stage_times`),
        evaluated in one batched call; the batched values have the bits of
        calling the signal at each time.  A t that still misses (not an RK4
        stage time, or not finite) gets `self(t)`.
        """
        table = {}

        def lookup(t):
            value = table.get(t)
            if value is None and math.isfinite(t):
                k0 = int(t / step)
                times = [
                    tk for stage in stage_times(k0, k0 + LOOKUP_BLOCK_STEPS, step)
                    for tk in stage
                ]
                table.clear()
                table.update(zip(times, self(np.array(times)).tolist()))
                value = table.get(t)
            return self(t) if value is None else value

        return lookup


def interval_stride(interval: float, step: float) -> int:
    """The sampling interval as a whole number of integration steps.

    Raises EmptyInterval when interval / step rounds below 1 or lies more
    than STRIDE_RTOL relative from a whole number.
    """
    ratio = interval / step
    stride = round(ratio) if math.isfinite(ratio) else 0
    if stride < 1:
        raise EmptyInterval(f"interval {interval:g} is shorter than the step {step:g}")
    if abs(ratio - stride) > STRIDE_RTOL * ratio:
        raise EmptyInterval(f"step {step:g} does not divide the interval {interval:g}")
    return stride


@dataclass
class SampleWindow:
    """A dense trajectory plus the sampling instants t_0 < ... < t_l.

    Sampling instants are grid-aligned (stored as indices into the dense
    grid), which keeps the interval quadratures exact restrictions of
    the dense record.  A window is the same at every policy iteration run
    on it (only the policy iterate changes), and so is its design matrix of
    each basis: `design_matrix` builds it on the first call and keeps it
    until `run_online_pi`, done with the window, drops it.
    """

    trajectory: Trajectory
    sample_indices: np.ndarray
    _design: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.sample_indices, dtype=int)
        if idx.ndim != 1 or idx.size < 2:
            raise ValueError("need at least two sampling instants")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("sampling instants must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.trajectory.t.size:
            raise ValueError("sampling instants outside the dense grid")
        self.sample_indices = idx

    @property
    def n_intervals(self) -> int:
        return self.sample_indices.size - 1

    def design_matrix(self, basis: BasisSet) -> np.ndarray:
        """`basis.design_matrix` at the dense states, read-only; built on the
        first call for each basis (equal bases share one matrix)."""
        phi = self._design.get(basis)
        if phi is None:
            phi = basis.design_matrix(self.trajectory.x)
            phi.flags.writeable = False
            self._design[basis] = phi
        return phi

    @classmethod
    def from_trajectory(
        cls, trajectory: Trajectory, interval: float, count: int
    ) -> "SampleWindow":
        idx = interval_stride(interval, trajectory.step) * np.arange(count + 1)
        if idx[-1] >= trajectory.t.size:
            raise ValueError(
                f"window needs {idx[-1] + 1} dense points, trajectory has "
                f"{trajectory.t.size}"
            )
        return cls(trajectory=trajectory, sample_indices=idx)


@dataclass
class RegressionProblem:
    """Stacked least-squares system of one learning step, phase one or two:
    the columns of `theta` are one block per basis of `bases`, in order."""

    theta: np.ndarray
    targets: np.ndarray
    bases: tuple


@dataclass
class Fit:
    """A guarded solve of a `RegressionProblem`: `parts` holds one
    `Approximant` per basis, on its block of the stacked `weights`."""

    parts: tuple
    weights: np.ndarray
    residual_rms: float
    min_singular_value: float


def default_intervals(*bases: BasisSet) -> int:
    """Sampling intervals a window gets when none is set: 4 per unknown weight."""
    return 4 * sum(len(basis) for basis in bases)


def _interval_integrals(dense: np.ndarray, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of dense columns over each sampling interval.

    The running integral is `scipy.integrate.cumulative_trapezoid(dense, t,
    axis=0, initial=0.0)`, in its order of operations.
    """
    cum = np.zeros_like(dense)
    np.cumsum(np.diff(t)[:, None] * (dense[1:] + dense[:-1]) / 2.0, axis=0, out=cum[1:])
    return cum[idx[1:]] - cum[idx[:-1]]


def assemble_regression(
    window: SampleWindow,
    basis_value: BasisSet,
    basis_policy: BasisSet,
    current_policy,
    cost: CostSpec,
) -> RegressionProblem:
    """Build the data matrix and targets for the current policy iterate.

    Row k holds the value-basis increments across [t_k, t_k+1] followed
    by 2r * integral(phi_j * v) entries, where v is the measured
    composite input minus the current policy; the target is minus the
    integral of the running cost under the current policy.

    The window and the two bases are the same at every iteration, so
    `phi_v` and `phi_u` come from the window's design matrices, built
    once.  Only `current_policy` changes: an `Approximant` on
    `basis_policy` is `phi_u @ w`, the product its `evaluate_many` forms
    on the same matrix, with the same bits; any other policy (the
    initial one, say) goes through `policy_values`.
    """
    traj = window.trajectory
    idx = window.sample_indices
    x = traj.x
    t = traj.t

    phi_v = window.design_matrix(basis_value)
    phi_u = window.design_matrix(basis_policy)
    if isinstance(current_policy, Approximant) and current_policy.basis == basis_policy:
        u_i = phi_u @ current_policy.weights
    else:
        u_i = policy_values(current_policy, x)
    v = traj.x_input - u_i
    r = cost.control_weight

    delta_phi = phi_v[idx[1:]] - phi_v[idx[:-1]]
    policy_cols = 2.0 * r * _interval_integrals(phi_u * v[:, None], t, idx)
    theta = np.hstack([delta_phi, policy_cols])

    running = cost.state_cost(x) + r * u_i**2
    targets = -_interval_integrals(running[:, None], t, idx)[:, 0]
    return RegressionProblem(theta=theta, targets=targets, bases=(basis_value, basis_policy))


def guarded_solve(problem: RegressionProblem, delta_rel: float, stage: str) -> Fit:
    """Minimum-norm least-squares fit of problem.theta to problem.targets.

    The persistent-excitation (PE) guard compares the smallest eigenvalue
    of (1/l) Theta^T Theta to `delta_rel` times the largest; failing it
    means the excitation did not span the bases and raises PEViolation with
    the `stage` message.  The fit's `min_singular_value` holds that
    smallest eigenvalue, not a singular value of Theta.  `problem` is left
    as it was.
    """
    theta = problem.theta
    l, cols = theta.shape
    if l < cols:
        raise PEViolation(f"{l} intervals cannot excite {cols} unknowns")
    svals = np.linalg.svd(theta, compute_uv=False)
    scaled = svals**2 / l
    if svals[0] == 0.0 or scaled[-1] < delta_rel * scaled[0]:
        ratio = 0 if svals[0] == 0 else scaled[-1] / scaled[0]
        raise PEViolation(PE_MESSAGES[stage].format(ratio=ratio, delta_rel=delta_rel))
    weights, *_ = np.linalg.lstsq(theta, problem.targets, rcond=None)
    residuals = theta @ weights - problem.targets
    ends = np.cumsum([len(basis) for basis in problem.bases])[:-1]
    return Fit(
        parts=tuple(map(Approximant, problem.bases, np.split(weights, ends))),
        weights=weights,
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        min_singular_value=float(scaled[-1]),
    )


def solve_pi_step(problem: RegressionProblem, delta_rel: float = 1e-6) -> Fit:
    """The guarded solve of one policy-iteration regression: parts (value, policy)."""
    return guarded_solve(problem, delta_rel, "policy iteration")


@dataclass
class OnlineIterate:
    iteration: int
    value: Approximant
    policy: Approximant
    residual_rms: float
    min_singular_value: float
    weight_change: float


@dataclass
class OnlinePIResult:
    iterates: list
    window: SampleWindow
    converged_iteration: Optional[int] = None

    @property
    def final_value(self) -> Approximant:
        return self.iterates[-1].value

    @property
    def final_policy(self) -> Approximant:
        return self.iterates[-1].policy


def run_online_pi(
    plant: Plant,
    initial_policy: Callable,
    exploration: Optional[ExplorationNoise],
    basis_value: BasisSet,
    basis_policy: BasisSet,
    cost: CostSpec,
    *,
    interval: float,
    n_intervals: int,
    delta_rel: float = 1e-6,
    tol: float = 1e-3,
    max_iter: int = 20,
    drive: Optional[Callable] = None,
) -> OnlinePIResult:
    """Collect one excited window, then iterate regression solves on it.

    The stopping rule is a relative weight change below `tol`:
    max|W_i - W_{i-1}| / max(1, max|W_i|).  `drive` overrides the
    default excitation controller (initial policy plus noise); cascade
    plants must supply one since their input channel differs from the
    learned virtual policy.  The default drive reads the noise through
    `ExplorationNoise.rk4_lookup` at the plant's step.  Every iteration
    reads the window's design matrices, built at the first; the returned
    window no longer holds them.
    """
    if drive is None:
        noise = (lambda t: 0.0) if exploration is None else exploration.rk4_lookup(plant.step)
        drive = lambda x, t: initial_policy(x) + noise(t)
    traj = plant.observe(drive, interval * n_intervals)
    window = SampleWindow.from_trajectory(traj, interval, n_intervals)

    iterates = []
    policy = initial_policy
    prev = None
    converged = None
    for i in range(max_iter):
        problem = assemble_regression(window, basis_value, basis_policy, policy, cost)
        step = solve_pi_step(problem, delta_rel=delta_rel)
        value, policy = step.parts
        if prev is None:
            change = np.inf
        else:
            change = float(
                np.max(np.abs(step.weights - prev)) / max(1.0, np.max(np.abs(step.weights)))
            )
        iterates.append(
            OnlineIterate(
                iteration=i,
                value=value,
                policy=policy,
                residual_rms=step.residual_rms,
                min_singular_value=step.min_singular_value,
                weight_change=change,
            )
        )
        if change < tol:
            converged = i + 1
            break
        prev = step.weights
    # the design matrices served the iterations; the result keeps the data only
    window._design.clear()
    return OnlinePIResult(
        iterates=iterates, window=window, converged_iteration=converged
    )


@dataclass
class TwoLoopResult:
    schedule_index: int
    result: OnlinePIResult
    residual_rms: float
    history: list = field(default_factory=list)


def two_loop_optimize(
    plant: Plant,
    initial_policy: Callable,
    exploration: Optional[ExplorationNoise],
    cost: CostSpec,
    schedule: Sequence,
    residual_threshold: float,
    *,
    interval: float,
    delta_rel: float = 1e-6,
    tol: float = 1e-3,
    max_iter: int = 20,
) -> TwoLoopResult:
    """Grow the bases along `schedule` until the residual threshold is met.

    Inner loop: `run_online_pi`.  Outer loop: on failure, move to the
    next (larger) basis pair and recollect data sized to it
    (`default_intervals`).  Raises ScheduleExhausted (carrying the best
    attempt) if nothing qualifies.
    """
    sizes = [len(bv) + len(bu) for bv, bu in schedule]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("basis schedule must be strictly increasing in size")
    history = []
    best = None
    for k, (basis_value, basis_policy) in enumerate(schedule):
        n_intervals = default_intervals(basis_value, basis_policy)
        result = run_online_pi(
            plant,
            initial_policy,
            exploration,
            basis_value,
            basis_policy,
            cost,
            interval=interval,
            n_intervals=n_intervals,
            delta_rel=delta_rel,
            tol=tol,
            max_iter=max_iter,
        )
        residual = result.iterates[-1].residual_rms
        entry = TwoLoopResult(schedule_index=k, result=result, residual_rms=residual)
        history.append((k, residual))
        if best is None or residual < best.residual_rms:
            best = entry
        if residual <= residual_threshold:
            entry.history = history
            return entry
    raise ScheduleExhausted(
        "no schedule entry met the residual threshold "
        f"{residual_threshold:g}; best achieved "
        f"{best.residual_rms if best else float('nan'):g}",
        best=best,
    )
