"""Model-based policy iteration by least-squares collocation.

Requires the plant maps (drift, input gain); serves as the ground-truth
route for testing the trajectory-data learner and as the certification
oracle for the robust redesign.  Policy evaluation solves the linear
PDE  grad(V).(f + g*u) + Q + r*u^2 = 0  in least squares on a
deterministic low-discrepancy grid; policy improvement projects
-(1/2r) g.grad(V) onto the policy basis on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .basis import Approximant, BasisSet, policy_values
from .dynsys import CostSpec, SystemModel, integrate
from .errors import InadmissiblePolicy, RankDeficient, StateDivergence

Policy = Union[Approximant, Callable]

RANK_RTOL = 1e-12


def _first_primes(count: int) -> list:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def collocation_grid(low, high, count: int) -> np.ndarray:
    """Deterministic Halton points scaled into the box [low, high].

    Point i, coordinate j is the radical inverse of i (from 0) in the j-th
    prime, summed digit by digit from the least significant as
    `scipy.stats.qmc.Halton(d, scramble=False)` sums it.  Adding a zero digit
    is exact, so the digits of all points are summed at once.  The rows are
    built per base and transposed, so the grid is F-ordered like scipy's:
    the BLAS products downstream round per memory layout.
    """
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    unit = np.zeros((low.size, count))
    for row, base in zip(unit, _first_primes(low.size)):
        index = np.arange(count)
        scale = 1.0 / base
        while index.any():
            row += (index % base) * scale
            scale /= base
            index //= base
    return low + unit.T * (high - low)


def probe_admissibility(
    model: SystemModel,
    policy: Policy,
    initial_conditions: Sequence,
    *,
    step: float = 1e-3,
) -> None:
    """Probe closed-loop stability by short simulations; raise if one diverges.

    Each start runs for up to 20 s and early-exits once the state enters
    the 1e-3 ball; a state norm past 1e6 counts as divergence.  This backs
    the admissibility precondition numerically; it is a sanity check, not
    a proof.
    """
    if isinstance(policy, Approximant):  # its compiled one-point function, as it is
        controller = policy.evaluate
    else:
        controller = lambda x, t: policy(x)
    for x0 in initial_conditions:
        x = np.asarray(x0, dtype=float)
        t = 0.0
        chunk = max(step * 50, 1.0)
        try:
            while t < 20.0:
                rec = integrate(model, None, controller, x, horizon=chunk, step=step)
                x = rec.trajectory.x[-1]
                t += chunk
                if np.linalg.norm(x) <= 1e-3:
                    break
        except StateDivergence as exc:
            raise InadmissiblePolicy(
                f"probe from {np.asarray(x0)} diverged: {exc}"
            ) from exc


def _lstsq(matrix: np.ndarray, rhs: np.ndarray):
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[0] == 0 or svals[-1] / svals[0] < RANK_RTOL:
        raise RankDeficient(
            "collocation matrix numerically rank deficient "
            f"(s_min/s_max = {0 if svals[0] == 0 else svals[-1] / svals[0]:.3e}); "
            "grid too small or basis dependent"
        )
    sol, res, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return sol


def policy_evaluation_collocation(
    model: SystemModel,
    cost: CostSpec,
    policy: Policy,
    basis_value: BasisSet,
    grid: np.ndarray,
    *,
    probe_ics: Optional[Sequence] = None,
    probe_step: float = 1e-3,
) -> Approximant:
    """Least-squares value of `policy` for the nominal model on `grid`."""
    grid = np.atleast_2d(grid)
    if grid.shape[0] < len(basis_value):
        raise ValueError("collocation grid smaller than the value basis")
    if probe_ics is not None:
        probe_admissibility(model, policy, probe_ics, step=probe_step)
    u = policy_values(policy, grid)
    f = model.drift(grid)
    g = model.input_gain(grid)
    field = f + g * u[:, None]
    rows = np.einsum("pnd,pd->pn", basis_value.gradient_tensor(grid), field)
    rhs = -(cost.state_cost(grid) + cost.control_weight * u**2)
    weights = _lstsq(rows, rhs)
    return Approximant(basis_value, weights)


def policy_improvement(
    model: SystemModel,
    cost: CostSpec,
    value: Approximant,
    basis_policy: BasisSet,
    grid: np.ndarray,
):
    """Greedy policy -(1/2r) g.grad(V), projected onto the policy basis.

    Returns the projected approximant and the grid RMS projection
    residual.
    """
    grid = np.atleast_2d(grid)
    g = model.input_gain(grid)
    grad = value.gradient_many(grid)
    target = -np.einsum("pd,pd->p", g, grad) / (2.0 * cost.control_weight)
    phi = basis_policy.design_matrix(grid)
    weights = _lstsq(phi, target)
    residual = float(np.sqrt(np.mean((phi @ weights - target) ** 2)))
    return Approximant(basis_policy, weights), residual


@dataclass
class PIState:
    """One recorded policy-iteration step."""

    iteration: int
    value: Approximant
    policy: Approximant
    improvement_residual: float
    value_change: float


def run_policy_iteration(
    model: SystemModel,
    cost: CostSpec,
    initial_policy: Policy,
    basis_value: BasisSet,
    basis_policy: BasisSet,
    grid: np.ndarray,
    *,
    max_iter: int = 50,
    tol: float = 1e-8,
    probe_ics: Optional[Sequence] = None,
    probe_step: float = 1e-3,
) -> list:
    """Alternate evaluation and improvement until the value stops moving.

    Stops when the grid sup-norm of the value change drops below `tol`.
    Each candidate policy is probed for admissibility before being
    evaluated when `probe_ics` is given.
    """
    grid = np.atleast_2d(grid)
    states = []
    policy = initial_policy
    prev_vals = None
    for i in range(max_iter):
        value = policy_evaluation_collocation(
            model,
            cost,
            policy,
            basis_value,
            grid,
            probe_ics=probe_ics,
            probe_step=probe_step,
        )
        improved, residual = policy_improvement(model, cost, value, basis_policy, grid)
        vals = value.evaluate_many(grid)
        change = np.inf if prev_vals is None else float(np.max(np.abs(vals - prev_vals)))
        states.append(
            PIState(
                iteration=i,
                value=value,
                policy=improved,
                improvement_residual=residual,
                value_change=change,
            )
        )
        if change < tol:
            break
        prev_vals = vals
        policy = improved
    return states
