"""Backstepping extension for plants with an extra integrator channel.

When the disturbance enters upstream of the control (through dz/dt
rather than dx/dt), learning runs in two phases: phase one treats z as
a virtual input and learns + robustifies a virtual policy xi for the
x-subsystem; phase two identifies the transformed error dynamics of
zeta = z - xi(x) by least squares, without ever forming the spatial
derivatives of xi.  The final policy stabilizes zeta while inheriting
the phase-one gain assignment, and is certified by the cascade variant
of the small-gain test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .basis import Approximant, BasisSet
from .dynsys import CostSpec, Plant, SystemModel
from .online_pi import (
    Fit,
    OnlinePIResult,
    RegressionProblem,
    SampleWindow,
    _interval_integrals,
    guarded_solve,
    run_online_pi,
)
from .robust import ClassKFunction, RobustPolicy, check_small_gain, robust_redesign


@dataclass
class CompositeLyapunov:
    """V(x) + zeta^2 / 2 on the augmented state (x, zeta)."""

    value_x: Approximant
    xi: RobustPolicy

    @property
    def n(self) -> int:
        return self.value_x.basis.dim

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        x, zeta = pts[:, : self.n], pts[:, self.n]
        return self.value_x.evaluate_many(x) + 0.5 * zeta**2

    def evaluate(self, point) -> float:
        return float(self.evaluate_many(np.atleast_2d(point))[0])

    def __call__(self, point) -> float:
        return self.evaluate(point)


@dataclass
class PhaseOneResult:
    pi_result: OnlinePIResult
    xi: RobustPolicy


def phase_one(
    plant: Plant,
    initial_policy: Callable,
    drive: Callable,
    basis_value: BasisSet,
    basis_policy: BasisSet,
    cost: CostSpec,
    rho: float,
    margin: float,
    *,
    interval: float,
    n_intervals: int,
    delta_rel: float = 1e-6,
    tol: float = 1e-3,
    max_iter: int = 20,
) -> PhaseOneResult:
    """Learn the x-subsystem policy with z as its input, then robustify.

    Identical mechanics to the matched learner: the x-channel composite
    signal already carries z plus the disturbance, so the same
    regression applies verbatim.  The returned xi, rescaled by the
    constant rho, is frozen before any phase-two data are collected; its
    gain is built on [0, 10].
    """
    result = run_online_pi(
        plant,
        initial_policy,
        None,
        basis_value,
        basis_policy,
        cost,
        interval=interval,
        n_intervals=n_intervals,
        delta_rel=delta_rel,
        tol=tol,
        max_iter=max_iter,
        drive=drive,
    )
    xi = robust_redesign(result.final_policy, rho, cost.control_weight, margin, 10.0)
    return PhaseOneResult(pi_result=result, xi=xi)


def assemble_phase_two(
    window: SampleWindow,
    psi_basis: BasisSet,
    phi_basis: BasisSet,
    xi: RobustPolicy,
) -> RegressionProblem:
    """The least squares identifying the zeta-channel dynamics, from a
    cascade window with xi frozen.

    Column layout: the psi-basis integrals first, then the
    disturbance-weighted phi-basis integrals, matching the declared
    excitation condition for this stage.  The disturbance factor is
    recovered from learner-visible channels (composite x-input minus the
    measured z); the actuation side of the zeta equation is the recorded
    composite z-channel input.
    """
    traj = window.trajectory
    if traj.z is None or traj.z_input is None:
        raise ValueError("phase two needs a cascade trajectory with a z channel")
    idx = window.sample_indices
    x, z, t = traj.x, traj.z, traj.t
    delta = traj.x_input - z
    zeta = z - xi.evaluate_many(x)

    xz = np.hstack([x, z[:, None]])
    psi = psi_basis.design_matrix(xz)
    phi = phi_basis.design_matrix(x)

    psi_cols = _interval_integrals(psi * zeta[:, None], t, idx)
    phi_cols = _interval_integrals(phi * (delta * zeta)[:, None], t, idx)
    theta = np.hstack([psi_cols, phi_cols])

    half_sq = 0.5 * zeta**2
    drive_term = _interval_integrals((traj.z_input * zeta)[:, None], t, idx)[:, 0]
    targets = half_sq[idx[1:]] - half_sq[idx[:-1]] - drive_term
    return RegressionProblem(theta=theta, targets=targets, bases=(psi_basis, phi_basis))


def solve_phase_two(problem: RegressionProblem, delta_rel: float = 1e-6) -> Fit:
    """The guarded solve of the zeta-dynamics regression: parts (f1_hat, g1_hat).

    Theta carries +integral(phi * delta * zeta) and the model subtracts the
    g-term, so g1_hat is the negated phi block; `weights` stays the
    solve's own vector.
    """
    fit = guarded_solve(problem, delta_rel, "phase two")
    f1_hat, g1_block = fit.parts
    return replace(fit, parts=(f1_hat, Approximant(g1_block.basis, -g1_block.weights)))


class BacksteppedPolicy:
    """Final control law on (x, z) for the cascade plant.

    Combines the identified zeta dynamics, the phase-one learned policy
    (xi's base: xi is its rescaling, so one evaluation of it gives both
    terms) and the damping terms sized by the constant rho, rho1 = 2 rho
    and the cost margin.  The last term divides by rho^2, which the
    positivity of rho guarantees is safe.
    """

    def __init__(
        self,
        f1_hat: Approximant,
        g1_hat: Approximant,
        xi: RobustPolicy,
        rho: float,
        margin: float,
        control_weight: float,
    ):
        self.f1_hat = f1_hat
        self.g1_hat = g1_hat
        self.xi = xi
        self.rho = rho
        self.rho1 = 2.0 * rho
        self.margin = margin
        self.control_weight = control_weight
        self.eps2 = margin**2
        self.rho_sq = rho * rho
        self.rho1_sq = self.rho1 * self.rho1

    def evaluate_many(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        z = np.atleast_1d(np.asarray(z, dtype=float))
        learned = self.xi.base_policy.evaluate_many(x)
        zeta = z - self.xi.scale * learned  # xi.evaluate_many(x), bit for bit
        xz = np.hstack([x, z[:, None]])
        eps2, rho_sq, rho1_sq = self.eps2, self.rho_sq, self.rho1_sq
        g_hat = self.g1_hat.evaluate_many(x)
        return (
            -self.f1_hat.evaluate_many(xz)
            + 2.0 * self.control_weight * learned
            - g_hat**2 * rho1_sq * zeta / 4.0
            - eps2 * zeta
            - rho1_sq * zeta / 4.0
            # not eps2 * zeta / 2: the unreduced quotient rounds differently
            - eps2 * rho_sq * zeta / (2.0 * rho_sq)
        )

    def __call__(self, x, z) -> float:
        # evaluate_many's arithmetic, term for term, at one point on floats
        learned = self.xi.base_policy.evaluate(x)
        zeta = z - self.xi.scale * learned
        eps2, rho_sq, rho1_sq = self.eps2, self.rho_sq, self.rho1_sq
        g_hat = self.g1_hat.evaluate(x)
        return float(
            -self.f1_hat.evaluate([*x, z])
            + 2.0 * self.control_weight * learned
            - g_hat * g_hat * rho1_sq * zeta / 4.0
            - eps2 * zeta
            - rho1_sq * zeta / 4.0
            - eps2 * rho_sq * zeta / (2.0 * rho_sq)
        )


def backstepped_redesign_error(
    f1_true: Callable,
    f1_hat: Approximant,
    policy_true_next: Approximant,
    policy_hat_next: Approximant,
    g1_true: Callable,
    g1_hat: Approximant,
    rho1: float,
    xi: RobustPolicy,
    control_weight: float,
) -> Callable:
    """Certification-time gap of the backstepped law, on (x, zeta) points;
    `f1_true` and `g1_true` take the whole batch, as `cascade_truth` gives them,
    and rho1 = 2 rho is the constant of the augmented loop.

    Needs the true transformed dynamics and oracle policy, so it exists
    only where a model-based reference is available.
    """
    rho1_sq = rho1 * rho1

    def error(x: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        z = zeta + xi.evaluate_many(x)
        xz = np.hstack([x, z[:, None]])
        f_true = f1_true(x, z)
        g_true = g1_true(x)
        u_true = policy_true_next.evaluate_many(x)
        return (
            -f_true
            + f1_hat.evaluate_many(xz)
            + 2.0 * control_weight * (u_true - policy_hat_next.evaluate_many(x))
            - (g_true**2 - g1_hat.evaluate_many(x) ** 2) * rho1_sq * zeta / 4.0
        )

    return error


def cascade_truth(model: SystemModel, xi: RobustPolicy):
    """Ground-truth transformed dynamics from the model and the exact
    grad(xi) (`RobustPolicy.gradient_many`), on states x (P, n) and z (P,).

    Used only to build certification references; the learner never forms
    these derivatives.
    """

    def f1_bar(x, z):
        x, z = np.atleast_2d(x), np.asarray(z, dtype=float)
        flow = model.drift(x) + model.input_gain(x) * z[:, None]
        return model.f1(x, z) - np.sum(xi.gradient_many(x) * flow, axis=1)

    def g1_bar(x):
        x = np.atleast_2d(x)
        return np.sum(xi.gradient_many(x) * model.input_gain(x), axis=1)

    return f1_bar, g1_bar


def cascade_effective_gains(gains, kappa8: ClassKFunction, s_max: float) -> dict:
    """Fold the z-channel disturbance bounds into a matched-form gain set.

    kappa9 majorizes the z dependence through the xi envelope kappa8;
    the maxima with the x-channel gains give the effective (w-side,
    state-side) pair for the augmented loop.  Returns a copy of `gains`
    with kappa1 -> max(kappa1, kappa5) and kappa2 -> max(kappa2, kappa9).
    """
    kappa6, kappa7 = gains["kappa6"], gains["kappa7"]
    kappa9 = ClassKFunction(
        fn=lambda s: np.maximum(
            np.asarray(kappa6(s)),
            np.maximum(
                np.asarray(kappa7(np.asarray(kappa8(2.0 * np.asarray(s))))),
                np.asarray(kappa7(2.0 * np.asarray(s))),
            ),
        ),
        s_max=s_max,
        name="kappa9",
    )
    return {
        **gains,
        "kappa1": ClassKFunction.maximum(gains["kappa1"], gains["kappa5"]),
        "kappa2": ClassKFunction.maximum(gains["kappa2"], kappa9),
    }


def check_small_gain_cascade(gamma1: ClassKFunction, gains, kappa8: ClassKFunction, *,
                             s_max: float) -> tuple:
    """Ladder test of the augmented-loop gain inequality.

    `gains` is the loop's gain set (kappa1, kappa2, kappa3, lam_lo, and the
    envelopes alpha_lo, alpha_hi of the composite Lyapunov function) with
    the z-channel bounds kappa5, kappa6, kappa7; kappa8 is the xi envelope.
    The test is `check_small_gain` on the effective set of
    `cascade_effective_gains`.  Returns (report, effective set).
    """
    effective = cascade_effective_gains(gains, kappa8, s_max)
    return check_small_gain(gamma1, effective, s_max=s_max), effective
