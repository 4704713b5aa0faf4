"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's own solution paths:
closed forms, scipy matrix-equation solvers, finite differences and
brute-force enumeration only.  The seeded two-state linear plant of the
Kleinman-equivalence anchor lives here too, built on the package's model
types: no harness kind runs it.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.special import comb

from robustpi.basis import Approximant
from robustpi.dynsys import CostSpec, SystemModel
from robustpi.experiments import _constant_input_gain

SCALAR_OPTIMAL_P = np.sqrt(2.0) - 1.0  # value weight for dx=-x+u, Q=x^2, r=1
SCALAR_OPTIMAL_GAIN = -(np.sqrt(2.0) - 1.0)


def total_degree_count(dim: int, max_degree: int, include_constant: bool) -> int:
    """Multiset-coefficient count of total-degree monomials."""
    n = int(comb(dim + max_degree, dim))
    return n if include_constant else n - 1


def enumerate_multi_indices(dim: int, max_degree: int):
    """Brute-force enumeration over the full integer grid."""
    out = set()
    ranges = np.indices([max_degree + 1] * dim).reshape(dim, -1).T
    for alpha in ranges:
        if 0 < alpha.sum() <= max_degree:
            out.add(tuple(int(a) for a in alpha))
    return out


def kleinman_sequence(a, b, q, r, k0, n_steps):
    """Model-based iteration: Lyapunov solve, then gain update."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    k = np.asarray(k0, dtype=float).reshape(-1)
    out = []
    for _ in range(n_steps):
        a_cl = a - np.outer(b, k)
        rhs = -(q + r * np.outer(k, k))
        p = scipy.linalg.solve_continuous_lyapunov(a_cl.T, rhs)
        k_next = (b @ p) / r
        out.append((p, k_next))
        k = k_next
    return out


def riccati_solution(a, b, q, r):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    p = scipy.linalg.solve_continuous_are(a, b, q, np.array([[r]]))
    k = (b[:, 0] @ p) / r
    return p, k


def fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for d in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[d] += h
        lo[d] -= h
        g[d] = (fn(hi) - fn(lo)) / (2 * h)
    return g


def fd_jacobian(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for d in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[d] += h
        lo[d] -= h
        jac[:, d] = (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2 * h)
    return jac


def quadratic_weights_to_matrix(weights):
    """Graded-lex degree-2 weights (dim 2, vanishing) -> symmetric matrix.

    Layout: [x1, x2, x1^2, x1 x2, x2^2].
    """
    w = np.asarray(weights, dtype=float)
    return np.array([[w[2], w[3] / 2.0], [w[3] / 2.0, w[4]]])


def scalar_bisection_inverse(gain, y, tol=1e-12):
    """One-element bisection of gain.fn on [0, s_max], stopping once
    hi - lo <= tol * max(1, hi): the rule the gain inverse applies per
    element."""
    y = float(y)
    if y == 0.0:
        return 0.0
    lo, hi = 0.0, gain.s_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(gain.fn(np.asarray(mid))) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def scalar_chain_inverse(gain, y):
    """One-element inverse of a chained gain: its links last to first, a
    forward link inverted by `scalar_bisection_inverse` and an inverted
    link applied forward."""
    s = float(y)
    for link, inverted in reversed(gain.links):
        s = float(link.fn(np.asarray(s))) if inverted else scalar_bisection_inverse(link, s)
    return s


def uncompacted_bisect(fn, y, hi, *, tol, iters):
    """`robust._bisect` on full-length arrays: every step gathers the open
    elements from, and scatters them back to, arrays over all elements."""
    y = np.asarray(y, dtype=float)
    target = y.ravel()
    hi = np.array(np.broadcast_to(hi, y.shape), dtype=float).ravel()
    lo = np.zeros_like(hi)
    idx = np.flatnonzero(hi > 0)
    for _ in range(iters):
        if idx.size == 0:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        below = np.asarray(fn(mid, idx)) < target[idx]
        lo[idx[below]] = mid[below]
        hi[idx[~below]] = mid[~below]
        idx = idx[hi[idx] - lo[idx] > tol * np.maximum(1.0, hi[idx])]
    return (0.5 * (lo + hi)).reshape(y.shape)


def loop_lipschitz_probe(fn, low, high, samples=200, seed=0):
    """`dynsys.lipschitz_probe` with one `np.linalg.norm` per pair and per
    offset row: the same seeded cloud, pairs and offsets, quotient by
    quotient in Python."""
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(low, high, size=(samples, low.size))
    pts = np.vstack([pts, low[None, :], high[None, :]])

    def f(x):
        return np.asarray(fn(x), dtype=float).reshape(len(x), -1)

    vals = f(pts)
    best = 0.0
    for i, j in rng.integers(0, len(pts), size=(4 * samples, 2)):
        if i == j:
            continue
        dist = np.linalg.norm(pts[i] - pts[j])
        if dist < 1e-12:
            continue
        best = max(best, np.linalg.norm(vals[i] - vals[j]) / dist)
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


def reference_integrate(model, uncertainty, controller, x0, *, horizon, step, z0=None, w0=None):
    """Fixed-step RK4 that evaluates the controller and disturbance maps a
    second time at every grid node to record u, x_input and z_input
    (5 * n_steps + 1 controller calls).  Returns the history arrays
    t, x, u, x_input, z, z_input, w (None where a channel is absent)."""
    n = model.n
    has_z = model.has_z_channel
    p = uncertainty.p if uncertainty is not None else 0
    n_steps = int(round(horizon / step))
    size = n + (1 if has_z else 0) + p

    def rhs(t, s):
        x = s[:n]
        z = s[n] if has_z else None
        w = s[n + (1 if has_z else 0):] if p else None
        u = controller(x, z, t) if has_z else controller(x, t)
        delta = uncertainty.matched_disturbance(w, x) if uncertainty else 0.0
        xin = (z + delta) if has_z else (u + delta)
        ds = np.empty(size)
        ds[:n] = model.drift(x) + model.input_gain(x) * xin
        if has_z:
            d1 = (
                uncertainty.unmatched_disturbance(w, x, z)
                if uncertainty is not None and uncertainty.unmatched_disturbance
                else 0.0
            )
            ds[n] = model.f1(x, z) + u + d1
        if p:
            ds[n + (1 if has_z else 0):] = uncertainty.w_dynamics(w, x)
        return ds

    ts = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, size))
    u_rec = np.empty(n_steps + 1)
    xin_rec = np.empty(n_steps + 1)
    zin_rec = np.empty(n_steps + 1) if has_z else None

    x0 = np.asarray(x0, dtype=float).reshape(n)
    w0 = np.asarray(w0, dtype=float).reshape(p) if p else None
    s = np.concatenate([x0, [z0] if has_z else [], w0 if p else []])
    h = step
    for k in range(n_steps + 1):
        t = k * h
        x = s[:n]
        z = s[n] if has_z else None
        w = s[n + (1 if has_z else 0):] if p else None
        u = controller(x, z, t) if has_z else controller(x, t)
        delta = uncertainty.matched_disturbance(w, x) if uncertainty else 0.0
        ts[k] = t
        states[k] = s
        u_rec[k] = u
        xin_rec[k] = (z + delta) if has_z else (u + delta)
        if has_z:
            d1 = (
                uncertainty.unmatched_disturbance(w, x, z)
                if uncertainty is not None and uncertainty.unmatched_disturbance
                else 0.0
            )
            zin_rec[k] = u + d1
        if k == n_steps:
            break
        k1 = rhs(t, s)
        k2 = rhs(t + h / 2, s + (h / 2) * k1)
        k3 = rhs(t + h / 2, s + (h / 2) * k2)
        k4 = rhs(t + h, s + h * k3)
        s = s + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    return {
        "t": ts,
        "x": states[:, :n].copy(),
        "u": u_rec,
        "x_input": xin_rec,
        "z": states[:, n].copy() if has_z else None,
        "z_input": zin_rec,
        "w": states[:, n + (1 if has_z else 0):].copy() if p else None,
    }


def pow_factors(pts, powers):
    """x_d ** alpha_d for every (point, monomial, dim), by numpy's float pow:
    the factors the design matrix used before its table of products."""
    return pts[:, None, :] ** powers[None, :, :]


def product_factors(pts, powers):
    """The factors of `pow_factors` by repeated multiplication, in its memory
    layout: x^k is 1.0 multiplied by x, k times, one factor at a time."""
    x = pts[:, None, :] * np.ones(powers.shape)  # 1.0 * x is x, bit for bit
    factors = np.ones_like(x)
    for k in range(1, int(powers.max()) + 1):
        np.multiply(factors, x, out=factors, where=powers >= k)
    return factors


def broadcast_design_matrix(basis, points, factors=pow_factors):
    """Monomials by one factor per (point, monomial, dim), then a product
    over dims, left to right."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.prod(factors(pts, basis.powers), axis=2)


def broadcast_gradient_tensor(basis, points, factors=pow_factors):
    """Gradients (P, N, dim) by the same broadcast expression, one lowered
    exponent set per dim."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    powers = basis.powers
    grad = np.empty((pts.shape[0], len(basis), basis.dim))
    for d in range(basis.dim):
        dropped = powers.copy()
        dropped[:, d] = np.maximum(dropped[:, d] - 1, 0)
        mono = np.prod(factors(pts, dropped), axis=2)
        grad[:, :, d] = powers[None, :, d] * mono
    return grad


def ordered_dot(values, weights):
    """sum_i values[i] * weights[i], added left to right from 0.0 on
    Python floats: neither BLAS's blocked order nor a compensated sum."""
    acc = 0.0
    for v, w in zip(np.asarray(values, dtype=float).tolist(), np.asarray(weights).tolist()):
        acc += v * w
    return acc


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u = 2**-53: the relative error
    bound of a product of n + 1 floats computed with n roundings."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def check_basic(gain, positive_definite_only=False):
    """f(0) = 0 and strict increase along a 60-point log ladder.

    With `positive_definite_only` (decay-rate bounds, only required to be
    positive away from zero) the monotonicity check is skipped.
    """
    from robustpi.robust import log_ladder

    if abs(float(gain.fn(np.asarray(0.0)))) > 1e-12:
        return False
    vals = gain.fn(log_ladder(gain.s_max, 60))
    if positive_definite_only:
        return bool(np.all(vals > 0))
    return bool(np.all(np.diff(vals) > 0) and vals[0] > 0)


def mean_exploration_noise(noise, t):
    """The exploration signal as a mean over its sinusoids, with the angular
    frequencies formed inside the call."""
    t = np.asarray(t, dtype=float)
    args = 2.0 * np.pi * noise.frequencies * t[..., None] + noise.phases
    return noise.amplitude * np.mean(np.sin(args), axis=-1)


def stacked_arm_drift(params, x):
    """Nominal arm drift (x2, -(2 m g l / I) g(x1)) assembled with np.stack."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * x[..., 0]
    shape = np.sin(half) * np.sin(half + params.target_angle)
    dx2 = -(2.0 * params.torque_scale / params.inertia) * shape
    return np.stack([x[..., 1], dx2], axis=-1)


def joint_angle(params, x1):
    """Transformed arm coordinate back to the physical joint angle."""
    return np.asarray(x1) + params.target_angle


def angle_offset(params, theta):
    """Physical joint angle to the transformed arm coordinate."""
    return np.asarray(theta) - params.target_angle


def arm_transformed_rhs(params, state, u):
    """Full transformed arm dynamics (w, x1, x2) with the gravity shape on
    numpy arrays: the reference for the split into plant and hidden channel."""
    state = np.asarray(state, dtype=float)
    w, x1, x2 = state[..., 0], state[..., 1], state[..., 2]
    mgl2 = 2.0 * params.torque_scale
    half = 0.5 * x1
    gs = np.sin(half) * np.sin(half + params.target_angle)
    dw = -params.leak_rate * (w + params.inertia * x2) + mgl2 * gs
    dx1 = x2
    dx2 = (-mgl2 * gs + u + params.inertia * x2 + w) / params.inertia
    return np.stack([dw, dx1, dx2], axis=-1)


def arm_linearization(params):
    """Closed-loop Jacobian of the transformed arm at the origin under the
    declared initial policy -0.5*x1 - 0.5*x2."""
    c = params.leak_rate
    inertia = params.inertia
    k = params.torque_scale * np.sin(params.target_angle)
    b1, b2 = 0.5, 0.5
    return np.array(
        [
            [-c, k, -c * inertia],
            [0.0, 0.0, 1.0],
            [1.0 / inertia, (-k - b1) / inertia, 1.0 - b2 / inertia],
        ]
    )


def per_candidate_select_rho(rho_ladder, margin, gain_set, *, s_max, relative_margin=0.10):
    """Smallest ladder rho passing the small-gain test, one full
    `check_small_gain` per candidate with its `iss_gain_from_rho` gain: the
    loop `select_rho` ran before it scored the ladder as one array.  Returns
    (rho_value, report), or None when no entry qualifies."""
    from robustpi.robust import check_small_gain, iss_gain_from_rho

    for rho_val in np.asarray(rho_ladder, dtype=float):
        gamma = iss_gain_from_rho(float(rho_val), margin)
        report = check_small_gain(gamma, gain_set, s_max=s_max)
        if report.holds and report.relative_margin >= relative_margin:
            return float(rho_val), report
    return None


def reference_assemble_regression(window, basis_value, basis_policy, current_policy, cost):
    """The regression as `online_pi.assemble_regression` built it before the
    window kept its design matrices: both matrices and the policy's values
    rebuilt from the dense states at every call."""
    from robustpi.basis import policy_values
    from robustpi.online_pi import RegressionProblem, _interval_integrals

    traj = window.trajectory
    idx = window.sample_indices
    x = traj.x
    t = traj.t

    u_i = policy_values(current_policy, x)
    v = traj.x_input - u_i

    phi_v = basis_value.design_matrix(x)
    phi_u = basis_policy.design_matrix(x)
    r = cost.control_weight

    delta_phi = phi_v[idx[1:]] - phi_v[idx[:-1]]
    policy_cols = 2.0 * r * _interval_integrals(phi_u * v[:, None], t, idx)
    theta = np.hstack([delta_phi, policy_cols])

    running = cost.state_cost(x) + r * u_i**2
    targets = -_interval_integrals(running[:, None], t, idx)[:, 0]
    return RegressionProblem(theta=theta, targets=targets, bases=(basis_value, basis_policy))


@dataclass
class LinearBenchmark:
    model: SystemModel
    cost: CostSpec
    initial_policy: Callable
    a_matrix: np.ndarray
    b_vector: np.ndarray
    q_matrix: np.ndarray
    r_weight: float
    initial_gain: np.ndarray
    region_low: np.ndarray
    region_high: np.ndarray


def build_linear_plant(seed: int = 3) -> LinearBenchmark:
    """Random stabilizable 2-state plant with a deliberately loose K0.

    K0 is the optimal gain pushed away from the optimum and backed off
    (deterministically) until the loop is stable again, so the learner
    has a nontrivial iterate sequence to reproduce.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        b = rng.uniform(0.5, 1.5, size=2)
        ctrb = np.column_stack([b, a @ b])
        if abs(np.linalg.det(ctrb)) > 0.2:
            break
    q = np.eye(2)
    r = 1.0
    p_opt = scipy.linalg.solve_continuous_are(a, b[:, None], q, np.array([[r]]))
    k_opt = (b @ p_opt) / r
    k0 = None
    offset = rng.uniform(0.5, 1.5, size=2)
    for shrink in [1.0, 0.5, 0.25, 0.125, 0.0625]:
        cand = k_opt + shrink * offset
        if np.all(np.real(np.linalg.eigvals(a - np.outer(b, cand))) < -1e-6):
            k0 = cand
            break
    if k0 is None:
        k0 = k_opt

    def drift(x):
        x = np.asarray(x, dtype=float)
        return x @ a.T

    def state_cost(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, q, x)

    return LinearBenchmark(
        model=SystemModel(n=2, drift=drift, input_gain=_constant_input_gain(b)),
        cost=CostSpec(state_cost=state_cost, control_weight=r, margin=0.5),
        initial_policy=lambda x, t=None: -np.asarray(x, dtype=float) @ k0,
        a_matrix=a,
        b_vector=b,
        q_matrix=q,
        r_weight=r,
        initial_gain=k0,
        region_low=np.array([-1.0, -1.0]),
        region_high=np.array([1.0, 1.0]),
    )


def hjb_residual(
    model: SystemModel, cost: CostSpec, value: Approximant, grid: np.ndarray
) -> float:
    """Sup-norm on the grid of the optimality PDE residual for `value`."""
    grid = np.atleast_2d(grid)
    f = model.drift(grid)
    g = model.input_gain(grid)
    grad = value.gradient_many(grid)
    gv = np.einsum("pd,pd->p", g, grad)
    res = (
        np.einsum("pd,pd->p", grad, f)
        + cost.state_cost(grid)
        - gv**2 / (4.0 * cost.control_weight)
    )
    return float(np.max(np.abs(res)))
