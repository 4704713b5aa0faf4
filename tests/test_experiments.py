import numpy as np
import pytest

from robustpi.basis import Approximant, BasisSet, make_polynomial_basis
from robustpi.dynsys import Plant, Trajectory, integrate
from robustpi.experiments import (
    ArmParameters,
    build_arm_system,
    build_cascade_system,
    build_scalar_plant,
    cost_surface_compare,
    speed_profile_analysis,
)
from robustpi.online_pi import ExplorationNoise, run_online_pi

from oracles import (
    angle_offset,
    arm_linearization,
    arm_transformed_rhs,
    build_linear_plant,
    fd_jacobian,
    joint_angle,
    stacked_arm_drift,
)


def test_transformed_dynamics_vanish_at_origin():
    params = ArmParameters()
    rhs = arm_transformed_rhs(params, np.zeros(3), 0.0)
    assert np.linalg.norm(rhs) <= 1e-10


def test_coordinate_map_round_trip():
    params = ArmParameters()
    assert joint_angle(params, -np.pi / 4) == pytest.approx(0.0)
    assert angle_offset(params, 0.0) == pytest.approx(-np.pi / 4)
    assert angle_offset(params, joint_angle(params, 0.123)) == pytest.approx(0.123)


def test_parameters_must_be_positive():
    with pytest.raises(ValueError):
        ArmParameters(mass=-1.0)
    with pytest.raises(ValueError):
        ArmParameters(tau_n=0.0)


def test_linearization_matches_fd_jacobian():
    params = ArmParameters()

    def closed_loop(state):
        u = -0.5 * state[1] - 0.5 * state[2]
        return arm_transformed_rhs(params, state, u)

    analytic = arm_linearization(params)
    numeric = fd_jacobian(closed_loop, np.zeros(3))
    assert np.max(np.abs(analytic - numeric)) <= 1e-8


def test_initial_policy_is_stabilizing_across_time_constants():
    # gravity is restoring toward the target posture: the weak declared
    # policy must close a stable loop for every plausible time constant
    for tau in (0.05, 0.1, 0.2):
        a = arm_linearization(ArmParameters(tau_n=tau))
        assert np.max(np.real(np.linalg.eigvals(a))) < 0


def test_split_consistency_with_transformed_dynamics():
    # drift + gain*(u + disturbance) reassembles the full x-equations
    arm = build_arm_system()
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = rng.uniform([-1, -0.8, -3.5], [1, 0.8, 3.5])
        u = rng.uniform(-2, 2)
        w, x = state[:1], state[1:]
        full = arm_transformed_rhs(ArmParameters(), state, u)
        delta = arm.uncertainty.matched_disturbance(w, x)
        split = arm.model.drift(x) + arm.model.input_gain(x) * (u + delta)
        assert np.allclose(split, full[1:], atol=1e-12)
        assert np.allclose(arm.uncertainty.w_dynamics(w, x), full[:1], atol=1e-12)


def test_declared_disturbance_bound_holds():
    arm = build_arm_system()
    gains = arm.uncertainty.iss_bounds
    rng = np.random.default_rng(1)
    for _ in range(500):
        w = rng.uniform(-2, 2, size=1)
        x = rng.uniform([-0.8, -3.5], [0.8, 3.5])
        delta = abs(arm.uncertainty.matched_disturbance(w, x))
        bound = max(
            float(gains["kappa1"](abs(w[0]))),
            float(gains["kappa2"](np.linalg.norm(x))),
        )
        assert delta <= bound + 1e-12


def test_declared_lyapunov_sandwich_and_decay():
    arm = build_arm_system()
    gains = arm.uncertainty.iss_bounds
    w_fn = gains["W"]
    rng = np.random.default_rng(2)
    for _ in range(500):
        w = rng.uniform(-2, 2, size=1)
        x = rng.uniform([-0.8, -3.5], [0.8, 3.5])
        wv = float(w_fn(w))
        assert float(gains["lam_lo"](abs(w[0]))) <= wv <= float(gains["lam_hi"](abs(w[0]))) + 1e-12
        if wv >= float(gains["kappa3"](np.linalg.norm(x))):
            # analytic gradient of W = w^2 is 2w
            derivative = 2.0 * w[0] * arm.uncertainty.w_dynamics(w, x)[0]
            assert derivative <= -float(gains["kappa4"](abs(w[0]))) + 1e-9


def test_cost_margin_keeps_state_cost_positive():
    arm = build_arm_system()
    rng = np.random.default_rng(3)
    pts = rng.uniform([-0.8, -3.5], [0.8, 3.5], size=(500, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-6]
    q0 = arm.cost.state_cost(pts) - arm.cost.margin**2 * np.sum(pts**2, axis=1)
    assert np.all(q0 > 0)


def test_cascade_declared_gains_hold():
    bench = build_cascade_system()
    gains = bench.uncertainty.iss_bounds
    rng = np.random.default_rng(4)
    for _ in range(500):
        w = rng.uniform(-3, 3, size=1)
        x = rng.uniform(-1.5, 1.5, size=1)
        z = rng.uniform(-1.5, 1.5)
        delta = abs(bench.uncertainty.matched_disturbance(w, x))
        assert delta <= max(
            float(gains["kappa1"](abs(w[0]))), float(gains["kappa2"](abs(x[0])))
        ) + 1e-12
        d1 = abs(bench.uncertainty.unmatched_disturbance(w, x, z))
        assert d1 <= max(
            float(gains["kappa5"](abs(w[0]))),
            float(gains["kappa6"](abs(x[0]))),
            float(gains["kappa7"](abs(z))),
        ) + 1e-12
        wv = float(gains["W"](w))
        if wv >= float(gains["kappa3"](abs(x[0]))):
            derivative = 2.0 * w[0] * bench.uncertainty.w_dynamics(w, x)[0]
            assert derivative <= -float(gains["kappa4"](abs(w[0]))) + 1e-9


def test_linear_benchmark_is_stabilizable_with_loose_start():
    bench = build_linear_plant(3)
    ctrb = np.column_stack([bench.b_vector, bench.a_matrix @ bench.b_vector])
    assert np.linalg.matrix_rank(ctrb) == 2
    a_cl = bench.a_matrix - np.outer(bench.b_vector, bench.initial_gain)
    assert np.max(np.real(np.linalg.eigvals(a_cl))) < 0


def test_scalar_benchmark_shapes():
    bench = build_scalar_plant()
    x = np.array([[0.5], [-1.0]])
    assert bench.model.drift(x).shape == (2, 1)
    assert bench.cost.state_cost(x).shape == (2,)


def _movement_trajectory(speed_fn, position_fn, horizon=1.0, step=1e-3):
    t = np.arange(0, horizon + 1e-12, step)
    x = np.stack([position_fn(t), speed_fn(t)], axis=1)
    return Trajectory(t=t, x=x, u=np.zeros(t.size), x_input=np.zeros(t.size))


def test_speed_profile_single_bell():
    traj = _movement_trajectory(
        lambda t: np.sin(np.pi * t), lambda t: 1.0 - t, horizon=1.0
    )
    profile = speed_profile_analysis(traj)
    assert profile.peak_count == 1
    assert profile.peak_time == pytest.approx(0.5, abs=2e-3)
    assert profile.symmetry_index <= 0.05


def test_speed_profile_two_bumps():
    traj = _movement_trajectory(
        lambda t: np.where(t < 0.5, np.sin(2 * np.pi * t), 0.6 * np.sin(2 * np.pi * t)),
        lambda t: 1.0 - t,
        horizon=1.0,
    )
    profile = speed_profile_analysis(traj)
    assert profile.peak_count == 2


def test_cost_surface_compare_closed_forms():
    basis = BasisSet(dim=2, indices=((2, 0), (0, 2)))
    v0 = Approximant(basis, np.array([2.0, 1.0]))
    same = cost_surface_compare(v0, v0, [-1, -1], [1, 1], n=21)
    assert same["reduction_fraction"] == 0.0
    half = Approximant(basis, np.array([1.0, 0.5]))
    halved = cost_surface_compare(v0, half, [-1, -1], [1, 1], n=21)
    assert halved["reduction_fraction"] == 1.0
    assert halved["max_ratio"] == pytest.approx(0.5)


@pytest.mark.slow
def test_conclusions_robust_to_time_constant():
    # bell-shaped learned movement and quick convergence must not hinge
    # on the modelling choice for the hidden channel's time constant
    for tau in (0.05, 0.1, 0.2):
        arm = build_arm_system(ArmParameters(tau_n=tau))
        plant = Plant(
            arm.model, arm.uncertainty, arm.x0, step=1e-3,
            w0=arm.w0,
        )
        noise = ExplorationNoise(amplitude=2.0, seed=9, freq_low=0.02, freq_high=1.0)
        bv = make_polynomial_basis(2, 5)
        bu = make_polynomial_basis(2, 5)
        result = run_online_pi(
            plant, arm.initial_policy, noise, bv, bu, arm.cost,
            interval=0.1, n_intervals=160, delta_rel=1e-12, tol=1e-3, max_iter=16,
        )
        assert result.converged_iteration is not None
        assert result.converged_iteration <= 12
        rec = integrate(
            arm.model, arm.uncertainty,
            lambda x, t: result.final_policy.evaluate(x),
            arm.x0, horizon=5.0, step=1e-3,
            w0=arm.w0,
        )
        profile = speed_profile_analysis(rec.trajectory)
        assert profile.peak_count == 1, f"tau_n={tau}"


def test_arm_drift_matches_stacked_form_exactly():
    params = ArmParameters()
    drift = build_arm_system(params).model.drift
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(64, 2)) * 2.0
    for x in (np.array([0.3, -1.2]), np.zeros(2), batch, np.asfortranarray(batch), batch[::3]):
        got = drift(x)
        want = stacked_arm_drift(params, x)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous


def test_constant_input_gains_are_shared_tuples_and_fresh_arrays():
    arm = build_arm_system()
    inertia = ArmParameters().inertia
    linear = build_linear_plant()
    plants = (
        (arm.model, np.array([0.3, -1.2]), lambda x: np.where(np.arange(2) == 1, 1.0 / inertia, 0.0)),
        (build_scalar_plant().model, np.array([0.4]), np.ones_like),
        (build_cascade_system().model, np.array([-0.2]), np.ones_like),
        (linear.model, np.array([0.1, 0.5]), lambda x: linear.b_vector.copy()),
    )
    for model, x, old_form in plants:
        gain = model.input_gain(x)
        row = model.input_gain(x.tolist())
        assert row is model.input_gain((x + 1.0).tolist()) and row == tuple(gain.tolist())
        assert np.array_equal(gain, old_form(x))
        assert gain.dtype == float and gain.shape == x.shape and gain.flags.writeable
        # a batch gets its own writable (B, n) array too
        batch = np.stack([x, 2.0 * x, -x])
        rows = model.input_gain(batch)
        assert rows.shape == batch.shape and rows.flags.writeable
        assert all(np.array_equal(row, gain) for row in rows)
    # the zeros_like form the arm used to build at every call
    old = np.zeros_like(np.array([0.3, -1.2]))
    old[..., 1] = 1.0 / inertia
    assert np.array_equal(arm.model.input_gain(np.array([0.3, -1.2])), old)


def test_arm_maps_share_gravity_shape_exactly():
    # drift and w_dynamics at one state given as lists compute the gravity
    # shape on Python floats, each call afresh; every state, as an array or a
    # list, repeated or alternating with others, must give the numpy form's
    # bits, zero sign and NaN included
    params = ArmParameters()
    arm = build_arm_system(params)
    drift, w_dynamics = arm.model.drift, arm.uncertainty.w_dynamics
    rng = np.random.default_rng(9)
    states = [np.array(x) for x in rng.normal(size=(30, 2))]
    states += [np.array([0.0, 1.0]), np.array([-0.0, 1.0]), np.array([0.0, 1.0]),
               np.array([np.nan, 0.5]), np.array([np.nan, 0.5]), np.array([0.25, 0.5])]
    states += [states[3], states[3], states[7]]
    w = np.array([0.4])
    for x in states:
        full = arm_transformed_rhs(params, np.concatenate([w, x]), 0.0)
        for got, want in (
            (drift(x), stacked_arm_drift(params, x)),
            (w_dynamics(w, x), full[:1]),
            (w_dynamics(w, x.copy()), full[:1]),
            (drift(x.copy()), stacked_arm_drift(params, x)),
            (w_dynamics(w.tolist(), x.tolist()), full[:1]),
            (drift(x.tolist()), stacked_arm_drift(params, x)),
        ):
            assert np.asarray(got, dtype=float).tobytes() == want.tobytes(), x
        # a batch in between goes through the array path
        batch = np.stack([x, x[::-1]])
        assert np.array_equal(drift(batch), stacked_arm_drift(params, batch), equal_nan=True)


def _map_states(size, seed):
    """Random states of `size` entries over six decades, then one state per
    (entry, value) with a signed zero, a NaN or an infinity at that entry."""
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=size) * 10.0 ** rng.integers(-3, 3) for _ in range(200)]
    for j in range(size):
        for value in (0.0, -0.0, np.nan, np.inf, -np.inf):
            row = rng.normal(size=size)
            row[j] = value
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("name", ["arm", "cascade"])
def test_single_state_maps_equal_their_batch_rows_exactly(name):
    # at one state given as lists the plant maps compute on Python floats (the
    # arm's gravity shape with math.sin), for arrays on numpy; every value must
    # have the bits of its batch row, or integrate and simulate_batch part ways.
    # This is also the check that math.sin and np.sin agree on the host that
    # runs it: where they differ, it fails instead of letting artifacts drift.
    plant = build_arm_system() if name == "arm" else build_cascade_system()
    model, unc = plant.model, plant.uncertainty
    n, nz = model.n, int(model.has_z_channel)
    states = _map_states(n + nz + unc.p, seed=11)
    xs, ws = states[:, :n], states[:, n + nz:]
    zs = states[:, n] if nz else None

    def maps(x, w, z):
        out = {
            "drift": model.drift(x),
            "input_gain": model.input_gain(x),
            "w_dynamics": unc.w_dynamics(w, x),
            "matched": unc.matched_disturbance(w, x),
        }
        if nz:
            out["f1"] = model.f1(x, z)
            out["unmatched"] = unc.unmatched_disturbance(w, x, z)
            out["drive_policy"] = plant.drive_policy(x, z)
        else:
            out["initial_policy"] = plant.initial_policy(x)
        return out

    with np.errstate(invalid="ignore", over="ignore"):
        batch = maps(xs, ws, zs)
        for i, state in enumerate(states):
            z = float(zs[i]) if nz else None
            # a state (n,) takes the array path; the lists of Python floats
            # are what the one-trajectory RK4 stage passes
            for form, single in (
                ("array", maps(xs[i].copy(), ws[i].copy(), z)),
                ("list", maps(xs[i].tolist(), ws[i].tolist(), z)),
            ):
                for key, value in single.items():
                    got = np.asarray(value, dtype=float)
                    assert got.shape == batch[key][i].shape, (name, form, key)
                    assert got.tobytes() == batch[key][i].tobytes(), (name, form, key, state)
