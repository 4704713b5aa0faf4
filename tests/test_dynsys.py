import numpy as np
import pytest

from robustpi.dynsys import (
    Plant,
    SystemModel,
    integrate,
    lipschitz_probe,
    simulate_batch,
)
from robustpi.errors import NonFiniteDynamics, StateDivergence
from robustpi.experiments import (
    build_arm_system,
    build_cascade_system,
    build_scalar_plant,
)

from oracles import reference_integrate


def _scalar_model(drift):
    return SystemModel(
        n=1,
        drift=lambda x: drift(np.asarray(x, dtype=float)),
        input_gain=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )


def test_linear_decay_closed_form():
    model = _scalar_model(lambda x: -x)
    rec = integrate(
        model, None, lambda x, t: 0.0, [1.0], horizon=5.0, step=1e-3
    )
    assert rec.trajectory.x[-1, 0] == pytest.approx(np.exp(-5.0), abs=1e-8)


def test_arm_stays_in_operating_box_under_initial_policy():
    arm = build_arm_system()
    rec = integrate(
        arm.model,
        arm.uncertainty,
        lambda x, t: arm.initial_policy(x),
        arm.initial_state[1:],
        horizon=16.0,
        step=1e-3,
        w0=arm.initial_state[:1],
    )
    assert np.abs(rec.w).max() <= 1.0 + 1e-9
    assert np.abs(rec.trajectory.x[:, 0]).max() <= 0.8
    assert np.abs(rec.trajectory.x[:, 1]).max() <= 3.5


def test_finite_escape_raises_state_divergence():
    model = _scalar_model(lambda x: x**2)
    with pytest.raises(StateDivergence) as err:
        integrate(
            model, None, lambda x, t: 0.0, [2.0],
            horizon=1.0, step=1e-4, blowup=1e3,
        )
    # finite escape time for x0=2 is t=0.5
    assert "t =" in str(err.value)
    blow_time = float(str(err.value).split("t =")[1].split("s")[0])
    assert blow_time < 0.5


def test_non_finite_dynamics_detected():
    model = _scalar_model(lambda x: np.where(np.abs(x) > 1.5, np.nan, -x))
    with pytest.raises(NonFiniteDynamics):
        integrate(model, None, lambda x, t: 0.0, [2.0], horizon=1.0, step=1e-3)


def test_rk4_order_via_step_halving():
    arm = build_arm_system()

    def terminal(step):
        rec = integrate(
            arm.model,
            arm.uncertainty,
            lambda x, t: arm.initial_policy(x),
            arm.initial_state[1:],
            horizon=1.0,
            step=step,
            w0=arm.initial_state[:1],
        )
        return np.concatenate([rec.trajectory.x[-1], rec.w[-1]])

    h = 4e-3
    x_h, x_h2, x_h4 = terminal(h), terminal(h / 2), terminal(h / 4)
    ratio = np.linalg.norm(x_h - x_h2) / np.linalg.norm(x_h2 - x_h4)
    assert 8.0 <= ratio <= 32.0


def test_determinism_bit_identical():
    arm = build_arm_system()

    def run():
        rec = integrate(
            arm.model,
            arm.uncertainty,
            lambda x, t: arm.initial_policy(x) + 0.1 * np.sin(3.0 * t),
            arm.initial_state[1:],
            horizon=2.0,
            step=1e-3,
            w0=arm.initial_state[:1],
        )
        return rec

    a, b = run(), run()
    assert np.array_equal(a.trajectory.x, b.trajectory.x)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.trajectory.u, b.trajectory.u)


def test_learner_view_hides_the_uncertainty_state():
    arm = build_arm_system()
    plant = Plant(
        arm.model, arm.uncertainty, arm.initial_state[1:], step=1e-3,
        w0=arm.initial_state[:1],
    )
    traj = plant.observe(lambda x, t: arm.initial_policy(x), 0.5)
    assert not hasattr(traj, "w")
    assert plant.last_record.w is not None
    # composite channel equals control plus disturbance, never the parts
    k = 137
    x_k = traj.x[k]
    w_k = plant.last_record.w[k]
    expected = traj.u[k] + arm.uncertainty.matched_disturbance(w_k, x_k)
    assert traj.x_input[k] == pytest.approx(expected, rel=1e-12)


def test_controller_sampled_at_substages_not_held():
    # a time-ramp input integrated exactly: int_0^1 t dt = 0.5 needs the
    # substage values; zero-order hold at grid points would give 0.4995
    model = _scalar_model(lambda x: 0.0 * x)
    rec = integrate(model, None, lambda x, t: t, [0.0], horizon=1.0, step=1e-3)
    assert rec.trajectory.x[-1, 0] == pytest.approx(0.5, abs=1e-12)


def test_batch_matches_single_trajectories():
    arm = build_arm_system()
    x0s = np.array([[0.2, -0.5], [-0.3, 1.0], [0.1, 0.0]])
    w0s = np.array([[0.5], [-0.2], [0.0]])
    ts, xs, _, ws = simulate_batch(
        arm.model,
        arm.uncertainty,
        lambda X, t: arm.initial_policy(X),
        x0s,
        horizon=1.0,
        step=1e-3,
        w0_batch=w0s,
    )
    for i in range(3):
        rec = integrate(
            arm.model, arm.uncertainty, lambda x, t: arm.initial_policy(x),
            x0s[i], horizon=1.0, step=1e-3, w0=w0s[i],
        )
        assert np.allclose(rec.trajectory.x, xs[:, i, :], atol=1e-12)
        assert np.allclose(rec.w, ws[:, i, :], atol=1e-12)


def _closed_loop(name):
    """(model, uncertainty, controller, integrate keywords) for one plant."""
    if name == "arm":
        arm = build_arm_system()
        return (
            arm.model,
            arm.uncertainty,
            lambda x, t: arm.initial_policy(x) + 0.1 * np.sin(3.0 * t),
            dict(x0=arm.initial_state[1:], w0=arm.initial_state[:1]),
        )
    if name == "cascade":
        cas = build_cascade_system()
        return (
            cas.model,
            cas.uncertainty,
            lambda x, z, t: cas.drive_policy(x, z) + 0.3 * np.sin(2.0 * t),
            dict(x0=[0.5], z0=0.2, w0=[0.3]),
        )
    scalar = build_scalar_plant()
    return (
        scalar.model,
        None,
        lambda x, t: -0.4 * x[0] + 0.2 * np.sin(5.0 * t),
        dict(x0=[1.0]),
    )


@pytest.mark.parametrize("name", ["arm", "cascade", "scalar"])
def test_integrate_matches_reference_loop_exactly(name):
    model, uncertainty, controller, kw = _closed_loop(name)
    rec = integrate(model, uncertainty, controller, horizon=2.0, step=1e-3, **kw)
    ref = reference_integrate(model, uncertainty, controller, horizon=2.0, step=1e-3, **kw)
    traj = rec.trajectory
    got = {
        "t": traj.t, "x": traj.x, "u": traj.u, "x_input": traj.x_input,
        "z": traj.z, "z_input": traj.z_input, "w": rec.w,
    }
    for key, expected in ref.items():
        if expected is None:
            assert got[key] is None, key
        else:
            assert np.array_equal(got[key], expected), key


@pytest.mark.parametrize("name", ["arm", "cascade", "scalar"])
def test_controller_runs_once_per_stage(name):
    model, uncertainty, controller, kw = _closed_loop(name)
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return controller(*args)

    integrate(model, uncertainty, counting, horizon=0.5, step=1e-3, **kw)
    assert len(calls) == 4 * 500 + 1
    assert calls[-1] == pytest.approx(0.5)


def test_invalid_inputs_rejected():
    model = _scalar_model(lambda x: -x)
    with pytest.raises(ValueError):
        integrate(model, None, lambda x, t: 0.0, [1.0], horizon=1.0, step=-1e-3)
    with pytest.raises(ValueError):
        integrate(model, None, lambda x, t: 0.0, [1.0], horizon=1e-4, step=1e-3)
    with pytest.raises(ValueError):
        integrate(model, None, lambda x, t: 0.0, [np.inf], horizon=1.0, step=1e-3)


def test_lipschitz_probe_identity_and_square():
    assert lipschitz_probe(lambda x: x, [-1.0], [1.0]) == pytest.approx(1.0, abs=1e-12)
    quot = lipschitz_probe(lambda x: x**2, [-2.0], [2.0], samples=400)
    assert 4.0 - 0.05 <= quot <= 4.0 + 1e-9


def test_lipschitz_probe_arm_drift_finite():
    arm = build_arm_system()
    bound = lipschitz_probe(arm.model.drift, arm.region_low, arm.region_high)
    assert np.isfinite(bound) and bound > 0


def test_lipschitz_probe_rejects_bad_domains():
    with pytest.raises(ValueError):
        lipschitz_probe(lambda x: x, [1.0], [1.0])
    with pytest.raises(NonFiniteDynamics):
        lipschitz_probe(lambda x: np.full_like(x, np.nan), [-1.0], [1.0])
