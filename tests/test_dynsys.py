import dataclasses

import numpy as np
import pytest

from robustpi.dynsys import (
    Plant,
    SystemModel,
    UncertaintyModel,
    _exceeds,
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

from oracles import loop_lipschitz_probe, reference_integrate


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
        arm.x0,
        horizon=16.0,
        step=1e-3,
        w0=arm.w0,
    )
    assert np.abs(rec.w).max() <= 1.0 + 1e-9
    assert np.abs(rec.trajectory.x[:, 0]).max() <= 0.8
    assert np.abs(rec.trajectory.x[:, 1]).max() <= 3.5


def _run_batch(model, uncertainty, controller, x0, *, z0=None, w0=None, **kw):
    """The same run as a one-row bundle through `simulate_batch`."""
    return simulate_batch(
        model, uncertainty, controller, [x0],
        z0_batch=None if z0 is None else [z0],
        w0_batch=None if w0 is None else [w0],
        **kw,
    )


def _run_two_rows(model, uncertainty, controller, x0, *, z0=None, w0=None, **kw):
    """The same start twice: a bundle that steps on (B, size) arrays."""
    return simulate_batch(
        model, uncertainty, controller, [x0, x0],
        z0_batch=None if z0 is None else [z0, z0],
        w0_batch=None if w0 is None else [w0, w0],
        **kw,
    )


# the front-ends of the one RK4 kernel: integrate and a one-row bundle step on
# floats, a two-row bundle on arrays; the tests below loop over them
FRONT_ENDS = (integrate, _run_batch, _run_two_rows)


def test_finite_escape_raises_state_divergence():
    model = _scalar_model(lambda x: x**2)
    for run in FRONT_ENDS:
        with pytest.raises(StateDivergence) as err:
            run(
                model, None, lambda x, t: 0.0, [2.0],
                horizon=1.0, step=1e-4, blowup=1e3,
            )
        # finite escape time for x0=2 is t=0.5
        assert "t =" in str(err.value)
        blow_time = float(str(err.value).split("t =")[1].split("s")[0])
        assert blow_time < 0.5


def test_non_finite_dynamics_detected():
    model = _scalar_model(lambda x: np.where(np.abs(x) > 1.5, np.nan, -x))
    for run in FRONT_ENDS:
        with pytest.raises(NonFiniteDynamics):
            run(model, None, lambda x, t: 0.0, [2.0], horizon=1.0, step=1e-3)


def test_rk4_order_via_step_halving():
    arm = build_arm_system()

    def terminal(step):
        rec = integrate(
            arm.model,
            arm.uncertainty,
            lambda x, t: arm.initial_policy(x),
            arm.x0,
            horizon=1.0,
            step=step,
            w0=arm.w0,
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
            arm.x0,
            horizon=2.0,
            step=1e-3,
            w0=arm.w0,
        )
        return rec

    a, b = run(), run()
    assert np.array_equal(a.trajectory.x, b.trajectory.x)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.trajectory.u, b.trajectory.u)


def test_learner_view_hides_the_uncertainty_state():
    arm = build_arm_system()
    plant = Plant(
        arm.model, arm.uncertainty, arm.x0, step=1e-3,
        w0=arm.w0,
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


def _closed_loop(name):
    """(model, uncertainty, controller, integrate keywords) for one plant."""
    if name == "arm":
        arm = build_arm_system()
        return (
            arm.model,
            arm.uncertainty,
            lambda x, t: arm.initial_policy(x) + 0.1 * np.sin(3.0 * t),
            dict(x0=arm.x0, w0=arm.w0),
        )
    if name == "cascade":
        cas = build_cascade_system()
        return (
            cas.model,
            cas.uncertainty,
            lambda x, z, t: cas.drive_policy(x, z) + 0.3 * np.sin(2.0 * t),
            dict(x0=[0.5], z0=0.2, w0=[0.3]),
        )
    if name == "asarray":
        return _asarray_closed_loop()
    scalar = build_scalar_plant()
    return (
        scalar.model,
        None,
        lambda x, t: -0.4 * x[0] + 0.2 * np.sin(5.0 * t),
        dict(x0=[1.0]),
    )


def _asarray_closed_loop():
    """A cascade plant written only for arrays: every map converts its
    inputs with np.asarray and returns ndarrays, 0-d ones for the scalar
    maps, as a plant written for batches does."""

    def arr(v):
        return np.asarray(v, dtype=float)

    model = SystemModel(
        n=2,
        drift=lambda x: arr(x)[..., ::-1] * [1.0, -0.5] - 0.1 * arr(x) ** 3,
        input_gain=lambda x: np.ones_like(arr(x)) * [0.0, 1.5],
        f1=lambda x, z: arr(x)[..., 0] * arr(z),
    )
    uncertainty = UncertaintyModel(
        p=2,
        w_dynamics=lambda w, x: -2.0 * arr(w) + 0.25 * arr(x)[..., ::-1],
        matched_disturbance=lambda w, x: 0.5 * arr(w)[..., 0],
        unmatched_disturbance=lambda w, x, z: 0.2 * arr(w)[..., 1],
    )
    return (
        model,
        uncertainty,
        lambda x, z, t: -2.0 * arr(z) - arr(x)[..., 1] + 0.3 * np.sin(2.0 * t),
        dict(x0=[0.5, -0.2], z0=0.2, w0=[0.3, -0.1]),
    )


# three starts per plant, stacked on the batch axis
BATCH_STARTS = {
    "arm": dict(x0=[[0.2, -0.5], [-0.3, 1.0], [0.1, 0.0]], w0=[[0.5], [-0.2], [0.0]]),
    "cascade": dict(x0=[[0.5], [-0.4], [0.1]], z0=[0.2, -0.3, 0.0], w0=[[0.3], [0.0], [-0.5]]),
    "scalar": dict(x0=[[1.0], [-0.5], [0.25]]),
}


def _batch_matches_single(name):
    model, uncertainty, controller, _ = _closed_loop(name)
    if name == "scalar":
        # the single-trajectory controller reads x[0], a whole row of a batch;
        # one state is a list, so x[..., 0] needs `np.asarray` first
        def controller(x, t):
            return -0.4 * np.asarray(x)[..., 0] + 0.2 * np.sin(5.0 * t)

    starts = BATCH_STARTS[name]
    ts, xs, zs, ws = simulate_batch(
        model, uncertainty, controller, starts["x0"], horizon=1.0, step=1e-3,
        z0_batch=starts.get("z0"), w0_batch=starts.get("w0"),
    )
    for i in range(3):
        rec = integrate(
            model, uncertainty, controller, starts["x0"][i], horizon=1.0, step=1e-3,
            **{key: starts[key][i] for key in ("z0", "w0") if key in starts},
        )
        assert np.array_equal(ts, rec.trajectory.t)
        assert np.array_equal(xs[:, i], rec.trajectory.x)
        assert (zs is None) == (rec.trajectory.z is None)
        assert zs is None or np.array_equal(zs[:, i], rec.trajectory.z)
        assert (ws is None) == (rec.w is None)
        assert ws is None or np.array_equal(ws[:, i], rec.w)


def test_batch_matches_single_trajectories():
    # bit for bit: the matched-only arm, the cascade's z channel with its
    # unmatched disturbance, and the scalar plant without uncertainty
    for name in ("arm", "cascade", "scalar"):
        _batch_matches_single(name)


@pytest.mark.parametrize("name", ["arm", "cascade", "scalar", "asarray"])
def test_one_row_batch_matches_integrate_exactly(name):
    # a one-row bundle steps on integrate's floats; its controller still gets
    # a batch, x (1, n) and z (1,), and the histories keep the batch axis
    model, uncertainty, controller, kw = _closed_loop(name)
    if name == "scalar":
        def controller(x, t):
            return -0.4 * np.asarray(x)[..., 0] + 0.2 * np.sin(5.0 * t)

    seen = set()

    def batched(x, *rest):
        seen.add(tuple(np.shape(v) for v in (x, *rest[:-1])))
        return controller(x, *rest)

    rec = integrate(model, uncertainty, controller, horizon=1.0, step=1e-3, **kw)
    ts, xs, zs, ws = _run_batch(model, uncertainty, batched, horizon=1.0, step=1e-3, **kw)
    n, k = model.n, len(rec.trajectory.t)
    assert seen == ({((1, n), (1,))} if model.has_z_channel else {((1, n),)})
    assert np.array_equal(ts, rec.trajectory.t)
    assert xs.shape == (k, 1, n) and np.array_equal(xs[:, 0], rec.trajectory.x)
    if model.has_z_channel:
        assert zs.shape == (k, 1) and np.array_equal(zs[:, 0], rec.trajectory.z)
    else:
        assert zs is None
    if uncertainty is not None:
        assert ws.shape == (k, 1, uncertainty.p) and np.array_equal(ws[:, 0], rec.w)
    else:
        assert ws is None


@pytest.mark.parametrize("name", ["arm", "cascade", "scalar", "asarray"])
def test_integrate_matches_reference_loop_exactly(name):
    # the reference hands the maps arrays (n,), integrate lists of floats; a
    # plant that returns ndarrays must step to the same bits as one that
    # returns floats
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


def _typed(fn, calls):
    """fn, recording the types of its arguments and of its result's entries."""

    def wrapped(*args):
        out = fn(*args)
        entries = [out] if isinstance(out, float) else list(out)
        calls.append((tuple(map(type, args)), type(out), tuple(map(type, entries))))
        return out

    return wrapped


@pytest.mark.parametrize("name", ["arm", "cascade"])
def test_one_trajectory_maps_get_and_return_python_floats(name):
    # one trajectory hands the plant and uncertainty maps the stepped state
    # as lists of floats, z as a float, and takes floats back: a stage that
    # went back to building arrays would fail here, not only run slower
    model, uncertainty, controller, kw = _closed_loop(name)
    calls, states = [], []

    def recording(x, *zt):
        states.append((type(x), tuple(map(type, x)), tuple(map(type, zt))))
        return controller(x, *zt)

    model = dataclasses.replace(
        model,
        drift=_typed(model.drift, calls),
        input_gain=_typed(model.input_gain, calls),
        f1=model.f1 and _typed(model.f1, calls),
    )
    uncertainty = dataclasses.replace(
        uncertainty,
        w_dynamics=_typed(uncertainty.w_dynamics, calls),
        matched_disturbance=_typed(uncertainty.matched_disturbance, calls),
        unmatched_disturbance=(
            uncertainty.unmatched_disturbance
            and _typed(uncertainty.unmatched_disturbance, calls)
        ),
    )
    n_maps = 6 if model.has_z_channel else 4
    for run in (integrate, _run_batch):
        calls.clear()
        run(model, uncertainty, controller, horizon=0.02, step=1e-3, **kw)
        assert len(calls) == n_maps * (4 * 20 + 1), run
        for args, out, entries in calls:
            assert set(args) <= {list, float}, (run, args)
            assert out in (float, list, tuple), (run, out)
            assert set(entries) == {float}, (run, entries)
    # under `integrate` the controller gets the same list x, and z a float
    integrate(model, uncertainty, recording, horizon=0.02, step=1e-3, **kw)
    assert len(states) == 4 * 20 + 1
    n_z = 1 if model.has_z_channel else 0
    for x_type, entries, zt in set(states):
        assert x_type is list and set(entries) == {float}, (x_type, entries)
        assert zt == (float,) * (n_z + 1), zt


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
    for run in FRONT_ENDS:
        _reject_invalid_inputs(run)


def _reject_invalid_inputs(run):
    model = _scalar_model(lambda x: -x)
    with pytest.raises(ValueError, match="step must be positive"):
        run(model, None, lambda x, t: 0.0, [1.0], horizon=1.0, step=-1e-3)
    with pytest.raises(ValueError, match="at least one step"):
        run(model, None, lambda x, t: 0.0, [1.0], horizon=1e-4, step=1e-3)
    with pytest.raises(ValueError, match="finite"):
        run(model, None, lambda x, t: 0.0, [np.inf], horizon=1.0, step=1e-3)

    arm_model, arm_unc, arm_ctrl, arm_kw = _closed_loop("arm")
    with pytest.raises(ValueError, match="needs w0"):
        run(arm_model, arm_unc, arm_ctrl, arm_kw["x0"], horizon=1.0, step=1e-3)
    with pytest.raises(ValueError, match="finite"):
        run(arm_model, arm_unc, arm_ctrl, arm_kw["x0"], w0=[np.nan], horizon=1.0, step=1e-3)

    cas_model, cas_unc, cas_ctrl, cas_kw = _closed_loop("cascade")
    with pytest.raises(ValueError, match="needs z0"):
        run(cas_model, cas_unc, cas_ctrl, cas_kw["x0"], w0=cas_kw["w0"], horizon=1.0, step=1e-3)
    with pytest.raises(ValueError, match="finite"):
        run(
            cas_model, cas_unc, cas_ctrl, cas_kw["x0"], z0=np.nan, w0=cas_kw["w0"],
            horizon=1.0, step=1e-3,
        )


def test_lipschitz_probe_identity_and_square():
    assert lipschitz_probe(lambda x: x, [-1.0], [1.0]) == pytest.approx(1.0, abs=1e-12)
    quot = lipschitz_probe(lambda x: x**2, [-2.0], [2.0], samples=400)
    assert 4.0 - 0.05 <= quot <= 4.0 + 1e-9


def test_lipschitz_probe_arm_drift_finite():
    arm = build_arm_system()
    bound = lipschitz_probe(arm.model.drift, arm.region_low, arm.region_high)
    assert np.isfinite(bound) and bound > 0


def test_lipschitz_probe_has_the_bits_of_the_pairwise_loop():
    # the quotients are taken as arrays; every probe value must have the bits
    # of one np.linalg.norm per pair and per offset row
    maps = [
        (plant.model.drift, plant.region_low, plant.region_high)
        for plant in (build_arm_system(), build_scalar_plant(), build_cascade_system())
    ]
    maps += [
        (lambda x: np.sin(3.0 * x) * np.cos(x[..., :1]), [-1.0, -2.0, 0.0], [1.0, 2.0, 0.5]),
        (lambda x: np.sum(x**3, axis=-1), [-2.0, -1.0], [2.0, 1.0]),
    ]
    for fn, low, high in maps:
        for seed in range(6):
            got = lipschitz_probe(fn, low, high, seed=seed)
            assert got == loop_lipschitz_probe(fn, low, high, seed=seed), seed


def test_lipschitz_probe_rejects_bad_domains():
    with pytest.raises(ValueError):
        lipschitz_probe(lambda x: x, [1.0], [1.0])
    with pytest.raises(NonFiniteDynamics):
        lipschitz_probe(lambda x: np.full_like(x, np.nan), [-1.0], [1.0])


def _stage_scripted_model(values):
    """Scalar plant whose drift returns values[j] at its j-th call (0.0
    after the script): drift runs once per RK4 stage, k1..k4 of step 0
    being calls 0..3."""
    calls = []

    def drift(x):
        x = np.asarray(x, dtype=float)
        j = len(calls)
        calls.append(j)
        return np.full_like(x, values[j] if j < len(values) else 0.0)

    model = SystemModel(
        n=1, drift=drift, input_gain=lambda x: np.zeros_like(np.asarray(x, dtype=float))
    )
    return model, calls


def test_non_finite_caught_at_every_stage_and_update():
    for run in FRONT_ENDS:
        for bad in (np.nan, np.inf, -np.inf):
            # steps 0 and 1 are clean, then the value appears at stage k of step 2
            for k in range(4):
                j = 8 + k
                model, calls = _stage_scripted_model([0.5] * j + [bad])
                with pytest.raises(NonFiniteDynamics, match="^dynamics returned a non-finite value$"):
                    run(model, None, lambda x, t: 0.0, [1.0], horizon=1.0, step=1e-3)
                assert len(calls) == j + 1, (run, bad, k)
            # finite stages whose weighted sum overflows: +inf, -inf, and inf - inf = nan
            for script in ([0.0, 1e308], [0.0, -1e308], [0.0, 1e308, -1e308]):
                model, calls = _stage_scripted_model([0.5] * 4 + script)
                with pytest.raises(
                    NonFiniteDynamics, match="^state update returned a non-finite value$"
                ), np.errstate(over="ignore", invalid="ignore"):
                    run(model, None, lambda x, t: 0.0, [1.0], horizon=1.0, step=1e-3)
                assert len(calls) == 8, (run, script)


def test_blowup_decision_matches_numpy_norm():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 5, 9, 17):
        for _ in range(20):
            s = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)
            norm = np.sqrt((s * s).sum(-1))
            blowups = [
                norm,  # at: not exceeded
                np.nextafter(norm, np.inf),  # norm just below blowup
                np.nextafter(norm, -np.inf),  # norm just above blowup
                norm * (1 + 1e-9), norm * (1 - 1e-9), norm * 1.0005, norm / 1.0005,
                norm * 2.0, norm / 2.0, 1e6, np.inf, 0.0, -1.0,
            ]
            for blowup in blowups:
                want = bool(np.sqrt((s * s).sum(-1)) > blowup)
                # one trajectory steps as a list of Python floats
                assert _exceeds(s.tolist(), blowup) == want, (s, blowup)
                assert _exceeds(s, blowup) == want, (s, blowup)
                assert _exceeds(s[None, :], blowup) == want, (s, blowup)
    # squares that overflow a float
    big = np.array([1e200, 1e200])
    with np.errstate(over="ignore"):
        for form in (big, big.tolist()):
            assert _exceeds(form, 1e300) and _exceeds(form, 1e6)
            assert not _exceeds(form, np.inf)
