import numpy as np
import pytest

from robustpi.basis import Approximant, BasisSet, make_polynomial_basis
from robustpi.dynsys import CostSpec, Plant, Trajectory, integrate, stage_times
from robustpi.errors import EmptyInterval, PEViolation, ScheduleExhausted
from robustpi.online_pi import (
    LOOKUP_BLOCK_STEPS,
    ExplorationNoise,
    RegressionProblem,
    SampleWindow,
    _interval_integrals,
    assemble_regression,
    guarded_solve,
    run_online_pi,
    solve_pi_step,
    two_loop_optimize,
)
from robustpi.experiments import build_cascade_system, build_scalar_plant
from robustpi.pi_oracle import (
    collocation_grid,
    policy_evaluation_collocation,
    policy_improvement,
)

from oracles import (
    SCALAR_OPTIMAL_GAIN,
    SCALAR_OPTIMAL_P,
    mean_exploration_noise,
    reference_assemble_regression,
)


def _window_from_arrays(t, x, u, x_input, interval, count):
    traj = Trajectory(t=t, x=x, u=u, x_input=x_input)
    return SampleWindow.from_trajectory(traj, interval, count)


@pytest.fixture(scope="module")
def scalar():
    return build_scalar_plant()


@pytest.fixture(scope="module")
def scalar_bases():
    return make_polynomial_basis(1, 2), make_polynomial_basis(1, 2)


def _scalar_plant(bench, x0=0.8, step=1e-3):
    return Plant(bench.model, None, np.array([x0]), step=step)


def test_zero_trajectory_gives_zero_rows(scalar, scalar_bases):
    bv, bu = scalar_bases
    t = np.arange(0, 1.0 + 1e-12, 1e-3)
    k = t.size
    window = _window_from_arrays(t, np.zeros((k, 1)), np.zeros(k), np.zeros(k), 0.1, 10)
    problem = assemble_regression(window, bv, bu, lambda x: 0.0, scalar.cost)
    assert np.all(problem.theta == 0.0)
    assert np.all(problem.targets == 0.0)


def test_constant_state_rows_reduce_to_products(scalar, scalar_bases):
    bv, bu = scalar_bases
    t = np.arange(0, 0.1 + 1e-12, 1e-3)
    k = t.size
    x = np.full((k, 1), 0.7)
    m = np.full(k, 1.3)  # constant composite input
    window = _window_from_arrays(t, x, m, m, 0.1, 1)
    problem = assemble_regression(window, bv, bu, lambda x: 0.0, scalar.cost)
    # value-basis increments vanish; policy entries are 2r*phi(x)*m*T
    n1 = len(bv)
    assert np.allclose(problem.theta[0, :n1], 0.0, atol=1e-12)
    phi = bu.design_matrix(x[:1])[0]
    assert np.allclose(problem.theta[0, n1:], 2.0 * 1.0 * phi * 1.3 * 0.1, rtol=1e-12)
    q = scalar.cost.state_cost(x[:1])[0]
    assert problem.targets[0] == pytest.approx(-q * 0.1, rel=1e-12)


def test_orthonormal_rows_solve_exactly():
    basis_v = BasisSet(dim=1, indices=((2,),))
    basis_u = BasisSet(dim=1, indices=((1,),))
    theta = 2.0 * np.eye(4)[:, :2]  # (1/l) Theta^T Theta = I_2
    targets = np.array([1.0, -2.0, 0.0, 0.0])
    problem = RegressionProblem(theta=theta, targets=targets, bases=(basis_v, basis_u))
    step = solve_pi_step(problem)
    value, policy = step.parts
    assert step.min_singular_value == pytest.approx(1.0)
    assert value.weights[0] == pytest.approx(0.5)
    assert policy.weights[0] == pytest.approx(-1.0)


def test_guarded_solve_is_pure_and_splits_in_column_order():
    bases = (make_polynomial_basis(1, 2), BasisSet(dim=1, indices=((1,), (3,), (5,))))
    rng = np.random.default_rng(4)
    theta = rng.standard_normal((12, 5))
    targets = rng.standard_normal(12)
    problem = RegressionProblem(theta=theta.copy(), targets=targets.copy(), bases=bases)
    fields = dict(vars(problem))
    fit = guarded_solve(problem, 1e-12, "policy iteration")
    assert vars(problem).keys() == fields.keys()
    assert all(vars(problem)[k] is v for k, v in fields.items())
    assert problem.theta.tobytes() == theta.tobytes()
    assert problem.targets.tobytes() == targets.tobytes()
    assert tuple(part.basis for part in fit.parts) == bases
    assert fit.parts[0].weights.tobytes() == fit.weights[:2].tobytes()
    assert fit.parts[1].weights.tobytes() == fit.weights[2:].tobytes()


def test_duplicate_rows_violate_excitation():
    basis_v = BasisSet(dim=1, indices=((2,),))
    basis_u = BasisSet(dim=1, indices=((1,),))
    theta = np.tile([1.0, 2.0], (6, 1))
    problem = RegressionProblem(theta=theta, targets=np.ones(6), bases=(basis_v, basis_u))
    with pytest.raises(PEViolation):
        solve_pi_step(problem)


def test_underdetermined_is_an_excitation_failure():
    basis_v = make_polynomial_basis(1, 2)
    basis_u = make_polynomial_basis(1, 2)
    problem = RegressionProblem(
        theta=np.ones((2, 4)), targets=np.ones(2), bases=(basis_v, basis_u)
    )
    with pytest.raises(PEViolation):
        solve_pi_step(problem)


def test_scalar_converges_to_closed_form(scalar, scalar_bases):
    bv, bu = scalar_bases
    plant = _scalar_plant(scalar)
    noise = ExplorationNoise(amplitude=0.8, seed=8)
    result = run_online_pi(
        plant, scalar.initial_policy, noise, bv, bu, scalar.cost,
        interval=0.1, n_intervals=40, tol=1e-6, max_iter=10,
    )
    assert result.converged_iteration is not None
    assert result.converged_iteration <= 10
    p = result.final_value.weights[1]  # basis [x, x^2]
    gain = result.final_policy.weights[0]
    assert abs(p - SCALAR_OPTIMAL_P) / SCALAR_OPTIMAL_P < 1e-3
    assert abs(gain - SCALAR_OPTIMAL_GAIN) / abs(SCALAR_OPTIMAL_GAIN) < 1e-3


def test_zero_exploration_raises_pe_violation(scalar, scalar_bases):
    bv, bu = scalar_bases
    plant = _scalar_plant(scalar)
    with pytest.raises(PEViolation):
        run_online_pi(
            plant, scalar.initial_policy, None, bv, bu, scalar.cost,
            interval=0.1, n_intervals=40, tol=1e-6, max_iter=4,
        )


def test_regression_matches_model_based_evaluation(scalar):
    # the same policy evaluated from data and from the model agree as the
    # dense grid is refined; with the value exactly in the basis span the
    # limit is the Lyapunov solution itself
    basis_v = BasisSet(dim=1, indices=((2,),))
    basis_u = BasisSet(dim=1, indices=((1,),))
    grid = collocation_grid(scalar.region_low, scalar.region_high, 40)
    policy0 = lambda x: -0.3 * np.asarray(x, dtype=float)[..., 0]
    value_ref = policy_evaluation_collocation(
        scalar.model, scalar.cost, policy0, basis_v, grid
    )
    improved_ref, _ = policy_improvement(
        scalar.model, scalar.cost, value_ref, basis_u, grid
    )
    errors = []
    for step in (4e-3, 1e-3, 2e-4):
        plant = _scalar_plant(scalar, step=step)
        noise = ExplorationNoise(amplitude=0.8, seed=3)
        result = run_online_pi(
            plant, policy0, noise, basis_v, basis_u, scalar.cost,
            interval=0.1, n_intervals=30, tol=np.inf, max_iter=1,
        )
        err_v = abs(result.final_value.weights[0] - value_ref.weights[0])
        err_u = abs(result.final_policy.weights[0] - improved_ref.weights[0])
        errors.append(max(err_v, err_u))
    rel = errors[-1] / abs(value_ref.weights[0])
    assert rel <= 1e-6
    assert errors[0] > errors[-1]


def test_residual_never_grows_with_nested_bases(scalar):
    plant = _scalar_plant(scalar)
    noise = ExplorationNoise(amplitude=0.8, seed=8)
    traj = plant.observe(lambda x, t: scalar.initial_policy(x) + noise(t), 4.0)
    window = SampleWindow.from_trajectory(traj, 0.1, 40)
    residuals = []
    for degree in (1, 2, 3):
        bv = make_polynomial_basis(1, degree)
        bu = make_polynomial_basis(1, degree)
        problem = assemble_regression(window, bv, bu, scalar.initial_policy, scalar.cost)
        residuals.append(solve_pi_step(problem, delta_rel=1e-14).residual_rms)
    assert residuals[1] <= residuals[0] + 1e-15
    assert residuals[2] <= residuals[1] + 1e-15


def test_monotone_value_transfer(scalar, scalar_bases):
    bv, bu = scalar_bases
    plant = _scalar_plant(scalar)
    noise = ExplorationNoise(amplitude=0.8, seed=8)
    result = run_online_pi(
        plant, scalar.initial_policy, noise, bv, bu, scalar.cost,
        interval=0.1, n_intervals=40, tol=1e-8, max_iter=10,
    )
    pts = np.linspace(-1.0, 1.0, 101)[:, None]
    for earlier, later in zip(result.iterates, result.iterates[1:]):
        slack = max(3.0 * later.residual_rms, 1e-9)
        assert np.all(
            later.value.evaluate_many(pts)
            <= earlier.value.evaluate_many(pts) + slack
        )


def test_seeded_runs_are_identical(scalar, scalar_bases):
    bv, bu = scalar_bases

    def run():
        plant = _scalar_plant(scalar)
        noise = ExplorationNoise(amplitude=0.8, seed=8)
        return run_online_pi(
            plant, scalar.initial_policy, noise, bv, bu, scalar.cost,
            interval=0.1, n_intervals=40, tol=1e-6, max_iter=10,
        )

    a, b = run(), run()
    assert len(a.iterates) == len(b.iterates)
    for ia, ib in zip(a.iterates, b.iterates):
        assert np.array_equal(ia.value.weights, ib.value.weights)
        assert np.array_equal(ia.policy.weights, ib.policy.weights)


def test_two_loop_selects_sufficient_degree(scalar):
    # the true value is degree 2: a degree-1 basis cannot meet a tight
    # threshold, degree 2 can
    plant = _scalar_plant(scalar)
    noise = ExplorationNoise(amplitude=0.8, seed=8)
    schedule = [
        (make_polynomial_basis(1, 1), make_polynomial_basis(1, 1)),
        (make_polynomial_basis(1, 2), make_polynomial_basis(1, 2)),
    ]
    chosen = two_loop_optimize(
        plant, scalar.initial_policy, noise, scalar.cost, schedule, 1e-6,
        interval=0.1, tol=1e-6, max_iter=10, delta_rel=1e-12,
    )
    assert chosen.schedule_index == 1
    assert chosen.residual_rms <= 1e-6
    assert chosen.history[0][1] > 1e-6


def test_two_loop_infinite_threshold_returns_first(scalar):
    plant = _scalar_plant(scalar)
    noise = ExplorationNoise(amplitude=0.8, seed=8)
    schedule = [
        (make_polynomial_basis(1, 1), make_polynomial_basis(1, 1)),
        (make_polynomial_basis(1, 2), make_polynomial_basis(1, 2)),
    ]
    chosen = two_loop_optimize(
        plant, scalar.initial_policy, noise, scalar.cost, schedule, np.inf,
        interval=0.1, tol=1e-6, max_iter=10, delta_rel=1e-12,
    )
    assert chosen.schedule_index == 0


def test_two_loop_empty_schedule_exhausts(scalar):
    plant = _scalar_plant(scalar)
    with pytest.raises(ScheduleExhausted):
        two_loop_optimize(
            plant, scalar.initial_policy, None, scalar.cost, [], 1e-6,
            interval=0.1,
        )


def test_two_loop_reports_best_on_exhaustion(scalar):
    plant = _scalar_plant(scalar)
    noise = ExplorationNoise(amplitude=0.8, seed=8)
    schedule = [(make_polynomial_basis(1, 1), make_polynomial_basis(1, 1))]
    with pytest.raises(ScheduleExhausted) as err:
        two_loop_optimize(
            plant, scalar.initial_policy, noise, scalar.cost, schedule, 1e-9,
            interval=0.1, tol=1e-6, max_iter=10, delta_rel=1e-12,
        )
    assert err.value.best is not None
    assert err.value.best.residual_rms > 1e-9


def test_window_validation():
    t = np.arange(0, 1.0 + 1e-12, 1e-3)
    traj = Trajectory(
        t=t, x=np.zeros((t.size, 1)), u=np.zeros(t.size), x_input=np.zeros(t.size)
    )
    with pytest.raises(EmptyInterval):
        SampleWindow.from_trajectory(traj, 1e-4, 10)  # interval below the step
    with pytest.raises(ValueError):
        SampleWindow.from_trajectory(traj, 0.1, 11)  # runs past the grid
    window = SampleWindow.from_trajectory(traj, 0.1, 10)
    assert window.n_intervals == 10
    # intervals that are not a whole number of steps are not rounded to one
    for interval in (0.0995, 0.0015):
        with pytest.raises(EmptyInterval):
            SampleWindow.from_trajectory(traj, interval, 10)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("degrees", [(5, 5), (3, 2)], ids=["equal bases", "distinct bases"])
def test_regression_has_the_bits_of_the_rebuilt_one_at_every_iterate(degrees, order):
    """One window driven through a plain-callable first policy, solved
    iterates on the policy basis (one of them on an equal but distinct
    BasisSet) and an iterate on another basis gives theta and targets with
    the bytes of the regression that rebuilds every matrix per call."""
    t = np.arange(0, 4.0 + 1e-12, 1e-3)
    x = np.stack([0.6 * np.sin(1.3 * t) + 0.2, 0.5 * np.cos(0.7 * t) * np.exp(-0.2 * t)], axis=1)
    x = np.asarray(x, order=order)
    x_input = 0.4 * np.sin(5.1 * t) - 0.5 * x[:, 0] - 0.5 * x[:, 1]
    window = _window_from_arrays(t, x, x_input, x_input, 0.1, 40)
    cost = CostSpec(
        state_cost=lambda x: 100.0 * x[..., 0] ** 2 + x[..., 1] ** 2,
        control_weight=1.0,
        margin=0.9,
    )
    bv = make_polynomial_basis(2, degrees[0])
    bu = make_polynomial_basis(2, degrees[1])

    policies = [lambda x: -0.5 * x[0] - 0.5 * x[1]]
    for k in range(5):
        policy = policies[-1]
        got = assemble_regression(window, bv, bu, policy, cost)
        expected = reference_assemble_regression(window, bv, bu, policy, cost)
        assert got.theta.tobytes() == expected.theta.tobytes(), k
        assert got.targets.tobytes() == expected.targets.tobytes(), k
        weights = np.linalg.lstsq(got.theta, got.targets, rcond=None)[0][len(bv):]
        if k == 2:
            policies.append(Approximant(make_polynomial_basis(2, degrees[1]), weights))
        elif k == 3:
            other = make_polynomial_basis(2, 4)
            policies.append(Approximant(other, np.linspace(-0.3, 0.2, len(other))))
        else:
            policies.append(Approximant(bu, weights))


@pytest.mark.parametrize("degrees", [(2, 2), (2, 1)], ids=["equal bases", "distinct bases"])
def test_window_builds_each_design_matrix_once(degrees, scalar, monkeypatch):
    """Policy iteration on one window builds the dense design matrix of
    each distinct basis once, however many iterations it runs."""
    built = []
    design_matrix = BasisSet.design_matrix

    def counted(basis, points):
        built.append((basis, len(points)))
        return design_matrix(basis, points)

    monkeypatch.setattr(BasisSet, "design_matrix", counted)
    bv, bu = (make_polynomial_basis(1, degree) for degree in degrees)
    result = run_online_pi(
        _scalar_plant(scalar), scalar.initial_policy, ExplorationNoise(amplitude=0.8, seed=8),
        bv, bu, scalar.cost, interval=0.1, n_intervals=40, tol=0.0, max_iter=4,
        delta_rel=1e-12,
    )
    assert len(result.iterates) == 4
    dense = result.window.trajectory.t.size
    assert sorted(b.indices for b, rows in built if rows == dense) == sorted(
        b.indices for b in {bv, bu}
    )


@pytest.mark.parametrize("seed", range(6))
def test_interval_integrals_are_cumulative_trapezoid_bit_for_bit(seed):
    """scipy's running trapezoid integral differenced at the sampling
    instants, byte for byte, over columns whose scales span 1e-6 to 1e6."""
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(seed)
    rows, cols = 2001, 13
    t = np.cumsum(rng.uniform(1e-4, 2e-3, rows))
    dense = rng.standard_normal((rows, cols)) * np.logspace(-6, 6, cols)
    idx = np.sort(rng.choice(rows, size=41, replace=False))
    cum = cumulative_trapezoid(dense, t, axis=0, initial=0.0)
    expected = cum[idx[1:]] - cum[idx[:-1]]
    got = _interval_integrals(dense, t, idx)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_noise_is_seeded_and_bounded():
    noise = ExplorationNoise(amplitude=0.7, seed=5)
    again = ExplorationNoise(amplitude=0.7, seed=5)
    t = np.linspace(0.0, 20.0, 5000)
    assert np.array_equal(noise(t), again(t))
    assert np.max(np.abs(noise(t))) <= 0.7 + 1e-12
    other = ExplorationNoise(amplitude=0.7, seed=6)
    assert not np.array_equal(noise(t), other(t))


def test_exploration_noise_matches_mean_of_sinusoids_exactly():
    noise = ExplorationNoise(amplitude=0.8, seed=8)
    h = 1e-3
    nodes = np.arange(50) * h
    stage_times = np.concatenate([nodes, nodes + h / 2, nodes + h])  # RK4 stages
    for t in (0.37, 12.345, np.asarray(2.5), stage_times, stage_times.reshape(3, 50)):
        got = noise(t)
        want = mean_exploration_noise(noise, t)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("step", [1e-3, 5e-4, 2.5e-4])
def test_rk4_lookup_has_the_bits_of_the_signal_at_every_stage_time(step):
    # the table is filled by one batched call per block; its values must have
    # the bits of calling the signal at each time, or the excited windows
    # drift.  Where a host's numpy sums or vectorizes the batch differently,
    # this fails instead of letting artifacts drift
    n_steps = 3 * LOOKUP_BLOCK_STEPS + 17
    for seed, amplitude in ((1, 0.5), (3, 0.8), (7, 2.0)):
        noise = ExplorationNoise(amplitude=amplitude, seed=seed)
        lookup = noise.rk4_lookup(step)
        for stage in stage_times(0, n_steps + 1, step):
            for t in stage:
                assert _bits(lookup(t)) == _bits(noise(t)), (seed, t)
        # off the stage grid, and not finite: the signal itself
        with np.errstate(invalid="ignore"):
            for t in (0.1234567, 0.3 * step, 2.0 * step + 1e-9, -step, 1e9, np.nan, np.inf):
                assert _bits(lookup(t)) == _bits(noise(t)), (seed, t)
        # back on the grid after a miss
        t = 1000 * step + step / 2
        assert _bits(lookup(t)) == _bits(noise(t))


class _CountingNoise(ExplorationNoise):
    """An exploration signal that counts its calls at a single time."""

    single_calls = 0

    def __call__(self, t):
        self.single_calls += np.ndim(t) == 0
        return super().__call__(t)


@pytest.mark.parametrize("step", [1e-3, 5e-4])
def test_rk4_lookup_serves_every_time_integrate_hands_the_controller(step, scalar):
    # every t the RK4 loop passes must be a key of the table built from
    # dynsys.stage_times; a single call of the signal means a fallback, which
    # happens when the loop's time arithmetic and the helper part ways.  The
    # z-channel loop gets the cascade's drive plus lookup, as the run builds it
    cascade = build_cascade_system()
    drive_policy = cascade.drive_policy
    n_steps = 2 * LOOKUP_BLOCK_STEPS + 100
    for z_channel in (False, True):
        noise = _CountingNoise(amplitude=0.5, seed=4)
        lookup = noise.rk4_lookup(step)
        seen = []
        if z_channel:
            drive = lambda x, z, t: drive_policy(x, z, t) + lookup(t)

            def controller(x, z, t):
                seen.append(t)
                return drive(x, z, t)

            integrate(
                cascade.model, cascade.uncertainty, controller, [0.5], z0=0.2, w0=[0.3],
                horizon=n_steps * step, step=step,
            )
        else:
            def controller(x, t):
                seen.append(t)
                return scalar.initial_policy(x) + lookup(t)

            integrate(scalar.model, None, controller, [0.8], horizon=n_steps * step, step=step)
        assert len(seen) == 4 * n_steps + 1, z_channel
        assert noise.single_calls == 0, z_channel
        values = [lookup(t) for t in seen]
        assert noise.single_calls == 0, z_channel
        assert [_bits(v) for v in values] == [_bits(noise(t)) for t in seen], z_channel
