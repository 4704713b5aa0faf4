import numpy as np
import pytest

from robustpi.basis import Approximant, BasisSet, make_polynomial_basis
from robustpi.dynsys import CostSpec, SystemModel
from robustpi.errors import InadmissiblePolicy, RankDeficient
from robustpi.experiments import (
    ArmParameters,
    build_arm_system,
    build_cascade_system,
    build_scalar_plant,
)
from robustpi.pi_oracle import (
    collocation_grid,
    policy_evaluation_collocation,
    policy_improvement,
    run_policy_iteration,
)

from oracles import (
    SCALAR_OPTIMAL_GAIN,
    SCALAR_OPTIMAL_P,
    build_linear_plant,
    hjb_residual,
    kleinman_sequence,
    quadratic_weights_to_matrix,
    riccati_solution,
)


@pytest.fixture(scope="module")
def scalar():
    bench = build_scalar_plant()
    grid = collocation_grid(bench.region_low, bench.region_high, 40)
    basis = BasisSet(dim=1, indices=((2,),))
    basis_u = BasisSet(dim=1, indices=((1,),))
    return bench, grid, basis, basis_u


def test_zero_policy_evaluation_is_lyapunov_solution(scalar):
    bench, grid, basis, _ = scalar
    value = policy_evaluation_collocation(
        bench.model, bench.cost, lambda x: 0.0, basis, grid
    )
    # 2*(-1)*p + 1 = 0  =>  p = 0.5
    assert value.weights[0] == pytest.approx(0.5, abs=1e-10)


def test_scalar_iteration_converges_to_riccati(scalar):
    bench, grid, basis, basis_u = scalar
    states = run_policy_iteration(
        bench.model, bench.cost, lambda x: 0.0, basis, basis_u, grid,
        max_iter=10, tol=1e-12,
    )
    assert len(states) <= 10
    assert states[-1].value.weights[0] == pytest.approx(SCALAR_OPTIMAL_P, abs=1e-8)
    assert states[-1].policy.weights[0] == pytest.approx(SCALAR_OPTIMAL_GAIN, abs=1e-8)


def test_policy_improvement_closed_forms(scalar):
    bench, grid, basis, basis_u = scalar
    for p in (0.3, 1.7):
        value = Approximant(basis, np.array([p]))
        improved, residual = policy_improvement(
            bench.model, bench.cost, value, basis_u, grid
        )
        assert improved.weights[0] == pytest.approx(-p, abs=1e-12)
        assert residual < 1e-12
    zero_value = Approximant(basis, np.array([0.0]))
    improved, _ = policy_improvement(bench.model, bench.cost, zero_value, basis_u, grid)
    assert improved.weights[0] == 0.0


def test_two_state_iterates_match_kleinman_oracle():
    bench = build_linear_plant(3)
    basis_v = make_polynomial_basis(2, 2)
    basis_u = make_polynomial_basis(2, 1)
    grid = collocation_grid(bench.region_low, bench.region_high, 120)
    states = run_policy_iteration(
        bench.model, bench.cost, bench.initial_policy, basis_v, basis_u, grid,
        max_iter=8, tol=1e-13,
    )
    oracle = kleinman_sequence(
        bench.a_matrix, bench.b_vector, bench.q_matrix, bench.r_weight,
        bench.initial_gain, len(states),
    )
    for state, (p_ref, k_ref) in zip(states, oracle):
        # degree-2 vanishing basis: [x1, x2, x1^2, x1x2, x2^2]
        p_fit = quadratic_weights_to_matrix(state.value.weights)
        assert np.linalg.norm(p_fit - p_ref) / np.linalg.norm(p_ref) < 1e-8
        k_fit = -state.policy.weights
        assert np.linalg.norm(k_fit - k_ref) / np.linalg.norm(k_ref) < 1e-8


def test_arm_linearization_improvement_matches_riccati_gain():
    arm = build_arm_system()
    params = ArmParameters()
    k = params.torque_scale * np.sin(params.target_angle)
    a = np.array([[0.0, 1.0], [-k / params.inertia, 0.0]])
    b = np.array([0.0, 1.0 / params.inertia])
    p_ref, k_ref = riccati_solution(a, b, np.diag([100.0, 1.0]), 1.0)

    model = SystemModel(
        n=2,
        drift=lambda x: np.asarray(x, dtype=float) @ a.T,
        input_gain=lambda x: np.broadcast_to(b, np.asarray(x).shape).copy(),
    )
    basis_v = make_polynomial_basis(2, 2)
    value = Approximant(
        basis_v, np.array([0.0, 0.0, p_ref[0, 0], 2 * p_ref[0, 1], p_ref[1, 1]])
    )
    grid = collocation_grid(arm.region_low, arm.region_high, 120)
    improved, _ = policy_improvement(
        model, arm.cost, value, make_polynomial_basis(2, 1), grid
    )
    assert np.linalg.norm(-improved.weights - k_ref) < 1e-8


def test_optimal_start_stops_immediately(scalar):
    bench, grid, basis, basis_u = scalar
    states = run_policy_iteration(
        bench.model, bench.cost,
        lambda x: SCALAR_OPTIMAL_GAIN * np.asarray(x, dtype=float)[..., 0],
        basis, basis_u, grid, max_iter=10, tol=1e-8,
    )
    assert len(states) == 2
    assert states[1].value_change < 1e-8


def test_inadmissible_policy_detected():
    model = SystemModel(
        n=1,
        drift=lambda x: 0.0 * np.asarray(x, dtype=float),
        input_gain=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )
    cost = CostSpec(
        state_cost=lambda x: np.asarray(x, dtype=float)[..., 0] ** 2,
        control_weight=1.0,
        margin=0.5,
    )
    basis = BasisSet(dim=1, indices=((2,),))
    grid = collocation_grid([-1.0], [1.0], 20)
    with pytest.raises(InadmissiblePolicy):
        policy_evaluation_collocation(
            model, cost,
            lambda x: np.asarray(x, dtype=float)[..., 0],
            basis, grid, probe_ics=[[1.0]], probe_step=1e-2,
        )


def test_monotone_value_decrease_scalar(scalar):
    bench, grid, basis, basis_u = scalar
    states = run_policy_iteration(
        bench.model, bench.cost, lambda x: 0.0, basis, basis_u, grid,
        max_iter=10, tol=1e-12,
    )
    for earlier, later in zip(states, states[1:]):
        ve = earlier.value.evaluate_many(grid)
        vl = later.value.evaluate_many(grid)
        assert np.all(vl <= ve + 1e-6)


def test_hjb_residual_decreases_for_lqr():
    bench = build_linear_plant(3)
    basis_v = make_polynomial_basis(2, 2)
    basis_u = make_polynomial_basis(2, 1)
    grid = collocation_grid(bench.region_low, bench.region_high, 120)
    states = run_policy_iteration(
        bench.model, bench.cost, bench.initial_policy, basis_v, basis_u, grid,
        max_iter=8, tol=1e-13,
    )
    residuals = [hjb_residual(bench.model, bench.cost, s.value, grid) for s in states]
    assert all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:]))


def test_rank_deficient_grid_rejected(scalar):
    bench, _, basis, _ = scalar
    degenerate = np.zeros((10, 1))  # all points at the origin
    with pytest.raises(RankDeficient):
        policy_evaluation_collocation(
            bench.model, bench.cost, lambda x: 0.0, basis, degenerate
        )
    with pytest.raises(ValueError):
        policy_evaluation_collocation(
            bench.model, bench.cost, lambda x: 0.0,
            make_polynomial_basis(1, 5), np.zeros((2, 1)),
        )


def test_collocation_grid_is_deterministic():
    a = collocation_grid([-1.0, -2.0], [1.0, 2.0], 50)
    b = collocation_grid([-1.0, -2.0], [1.0, 2.0], 50)
    assert np.array_equal(a, b)
    assert np.all(a >= [-1.0, -2.0]) and np.all(a <= [1.0, 2.0])


@pytest.mark.parametrize("count", [1, 40, 160, 616, 4097])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collocation_grid_is_scipy_halton_bit_for_bit(dim, count):
    """The same bytes, shape and memory order as scipy's unscrambled Halton
    points: the products downstream round per memory layout."""
    from scipy.stats import qmc

    low = np.array([-1.0, -3.5, 0.25])[:dim]
    high = np.array([0.8, 3.5, 7.0])[:dim]
    expected = low + qmc.Halton(d=dim, scramble=False).random(count) * (high - low)
    grid = collocation_grid(low, high, count)
    assert grid.shape == expected.shape
    assert grid.flags.f_contiguous == expected.flags.f_contiguous
    assert grid.tobytes() == expected.tobytes()


def _rowwise(model):
    """The same plant with drift and input gain evaluated one grid row at a
    time and stacked: the form the oracle used before it passed the grid."""
    return SystemModel(
        n=model.n,
        drift=lambda pts: np.asarray([model.drift(x) for x in pts]),
        input_gain=lambda pts: np.asarray([model.input_gain(x) for x in pts]),
    )


@pytest.mark.parametrize("name", ["arm", "cascade", "scalar"])
def test_batched_plant_maps_match_rowwise_loop_exactly(name):
    if name == "arm":
        bench = build_arm_system()
        degree = 6
    elif name == "cascade":
        bench = build_cascade_system()
        degree = 4
    else:
        bench = build_scalar_plant()
        degree = 4
    model = SystemModel(n=bench.model.n, drift=bench.model.drift, input_gain=bench.model.input_gain)
    rowwise = _rowwise(model)
    basis = make_polynomial_basis(model.n, degree)
    grid = collocation_grid(bench.region_low, bench.region_high, max(8 * len(basis), 160))
    assert np.array_equal(model.drift(grid), rowwise.drift(grid))
    assert np.array_equal(model.input_gain(grid), rowwise.input_gain(grid))

    initial = bench.initial_policy
    runs = [
        run_policy_iteration(m, bench.cost, initial, basis, basis, grid, max_iter=3, tol=0.0)
        for m in (model, rowwise)
    ]
    assert len(runs[0]) == len(runs[1]) == 3
    for got, want in zip(*runs):
        assert np.array_equal(got.value.weights, want.value.weights)
        assert np.array_equal(got.policy.weights, want.policy.weights)
        assert got.improvement_residual == want.improvement_residual
        assert got.value_change == want.value_change or np.isinf(want.value_change)
        assert hjb_residual(model, bench.cost, got.value, grid) == hjb_residual(
            rowwise, bench.cost, want.value, grid
        )
