import numpy as np
import pytest

from robustpi.backstep import (
    BacksteppedPolicy,
    CompositeLyapunov,
    assemble_phase_two,
    backstepped_redesign_error,
    cascade_effective_gains,
    cascade_truth,
    check_small_gain_cascade,
    solve_phase_two,
)
from robustpi.basis import Approximant, BasisSet, make_polynomial_basis
from robustpi.dynsys import Trajectory
from robustpi.errors import PEViolation
from robustpi.online_pi import SampleWindow
from robustpi.robust import ClassKFunction, check_small_gain, robust_redesign


def _linear_xi(slope, rho_c=1.0, r=1.0, margin=0.5):
    """RobustPolicy realizing xi(x) = slope * x exactly."""
    scale = 1.0 + 0.5 * r * rho_c**2
    base = Approximant(BasisSet(dim=1, indices=((1,),)), np.array([slope / scale]))
    return robust_redesign(base, rho_c, r, margin)


def test_linear_xi_construction_is_exact():
    xi = _linear_xi(-0.44)
    xs = np.linspace(-2, 2, 11)[:, None]
    assert np.allclose(xi.evaluate_many(xs), -0.44 * xs[:, 0], atol=1e-14)
    assert xi.gradient_many(np.array([[0.3]]))[0, 0] == pytest.approx(-0.44, abs=1e-15)


def test_composite_lyapunov_zeta_consistency():
    xi = _linear_xi(-0.44)
    value = Approximant(BasisSet(dim=1, indices=((2,),)), np.array([0.4]))
    comp = CompositeLyapunov(value, xi)
    x = np.array([[0.5], [-1.0]])
    z = np.array([0.2, 0.7])
    zeta = z - xi.evaluate_many(x)
    assert np.allclose(zeta, z - (-0.44 * x[:, 0]), atol=1e-12)
    assert comp.evaluate([0.0, 0.0]) == 0.0
    assert comp.evaluate([0.5, 0.3]) == pytest.approx(0.4 * 0.25 + 0.5 * 0.09)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(50, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    assert np.all(comp.evaluate_many(pts) > 0.0)


def _synthetic_cascade_window(step=2e-4, n_intervals=60, interval=0.1,
                              f1_coeffs=None, g1_const=1.0, xi_slope=-0.5):
    """Signals with dynamics known exactly, for identification tests.

    x(t) and the disturbance/actuation channels are analytic; zeta is
    integrated with RK4 from zeta' = f1bar(x, z) + (u + d1) - g1bar * d,
    where z = zeta + xi(x).  The returned window is therefore exactly
    consistent with the declared ground truth.
    """
    xi = _linear_xi(xi_slope)

    def x_of(t):
        return 0.8 * np.sin(1.1 * t) + 0.35 * np.sin(2.3 * t + 0.4)

    def delta_of(t):
        return 0.4 * np.sin(1.7 * t + 0.2)

    def drive_of(t):  # u + d1, the recorded composite z-channel input
        return 0.9 * np.sin(0.9 * t + 1.0) + 0.5 * np.sin(3.1 * t)

    if f1_coeffs is None:
        f1_coeffs = {"xz": 1.0}

    def f1bar(x, z):
        out = 0.0
        for term, c in f1_coeffs.items():
            if term == "xz":
                out += c * x * z
            elif term == "x":
                out += c * x
            elif term == "z":
                out += c * z
        return out

    horizon = interval * n_intervals
    n_steps = int(round(horizon / step))
    t = np.arange(n_steps + 1) * step
    zeta = np.empty(n_steps + 1)
    zeta[0] = 0.3

    def zdot(tk, zk):
        xk = x_of(tk)
        z_full = zk + xi_slope * xk
        return f1bar(xk, z_full) + drive_of(tk) - g1_const * delta_of(tk)

    for k in range(n_steps):
        tk, zk = t[k], zeta[k]
        k1 = zdot(tk, zk)
        k2 = zdot(tk + step / 2, zk + step / 2 * k1)
        k3 = zdot(tk + step / 2, zk + step / 2 * k2)
        k4 = zdot(tk + step, zk + step * k3)
        zeta[k + 1] = zk + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    x = x_of(t)[:, None]
    z = zeta + xi_slope * x[:, 0]
    traj = Trajectory(
        t=t, x=x, u=drive_of(t), x_input=z + delta_of(t), z=z, z_input=drive_of(t)
    )
    return SampleWindow.from_trajectory(traj, interval, n_intervals), xi, f1_coeffs, g1_const


def test_phase_two_recovers_known_dynamics():
    window, xi, f1_coeffs, g1_const = _synthetic_cascade_window()
    psi = make_polynomial_basis(2, 2)
    phi = make_polynomial_basis(1, 2, vanish_at_origin=False, include_constant=True)
    problem = assemble_phase_two(window, psi, phi, xi)
    result = solve_phase_two(problem, delta_rel=1e-12)
    f1_hat, g1_hat = result.parts
    truth_f = np.zeros(len(psi))
    # psi graded-lex for dim 2 deg 2: [x, z, x^2, xz, z^2]
    truth_f[3] = f1_coeffs["xz"]
    truth_g = np.zeros(len(phi))
    truth_g[0] = g1_const
    assert np.linalg.norm(f1_hat.weights - truth_f) / np.linalg.norm(truth_f) <= 1e-3
    assert np.linalg.norm(g1_hat.weights - truth_g) / np.linalg.norm(truth_g) <= 1e-3
    # exact span + noise-free data: residual at quadrature level
    assert result.residual_rms <= 1e-8


def test_phase_two_residual_shrinks_with_quadrature():
    rms = []
    for step in (2e-3, 5e-4, 2e-4):
        window, xi, _, _ = _synthetic_cascade_window(step=step, n_intervals=30)
        psi = make_polynomial_basis(2, 2)
        phi = make_polynomial_basis(1, 2, vanish_at_origin=False, include_constant=True)
        problem = assemble_phase_two(window, psi, phi, xi)
        rms.append(solve_phase_two(problem, delta_rel=1e-12).residual_rms)
    assert rms[0] > rms[1] > rms[2]


def test_phase_two_residual_never_grows_with_nested_bases():
    window, xi, _, _ = _synthetic_cascade_window(step=5e-4, n_intervals=40)
    residuals = []
    for deg in (1, 2, 3):
        psi = make_polynomial_basis(2, deg)
        phi = make_polynomial_basis(1, deg, vanish_at_origin=False, include_constant=True)
        problem = assemble_phase_two(window, psi, phi, xi)
        residuals.append(solve_phase_two(problem, delta_rel=1e-14).residual_rms)
    assert residuals[1] <= residuals[0] + 1e-15
    assert residuals[2] <= residuals[1] + 1e-15
    # truth is degree 2: from there on the residual is quadrature noise
    assert residuals[1] <= 1e-8


def test_zero_zeta_window_assembles_to_zero():
    xi = _linear_xi(-0.5)
    t = np.arange(0, 1.0 + 1e-12, 1e-3)
    x = 0.6 * np.sin(2.0 * t)[:, None]
    z = xi.evaluate_many(x)  # z tracks xi exactly: zeta == 0
    traj = Trajectory(
        t=t, x=x, u=np.zeros(t.size), x_input=z + 0.1, z=z, z_input=np.ones(t.size)
    )
    window = SampleWindow.from_trajectory(traj, 0.1, 10)
    psi = make_polynomial_basis(2, 2)
    phi = make_polynomial_basis(1, 1, vanish_at_origin=False, include_constant=True)
    problem = assemble_phase_two(window, psi, phi, xi)
    assert np.allclose(problem.theta, 0.0, atol=1e-12)
    assert np.allclose(problem.targets, 0.0, atol=1e-12)


def test_duplicate_intervals_fail_excitation():
    window, xi, _, _ = _synthetic_cascade_window(step=1e-3, n_intervals=20)
    psi = make_polynomial_basis(2, 2)
    phi = make_polynomial_basis(1, 2, vanish_at_origin=False, include_constant=True)
    problem = assemble_phase_two(window, psi, phi, xi)
    problem.theta = np.tile(problem.theta[:1], (problem.theta.shape[0], 1))
    with pytest.raises(PEViolation):
        solve_phase_two(problem)


def test_phase_one_raw_policy_tracking_gives_pure_evaluation():
    # when z follows the current policy exactly and the disturbance is
    # off, the composite mismatch vanishes: all policy columns are zero
    from robustpi.online_pi import assemble_regression
    from robustpi.experiments import build_cascade_system

    bench = build_cascade_system()
    policy0 = Approximant(BasisSet(dim=1, indices=((1,),)), np.array([-0.3]))
    t = np.arange(0, 2.0 + 1e-12, 1e-3)
    x = (0.5 * np.sin(1.3 * t))[:, None]
    z = policy0.evaluate_many(x)
    traj = Trajectory(t=t, x=x, u=np.zeros(t.size), x_input=z, z=z,
                      z_input=np.zeros(t.size))
    window = SampleWindow.from_trajectory(traj, 0.1, 20)
    bv = make_polynomial_basis(1, 2)
    bu = make_polynomial_basis(1, 2)
    problem = assemble_regression(window, bv, bu, policy0, bench.cost)
    assert np.allclose(problem.theta[:, len(bv):], 0.0, atol=1e-12)


def test_backstepped_policy_zero_at_origin():
    xi = _linear_xi(-0.5)
    psi = make_polynomial_basis(2, 2)
    phi = make_polynomial_basis(1, 1, vanish_at_origin=False, include_constant=True)
    f1_hat = Approximant(psi, np.array([0.1, -0.2, 0.0, 1.0, 0.05]))
    g1_hat = Approximant(phi, np.array([-0.5, 0.0]))
    learned = Approximant(BasisSet(dim=1, indices=((1,),)), np.array([-0.4]))
    policy = BacksteppedPolicy(f1_hat, g1_hat, learned, xi, 0.5, 0.8, 1.0)
    assert policy(np.array([0.0]), 0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("rho", [0.5, 0.3], ids=["constant_0.5", "constant_0.3"])
def test_backstepped_policy_single_point_matches_batched_row_exactly(rho):
    # the reference is a one-row batch, what the call computed before; a row
    # of a larger batch may differ in the last bits through the BLAS product.
    # With rho = 0.5, rho1 = 1 and its products are exact, so 0.3 is run too:
    # there a reordered term shows.
    rng = np.random.default_rng(17)
    psi = make_polynomial_basis(2, 2)
    phi = make_polynomial_basis(1, 2, vanish_at_origin=False, include_constant=True)
    deg5 = make_polynomial_basis(1, 5)
    xi = robust_redesign(Approximant(deg5, rng.normal(size=len(deg5))), rho, 1.0, 0.8)
    policy = BacksteppedPolicy(
        Approximant(psi, rng.normal(size=len(psi))),
        Approximant(phi, rng.normal(size=len(phi))),
        Approximant(deg5, rng.normal(size=len(deg5))),
        xi, rho, 0.8, 1.0,
    )
    xs = rng.uniform(-2.0, 2.0, size=(200, 1))
    zs = rng.uniform(-2.0, 2.0, size=200)
    for x, z in zip(xs, zs):
        assert policy(x, z) == float(policy.evaluate_many(x[None], [z])[0])


def test_xi_gradient_needs_a_constant_rho():
    # xi's exact gradient is the scale times the base gradient, which holds
    # for a constant rho only: a varying one is refused when xi is made
    base = Approximant(BasisSet(dim=1, indices=((1,), (3,))), np.array([-0.4, 0.1]))
    with pytest.raises(ValueError, match="constant"):
        robust_redesign(base, lambda s: 0.5 + np.asarray(s), 1.0, 0.5)


def test_backstepped_policy_zeta_terms_cancel():
    xi = _linear_xi(-0.5)
    psi = make_polynomial_basis(2, 2)
    phi = make_polynomial_basis(1, 1, vanish_at_origin=False, include_constant=True)
    f1_hat = Approximant(psi, np.array([0.1, -0.2, 0.0, 1.0, 0.05]))
    g1_hat = Approximant(phi, np.array([-0.5, 0.0]))
    learned = Approximant(BasisSet(dim=1, indices=((1,),)), np.array([-0.4]))
    r = 1.0
    policy = BacksteppedPolicy(f1_hat, g1_hat, learned, xi, 0.5, 0.8, r)
    x = np.array([0.6])
    z = float(xi(x))  # zeta = 0
    expected = -f1_hat.evaluate(np.array([x[0], z])) + 2.0 * r * learned.evaluate(x)
    assert policy(x, z) == pytest.approx(expected, abs=1e-12)


def test_redesign_error_closed_forms():
    xi = _linear_xi(-0.5)
    psi = make_polynomial_basis(2, 2)
    phi = make_polynomial_basis(1, 1, vanish_at_origin=False, include_constant=True)
    f_true = lambda x, z: np.asarray(x, dtype=float)[..., 0] * z
    g_true = lambda x: 1.0
    f1_exact = Approximant(psi, np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
    g1_exact = Approximant(phi, np.array([1.0, 0.0]))
    policy = Approximant(BasisSet(dim=1, indices=((1,),)), np.array([-0.4]))
    rho1 = 2.0 * 0.5
    exact = backstepped_redesign_error(
        f_true, f1_exact, policy, policy, g_true, g1_exact, rho1, xi, 1.0
    )
    pts = np.array([[0.3], [-0.8]])
    zetas = np.array([0.2, -0.4])
    assert np.allclose(exact(pts, zetas), 0.0, atol=1e-12)

    # constant offset in the identified drift shows up verbatim
    f1_off = Approximant(
        make_polynomial_basis(2, 2, vanish_at_origin=False, include_constant=True),
        np.array([0.7, 0.0, 0.0, 0.0, 1.0, 0.0]),
    )
    offset = backstepped_redesign_error(
        f_true, f1_off, policy, policy, g_true, g1_exact, rho1, xi, 1.0
    )
    assert np.allclose(offset(pts, zetas), 0.7, atol=1e-12)


def test_cascade_truth_matches_hand_derivation():
    from robustpi.experiments import build_cascade_system

    bench = build_cascade_system()
    xi = _linear_xi(-0.466)
    f1_bar, g1_bar = cascade_truth(bench.model, xi)
    x, z = 0.5, -0.3
    # f1 - xi'*(f + g z) with f = -x, g = 1
    expected = x * z - (-0.466) * (-x) - (-0.466) * z
    assert f1_bar(np.array([[x]]), np.array([z]))[0] == pytest.approx(expected, abs=1e-15)
    assert g1_bar(np.array([[x]]))[0] == pytest.approx(-0.466, abs=1e-15)


def _lin(slope):
    return ClassKFunction.linear(slope, 1e6)


def _cascade_gains(**slopes):
    """A cascade gain set of linear gains, slope 1 unless given, with a W."""
    names = ("kappa1", "kappa2", "kappa3", "lam_lo", "alpha_lo", "alpha_hi",
             "kappa5", "kappa6", "kappa7")
    gains = {name: _lin(slopes.get(name, 1.0)) for name in names}
    gains["W"] = lambda w: np.sum(np.asarray(w, dtype=float) ** 2, axis=-1)
    return gains


def test_cascade_small_gain_linear_cases():
    # gamma1 slope 2 vs chain slope 1: holds
    report, _ = check_small_gain_cascade(
        _lin(2.0), _cascade_gains(kappa7=0.2), _lin(0.5), s_max=5.0
    )
    assert report.holds
    # a large z-channel gain dominates through the doubling: fails
    report, _ = check_small_gain_cascade(
        _lin(2.0), _cascade_gains(kappa7=3.0), _lin(0.5), s_max=5.0
    )
    assert not report.holds
    assert report.margin < 0


def test_effective_gain_bookkeeping():
    gains = _cascade_gains(kappa5=0.3, kappa6=0.1, kappa7=0.2, kappa1=0.25, kappa2=0.05)
    given = dict(gains)
    effective = cascade_effective_gains(gains, _lin(0.5), 5.0)
    # kappa1_eff = max(kappa1, kappa5)
    assert effective["kappa1"](1.0) == pytest.approx(max(0.25, 0.3))
    # kappa9(1) = max(0.1, kappa7(kappa8(2)), kappa7(2)) = max(0.1, 0.2, 0.4)
    assert effective["kappa2"](1.0) == pytest.approx(max(0.05, 0.4))
    # a copy: the given set is untouched, and every other entry is the given object
    assert all(gains[name] is given[name] for name in given) and gains.keys() == given.keys()
    assert effective.keys() == gains.keys()
    for name in gains.keys() - {"kappa1", "kappa2"}:
        assert effective[name] is gains[name], name

    # the cascade check returns the set it scored: the plain check on that
    # set gives the same report, field for field and bit for bit
    gamma1 = _lin(2.0)
    report, scored = check_small_gain_cascade(gamma1, gains, _lin(0.5), s_max=5.0)
    assert scored.keys() == gains.keys()
    for name in gains.keys() - {"kappa1", "kappa2"}:
        assert scored[name] is gains[name], name
    for name in ("kappa1", "kappa2"):
        assert scored[name](1.0) == effective[name](1.0)
    want = check_small_gain(gamma1, scored, s_max=5.0)
    assert report.holds == want.holds
    assert report.margin == want.margin
    assert report.relative_margin == want.relative_margin
    for key in ("ladder", "lhs", "rhs"):
        assert np.array_equal(getattr(report, key), getattr(want, key)), key
    assert report.table() == want.table()


def test_estimate_roa_cascade_identity_sigma():
    from robustpi.robust import estimate_roa

    xi = _linear_xi(-0.5)
    value = Approximant(BasisSet(dim=1, indices=((2,),)), np.array([1.0]))
    comp = CompositeLyapunov(value, xi)
    w_fn = lambda w: np.sum(np.asarray(w, dtype=float) ** 2, axis=-1)
    roa = estimate_roa(comp, w_fn, 1.0, ClassKFunction.linear(1.0, 1e6))
    # U = x^2 + zeta^2/2 <= 1 and w^2 <= 1
    assert roa.contains([0.5, 0.5], [0.5])
    assert not roa.contains([1.2, 0.0], [0.0])
    assert not roa.contains([0.0, 0.0], [1.2])
