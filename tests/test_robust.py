import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    check_basic,
    per_candidate_select_rho,
    scalar_bisection_inverse,
    scalar_chain_inverse,
    uncompacted_bisect,
)

from robustpi import robust
from robustpi.basis import Approximant, BasisSet, make_polynomial_basis
from robustpi.errors import CompositionDomain, DimensionMismatch
from robustpi.experiments import build_arm_system
from robustpi.robust import (
    ClassKFunction,
    build_chi_pair,
    certify_error_bound,
    check_small_gain,
    estimate_roa,
    interconnection_sigma,
    iss_gain_from_rho,
    log_ladder,
    monotone_envelope,
    radial_envelopes,
    redesign_error,
    robust_redesign,
    select_rho,
)


def test_linear_gain_inverse_roundtrip():
    gain = ClassKFunction.linear(3.0, 100.0)
    for s in log_ladder(50.0, 40):
        assert gain.inverse(float(gain(s))) == pytest.approx(s, rel=1e-9)


@given(st.floats(0.01, 10.0), st.floats(0.5, 3.0))
@settings(max_examples=30, deadline=None)
def test_power_gain_inverse_roundtrip(coef, expo):
    gain = ClassKFunction.power(coef, expo, 1e4)
    for s in (1e-3, 0.1, 7.0, 90.0):
        assert gain.inverse(float(gain(s))) == pytest.approx(s, rel=1e-9)


def test_inverse_outside_range_raises():
    gain = ClassKFunction.linear(1.0, 10.0)
    with pytest.raises(CompositionDomain):
        gain.inverse(11.0)
    with pytest.raises(CompositionDomain):
        gain.inverse(-1.0)
    with pytest.raises(CompositionDomain):
        gain.inverse(np.array([0.0, 2.0, -1e-9, 5.0]))
    with pytest.raises(CompositionDomain):
        gain.inverse(np.array([0.0, 2.0, 11.0, 5.0]))
    # a NaN target has no inverse, alone or as one element of an array
    for bad in (ClassKFunction.linear(2.0, 1e7), gain, _inverse_gains()["chi1"]):
        with pytest.raises(CompositionDomain):
            bad.inverse(np.nan)
        with pytest.raises(CompositionDomain):
            bad.inverse(np.array([0.0, 1.0, np.nan, 2.0]))


def _chi_gains():
    """gamma, kappa1, kappa3, lam_lo, alpha_lo, alpha_hi for `build_chi_pair`."""
    return (
        ClassKFunction.linear(2.0, 1e6),
        ClassKFunction.linear(0.5, 1e6),
        ClassKFunction.power(0.25, 2.0, 1e6),
        ClassKFunction.power(1.0, 2.0, 1e6),
        ClassKFunction.power(1.0, 2.0, 1e6),
        ClassKFunction.power(4.0, 2.0, 1e6),
    )


def _inverse_gains():
    chi1, _ = build_chi_pair(*_chi_gains(), 10.0)
    return {
        "linear": ClassKFunction.linear(3.0, 100.0),
        "power": ClassKFunction.power(0.7, 1.5, 1e4),
        "from_samples": ClassKFunction.from_samples(
            np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, 2.0])
        ),
        "iss_gain_from_rho": iss_gain_from_rho(2.0, 0.1),
        "chi1": chi1,
    }


@pytest.mark.parametrize("name", ["linear", "power", "from_samples", "iss_gain_from_rho", "chi1"])
def test_array_inverse_matches_scalar_calls(name):
    gain = _inverse_gains()[name]
    ys = np.concatenate([[0.0], np.asarray(gain(log_ladder(0.9 * gain.s_max, 11)))])
    ys = ys.reshape(3, 4)
    each = np.array([gain.inverse(np.asarray(y)) for y in ys.ravel()]).reshape(ys.shape)
    together = gain.inverse(ys)
    assert together.shape == ys.shape
    assert np.array_equal(together, each)
    # a chain inverts link by link.  Bisecting its composite gives the old
    # answer, which stops within 1e-12 * max(1, s): absolute below s = 1
    nested = [scalar_bisection_inverse(gain, y) for y in ys.ravel()]
    if gain.links:
        reference = [scalar_chain_inverse(gain, y) for y in ys.ravel()]
        np.testing.assert_allclose(together.ravel(), nested, rtol=1e-9, atol=1e-12)
    else:
        reference = nested
    assert np.array_equal(together.ravel(), reference)
    assert isinstance(gain.inverse(np.asarray(ys[0, 3])), float)


def test_maximum():
    f = ClassKFunction.linear(2.0, 100.0)
    g = ClassKFunction.power(1.0, 2.0, 100.0)
    m = ClassKFunction.maximum(f, g)
    assert m(0.5) == pytest.approx(1.0)  # max(1.0, 0.25)
    assert m(3.0) == pytest.approx(9.0)  # max(6.0, 9.0)


def test_tabulated_gain_interpolates_and_extends():
    s = np.array([1.0, 2.0, 3.0])
    v = np.array([0.5, 1.5, 2.0])
    gain = ClassKFunction.from_samples(s, v)
    assert gain(0.0) == 0.0
    assert gain(1.5) == pytest.approx(1.0)
    assert gain(4.0) == pytest.approx(2.5)  # linear tail
    assert check_basic(gain)


def test_check_basic_flags_non_monotone():
    bad = ClassKFunction(fn=lambda s: np.sin(np.asarray(s)), s_max=10.0)
    assert not check_basic(bad)
    pd_only = ClassKFunction(
        fn=lambda s: np.asarray(s) ** 2 * np.exp(-np.asarray(s)),
        s_max=10.0,
    )
    assert check_basic(pd_only, positive_definite_only=True)


def test_gain_from_rho_closed_forms():
    gamma = iss_gain_from_rho(2.0, 0.1)
    assert gamma(4.0) == pytest.approx(0.4)  # 0.5*0.1*2*s
    gamma = iss_gain_from_rho(5.0, 1.0)
    assert gamma(2.0) == pytest.approx(5.0)  # 0.5*1*5*2
    for s in log_ladder(20.0, 30):
        assert gamma.inverse(float(gamma(s))) == pytest.approx(s, rel=1e-9)


def test_robust_redesign_scales_policy():
    basis = BasisSet(dim=1, indices=((1,),))
    base = Approximant(basis, np.array([-1.0]))
    c = 0.8
    policy = robust_redesign(
        base, lambda s: np.full_like(np.asarray(s, dtype=float), c), 1.0, 0.5
    )
    x = np.array([0.7])
    assert policy(x) == pytest.approx(-(1.0 + c**2 / 2.0) * 0.7)
    assert policy(np.array([0.0])) == 0.0
    zero = robust_redesign(
        Approximant(basis, np.array([0.0])),
        lambda s: np.full_like(np.asarray(s, dtype=float), c), 1.0, 0.5,
    )
    assert zero(np.array([0.3])) == 0.0


def test_robust_redesign_rejects_bad_rho():
    basis = BasisSet(dim=1, indices=((1,),))
    base = Approximant(basis, np.array([-1.0]))
    with pytest.raises(ValueError):
        robust_redesign(base, lambda s: 0.0 * np.asarray(s), 1.0, 0.5)
    with pytest.raises(ValueError):
        robust_redesign(base, lambda s: 1.0 - np.asarray(s, dtype=float), 1.0, 0.5)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            robust_redesign(base, bad, 1.0, 0.5)


def _identity(s_max=1e6):
    return ClassKFunction.linear(1.0, s_max)


def _identity_gain_set():
    names = ("kappa1", "kappa2", "kappa3", "lam_lo", "alpha_lo", "alpha_hi")
    return {name: _identity() for name in names}


def test_small_gain_linear_holds():
    report = check_small_gain(ClassKFunction.linear(2.0, 1e6), _identity_gain_set(), s_max=10.0)
    assert report.holds
    # both sides linear: margin at each ladder point equals s itself
    assert np.allclose(report.lhs - report.rhs, report.ladder)
    assert report.margin > 0


def test_small_gain_linear_fails():
    report = check_small_gain(ClassKFunction.linear(0.5, 1e6), _identity_gain_set(), s_max=10.0)
    assert not report.holds
    assert report.margin == pytest.approx(-0.5 * 10.0, rel=1e-6)


def test_select_rho_returns_smallest_passing():
    gain_set = {
        "kappa1": ClassKFunction.linear(0.5, 1e6),
        "kappa2": ClassKFunction.linear(0.05, 1e6),
        "kappa3": ClassKFunction.power(0.0625, 2.0, 1e6),
        "lam_lo": ClassKFunction.power(1.0, 2.0, 1e6),
        "alpha_lo": ClassKFunction.power(0.4, 2.0, 1e6),
        "alpha_hi": ClassKFunction.power(0.43, 2.0, 1e6),
    }
    ladder = np.geomspace(0.05, 5.0, 80)
    rho, report = select_rho(ladder, 0.8, gain_set, s_max=5.0)
    assert report.holds and report.relative_margin >= 0.10
    # chain slope: 0.5 * 0.25 * sqrt(0.43/0.4) = 0.1296; gamma slope 0.4*rho
    needed = 1.1 * 0.5 * 0.25 * np.sqrt(0.43 / 0.4) / 0.4
    below = ladder[ladder < needed]
    assert rho >= needed * 0.99
    if below.size:
        assert rho <= needed * (ladder[1] / ladder[0]) * 1.01


def test_redesign_error_closed_forms():
    basis = BasisSet(dim=1, indices=((1,),))
    a = Approximant(basis, np.array([-0.4]))
    b = Approximant(basis, np.array([-0.3]))
    same = redesign_error(a, a, a, 1.0, 1.0)
    assert np.allclose(same(np.array([[0.5], [2.0]])), 0.0)
    # learned equals the improved iterate: only the iterate gap remains
    gap = redesign_error(a, b, a, 1.0, 1.0)
    x = np.array([[0.5]])
    assert gap(x)[0] == pytest.approx(a.evaluate_many(x)[0] - b.evaluate_many(x)[0])


def test_redesign_error_takes_a_plain_callable_reference():
    # with one online iterate the reference policy u*_0 is the plant's initial
    # policy, a lambda that takes batches; it must act as the same Approximant
    initial = build_arm_system().initial_policy
    as_approximant = Approximant(make_polynomial_basis(2, 1), np.array([-0.5, -0.5]))
    rng = np.random.default_rng(4)
    basis = make_polynomial_basis(2, 3)
    learned = Approximant(basis, rng.normal(size=len(basis)))
    following = Approximant(basis, rng.normal(size=len(basis)))
    pts = rng.uniform(-1.0, 1.0, size=(300, 2))
    errors = [
        redesign_error(learned, now, following, 2.0, 1.0)(pts)
        for now in (initial, as_approximant)
    ]
    np.testing.assert_array_equal(errors[0], errors[1])


def test_certify_error_bound_levels():
    basis = BasisSet(dim=1, indices=((2,),))
    value = Approximant(basis, np.array([1.0]))
    gamma = ClassKFunction.linear(1.0, 1e6)
    # |e(x)| = 0.5|x| < gamma on any level set
    ok = certify_error_bound(
        lambda pts: 0.5 * np.linalg.norm(np.atleast_2d(pts), axis=1),
        gamma, value, d_ladder=np.geomspace(0.01, 1.0, 10),
        sample_low=[-1.5], sample_high=[1.5], n_samples=500, seed=0,
    )
    assert ok is not None and ok.d == pytest.approx(1.0)
    # |e| = 2|x| exceeds gamma everywhere: nothing certifiable
    bad = certify_error_bound(
        lambda pts: 2.0 * np.linalg.norm(np.atleast_2d(pts), axis=1),
        gamma, value, d_ladder=np.geomspace(0.01, 1.0, 10),
        sample_low=[-1.5], sample_high=[1.5], n_samples=500, seed=0,
    )
    assert bad is None


def test_region_estimate_identity_sigma():
    basis = BasisSet(dim=1, indices=((2,),))
    value = Approximant(basis, np.array([1.0]))
    w_fn = lambda w: np.sum(np.asarray(w, dtype=float) ** 2, axis=-1)
    roa = estimate_roa(value, w_fn, 1.0, _identity())
    assert roa.contains([0.9], [0.9])
    assert not roa.contains([1.1], [0.0])
    assert not roa.contains([0.0], [1.1])
    assert roa.w_bound() == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(ValueError):
        estimate_roa(value, w_fn, 0.0, _identity())


def test_region_estimate_shrinks_with_level():
    basis = BasisSet(dim=1, indices=((2,),))
    value = Approximant(basis, np.array([1.0]))
    w_fn = lambda w: np.sum(np.asarray(w, dtype=float) ** 2, axis=-1)
    tiny = estimate_roa(value, w_fn, 1e-10, _identity())
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=1)
        w = rng.uniform(-1, 1, size=1)
        if abs(x[0]) > 1e-4 or abs(w[0]) > 1e-4:
            assert not tiny.contains(x, w)


def test_region_boundary_points_lie_on_level_set():
    basis = make_polynomial_basis(2, 2)
    value = Approximant(basis, np.array([0.0, 0.0, 2.0, 0.0, 0.5]))
    w_fn = lambda w: np.sum(np.asarray(w, dtype=float) ** 2, axis=-1)
    roa = estimate_roa(value, w_fn, 1.0, _identity())
    pts = roa.boundary_points(2, n=24)
    vals = value.evaluate_many(pts)
    assert np.allclose(vals, 1.0, atol=1e-6)


def test_region_boundary_points_one_dimensional():
    basis = BasisSet(dim=1, indices=((2,),))
    value = Approximant(basis, np.array([4.0]))
    w_fn = lambda w: np.sum(np.asarray(w, dtype=float) ** 2, axis=-1)
    roa = estimate_roa(value, w_fn, 1.0, _identity())
    pts = roa.boundary_points(1)
    assert pts.shape == (2, 1)
    assert np.allclose(pts[:, 0], [0.5, -0.5], rtol=1e-12)


def test_interconnection_sigma_sits_between_loop_gains():
    chi1 = ClassKFunction.linear(0.5, 1e6)  # inverse slope 2
    chi2 = ClassKFunction.linear(1.0, 1e6)
    sigma = interconnection_sigma(chi1, chi2, 10.0)
    ladder = log_ladder(10.0, 60)
    s_vals = np.asarray(sigma(ladder))
    chi2_vals = np.asarray(chi2(ladder))
    chi1_inv = 2.0 * ladder
    chi_hat = np.sqrt(chi2_vals * chi1_inv)
    assert np.all(s_vals > chi2_vals)
    assert np.all(s_vals < chi_hat + 1e-12)
    assert np.all(np.diff(s_vals) >= 0)


def test_interconnection_sigma_requires_contraction():
    chi1 = ClassKFunction.linear(2.0, 1e6)  # inverse slope 0.5 < chi2
    chi2 = ClassKFunction.linear(1.0, 1e6)
    with pytest.raises(CompositionDomain):
        interconnection_sigma(chi1, chi2, 10.0)


def test_build_chi_pair_composes_correctly():
    gamma = ClassKFunction.linear(2.0, 1e6)
    kappa1 = ClassKFunction.linear(0.5, 1e6)
    kappa3 = ClassKFunction.power(0.25, 2.0, 1e6)
    lam_lo = ClassKFunction.power(1.0, 2.0, 1e6)
    alpha_lo = ClassKFunction.power(1.0, 2.0, 1e6)
    alpha_hi = ClassKFunction.power(4.0, 2.0, 1e6)
    chi1, chi2 = build_chi_pair(gamma, kappa1, kappa3, lam_lo, alpha_lo, alpha_hi, 10.0)
    # chi1(s) = alpha_hi(gamma^-1(kappa1(sqrt(s)))) = 4*(0.25*sqrt(s))^2
    assert chi1(4.0) == pytest.approx(4.0 * (0.25 * 2.0) ** 2, rel=1e-6)
    # chi2(s) = kappa3(sqrt(s))
    assert chi2(4.0) == pytest.approx(0.25 * 4.0, rel=1e-9)


def test_chain_forward_matches_nested_lambda_bit_for_bit():
    gamma, kappa1, kappa3, lam_lo, alpha_lo, alpha_hi = _chi_gains()
    chi1, chi2 = build_chi_pair(gamma, kappa1, kappa3, lam_lo, alpha_lo, alpha_hi, 10.0)
    nested1 = lambda s: alpha_hi(gamma.inverse(kappa1(lam_lo.inverse(s))))
    nested2 = lambda s: kappa3(alpha_lo.inverse(s))
    ladder = np.concatenate([[0.0], log_ladder(10.0, 37)])
    assert np.asarray(chi1(ladder)).tobytes() == np.asarray(nested1(ladder)).tobytes()
    assert np.asarray(chi2(ladder)).tobytes() == np.asarray(nested2(ladder)).tobytes()
    for s in (0.0, 3.7):
        assert float(chi1(s)) == float(nested1(np.asarray(s)))


def test_chain_inverse_round_trips_without_its_forward_map():
    chi1, _ = build_chi_pair(*_chi_gains(), 10.0)
    ys = np.concatenate([[0.0], np.asarray(chi1(log_ladder(10.0, 25)))])
    forward = chi1.fn
    chi1.fn = lambda s: pytest.fail("a chain's inverse called its fn")
    inverted = chi1.inverse(ys)
    chi1.fn = forward
    np.testing.assert_allclose(np.asarray(chi1(inverted)), ys, rtol=1e-9, atol=0.0)
    with pytest.raises(CompositionDomain):
        chi1.inverse(float(chi1(10.0)) * 1.01)


def test_bisect_matches_the_uncompacted_transcription_bit_for_bit():
    def traced(calls):
        def fn(mid, idx):
            calls.append(idx.copy())
            return mid ** 3
        return fn

    y = np.array([[8.0, 1e-9, 0.0, 5e5], [2.0, 1e-3, 7.0, 1e6]])
    hi = np.array([[1e7, 1e7, 0.0, 1e7], [-0.0, 1e3, -1.0, np.nan]])
    cases = [
        (y, hi, 1e-12, 200),  # elements stop at different steps; hi <= 0 and NaN
        (y, 1e7, 0.0, 7),  # the iteration cap stops every element
        (np.asarray(3.0), 10.0, 1e-12, 200),  # a 0-d target
    ]
    for target, bracket, tol, iters in cases:
        got_calls, want_calls = [], []
        got = robust._bisect(traced(got_calls), target, bracket, tol=tol, iters=iters)
        want = uncompacted_bisect(traced(want_calls), target, bracket, tol=tol, iters=iters)
        assert got.shape == want.shape == np.shape(target)
        assert got.tobytes() == want.tobytes()
        assert len(got_calls) == len(want_calls)
        for a, b in zip(got_calls, want_calls):
            assert np.array_equal(a, b) and np.all(np.diff(a) > 0)
        if target is y and iters == 200:
            assert len({c.size for c in got_calls}) > 2  # elements stop at different steps


def test_radial_envelopes_sandwich_quadratic():
    basis = make_polynomial_basis(2, 2)
    value = Approximant(basis, np.array([0.0, 0.0, 3.0, 1.0, 0.7]))
    lo, hi = radial_envelopes(value, 2, 2.0)
    p = np.array([[3.0, 0.5], [0.5, 0.7]])
    eigs = np.linalg.eigvalsh(p)
    assert lo(1.0) == pytest.approx(eigs[0], rel=0.05)
    assert hi(1.0) == pytest.approx(eigs[1], rel=0.05)
    assert lo(1.0) <= eigs[0] and hi(1.0) >= eigs[1]
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.4, 1.4, size=(200, 2))
    vals = value.evaluate_many(pts)
    radii = np.linalg.norm(pts, axis=1)
    assert np.all(np.asarray(lo(radii)) <= vals + 1e-9)
    assert np.all(np.asarray(hi(radii)) >= vals - 1e-9)


def test_radial_envelopes_reject_indefinite():
    basis = make_polynomial_basis(2, 2)
    value = Approximant(basis, np.array([0.0, 0.0, 1.0, 0.0, -1.0]))
    with pytest.raises(CompositionDomain, match="not positive definite"):
        radial_envelopes(value, 2, 1.0)
    # a clip box that holds none of the sampled ball
    definite = Approximant(basis, np.array([0.0, 0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(CompositionDomain, match="clip box"):
        radial_envelopes(definite, 2, 1.0, clip_low=[2.0, 2.0], clip_high=[3.0, 3.0])


def test_monotone_envelope_bounds_linear_map():
    basis = BasisSet(dim=1, indices=((1,),))
    xi = Approximant(basis, np.array([-0.44]))
    env = monotone_envelope(xi, 1, 4.0)
    for r in (0.5, 1.0, 3.0):
        assert env(r) >= 0.44 * r - 1e-9
        assert env(r) <= 0.44 * r * 1.05 + 1e-9
    assert env(0.0) == 0.0


@pytest.mark.parametrize("control_weight", [1.0, 0.37])
@pytest.mark.parametrize("c", [0.5, 1.0, 3.3, 9.560432119])
def test_constant_rho_scale_matches_scale_many(c, control_weight):
    rng = np.random.default_rng(int(c * 100))
    basis = make_polynomial_basis(2, 5)
    base = Approximant(basis, rng.normal(size=len(basis)))
    pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
    pts[0] = 0.0
    policy = robust_redesign(base, c, control_weight, 0.5)
    assert policy.rho == c
    assert policy.scale == 1.0 + 0.5 * control_weight * c**2
    batched = policy.evaluate_many(pts)
    assert np.array_equal(batched, policy.scale * base.evaluate_many(pts))
    # the same rho and scale through a constant callable, read once
    plain = robust_redesign(
        base, lambda s: np.full_like(np.asarray(s, dtype=float), c), control_weight, 0.5
    )
    assert plain.rho == c and plain.scale == policy.scale
    for x, want in zip(pts, batched):
        got = policy.evaluate(x)
        assert got == float(policy.evaluate_many(np.atleast_2d(x))[0])
        assert got == plain.evaluate(x)
    assert np.array_equal(batched, plain.evaluate_many(pts))


def test_robust_redesign_reads_a_constant_callable_once():
    # a constant callable rho is read when the policy is made, and never
    # again: no evaluate path, and not the gain, calls it per point
    calls = []

    def rho(s):
        calls.append(np.shape(s))
        return np.full_like(np.asarray(s, dtype=float), 0.7)

    rng = np.random.default_rng(5)
    basis = make_polynomial_basis(2, 5)
    base = Approximant(basis, rng.normal(size=len(basis)))
    policy = robust_redesign(base, rho, 0.37, 0.5)
    assert calls == [(3,)]
    pts = rng.uniform(-1.0, 1.0, size=(50, 2))
    policy.evaluate(pts[0])
    policy.evaluate(pts[0].tolist())
    policy.evaluate_many(pts[:1])
    policy.evaluate_many(pts)
    policy.gradient_many(pts)
    policy.gamma(np.linalg.norm(pts, axis=1))
    assert calls == [(3,)]
    assert policy.rho == 0.7


@pytest.mark.parametrize("dim", [1, 2, 9])
def test_one_row_robust_policy_equals_the_batch_formula_exactly(dim):
    # one point, and a one-row evaluate_many, take the scale and the base
    # value at the point; both must keep the bits of the batch formula
    # scale * base.evaluate_many, for a constant-lambda rho as for a float
    rng = np.random.default_rng(70 + dim)
    basis = make_polynomial_basis(dim, 5 if dim < 9 else 2)
    base = Approximant(basis, rng.normal(size=len(basis)))
    rhos = (lambda s: np.full_like(np.asarray(s, dtype=float), 0.3), 0.3, 2.0 / 3.0)
    pts = rng.normal(size=(200, dim)) * 10.0 ** rng.integers(-3, 2, size=(200, 1))
    pts[0] = 0.0
    for rho in rhos:
        for cw in (1.0, 0.37):
            policy = robust_redesign(base, rho, cw, 0.5)
            for x in pts:
                row = x[None]
                want = policy.scale * base.evaluate_many(row)
                got = policy.evaluate_many(row)
                assert got.shape == (1,) and got.tobytes() == want.tobytes(), (rho, x)
                assert policy.evaluate(x) == float(want[0])


def test_robust_evaluate_is_the_scale_times_the_base_value_bit_for_bit():
    # one point goes through the base's generated sum ending in scale * acc:
    # it must give scale * base.evaluate(x) in every bit, at non-finite and
    # signed-zero weights and points too, and refuse what the base refuses
    rng = np.random.default_rng(12)
    basis = make_polynomial_basis(2, 3)
    nan = np.array([0xFFF8_0000_0000_0456], dtype=np.uint64).view(float)[0]
    bits = lambda v: np.asarray(v, dtype=float).tobytes()
    entries = [0.7, -2.1, -0.0, nan, 1e200]
    for special in (0.25, -0.0, np.inf, nan):
        weights = rng.normal(size=len(basis))
        weights[3] = special
        base = Approximant(basis, weights)
        for rho in (0.3, 2.0 / 3.0, 1e-3):
            policy = robust_redesign(base, rho, 0.37, 0.5)
            for x in itertools.product(entries, repeat=2):
                for form in (list(x), x, np.array(x)):
                    want = bits(policy.scale * base.evaluate(form))
                    assert bits(policy.evaluate(form)) == want, (special, rho, form)
                    assert bits(policy(form)) == want
    for bad in (np.zeros(3), [0.1], 0.5, np.zeros((2, 2)), [[0.1, 0.2]] * 2):
        with pytest.raises(DimensionMismatch, match="basis has dim 2"):
            policy.evaluate(bad)


def _arm_like_gain_set():
    arm = build_arm_system()
    gains = arm.uncertainty.iss_bounds
    return {
        "kappa1": gains["kappa1"],
        "kappa2": gains["kappa2"],
        "kappa3": gains["kappa3"],
        "lam_lo": gains["lam_lo"],
        "alpha_lo": ClassKFunction.power(0.9, 2.0, 1e7, name="alpha_lo"),
        "alpha_hi": ClassKFunction.power(3.1, 2.0, 1e7, name="alpha_hi"),
    }


@pytest.mark.parametrize("relative_margin", [0.0, 0.10, 0.5])
def test_select_rho_matches_per_candidate_loop_exactly(relative_margin):
    for gain_set, margin, s_max in (
        (_arm_like_gain_set(), 0.95, 8.0),
        (
            {
                "kappa1": ClassKFunction.linear(0.5, 1e6),
                "kappa2": ClassKFunction.linear(0.05, 1e6),
                "kappa3": ClassKFunction.power(0.0625, 2.0, 1e6),
                "lam_lo": ClassKFunction.power(1.0, 2.0, 1e6),
                "alpha_lo": ClassKFunction.power(0.4, 2.0, 1e6),
                "alpha_hi": ClassKFunction.power(0.43, 2.0, 1e6),
            },
            0.8,
            5.0,
        ),
    ):
        for ladder in (np.geomspace(0.1, 50.0, 160), np.geomspace(0.05, 5.0, 80)):
            want = per_candidate_select_rho(
                ladder, margin, gain_set, s_max=s_max, relative_margin=relative_margin
            )
            if want is None:
                with pytest.raises(CompositionDomain, match="no rho on the search ladder"):
                    select_rho(
                        ladder, margin, gain_set, s_max=s_max,
                        relative_margin=relative_margin,
                    )
                continue
            rho, report = select_rho(
                ladder, margin, gain_set, s_max=s_max, relative_margin=relative_margin
            )
            rho_want, report_want = want
            assert rho == rho_want
            assert report.holds == report_want.holds
            assert report.margin == report_want.margin
            assert report.relative_margin == report_want.relative_margin
            for key in ("ladder", "lhs", "rhs"):
                assert np.array_equal(getattr(report, key), getattr(report_want, key)), key
            assert report.table() == report_want.table()


def test_select_rho_reports_when_no_entry_passes():
    gain_set = _arm_like_gain_set()
    for ladder in (np.geomspace(1e-3, 1e-2, 5), np.array([])):
        assert per_candidate_select_rho(ladder, 0.95, gain_set, s_max=8.0) is None
        with pytest.raises(CompositionDomain) as err:
            select_rho(ladder, 0.95, gain_set, s_max=8.0, relative_margin=0.25)
        assert str(err.value) == (
            "no rho on the search ladder satisfies the small-gain condition "
            "with relative margin 0.25"
        )
