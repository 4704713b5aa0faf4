import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustpi.basis as basis_module
from robustpi.basis import Approximant, BasisSet, make_polynomial_basis
from robustpi.errors import DimensionMismatch

from oracles import (
    broadcast_design_matrix,
    broadcast_gradient_tensor,
    enumerate_multi_indices,
    fd_gradient,
    gamma,
    ordered_dot,
    product_factors,
    total_degree_count,
)


def test_vanishing_degree2_enumeration():
    basis = make_polynomial_basis(2, 2)
    assert basis.indices == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert len(basis) == 5


def test_degree5_count_matches_enumeration_oracle():
    basis = make_polynomial_basis(2, 5)
    assert len(basis) == total_degree_count(2, 5, include_constant=False) == 20
    assert set(basis.indices) == enumerate_multi_indices(2, 5)


def test_constant_basis():
    basis = make_polynomial_basis(1, 1, vanish_at_origin=False, include_constant=True)
    assert basis.indices == ((0,), (1,))
    assert len(basis) == 2


def test_flags_are_mutually_exclusive():
    with pytest.raises(ValueError):
        make_polynomial_basis(2, 2, vanish_at_origin=True, include_constant=True)
    with pytest.raises(ValueError):
        make_polynomial_basis(0, 2)


@given(dim=st.integers(1, 3), degree=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_counts_and_origin_property(dim, degree):
    basis = make_polynomial_basis(dim, degree)
    assert len(basis) == total_degree_count(dim, degree, include_constant=False)
    assert np.all(basis.design_matrix(np.zeros((1, dim))) == 0.0)


def test_ordering_is_graded():
    basis = make_polynomial_basis(3, 4)
    degrees = [sum(a) for a in basis.indices]
    assert degrees == sorted(degrees)


def test_serialization_round_trip():
    basis = make_polynomial_basis(2, 3)
    approx = Approximant(basis, np.linspace(-1, 1, len(basis)))
    clone = Approximant.from_dict(approx.to_dict())
    assert clone.basis.indices == basis.indices
    x = np.array([0.3, -0.7])
    assert clone.evaluate(x) == approx.evaluate(x)


def test_zero_weights_evaluate_to_zero():
    basis = make_polynomial_basis(2, 3)
    approx = Approximant(basis)
    pts = np.random.default_rng(0).normal(size=(10, 2))
    assert np.all(approx.evaluate_many(pts) == 0.0)
    assert np.all(approx.gradient_many(pts) == 0.0)


def test_single_monomial_value_and_gradient():
    basis = BasisSet(dim=2, indices=((2, 0),))
    approx = Approximant(basis, np.array([1.0]))
    assert approx.evaluate([3.0, 5.0]) == pytest.approx(9.0)
    assert approx.gradient([3.0, 5.0]) == pytest.approx([6.0, 0.0])


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    basis = make_polynomial_basis(2, 5)
    approx = Approximant(basis, rng.normal(size=len(basis)))
    worst = 0.0
    for x in rng.uniform(-1.5, 1.5, size=(100, 2)):
        analytic = approx.gradient(x)
        numeric = fd_gradient(approx.evaluate, x)
        worst = max(
            worst,
            np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12),
        )
    assert worst <= 1e-6


def test_gram_matrix_certifies_independence():
    rng = np.random.default_rng(1)
    for dim, deg in [(1, 2), (2, 5), (3, 3)]:
        basis = make_polynomial_basis(dim, deg)
        cloud = rng.uniform(-1, 1, size=(40 * len(basis), dim))
        phi = basis.design_matrix(cloud)
        assert np.linalg.eigvalsh(phi.T @ phi / phi.shape[0])[0] > 0.0


def test_dimension_mismatch():
    basis = make_polynomial_basis(2, 2)
    with pytest.raises(DimensionMismatch):
        basis.design_matrix(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatch):
        Approximant(basis, np.zeros(3))


def test_vanishing_basis_rejects_constant_index():
    with pytest.raises(ValueError):
        BasisSet(dim=1, indices=((0,), (1,)), vanish_at_origin=True)


def test_powers_is_cached_and_read_only():
    basis = make_polynomial_basis(2, 3)
    powers = basis.powers
    assert basis.powers is powers
    assert np.array_equal(powers, np.asarray(basis.indices))
    with pytest.raises(ValueError):
        powers[0, 0] = 7
    grad = basis.gradient_tensor(np.array([[0.3, -0.7]]))
    assert grad.shape == (1, len(basis), 2)
    assert basis.powers is powers
    assert np.array_equal(powers, np.asarray(basis.indices))


def _point_layouts(dim):
    """The same kind of points in every memory layout the callers produce:
    C- and F-ordered, strided and reversed views of both, and single rows.
    Values include zeros, a negative zero, negatives and magnitudes up to 1e3."""
    rng = np.random.default_rng(dim)
    scale = np.array([1.0, 10.0, 1e3, 0.1, 1.0, 100.0])
    big = rng.normal(size=(30, 6)) * scale
    big[3] = 0.0
    big[5, 1] = -0.0
    big[7, 2] = 1e3
    big[8, 0] = -1e3
    big_f = np.asfortranarray(big)
    return {
        "C": np.ascontiguousarray(big[:, :dim]),
        "F": np.asfortranarray(big[:, :dim]),
        "C rows strided": big[::3, 1 : 1 + dim],
        "F rows strided": big_f[::3, 1 : 1 + dim],
        "C cols strided": big[:, ::2][:, :dim],
        "F cols strided": big_f[:, ::2][:, :dim],
        "F column block": big_f[:, 2 : 2 + dim],
        "C reversed": big[::-1, :dim],
        "F reversed": big_f[::-1, :dim],
        "C single row": big[7:8, :dim],
        "F single row": big_f[8:9, :dim],
        "1-D point": big[5, :dim].copy(),
    }


@pytest.mark.parametrize("include_constant", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pow_table_matches_broadcast_oracle_exactly(dim, include_constant):
    # the table of repeated products gives the entries, the memory layout and
    # the BLAS product of the broadcast oracle on the same arithmetic exactly.
    # Against numpy's `**` the gap is bounded, not zero: at total degree n the
    # products carry n - 1 roundings, and the pow side at most 3n - 1 (each
    # of at most n factors within one ulp, 2u, and the products of the dims),
    # so the two stay within gamma_(4n) of each other
    rng = np.random.default_rng(10 * dim + include_constant)
    for degree in range(1, 12):
        basis = make_polynomial_basis(
            dim, degree, vanish_at_origin=not include_constant, include_constant=include_constant
        )
        weights = rng.normal(size=len(basis))
        bound = gamma(4 * basis.powers.sum(axis=1))
        for name, pts in _point_layouts(dim).items():
            got = basis.design_matrix(pts)
            want = broadcast_design_matrix(basis, pts, product_factors)
            where = f"dim {dim} degree {degree} {name}"
            assert np.array_equal(got, want), where
            assert got.flags.c_contiguous == want.flags.c_contiguous, where
            assert got.flags.f_contiguous == want.flags.f_contiguous, where
            # BLAS rounds per layout: the product must match too, not just the entries
            assert np.array_equal(got @ weights, want @ weights), where
            grad = basis.gradient_tensor(pts)
            want = broadcast_gradient_tensor(basis, pts, product_factors)
            assert np.array_equal(grad, want), where
            assert grad.flags.c_contiguous, where
            by_pow = broadcast_design_matrix(basis, pts)
            assert np.all(np.abs(got - by_pow) <= bound * np.abs(by_pow)), where
            by_pow = broadcast_gradient_tensor(basis, pts)
            assert np.all(np.abs(grad - by_pow) <= bound[:, None] * np.abs(by_pow)), where


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0, on both sides
def test_special_values_match_the_pow_oracle_bit_for_bit(dim):
    # every power of these values is exact, so the products and numpy's `**`
    # agree in every bit: x^0 is 1.0 also at NaN and +-inf, (-0.0)^k keeps
    # pow's sign, and a NaN keeps its payload
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0, -3.0]
    pts = np.array(list(itertools.product(values, repeat=dim)))
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    for degree in (1, 2, 5, 11):
        for include_constant in (False, True):
            basis = make_polynomial_basis(
                dim, degree, vanish_at_origin=not include_constant,
                include_constant=include_constant,
            )
            where = f"dim {dim} degree {degree} constant {include_constant}"
            assert np.array_equal(
                bits(basis.design_matrix(pts)), bits(broadcast_design_matrix(basis, pts))
            ), where
            assert np.array_equal(
                bits(basis.gradient_tensor(pts)), bits(broadcast_gradient_tensor(basis, pts))
            ), where
            weights = np.resize([1.0, -2.0, 3.0], len(basis))
            approx = Approximant(basis, weights)
            for x in pts:
                want = ordered_dot(broadcast_design_matrix(basis, x)[0], weights)
                assert bits(approx.evaluate(x)) == bits(want), (where, x)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_single_point_evaluate_matches_batched_row_exactly(dim):
    rng = np.random.default_rng(40 + dim)
    scale = np.array([1.0, 10.0, 0.1, 1e3, 1.0, 3.0, 0.3, 30.0])
    big = rng.normal(size=(40, 2 * dim)) * scale[: 2 * dim]
    big[0] = 0.0
    big[1, 0] = -0.0
    for degree in (1, 2, 5, 11):
        for include_constant in (False, True):
            basis = make_polynomial_basis(
                dim, degree, vanish_at_origin=not include_constant,
                include_constant=include_constant,
            )
            approx = Approximant(basis, rng.normal(size=len(basis)))
            for row in big:
                x = row[:dim].copy()
                want = float(approx.evaluate_many(np.atleast_2d(x))[0])
                assert approx.evaluate(x) == want
                assert approx.evaluate(list(x)) == want
                assert approx.evaluate(x.tolist()) == want
                # the terms are added left to right, not in BLAS's order
                assert want == ordered_dot(
                    broadcast_design_matrix(basis, x, product_factors)[0], approx.weights
                )
                strided = row[::2][:dim]  # a (dim,) view with stride 2
                assert approx.evaluate(strided) == float(
                    approx.evaluate_many(np.atleast_2d(strided))[0]
                )


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_one_member_basis_evaluates_like_its_design_matrix(dim):
    # a one-member basis, the constant 1 among them, gives its one term at
    # every dim
    rng = np.random.default_rng(80 + dim)
    for alpha in [(1,) * dim, tuple(range(dim)), (3,) + (0,) * (dim - 1), (0,) * dim]:
        basis = BasisSet(dim=dim, indices=(alpha,), vanish_at_origin=False)
        approx = Approximant(basis, [rng.normal()])
        for x in rng.normal(size=(20, dim)):
            want = ordered_dot(
                broadcast_design_matrix(basis, x, product_factors)[0], approx.weights
            )
            assert approx.evaluate(x) == want, (alpha, x)


def test_single_point_evaluate_checks_dimension():
    approx = Approximant(make_polynomial_basis(2, 3), np.ones(9))
    # a 2-D array, and two rows as a nested list, are not one point
    for bad in (np.zeros(3), [0.1], 0.5, np.zeros((1, 3)), np.zeros((2, 2)), [[0.1, 0.2]] * 2):
        with pytest.raises(DimensionMismatch, match="basis has dim 2"):
            approx.evaluate(bad)


@pytest.mark.parametrize("include_constant", [False, True])
def test_kernel_of_a_364_term_basis_matches_the_design_matrix_rows(include_constant):
    # one statement per term keeps a long kernel within the compiler's limits
    basis = make_polynomial_basis(
        3, 11, vanish_at_origin=not include_constant, include_constant=include_constant
    )
    assert len(basis) == 363 + include_constant
    rng = np.random.default_rng(90 + include_constant)
    approx = Approximant(basis, rng.normal(size=len(basis)))
    pts = rng.normal(size=(12, 3))
    for x, row in zip(pts, basis.design_matrix(pts)):
        assert approx.evaluate(x) == ordered_dot(row, approx.weights)
        assert approx.evaluate(x) == approx.evaluate_many(x[None])[0]


def test_weights_are_a_read_only_copy():
    weights = np.array([1.0, 2.0])
    approx = Approximant(make_polynomial_basis(1, 2), weights)
    weights[0] = 5.0
    assert approx.weights[0] == 1.0 and approx.evaluate([1.0]) == 3.0
    with pytest.raises(ValueError):
        approx.weights[0] = 7.0


def test_each_approximant_compiles_its_evaluate_once_on_first_use(monkeypatch):
    compiled = []
    monkeypatch.setattr(
        basis_module, "compile", lambda *a: compiled.append(a) or compile(*a), raising=False
    )
    basis = make_polynomial_basis(2, 5)
    first, second = Approximant(basis, np.ones(20)), Approximant(basis, np.arange(20.0))
    # nothing at set-up, and nothing for a many-row batch
    second.evaluate_many([[0.1, 0.4], [0.2, -0.3]])
    assert compiled == []
    for _ in range(3):
        assert first.evaluate([0.3, -0.2]) == first([0.3, -0.2])
        assert len(compiled) == 1
    # a one-row batch is one point: the second approximant's own compile
    second.evaluate_many([[0.1, 0.4]])
    assert len(compiled) == 2
    assert first.evaluate is first.evaluate and first.evaluate is not second.evaluate
    # no cache outside the approximant, and no reference cycle, keeps its
    # function alive: it goes with the approximant's last reference
    function = weakref.ref(first.evaluate)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del first
        assert function() is None
    finally:
        if enabled:
            gc.enable()


# one NaN of each sign with a payload: `repr` gives "nan" for both
PAYLOAD_NANS = np.array([0x7FF8_0000_0000_0123, 0xFFF8_0000_0000_0456], dtype=np.uint64).view(float)
SPECIAL_WEIGHTS = [-0.0, np.inf, -np.inf, *PAYLOAD_NANS, 5e-324, -1.5e300]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize(
    "basis",
    [
        make_polynomial_basis(2, 3),
        make_polynomial_basis(2, 2, vanish_at_origin=False, include_constant=True),
        # the cascade's phi: its constant term's 1.0 * w is folded when compiled
        make_polynomial_basis(1, 2, vanish_at_origin=False, include_constant=True),
    ],
    ids=["dim2", "dim2_constant", "phi"],
)
def test_evaluate_keeps_special_weights_and_points_bit_for_bit(basis):
    # each special weight in turn at every position among finite ones, at
    # points given as a list, a tuple and a 1-D array, with -0.0 and NaN
    # entries; the reference is the design-matrix row summed left to right
    rng = np.random.default_rng(31)
    entries = [0.3, -1.7, -0.0, PAYLOAD_NANS[0], 2.5]
    points = [np.array(x) for x in itertools.product(entries, repeat=basis.dim)]
    for special in SPECIAL_WEIGHTS:
        for i in range(len(basis)):
            weights = rng.normal(size=len(basis))
            weights[i] = special
            approx = Approximant(basis, weights)
            for x in points:
                want = _bits(ordered_dot(
                    broadcast_design_matrix(basis, x, product_factors)[0], weights
                ))
                for form in (x.tolist(), tuple(x.tolist()), x):
                    assert _bits(approx.evaluate(form)) == want, (special, i, form)


@pytest.mark.parametrize("indices", [(("x",),), ((-1,),), ((1, 2),), ((2.5,),), ()])
def test_bad_indices_raise_before_a_kernel_is_compiled(monkeypatch, indices):
    # the basis refuses them when it is made, with or without the
    # vanish-at-origin test, and so does a basis read back from a dict
    compiled = []
    monkeypatch.setattr(basis_module, "compile", compiled.append, raising=False)
    for vanish_at_origin in (False, True):
        with pytest.raises(ValueError, match="exponents"):
            BasisSet(dim=1, indices=indices, vanish_at_origin=vanish_at_origin)
        data = {"dim": 1, "indices": [list(a) for a in indices], "vanish_at_origin": False}
        with pytest.raises(ValueError, match="exponents"):
            BasisSet.from_dict(data)
    assert compiled == []
