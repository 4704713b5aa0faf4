import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpi.basis import Approximant, BasisSet, make_polynomial_basis
from robustpi.errors import DimensionMismatch

from oracles import (
    broadcast_design_matrix,
    broadcast_gradient_tensor,
    enumerate_multi_indices,
    fd_gradient,
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
    rng = np.random.default_rng(10 * dim + include_constant)
    for degree in range(1, 12):
        basis = make_polynomial_basis(
            dim, degree, vanish_at_origin=not include_constant, include_constant=include_constant
        )
        weights = rng.normal(size=len(basis))
        for name, pts in _point_layouts(dim).items():
            got = basis.design_matrix(pts)
            want = broadcast_design_matrix(basis, pts)
            where = f"dim {dim} degree {degree} {name}"
            assert np.array_equal(got, want), where
            assert got.flags.c_contiguous == want.flags.c_contiguous, where
            assert got.flags.f_contiguous == want.flags.f_contiguous, where
            # BLAS rounds per layout: the product must match too, not just the entries
            assert np.array_equal(got @ weights, want @ weights), where
            grad = basis.gradient_tensor(pts)
            assert np.array_equal(grad, broadcast_gradient_tensor(basis, pts)), where
            assert grad.flags.c_contiguous, where


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_single_point_evaluate_matches_batched_row_exactly(dim):
    rng = np.random.default_rng(40 + dim)
    big = rng.normal(size=(40, 2 * dim)) * np.array([1.0, 10.0, 0.1, 1e3, 1.0, 3.0])[: 2 * dim]
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
                assert want == float((broadcast_design_matrix(basis, x) @ approx.weights)[0])
                strided = row[::2][:dim]  # a (dim,) view with stride 2
                assert approx.evaluate(strided) == float(
                    approx.evaluate_many(np.atleast_2d(strided))[0]
                )
            if dim == 1:
                # a bare float and a 0-d np.float64 are points of a 1-D basis
                want = float(approx.evaluate_many([[0.37]])[0])
                assert approx.evaluate(0.37) == want
                assert approx.evaluate(np.float64(0.37)) == want
                assert approx.evaluate(np.array(0.37)) == want
            # a (1, dim) row and a batch keep their batched meaning
            rows = big[:5, :dim]
            assert approx.evaluate(rows[:1]) == float(approx.evaluate_many(rows[:1])[0])
            assert approx.evaluate(rows) == float(approx.evaluate_many(rows)[0])


def test_single_point_evaluate_checks_dimension():
    approx = Approximant(make_polynomial_basis(2, 3), np.ones(9))
    for bad in (np.zeros(3), [0.1], 0.5, np.zeros((1, 3))):
        with pytest.raises(DimensionMismatch, match="basis has dim 2"):
            approx.evaluate(bad)
