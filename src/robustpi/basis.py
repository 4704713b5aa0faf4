"""Monomial basis sets and weighted-sum approximants with exact gradients.

All learners share these: value functions, policies and identified
dynamics are plain weighted sums of multivariate monomials.  Monomials
(rather than an orthogonal family) keep the vanish-at-origin constraint
trivial; conditioning is the SVD solvers' problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from .errors import DimensionMismatch


def graded_lex_indices(dim: int, max_degree: int, include_constant: bool) -> tuple:
    """Multi-indices of total degree <= max_degree in graded-lex order.

    Within a degree block, indices are sorted lexicographically
    descending, e.g. dim=2, degree 2: (2,0), (1,1), (0,2).  The ordering
    is fixed so weight vectors are comparable across runs.
    """
    out = []
    lo = 0 if include_constant else 1
    for deg in range(lo, max_degree + 1):
        block = set()
        for combo in combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for v in combo:
                alpha[v] += 1
            block.add(tuple(alpha))
        out.extend(sorted(block, reverse=True))
    return tuple(out)


def _monomials(pts: np.ndarray, column_sets, exponents: np.ndarray) -> list:
    """prod_d pts[:, d] ** alpha_d for every multi-index alpha of each set
    in `column_sets`: one (P, N) array per set.

    A set is given by its exponent columns, one contiguous (N,) integer
    array per dim.  One table ``pts[:, d] ** k`` for k in `exponents`
    (0.0, 1.0, ..., max degree) holds every power the sets need, so each
    pow(x_d, k) is computed once per point rather than once per monomial.
    Each dim's factor is gathered from the table with `take`, and the dims
    are multiplied left to right, the order `np.prod` uses, so every entry
    equals ``np.prod(pts[:, None, :] ** alpha, axis=2)`` bit for bit.  The
    result is F-ordered when that expression's is, i.e. when `pts` has
    column-major strides; it is then built in the transposed frame, where
    every gather and product stays contiguous.  A 1-D basis needs no table:
    ``pts ** alpha`` is the same pow per entry, in C order.
    """
    n_points, dim = pts.shape
    if dim == 1:
        # one factor per monomial: pow it directly, without a table and a gather
        return [pts ** columns[0] for columns in column_sets]
    fortran = n_points > 1 and dim > 1 and abs(pts.strides[0]) < abs(pts.strides[1])
    if fortran:
        table, axis = pts.T[:, None, :] ** exponents[:, None], 0  # (dim, K, P)
    else:
        table, axis = pts.T[:, :, None] ** exponents, 1  # (dim, P, K)
    out = []
    for columns in column_sets:
        mono = table[0].take(columns[0], axis=axis)
        for d in range(1, dim):
            mono *= table[d].take(columns[d], axis=axis)
        out.append(mono.T if fortran else mono)
    return out


@dataclass(frozen=True)
class BasisSet:
    """An ordered family of monomials x^alpha on R^dim."""

    dim: int
    indices: tuple
    vanish_at_origin: bool = True

    def __post_init__(self):
        if self.vanish_at_origin and any(sum(a) == 0 for a in self.indices):
            raise ValueError("constant term present in a vanish-at-origin basis")

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def powers(self) -> np.ndarray:
        """The multi-indices as a read-only (N, dim) integer array."""
        powers = np.asarray(self.indices, dtype=int)
        powers.flags.writeable = False
        return powers

    @cached_property
    def _pow_exponents(self) -> np.ndarray:
        """0.0, 1.0, ..., max degree: the exponents of the pow table."""
        return np.arange(self.powers.max() + 1.0)

    @cached_property
    def _power_columns(self) -> tuple:
        """The exponent columns of the multi-indices, one per dim."""
        return tuple(np.ascontiguousarray(self.powers[:, d]) for d in range(self.dim))

    @cached_property
    def _dropped_columns(self) -> tuple:
        """Per dim d, the exponent columns with alpha_d lowered by one
        (floor 0): the monomial factor of d/dx_d x^alpha."""
        return tuple(
            tuple(
                np.maximum(col - 1, 0) if e == d else col
                for e, col in enumerate(self._power_columns)
            )
            for d in range(self.dim)
        )

    def _points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points have dim {pts.shape[1]}, basis has dim {self.dim}"
            )
        return pts

    def design_matrix(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions at `points` (P, dim) -> (P, N).

        Computed by `_monomials` from one pow table per call; the entries
        and the memory order equal those of
        ``np.prod(pts[:, None, :] ** powers, axis=2)`` exactly.  The order
        is kept (F for a column-major `pts` such as the collocation grid,
        C otherwise) because a BLAS product ``design_matrix(pts) @ w``
        rounds differently per layout.
        """
        pts = self._points(points)
        return _monomials(pts, (self._power_columns,), self._pow_exponents)[0]

    def gradient_tensor(self, points: np.ndarray) -> np.ndarray:
        """Gradients of all basis functions: (P, N, dim)."""
        pts = self._points(points)
        monos = _monomials(pts, self._dropped_columns, self._pow_exponents)
        grad = np.empty((pts.shape[0], len(self.indices), self.dim))
        for d, mono in enumerate(monos):
            grad[:, :, d] = self._power_columns[d] * mono
        return grad

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "indices": [list(a) for a in self.indices],
            "vanish_at_origin": self.vanish_at_origin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BasisSet":
        return cls(
            dim=int(data["dim"]),
            indices=tuple(tuple(int(v) for v in a) for a in data["indices"]),
            vanish_at_origin=bool(data["vanish_at_origin"]),
        )


def make_polynomial_basis(
    dim: int,
    max_degree: int,
    vanish_at_origin: bool = True,
    include_constant: bool = False,
) -> BasisSet:
    """Total-degree monomial basis in graded-lex order.

    `vanish_at_origin` excludes the constant term (every member is zero
    at x = 0); `include_constant` prepends the 1-monomial instead.  The
    two flags are mutually exclusive.
    """
    if dim < 1 or max_degree < 1:
        raise ValueError("dim and max_degree must be >= 1")
    if vanish_at_origin and include_constant:
        raise ValueError("a basis cannot both vanish at origin and contain 1")
    idx = graded_lex_indices(dim, max_degree, include_constant)
    return BasisSet(dim=dim, indices=idx, vanish_at_origin=vanish_at_origin)


@dataclass
class Approximant:
    """Weighted sum of basis functions, with analytic gradient."""

    basis: BasisSet
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.weights is None:
            self.weights = np.zeros(len(self.basis))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.basis),):
            raise DimensionMismatch(
                f"{self.weights.shape[0]} weights for a {len(self.basis)}-member basis"
            )

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        return self.basis.design_matrix(points) @ self.weights

    def gradient_many(self, points: np.ndarray) -> np.ndarray:
        return np.einsum("pnd,n->pd", self.basis.gradient_tensor(points), self.weights)

    def evaluate(self, x) -> float:
        """Value at one point x (dim,): a one-row `evaluate_many`, bit for bit.
        A row of a many-row batch may differ in the last bits, since the
        product (P, N) @ w sums in another order.  The pow table stays numpy
        `**`: numpy's float64 pow may come from a SIMD library and differ
        from Python's `**` in the last bit."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim > 1:
            return float(self.evaluate_many(pts)[0])
        pts = pts.reshape(-1)
        basis = self.basis
        if pts.shape[0] != basis.dim:
            raise DimensionMismatch(f"points have dim {pts.shape[0]}, basis has dim {basis.dim}")
        table = pts[:, None] ** basis._pow_exponents
        mono = table[0][basis._power_columns[0]]
        for d in range(1, basis.dim):
            mono *= table[d][basis._power_columns[d]]
        return float(np.dot(mono, self.weights))

    def gradient(self, x) -> np.ndarray:
        return self.gradient_many(np.atleast_2d(x))[0]

    def __call__(self, x) -> float:
        return self.evaluate(x)

    def to_dict(self) -> dict:
        return {"basis": self.basis.to_dict(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Approximant":
        return cls(BasisSet.from_dict(data["basis"]), np.asarray(data["weights"]))


def policy_values(policy, points: np.ndarray) -> np.ndarray:
    """Values of `policy` at the rows of `points` (P, n) -> (P,): the one
    batch adapter.  An object with `evaluate_many` takes the whole batch;
    a plain callable, such as a plant's initial policy, is called per row."""
    if hasattr(policy, "evaluate_many"):
        return policy.evaluate_many(points)
    return np.asarray([policy(x) for x in points], dtype=float)
