"""Monomial basis sets and weighted-sum approximants with exact gradients.

All learners share these: value functions, policies and identified
dynamics are plain weighted sums of multivariate monomials.  Monomials
(rather than an orthogonal family) keep the vanish-at-origin constraint
trivial; conditioning is the SVD solvers' problem.  One point is a list
of dim floats (`evaluate`), a batch a (P, dim) array (`evaluate_many`).
A batch goes through the design matrix (`_monomials`); one point goes
through straight-line Python generated for each approximant, its weights
written in as float literals (`point_function`), with the bits of that
point's design-matrix row summed left to right.
"""

from __future__ import annotations

import math
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


def point_function(basis, weights: np.ndarray, scale):
    """``evaluate(point, t=None)``: sum_i w_i * x^alpha_i at one point (or
    `scale` times that sum, unless `scale` is None) as straight-line Python
    on floats, generated from `basis.powers` with `weights` and `scale` as
    float literals and compiled anew for each call of this function.

    It does `_monomials`' arithmetic (x^k = x^(k-1) * x, each monomial's
    non-zero factors left to right, 1.0 if it has none: 1.0 * y is y in
    every bit) and adds the terms to 0.0 one statement each.  A finite
    constant is written with `repr`, which reads back as the same double; a
    non-finite one is bound by name, since `repr` would lose its sign or
    payload.  An ndarray point is read with `tolist()`: numpy scalars would
    give a NaN another sign bit.  A point that is not dim numbers raises
    DimensionMismatch.  `t` is ignored, so the function is a controller of
    `dynsys.integrate` as it stands.
    """
    values = weights.tolist() + ([] if scale is None else [float(scale)])
    consts = [repr(v) if math.isfinite(v) else f"c{i}" for i, v in enumerate(values)]
    namespace = {f"c{i}": v for i, v in enumerate(values) if not math.isfinite(v)}
    namespace.update(ndarray=np.ndarray, DimensionMismatch=DimensionMismatch)
    powers = basis.powers.tolist()
    coords = "".join(f"x{d}_1, " for d in range(basis.dim))
    body = [f"{coords}= point.tolist() if isinstance(point, ndarray) else point"]
    for d, column in enumerate(zip(*powers)):  # x_d^k as x{d}_{k}
        body += [f"x{d}_{k} = x{d}_{k - 1} * x{d}_1" for k in range(2, max(column) + 1)]
    body.append("acc = 0.0")
    for alpha, c in zip(powers, consts):
        factors = [f"x{d}_{k}" for d, k in enumerate(alpha) if k] or ["1.0"]
        body.append(f"acc += {' * '.join(factors)} * {c}")
    body.append("return acc" if scale is None else f"return {consts[-1]} * acc")
    lines = [
        "def evaluate(point, t=None):",
        "    try:",
        *(f"        {line}" for line in body),
        # a bare number, another length, or a batch's rows
        "    except (TypeError, ValueError):",
        "        raise DimensionMismatch(",
        f'            f"bad point {{point!r:.40}}: basis has dim {basis.dim}"',
        "        ) from None",
    ]
    exec(compile("\n".join(lines), "<point function>", "exec"), namespace)
    return namespace.pop("evaluate")  # its globals keep no cycle through it


def _monomials(pts: np.ndarray, column_sets, top: int) -> list:
    """prod_d x_d ** alpha_d at the rows x of `pts` for every multi-index
    alpha of each set in `column_sets`: one (P, N) array per set.

    A set is given by its exponent columns, one contiguous (N,) integer
    array per dim.  One table holds every power x_d^k, k <= `top`, as
    x^0 = 1.0 and x^k = x^(k-1) * x; each dim's factor is gathered from it
    with `take` and the dims are multiplied left to right, with the bits of
    the one-point function `point_function`.  A monomial of total
    degree n is within gamma_(n-1) of exact (Higham, Accuracy and Stability
    of Numerical Algorithms, 3.1).  The result is F-ordered when `pts` has column-major
    strides and C-ordered otherwise, so every gather stays contiguous.
    """
    n_points, dim = pts.shape
    fortran = n_points > 1 and dim > 1 and abs(pts.strides[0]) < abs(pts.strides[1])
    axis = 0 if fortran else 1  # the exponent axis of table[d]
    table = np.empty((dim, top + 1, n_points) if fortran else (dim, n_points, top + 1))
    powers = table.transpose((1, 0, 2) if fortran else (2, 0, 1))  # (K, dim, P) view
    powers[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(powers[k - 1], pts.T, out=powers[k])
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
        if not self.indices or not all(
            isinstance(a, (tuple, list)) and len(a) == self.dim
            and all(isinstance(k, (int, np.integer)) and k >= 0 for k in a)
            for a in self.indices
        ):
            raise ValueError(f"indices are not {self.dim} non-negative integer exponents each")
        if self.vanish_at_origin and any(sum(a) == 0 for a in self.indices):
            raise ValueError("constant term present in a vanish-at-origin basis")

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def powers(self) -> np.ndarray:
        """The multi-indices as a read-only (N, dim) integer array."""
        powers = np.array(self.indices, dtype=int).reshape(len(self), self.dim)
        powers.flags.writeable = False
        return powers

    @cached_property
    def _top(self) -> int:
        """The largest exponent of any dim: the last row of the power table."""
        return int(self.powers.max())

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

        Computed by `_monomials`, in the memory order of
        ``np.prod(pts[:, None, :] ** powers, axis=2)`` (F for a column-major
        `pts` such as the collocation grid, C otherwise): a BLAS product
        ``design_matrix(pts) @ w`` rounds differently per layout.
        """
        pts = self._points(points)
        return _monomials(pts, (self._power_columns,), self._top)[0]

    def gradient_tensor(self, points: np.ndarray) -> np.ndarray:
        """Gradients of all basis functions: (P, N, dim)."""
        pts = self._points(points)
        monos = _monomials(pts, self._dropped_columns, self._top)
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
            indices=tuple(tuple(a) for a in data["indices"]),
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
        # a read-only copy of its own, so `evaluate`'s literals cannot go stale
        weights = np.zeros(len(self.basis)) if self.weights is None else self.weights
        self.weights = np.array(weights, dtype=float)
        self.weights.flags.writeable = False
        if self.weights.shape != (len(self.basis),):
            raise DimensionMismatch(
                f"{self.weights.shape[0]} weights for a {len(self.basis)}-member basis"
            )

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """``design_matrix(points) @ w``; one row is `evaluate` at it."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim == 2 and pts.shape[0] == 1:
            return np.array([self.evaluate(pts[0])])
        return self.basis.design_matrix(pts) @ self.weights

    def gradient_many(self, points: np.ndarray) -> np.ndarray:
        return np.einsum("pnd,n->pd", self.basis.gradient_tensor(points), self.weights)

    @cached_property
    def evaluate(self):
        """``evaluate(point)``: the value at one point, a list or tuple of dim
        floats, with the design matrix's bits.  It is this approximant's own
        `point_function`, compiled on first use: one call, and itself a
        controller of `integrate`."""
        return point_function(self.basis, self.weights, None)

    def gradient(self, x) -> np.ndarray:
        return self.gradient_many(np.atleast_2d(x))[0]

    @property
    def __call__(self):
        """Calling an approximant is calling its `evaluate`."""
        return self.evaluate

    def to_dict(self) -> dict:
        return {"basis": self.basis.to_dict(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Approximant":
        return cls(BasisSet.from_dict(data["basis"]), np.asarray(data["weights"]))


def policy_values(policy, points: np.ndarray) -> np.ndarray:
    """Values of `policy` at the rows of `points` (P, n) -> (P,): the one
    batch adapter.  An object with `evaluate_many` takes the whole batch;
    a plain callable, such as an initial policy, gets each row as a list."""
    if hasattr(policy, "evaluate_many"):
        return policy.evaluate_many(points)
    return np.asarray([policy(x.tolist()) for x in points], dtype=float)
