"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's own solution paths:
closed forms, scipy matrix-equation solvers, finite differences and
brute-force enumeration only.
"""

import numpy as np
import scipy.linalg
from scipy.special import comb

SCALAR_OPTIMAL_P = np.sqrt(2.0) - 1.0  # value weight for dx=-x+u, Q=x^2, r=1
SCALAR_OPTIMAL_GAIN = -(np.sqrt(2.0) - 1.0)


def total_degree_count(dim: int, max_degree: int, include_constant: bool) -> int:
    """Multiset-coefficient count of total-degree monomials."""
    n = int(comb(dim + max_degree, dim))
    return n if include_constant else n - 1


def enumerate_multi_indices(dim: int, max_degree: int):
    """Brute-force enumeration over the full integer grid."""
    out = set()
    ranges = np.indices([max_degree + 1] * dim).reshape(dim, -1).T
    for alpha in ranges:
        if 0 < alpha.sum() <= max_degree:
            out.add(tuple(int(a) for a in alpha))
    return out


def kleinman_sequence(a, b, q, r, k0, n_steps):
    """Model-based iteration: Lyapunov solve, then gain update."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    k = np.asarray(k0, dtype=float).reshape(-1)
    out = []
    for _ in range(n_steps):
        a_cl = a - np.outer(b, k)
        rhs = -(q + r * np.outer(k, k))
        p = scipy.linalg.solve_continuous_lyapunov(a_cl.T, rhs)
        k_next = (b @ p) / r
        out.append((p, k_next))
        k = k_next
    return out


def riccati_solution(a, b, q, r):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    p = scipy.linalg.solve_continuous_are(a, b, q, np.array([[r]]))
    k = (b[:, 0] @ p) / r
    return p, k


def fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for d in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[d] += h
        lo[d] -= h
        g[d] = (fn(hi) - fn(lo)) / (2 * h)
    return g


def fd_jacobian(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for d in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[d] += h
        lo[d] -= h
        jac[:, d] = (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2 * h)
    return jac


def quadratic_weights_to_matrix(weights):
    """Graded-lex degree-2 weights (dim 2, vanishing) -> symmetric matrix.

    Layout: [x1, x2, x1^2, x1 x2, x2^2].
    """
    w = np.asarray(weights, dtype=float)
    return np.array([[w[2], w[3] / 2.0], [w[3] / 2.0, w[4]]])


def scalar_bisection_inverse(gain, y, tol=1e-12):
    """One-element bisection of gain.fn on [0, s_max], stopping once
    hi - lo <= tol * max(1, hi): the rule the gain inverse applies per
    element."""
    y = float(y)
    if y == 0.0:
        return 0.0
    lo, hi = 0.0, gain.s_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(gain.fn(np.asarray(mid))) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
