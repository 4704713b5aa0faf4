"""Robust redesign of a learned policy and small-gain certification.

The learned policy is scaled by 1 + (r/2) rho^2 for a constant rho > 0,
which assigns the closed x-subsystem an input-to-state gain controlled
by rho and the cost margin.  Stability of the interconnection with the
hidden subsystem is then certified numerically: class-K gain
inequalities are evaluated on log-spaced ladders, the redesign error is
bounded on sampled level sets, and the resulting region-of-attraction
estimate is exported as a level-set descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .basis import Approximant, policy_values
from .errors import CompositionDomain

LADDER_DECADES = 8.0

# default bisection bracket for gain inverses; evaluation ladders are
# always passed an explicit, physically meaningful s_max
BRACKET = 1.0e7


def log_ladder(s_max: float, samples: int = 200) -> np.ndarray:
    """Log-spaced evaluation ladder on (0, s_max], endpoints included."""
    return np.logspace(np.log10(s_max) - LADDER_DECADES, np.log10(s_max), samples)


def _bisect(fn, y, hi, *, tol: float, iters: int) -> np.ndarray:
    """Elementwise solution of fn(s) = y on [0, hi] for increasing fn.

    Each element halves its bracket until hi - lo <= tol * max(1, hi), at
    most `iters` times.  fn(mid, idx) is called with the midpoints of the
    open elements and their flat indices, in ascending order; an element
    with hi = 0 is 0.  Only the open elements are carried from step to
    step: an element is written out when it stops.
    """
    y = np.asarray(y, dtype=float)
    hi = np.array(np.broadcast_to(hi, y.shape), dtype=float).ravel()
    out = 0.5 * (0.0 + hi)
    idx = np.flatnonzero(hi > 0)
    target, lo, hi = y.ravel()[idx], np.zeros(idx.size), hi[idx]
    for _ in range(iters):
        if idx.size == 0:
            break
        mid = 0.5 * (lo + hi)
        below = np.asarray(fn(mid, idx)) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        keep = hi - lo > tol * np.maximum(1.0, hi)
        if not keep.all():
            out[idx[~keep]] = 0.5 * (lo[~keep] + hi[~keep])
            idx, target, lo, hi = idx[keep], target[keep], lo[keep], hi[keep]
    out[idx] = 0.5 * (lo + hi)
    return out.reshape(y.shape)


def _radius_to_level(fn, level: float, count: int, limit: float, iters: int) -> np.ndarray:
    """Radius at which fn(r, idx) reaches `level` on each of `count` rays.

    The bracket doubles from 1e-6 while fn(hi) < level and hi < limit;
    then `iters` halvings (tol = 0).
    """
    hi = np.full(count, 1e-6)
    idx = np.arange(count)
    while idx.size:
        idx = idx[(np.asarray(fn(hi[idx], idx)) < level) & (hi[idx] < limit)]
        hi[idx] *= 2.0
    return _bisect(fn, np.full(count, float(level)), hi, tol=0.0, iters=iters)


def _directions(dim: int, n: int, seed: int) -> np.ndarray:
    """Unit sampling directions: +-1 in 1-D, n even angles in 2-D, else n seeded draws."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    raw = np.random.default_rng(seed).normal(size=(n, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _through(links, s, flipped: bool):
    """s sent through (gain, inverted) links: first to last as gain(s), or
    gain.inverse(s) where inverted; flipped, last to first with each
    link's other direction."""
    for gain, inverted in reversed(links) if flipped else links:
        s = gain.inverse(s) if inverted != flipped else gain(s)
    return s


@dataclass
class ClassKFunction:
    """Scalar gain function: continuous, zero at zero, increasing.

    `inverse` takes arrays and bisects each element on [0, s_max] with
    its own stop rule.  A gain made by `chain` is a composition of gains
    and their inverses: it keeps its `links`, and its inverse applies the
    links' inverses in reverse order, (f o g)^-1 = g^-1 o f^-1, in place
    of bisecting the composite.
    """

    fn: Callable
    s_max: float
    name: str = ""
    links: tuple = ()

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))

    def inverse(self, y):
        """Elementwise inverse of an array (a float for a scalar y).

        A negative or non-finite y, or one above the gain's value at s_max,
        raises CompositionDomain.  A chain's inverse never calls its `fn`.
        """
        y = np.asarray(y, dtype=float)
        label = self.name or "gain"
        if not np.all(np.isfinite(y)):
            raise CompositionDomain(f"{label}: inverse of a non-finite value")
        if np.any(y < 0):
            raise CompositionDomain(f"{label}: inverse of negative value")
        if np.any(y > 0):
            s_max = np.asarray(self.s_max)
            top = float(_through(self.links, s_max, False) if self.links else self.fn(s_max))
            if np.any(y > top * (1 + 1e-12)):
                raise CompositionDomain(
                    f"{label}: inverse of {float(np.max(y)):g} outside range (max {top:g}); "
                    "s_max too small for the declared bounds"
                )
        if self.links:
            s = np.asarray(_through(self.links, y, True))
        else:
            hi = np.where(y == 0.0, 0.0, self.s_max)
            s = _bisect(lambda mid, idx: self.fn(mid), y, hi, tol=1e-12, iters=200)
        return float(s) if s.ndim == 0 else s

    @classmethod
    def chain(cls, *links: tuple, s_max: float, name: str) -> "ClassKFunction":
        """Composition of (gain, inverted) links, applied first to last:
        gain(s), or gain.inverse(s) where inverted."""
        return cls(fn=lambda s: _through(links, s, False), s_max=s_max, name=name, links=links)

    @staticmethod
    def maximum(*gains: "ClassKFunction") -> "ClassKFunction":
        s_max = min(g.s_max for g in gains)
        return ClassKFunction(
            fn=lambda s: np.max([g.fn(np.asarray(s)) for g in gains], axis=0),
            s_max=s_max,
            name="max(" + ",".join(g.name or "?" for g in gains) + ")",
        )

    @classmethod
    def linear(cls, slope: float, s_max: float, name: str = "") -> "ClassKFunction":
        return cls(fn=lambda s: slope * s, s_max=s_max, name=name)

    @classmethod
    def power(
        cls, coefficient: float, exponent: float, s_max: float, name: str = ""
    ) -> "ClassKFunction":
        return cls(
            fn=lambda s: coefficient * np.asarray(s) ** exponent,
            s_max=s_max,
            name=name,
        )

    @classmethod
    def from_samples(
        cls, s: np.ndarray, values: np.ndarray, name: str = ""
    ) -> "ClassKFunction":
        """Monotone tabulated gain; linear interpolation, linear tail."""
        s = np.concatenate([[0.0], np.asarray(s, dtype=float)])
        values = np.concatenate([[0.0], np.asarray(values, dtype=float)])
        tail_slope = (values[-1] - values[-2]) / max(s[-1] - s[-2], 1e-300)

        def fn(q):
            q = np.asarray(q, dtype=float)
            out = np.interp(q, s, values)
            beyond = q > s[-1]
            if np.any(beyond):
                out = np.where(beyond, values[-1] + tail_slope * (q - s[-1]), out)
            return out

        return cls(fn=fn, s_max=BRACKET, name=name)


@dataclass
class RobustPolicy:
    """Rescaling of a learned policy by a constant rho.

    u(x) = [1 + (r/2) rho^2] * base(x); rho is a positive number, so the
    rescaling never flips sign and u(0) = 0 is inherited from the base
    policy.  `scale` is that factor, fixed when the policy is made.
    """

    base_policy: Approximant
    rho: float
    control_weight: float
    margin: float
    gamma: ClassKFunction = None
    scale: float = field(init=False)

    def __post_init__(self):
        self.scale = 1.0 + 0.5 * self.control_weight * (self.rho * self.rho)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        return self.scale * self.base_policy.evaluate_many(points)

    def gradient_many(self, points: np.ndarray) -> np.ndarray:
        """Exact gradient rows: the scale times the base gradient."""
        return self.scale * self.base_policy.gradient_many(np.atleast_2d(points))

    def evaluate(self, point) -> float:
        """The scale times the base policy's `evaluate` at one point."""
        return self.scale * self.base_policy.evaluate(point)

    __call__ = evaluate


def iss_gain_from_rho(rho: float, margin: float, s_max: float = BRACKET) -> ClassKFunction:
    """Assigned disturbance gain gamma(s) = (margin/2) * rho * s."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    return ClassKFunction.linear(0.5 * margin * rho, s_max, name="gamma")


def robust_redesign(
    base_policy: Approximant, rho: float | Callable, control_weight: float, margin: float,
    s_max: float = BRACKET,
) -> RobustPolicy:
    """Wrap a learned policy with the rho-rescaling and derived gain.

    rho is a positive number.  A callable rho(s) is read once, at s = 0,
    1 and s_max, and must give one value there.
    """
    if callable(rho):
        probe = np.asarray(rho(np.asarray([0.0, 1.0, float(s_max)])), dtype=float)
        if np.any(probe != probe[0]):
            raise ValueError("rho must be constant")
        rho = probe[0]
    rho = float(rho)
    if not rho > 0:
        raise ValueError("rho must be positive")
    gamma = iss_gain_from_rho(rho, margin, s_max)
    return RobustPolicy(base_policy, rho, control_weight, margin, gamma)


@dataclass
class SmallGainReport:
    holds: bool
    margin: float
    relative_margin: float
    ladder: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    def table(self) -> str:
        lines = ["        s            gamma(s)         rhs(s)          margin"]
        for s, a, b in zip(self.ladder, self.lhs, self.rhs):
            lines.append(f"{s:14.6e} {a:15.6e} {b:15.6e} {a - b:15.6e}")
        return "\n".join(lines)

    def summary(self, rho, margin) -> str:
        """Verdict and ladder table as written to the gain-check files."""
        return "rho = %r  margin = %r\nholds = %r  abs margin = %r  rel margin = %r\n\n%s\n" % (
            rho, margin, self.holds, self.margin, self.relative_margin, self.table(),
        )

    @staticmethod
    def scored(ladder: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> SmallGainReport:
        """The report of lhs > rhs on the ladder: its margins, and it holds
        when the smallest lhs - rhs is positive."""
        margin, rel = map(float, _margins(lhs, rhs))
        return SmallGainReport(
            holds=margin > 0, margin=margin, relative_margin=rel, ladder=ladder, lhs=lhs, rhs=rhs,
        )


def _small_gain_rhs(gains, ladder: np.ndarray) -> np.ndarray:
    """max(kappa2, kappa1 o lam_lo^-1 o kappa3 o alpha_lo^-1 o alpha_hi) on the
    ladder; `gains` maps those names to class-K functions."""
    uncertainty = ClassKFunction.chain(
        (gains["alpha_hi"], False), (gains["alpha_lo"], True), (gains["kappa3"], False),
        (gains["lam_lo"], True), (gains["kappa1"], False),
        s_max=float(ladder[-1]), name="uncertainty",
    )
    return np.maximum(np.asarray(gains["kappa2"](ladder)), np.asarray(uncertainty(ladder)))


def _margins(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """Smallest lhs - rhs and smallest lhs / rhs - 1 (over rhs > 0) along
    the last axis."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.min(np.where(rhs > 0, lhs / rhs - 1.0, np.inf), axis=-1)
    return np.min(lhs - rhs, axis=-1), rel


def check_small_gain(gamma: ClassKFunction, gains, *, s_max: float) -> SmallGainReport:
    """Ladder test of gamma > max(kappa2, chained uncertainty gain) for the
    gain set `gains` (kappa1, kappa2, kappa3, lam_lo, alpha_lo, alpha_hi)."""
    ladder = log_ladder(s_max)
    return SmallGainReport.scored(ladder, np.asarray(gamma(ladder)), _small_gain_rhs(gains, ladder))


def select_rho(
    rho_ladder,
    margin: float,
    gain_set: dict,
    *,
    s_max: float,
    relative_margin: float = 0.10,
) -> tuple:
    """Smallest constant rho whose gain passes with the relative margin.

    `gain_set` carries kappa1, kappa2, kappa3, lam_lo, alpha_lo,
    alpha_hi.  The right side of the small-gain test does not depend on
    rho, so it is computed once and the ladder is scored as one
    (n_rho, 200) array; each row equals `check_small_gain` for the gain
    `iss_gain_from_rho` of that entry.  Returns (rho_value, report); raises
    CompositionDomain if no ladder entry qualifies.
    """
    rhos = np.asarray(rho_ladder, dtype=float).reshape(-1)
    if rhos.size:
        ladder = log_ladder(s_max)
        rhs = _small_gain_rhs(gain_set, ladder)
        # iss_gain_from_rho's arithmetic, one row per ladder entry
        lhs = 0.5 * margin * rhos[:, None] * ladder
        margins, rels = _margins(lhs, rhs)
        passing = np.flatnonzero((margins > 0) & (rels >= relative_margin))
        if passing.size:
            i = passing[0]
            return float(rhos[i]), SmallGainReport.scored(ladder, lhs[i].copy(), rhs)
    raise CompositionDomain(
        "no rho on the search ladder satisfies the small-gain condition "
        f"with relative margin {relative_margin:g}"
    )


def redesign_error(
    learned_policy: Approximant,
    oracle_policy_now,
    oracle_policy_next: Approximant,
    rho: float,
    control_weight: float,
) -> Callable:
    """Pointwise gap between the applied redesign and its exact form.

    e(x) = (r/2) rho^2 [learned - oracle_next] + learned -
    oracle_now; used only at certification time, when oracle iterates
    are available.  `oracle_policy_now` may be a plain callable (the
    plant's initial policy when the learner stopped after one iterate).
    """
    scale = 0.5 * control_weight * (rho * rho)

    def e_ro(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        learned = learned_policy.evaluate_many(pts)
        return (
            scale * (learned - oracle_policy_next.evaluate_many(pts))
            + learned
            - policy_values(oracle_policy_now, pts)
        )

    return e_ro


@dataclass
class CertifiedLevel:
    d: float
    n_checked: int
    worst_ratio: float


def certify_error_bound(
    error_fn: Callable,
    gamma: ClassKFunction,
    value: Callable,
    *,
    d_ladder,
    sample_low,
    sample_high,
    n_samples: int = 4000,
    seed: int = 0,
) -> Optional[CertifiedLevel]:
    """Largest level d with |e(x)| < gamma(|x|) on the sampled set 0 < V <= d.

    Returns None when even the smallest ladder level fails.
    """
    low = np.atleast_1d(np.asarray(sample_low, dtype=float))
    high = np.atleast_1d(np.asarray(sample_high, dtype=float))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(low, high, size=(n_samples, low.size))
    vvals = value.evaluate_many(pts)
    evals = np.abs(np.asarray(error_fn(pts)))
    gvals = np.asarray(gamma(np.linalg.norm(pts, axis=1)))
    best = None
    for d in sorted(np.asarray(d_ladder, dtype=float)):
        mask = (vvals > 0) & (vvals <= d)
        if not np.any(mask):
            continue
        ratios = evals[mask] / np.maximum(gvals[mask], 1e-300)
        if np.all(ratios < 1.0):
            best = CertifiedLevel(
                d=float(d), n_checked=int(mask.sum()), worst_ratio=float(ratios.max())
            )
        else:
            break
    return best


def radial_envelopes(
    value: Callable,
    dim: int,
    s_max: float,
    *,
    clip_low=None,
    clip_high=None,
) -> tuple:
    """Quadratic class-K envelopes of a positive-definite function.

    Returns (alpha_lo, alpha_hi) with alpha_lo(|x|) <= V(x) <=
    alpha_hi(|x|) on the sampled set: 32 radii times 64 directions in the
    ball of radius s_max, clipped to [clip_low, clip_high] when given (the
    region where the function is trusted).  Coefficients are the extreme
    values of V(x)/|x|^2 widened by 2%, which absorbs the direction-sampling
    gap; both envelopes are genuine class-K-infinity quadratics.  Raises
    CompositionDomain when the clip box leaves fewer than 4 sampled points
    or V is not positive on them.
    """
    n_radii = 32
    dirs = _directions(dim, 64, seed=0)
    radii = np.linspace(s_max / n_radii, s_max, n_radii)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    if clip_low is not None and clip_high is not None:
        lo = np.atleast_1d(np.asarray(clip_low, dtype=float))
        hi = np.atleast_1d(np.asarray(clip_high, dtype=float))
        keep = np.all((pts >= lo) & (pts <= hi), axis=1)
        pts = pts[keep]
        if pts.shape[0] < 4:
            raise CompositionDomain("clip box excludes almost the whole sampled ball")
    vals = value.evaluate_many(pts)
    ratio = vals / np.sum(pts**2, axis=1)
    c_lo, c_hi = float(np.min(ratio)), float(np.max(ratio))
    if c_lo <= 0:
        raise CompositionDomain(
            "function is not positive definite on the sampled set; "
            "shrink s_max for the envelope construction"
        )
    return (
        ClassKFunction.power(c_lo * (1.0 - 0.02), 2.0, BRACKET, name="alpha_lo"),
        ClassKFunction.power(c_hi * (1.0 + 0.02), 2.0, BRACKET, name="alpha_hi"),
    )


def boundary_minimum(value: Callable, low, high) -> float:
    """Smallest value of V at 200 seeded points on each face of the box
    [low, high].

    Capping a sublevel set below this keeps it inside the box.
    """
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    dim = low.size
    rng = np.random.default_rng(7)
    faces = []
    for d in range(dim):
        for bound in (low[d], high[d]):
            pts = rng.uniform(low, high, size=(200, dim))
            pts[:, d] = bound
            faces.append(pts)
    pts = np.vstack(faces)
    vals = value.evaluate_many(pts)
    return float(np.min(vals))


def monotone_envelope(
    fn_abs: Callable,
    dim: int,
    s_max: float,
) -> ClassKFunction:
    """Class-K upper envelope of |f| over 64 spheres of growing radius.

    Each sphere is sampled in 64 directions; the envelope is widened by 2%
    to absorb the direction-sampling gap.
    """
    n_radii = 64
    dirs = _directions(dim, 64, seed=1)
    radii = np.linspace(s_max / n_radii, s_max, n_radii)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    peaks = np.abs(fn_abs.evaluate_many(pts)).reshape(n_radii, -1).max(axis=1)
    peaks = np.maximum.accumulate(peaks) * (1.0 + 0.02)
    # tiny slope keeps the tabulated envelope strictly increasing
    peaks = peaks + 1e-12 * peaks[-1] * (radii / s_max)
    return ClassKFunction.from_samples(radii, peaks, name="envelope")


def interconnection_sigma(
    chi1: ClassKFunction, chi2: ClassKFunction, s_max: float
) -> ClassKFunction:
    """Level-shaping function strictly between chi2 and the inverse of chi1.

    Built numerically: chi_hat = geometric mean of chi2 and chi1^-1 on
    the ladder (well defined exactly when the small-gain loop is a
    contraction), then sigma = geometric mean of chi2 and chi_hat,
    monotonized by cumulative max.  For a chi1 made by `chain`, chi1^-1
    is its links' inverses in reverse order: one bisection per inverted
    link, none of the composite.
    """
    ladder = log_ladder(s_max)
    chi2_vals = np.asarray(chi2(ladder))
    chi1_inv = chi1.inverse(ladder)
    if np.any(chi2_vals >= chi1_inv):
        raise CompositionDomain(
            "chi2 >= chi1^-1 somewhere on the ladder: the small-gain loop "
            "is not a contraction, no valid sigma exists"
        )
    chi_hat = np.sqrt(chi2_vals * chi1_inv)
    sigma_vals = np.sqrt(chi2_vals * chi_hat)
    sigma_vals = np.maximum.accumulate(sigma_vals)
    return ClassKFunction.from_samples(ladder, sigma_vals, name="sigma")


def build_chi_pair(
    gamma: ClassKFunction,
    kappa1: ClassKFunction,
    kappa3: ClassKFunction,
    lam_lo: ClassKFunction,
    alpha_lo: ClassKFunction,
    alpha_hi: ClassKFunction,
    s_max: float,
) -> tuple:
    """The two loop gains whose contraction the small-gain test verifies:
    chi1 = alpha_hi o gamma^-1 o kappa1 o lam_lo^-1 and chi2 = kappa3 o
    alpha_lo^-1, both chains on [0, s_max]."""
    chi1 = ClassKFunction.chain(
        (lam_lo, True), (kappa1, False), (gamma, True), (alpha_hi, False),
        s_max=s_max, name="chi1",
    )
    chi2 = ClassKFunction.chain((alpha_lo, True), (kappa3, False), s_max=s_max, name="chi2")
    return chi1, chi2


@dataclass
class RegionEstimate:
    """Sublevel-set region of attraction: max(sigma(V(x)), W(w)) <= level."""

    value: Callable
    lyapunov_w: Callable
    sigma: ClassKFunction
    d: float
    level: float = field(init=False)

    def __post_init__(self):
        self.level = float(self.sigma(np.asarray(self.d)))

    def contains(self, x, w) -> bool:
        vx = self.value.evaluate(np.asarray(x, dtype=float))
        ww = float(self.lyapunov_w(np.asarray(w, dtype=float)))
        return max(float(self.sigma(np.asarray(vx))), ww) <= self.level

    def w_bound(self) -> float:
        """Largest |w| admitted (scalar hidden state), by bisection on [0, 1e6]."""
        w_of = lambda r, idx: self.lyapunov_w(r[:, None])
        return float(_radius_to_level(w_of, self.level, 1, 1e6, iters=200)[0])

    def boundary_points(self, dim: int, n: int = 72) -> np.ndarray:
        """Radial sample of the x-slice boundary {V(x) = d} (w = 0), searched
        out to radius 1e3."""
        dirs = _directions(dim, n, seed=2)
        v_of = lambda r, idx: self.value.evaluate_many(r[:, None] * dirs[idx])
        radii = _radius_to_level(v_of, self.d, len(dirs), 1e3, iters=100)
        return radii[:, None] * dirs


def estimate_roa(
    value: Callable, lyapunov_w: Callable, d: float, sigma: ClassKFunction
) -> RegionEstimate:
    """Package the certified level set as a membership test + exporter."""
    if d <= 0:
        raise ValueError("d must be positive")
    return RegionEstimate(value=value, lyapunov_w=lyapunov_w, sigma=sigma, d=d)
