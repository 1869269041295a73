"""The scale of Hilbert spaces attached to a self-adjoint operator.

Vectors are carried by their coefficients in the eigenbasis of the operator, so scale norms,
duality pairings and isometries are diagonal in the weights (|lambda_n| + 1)^e, which
`_weights` computes on each call from log(|lambda_n| + 1) as w * exp(c), w centred on the
middle of the log range. The isometry and the pairing are homogeneous in that centre, so
they are checked on w alone and stay finite where the weights overflow a float. Norms,
isometry, pairing and equivalence take a vector or an n x k block of coefficient columns, a
vector being a block of one, whose columns agree with the vector calls to rounding. One
product of the squared weights with |c|^2 gives every column's norm (`_norms`); a nonzero
column whose every term underflows is taken again at its own scale. Membership of an
*infinite* power-law model vector in a space of the scale is decided analytically from the
growth exponents, never from truncated norms; the partial-sum classifier that cross-checks
it takes sum n^{ps+2q} to N and 2N in closed form, in logs (`_log_power_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .leftdef import SpectralOperator, _as_block
from .report import _worst
from .spectral import DimensionMismatchError

PARTIAL_SUM_TERMS = 10 ** 6
# B_2j / (2j)!, j = 1..6: the coefficients of Euler's summation formula (`_log_power_sum`)
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000)


@dataclass(frozen=True)
class GrowthModel:
    """Power-law model: eigenvalues lambda_n ~ n^p, coefficients |phi_n| ~ n^q."""

    p: float
    q: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"eigenvalue growth exponent must be positive, got {self.p}")

    def eigenvalues(self, n: int) -> np.ndarray:
        return np.arange(1, n + 1, dtype=float) ** self.p

    def operator(self, n: int) -> SpectralOperator:
        return SpectralOperator.from_diag(self.eigenvalues(n))


def _weights(operator: SpectralOperator, exponent: float) -> tuple[np.ndarray, float]:
    """(w, c) with w * exp(c) = (|lambda_n| + 1)^exponent, the diagonal of (|A| + I)^exponent
    in the eigenbasis that sets the norms of the scale.

    w = exp(exponent (L - m)) for L = log(|lambda| + 1) and m the middle of its range, and
    c = exponent m: w stays finite while |exponent| (L_max - L_min) / 2 < 709, where the
    weights themselves need |exponent| L_max < 709. Every identity of the scale is
    homogeneous in exp(m), so it can be checked on w alone."""
    logs = np.log1p(np.abs(operator.eigenvalues))
    middle = (float(np.min(logs)) + float(np.max(logs))) / 2
    return np.exp(exponent * (logs - middle)), exponent * middle


def _squared(c: np.ndarray) -> np.ndarray:
    """|c|^2 of a coefficient block."""
    return np.square(c.real) + np.square(c.imag)


def _norms(w: np.ndarray, c: np.ndarray, squared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(norms, scale) with ||w c_j|| = norms[j] * scale[j] for the columns of the coefficient
    block c, given squared = |c|^2. w is divided by its largest entry before it is squared,
    so the square of a finite w cannot overflow; there scale[j] = 1. A column whose product
    reads 0 but whose entries do not (its terms underflowed against the largest weight, or
    |c_j|^2 underflowed) is taken again as w |c_j| / max|c_j| divided by its own largest
    term, with scale[j] = max|c_j|. A finite w is positive, so that term is too: a column
    with a nonzero entry has a nonzero norm."""
    top = float(np.max(w))
    norms = np.sqrt(np.square(w / top) @ squared) * top
    scale = np.ones_like(norms)
    for j in np.flatnonzero(norms == 0.0):
        size = np.abs(c[:, j])
        big = float(np.max(size))
        if big > 0.0:   # else a zero column, whose norm is 0
            scale[j] = big
            terms = w * (size / big)
            own = float(np.max(terms))
            norms[j] = np.sqrt(np.sum(np.square(terms / own))) * own
    return norms, scale


def hs_norm(operator: SpectralOperator, s: float, phi):
    """Scale norm ||phi||_s = ||(|A| + I)^{s/2} phi||, diagonal in the eigenbasis.

    phi is a vector (the norm is a float) or an n x k block (an array of its k column
    norms), one path for both (`_norms`). A column's norm is its centred norm times
    exp(s m / 2) of `_weights`; it is taken in logs for a column `_norms` took at its own
    scale, and for every column where that factor is not a positive float. A norm past
    the float range raises ValueError.
    """
    w, shift = _weights(operator, s / 2)
    c = _as_block(operator, phi)
    norms, scale = _norms(w, c, _squared(c))
    try:
        factor = math.exp(shift)
    except OverflowError:
        factor = math.inf
    logged = (scale != 1.0) | (not 0.0 < factor < math.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # log 0 = -inf
        out = norms * factor
        if logged.any():
            out[logged] = np.exp(np.log(norms[logged]) + np.log(scale[logged]) + shift)
    if np.isinf(out).any():
        raise ValueError(f"scale norm at s={s:g} overflows a float")
    return float(out[0]) if np.ndim(phi) == 1 else out


def duality_pair(operator: SpectralOperator, s: float, phi, psi):
    """<phi,psi>_{s,-s} = <(|A|+I)^{-s/2} phi, (|A|+I)^{s/2} psi>.

    phi and psi are vectors (the pairing is a complex) or n x k blocks of the same shape
    (an array of the k pairings of column j with column j), in one sum of products. On
    truncated vectors the weights cancel algebraically, so the pairing reduces to the
    plain inner product; it is still evaluated through the defining formula, the product
    of the two weight vectors, so the reduction is a genuine check. Their `_weights`
    factors exp(-/+ s m / 2) cancel exactly.
    """
    left, right = _as_block(operator, phi), _as_block(operator, psi)
    if np.shape(phi) != np.shape(psi):
        raise DimensionMismatchError(f"paired arrays of shapes {np.shape(phi)} and {np.shape(psi)}")
    weights = _weights(operator, -s / 2)[0] * _weights(operator, s / 2)[0]
    # the weight product on one side: an n x k temporary for each weighted side raises peak memory
    pairs = np.einsum("i,ij,ij->j", weights, left, right.conj())
    return complex(pairs[0]) if np.ndim(phi) == 1 else pairs


def isometry_check(operator: SpectralOperator, s: float, t: float, phi) -> float:
    """Relative residual of the isometry H_s -> H_{s-t} induced by (|A|+I)^{t/2}.

    phi is a vector or an n x k block of them. Returns the worst, over its nonzero
    columns c, of | ||(|A|+I)^{t/2} c||_{s-t} - ||c||_s | / ||c||_s: NaN when any is NaN,
    0.0 when every column is zero (a column with a nonzero entry has a nonzero norm,
    `_norms`). Both norms carry the factor exp(s m / 2) of `_weights`, which the ratio
    drops, so both are taken with the centred weights w: ||c||_s with w_{s/2}, the mapped
    norm with w_{(s-t)/2} w_{t/2}, each at the scale `_norms` gives the column.
    """
    c = _as_block(operator, phi)
    squared = _squared(c)
    norm_s, scale_s = _norms(_weights(operator, s / 2)[0], c, squared)
    mapped, scale_m = _norms(_weights(operator, (s - t) / 2)[0] * _weights(operator, t / 2)[0],
                             c, squared)
    mapped *= scale_m / scale_s   # both at the norm_s column's scale; 1 where neither rescaled
    nonzero = norm_s != 0.0
    return _worst(np.abs(mapped[nonzero] - norm_s[nonzero]) / norm_s[nonzero])


def critical_index(model: GrowthModel) -> float:
    """The index s* = -(2q+1)/p below which the model vector lies in H_s.

    The infinite extension has ||phi||_s^2 ~ sum n^{p s + 2q}, which converges
    iff p s + 2q < -1.
    """
    return -(2 * model.q + 1) / model.p


def membership(model: GrowthModel, s: float) -> bool:
    """True iff the infinite model vector belongs to H_s (strict; s = s* is excluded)."""
    return s < critical_index(model)


def _log_power_sum(e: float, n: int) -> float:
    """log sum_{k<=n} k^e in closed form, at a cost that does not depend on n.

    The head k <= H = max(20, ceil(2|e|)), capped at n, is summed term by term, the rest by
    Euler's summation formula for f(x) = x^e (Graham-Knuth-Patashnik, *Concrete
    Mathematics*, 9.5): sum_{H<k<=n} f(k) = int_H^n f + f(n) G(n) - f(H) G(H), with
    G(x) = 1/2 + sum_{j<=6} B_2j/(2j)! (e)_m / x^m, m = 2j - 1, as f^(m) = (e)_m x^(e-m).
    For x >= 2|e| the first omitted term is below 2e-15 of the sum and 0.45 < G(x) < 0.55, so
    every term is positive, f(H) (1 - G(H)) the last of the head. The integral is taken from
    its larger end, n^(e+1) or H^(e+1), times log(n/H) expm1(y)/y, y = -|e+1| log(n/H) (1 at
    e = -1). Each term is carried as its log and summed as exp(log - largest): no power
    leaves the float range."""
    head = min(n, max(20, math.ceil(2 * abs(e))))
    logs = e * np.log(np.arange(1.0, head + 1))
    if head < n:
        x = np.array([head, n], dtype=float)
        g, ratio = 0.5, e / x   # ratio = (e)_m / x^m
        for m, coef in zip(range(1, 12, 2), _EULER_MACLAURIN):
            g, ratio = g + coef * ratio, ratio * ((e - m) * (e - m - 1)) / x / x
        a, b = math.log(head), math.log(n)
        y = -abs(e + 1) * (b - a)
        integral = (max((e + 1) * a, (e + 1) * b) + math.log(b - a)
                    + (math.log(math.expm1(y) / y) if y else 0.0))
        logs[-1] += math.log1p(-g[0])
        logs = np.append(logs, [integral, e * b + math.log(g[1])])
    top = float(np.max(logs))
    return top + math.log(float(np.sum(np.exp(logs - top))))


def _divergent(model: GrowthModel, s_values, terms: int) -> list:
    """Divergent when S_{2N}/S_N > 1 + 1/(4 log10 N) for each s, N = terms, compared in logs:
    log S_2N - log S_N against log1p(1/(4 log10 N)), each sum of n^{ps+2q} in closed form
    (`_log_power_sum`)."""
    if terms < 2:
        raise ValueError(f"the partial-sum classifier needs terms >= 2 (log10 N > 0), got {terms}")
    cutoff = math.log1p(1.0 / (4.0 * math.log10(terms)))
    exponents = [model.p * s + 2 * model.q for s in s_values]
    return [_log_power_sum(e, 2 * terms) - _log_power_sum(e, terms) > cutoff for e in exponents]


def partial_sum_divergent(model: GrowthModel, s: float, terms: int = PARTIAL_SUM_TERMS) -> bool:
    """Partial-sum divergence classifier for sum n^{ps+2q} (`_divergent` at one point):
    divergent when S_{2N}/S_N > 1 + 1/(4 log10 N), N = terms, both sums in closed form and
    in logs (`_log_power_sum`), at a cost free of N and finite for every exponent. Near the
    boundary (|s - s*| small) it is unreliable; keep test grids away from s*."""
    return _divergent(model, [s], terms)[0]


def membership_table(model: GrowthModel, s_values, terms: int = PARTIAL_SUM_TERMS) -> list:
    """Rows (p, q, s, s*, verdict, partial-sum-verdict) for CSV export; the partial-sum
    verdict of each grid point is `_divergent`'s, from its closed-form sums."""
    s_values, s_star = list(s_values), critical_index(model)
    return [(model.p, model.q, float(s), s_star, "member" if membership(model, s) else "excluded",
             "excluded" if diverges else "member")
            for s, diverges in zip(s_values, _divergent(model, s_values, terms))]


def equivalence_check(operator: SpectralOperator, s: float, samples):
    """Min/max ratio of ||phi||_s (`hs_norm`) to ||(A-gamma)^{s/2} phi|| over the samples, a
    vector or the nonzero columns of an n x k block, each side taken for the whole block.

    gamma is the operator's shift, which `SpectralOperator` keeps below its lower
    bound k. Both weight choices generate the same spaces with equivalent norms;
    the ratios land inside the diagonal bounds
    [min_n ((|l_n|+1)/(l_n-gamma))^{s/2}, max_n (...)] (endpoints swapped for
    s < 0).
    """
    gamma = operator.shift
    lam = operator.eigenvalues
    block = _as_block(operator, samples)
    denoms = np.linalg.norm(np.power(lam - gamma, s / 2)[:, None] * block, axis=0)
    nonzero = denoms != 0.0
    if not nonzero.any():
        raise ValueError("no nonzero sample vectors supplied")
    ratios = hs_norm(operator, s, block)[nonzero] / denoms[nonzero]
    per_mode = np.power((np.abs(lam) + 1.0) / (lam - gamma), s / 2)
    lo, hi = float(np.min(per_mode)), float(np.max(per_mode))
    return {   # min and max through _worst, so a NaN ratio fails the bounds check
        "min_ratio": -_worst(-ratios, floor=-math.inf),
        "max_ratio": _worst(ratios, floor=-math.inf),
        "bound_lo": min(lo, hi),
        "bound_hi": max(lo, hi),
    }
