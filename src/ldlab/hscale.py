"""The scale of Hilbert spaces attached to a self-adjoint operator.

Vectors are carried by their coefficients in the eigenbasis of the operator, so scale norms,
duality pairings and isometries are diagonal in the weights (|lambda_n| + 1)^e. Each weight
is carried as its log, e log(|lambda_n| + 1) (`_log_weights`), and each norm as its log, a
log-sum-exp over the column (`_log_norms`; Blanchard-Higham-Higham, "Accurately computing
the log-sum-exp and softmax functions", IMA J. Numer. Anal. 41, 2021): no weight or term
leaves the float range on the way, at any index s. The isometry compares the two log-norms;
the duality pairing multiplies the two weight vectors, each entry centred by the same
multiple of 512 in its log. Norms, isometry, pairing and equivalence take a vector or an
n x k block of coefficient columns, a vector being a block of one, and each column is
taken alone, as the vector call takes it. Membership of an *infinite* power-law model
vector in a space of the scale is decided analytically from the growth exponents, never
from truncated norms; the partial-sum classifier that cross-checks it takes sum n^{ps+2q}
to N and 2N in closed form, in logs (`_log_power_sum`).
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


def _log_weights(operator: SpectralOperator, exponent: float) -> np.ndarray:
    """exponent * log(|lambda_n| + 1): the logs of the weights (|lambda_n| + 1)^exponent, the
    diagonal of (|A| + I)^exponent in the eigenbasis that sets the norms of the scale."""
    return exponent * np.log1p(np.abs(operator.eigenvalues))


def _log_abs(c: np.ndarray) -> np.ndarray:
    """log|c| of an n x k coefficient block, laid out k x n, one row per column; log 0 = -inf.
    The log is taken in place, so that the call holds one k x n array, not two."""
    out = np.abs(c.T, order="C")
    with np.errstate(divide="ignore"):
        return np.log(out, out=out)


def _log_norms(log_w: np.ndarray, log_c: np.ndarray) -> np.ndarray:
    """log ||w c_j|| of each column, from log_w = log w and the rows log|c_j| of log_c
    (`_log_abs`): top + log(sum exp(2 (a - top))) / 2 for a = log_w + log|c_j| and top its
    largest entry, so that every term lies in [0, 1] and one is 1. A zero column gives -inf,
    and a NaN entry gives NaN."""
    a = log_c + log_w
    top = np.max(a, axis=1)
    a -= np.where(np.isfinite(top), top, 0.0)[:, None]
    a *= 2.0
    with np.errstate(divide="ignore", over="ignore"):   # log 0 = -inf; an inf entry gives inf
        np.exp(a, out=a)
        return top + 0.5 * np.log(np.sum(a, axis=1))


def hs_norm(operator: SpectralOperator, s: float, phi):
    """Scale norm ||phi||_s = ||(|A| + I)^{s/2} phi||, diagonal in the eigenbasis.

    phi is a vector (the norm is a float) or an n x k block (an array of its k column
    norms), each norm exp of its log-norm (`_log_norms`). A norm past the float range
    raises ValueError.
    """
    log_norms = _log_norms(_log_weights(operator, s / 2), _log_abs(_as_block(operator, phi)))
    with np.errstate(over="ignore"):
        out = np.exp(log_norms)
    if np.isinf(out).any():
        raise ValueError(f"scale norm at s={s:g} overflows a float")
    return float(out[0]) if np.ndim(phi) == 1 else out


def duality_pair(operator: SpectralOperator, s: float, phi, psi):
    """<phi,psi>_{s,-s} = <(|A|+I)^{-s/2} phi, (|A|+I)^{s/2} psi>.

    phi and psi are vectors (the pairing is a complex) or n x k blocks of the same shape
    (an array of the k pairings of column j with column j), in one sum of products. On
    truncated vectors the weights cancel algebraically, so the pairing reduces to the
    plain inner product; it is still evaluated through the defining formula, the product
    of the two weight vectors, so the reduction is a genuine check. Each weight is exp of
    its log shifted by the same centre, the multiple of 512 nearest the log of the
    (|A|+I)^{s/2} weight: both factors stay within exp(+/-256), and the centres cancel
    exactly.
    """
    left, right = _as_block(operator, phi), _as_block(operator, psi)
    if np.shape(phi) != np.shape(psi):
        raise DimensionMismatchError(f"paired arrays of shapes {np.shape(phi)} and {np.shape(psi)}")
    up = _log_weights(operator, s / 2)
    centre = 512.0 * np.round(up / 512.0)
    weights = np.exp(_log_weights(operator, -s / 2) + centre) * np.exp(up - centre)
    # the weight product on one side: an n x k temporary for each weighted side raises peak memory
    pairs = np.einsum("i,ij,ij->j", weights, left, right.conj())
    return complex(pairs[0]) if np.ndim(phi) == 1 else pairs


def isometry_check(operator: SpectralOperator, s: float, t, phi) -> float:
    """Relative residual of the isometries H_s -> H_{s-t} induced by (|A|+I)^{t/2}.

    t is a number or a sequence of them, and phi a vector or an n x k block of them.
    Returns the worst, over the t values and the nonzero columns c, of
    | ||(|A|+I)^{t/2} c||_{s-t} / ||c||_s - 1 |, read in logs as
    |expm1(log mapped - log ||c||_s)|: NaN when any is NaN, 0.0 when every column is zero.
    log|c| and log ||c||_s are taken once per call. The mapped norm's log weights are the
    sum of those of (|A|+I)^{(s-t)/2} and of the map (|A|+I)^{t/2}, so the map is applied
    as a product of weights.
    """
    log_c = _log_abs(_as_block(operator, phi))
    log_s = _log_norms(_log_weights(operator, s / 2), log_c)
    nonzero = log_s != -np.inf
    worst = []
    for t_i in np.ravel(t).tolist():
        mapped = _log_norms(_log_weights(operator, (s - t_i) / 2) + _log_weights(operator, t_i / 2),
                            log_c)
        worst.append(_worst(np.abs(np.expm1(mapped[nonzero] - log_s[nonzero]))))
    return _worst(worst)


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
    """Min/max ratio of ||phi||_s to ||(A-gamma)^{s/2} phi|| over the samples, a vector or
    the nonzero columns of an n x k block, each side taken for the whole block. Both sides
    are log-norms (`_log_norms`) of the one log|c| and each ratio is exp(log num - log den),
    so neither norm, no power of the weights and no square of a tiny sample leaves the
    float range on the way.

    gamma is the operator's shift, which `SpectralOperator` keeps below its lower
    bound k. Both weight choices generate the same spaces with equivalent norms;
    the ratios land inside the diagonal bounds
    [min_n ((|l_n|+1)/(l_n-gamma))^{s/2}, max_n (...)] (endpoints swapped for
    s < 0), which are taken as powers, apart from both norms.
    """
    gamma = operator.shift
    lam = operator.eigenvalues
    log_c = _log_abs(_as_block(operator, samples))
    denoms = _log_norms((s / 2) * np.log(lam - gamma), log_c)
    nonzero = denoms != -np.inf
    if not nonzero.any():
        raise ValueError("no nonzero sample vectors supplied")
    ratios = np.exp(_log_norms(_log_weights(operator, s / 2), log_c)[nonzero] - denoms[nonzero])
    with np.errstate(over="ignore"):   # a bound past the float range is inf
        per_mode = np.power((np.abs(lam) + 1.0) / (lam - gamma), s / 2)
    lo, hi = float(np.min(per_mode)), float(np.max(per_mode))
    return {   # min and max through _worst, so a NaN ratio fails the bounds check
        "min_ratio": -_worst(-ratios, floor=-math.inf),
        "max_ratio": _worst(ratios, floor=-math.inf),
        "bound_lo": min(lo, hi),
        "bound_hi": max(lo, hi),
    }
