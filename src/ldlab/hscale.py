"""The scale of Hilbert spaces attached to a self-adjoint operator.

Vectors are carried by their coefficients in the eigenbasis of the operator,
so all scale norms, duality pairings, and isometries are diagonal
computations with the weights (|lambda_n| + 1)^e. This module computes them on
each call (`_weights`), from log(|lambda_n| + 1), as w * exp(c) with w centred on
the middle of the log range; the operator keeps nothing for them. The isometry
and the duality pairing are homogeneous in that centre, so they are checked on
w alone and stay finite where the weights overflow a float. Scale norms, the
isometry check, the duality pairing and the equivalence check take a vector or
an n x k block of coefficient columns, a vector being a block of one. One
product of the squared weights, divided by the largest first, with |c|^2 gives
every column's norm (`_norms`); a nonzero column whose every term underflows in
it is taken again from |c| divided by its own largest entry, and that scale is
carried beside the norm. The isometry forms |c|^2 once for both of its norms. A
block is one product, whose columns agree with the vector calls to rounding, not
bit for bit: the pairing is one sum of products over the block, and the
equivalence ratios one `hs_norm` of it. Membership of an *infinite* power-law
model vector in a given space of the scale is decided analytically from the
growth exponents, never from truncated norms (truncations are always finite). The
partial-sum classifier that cross-checks it sums every grid point in one blocked
pass over n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .leftdef import SpectralOperator, _as_block
from .report import _worst
from .spectral import DimensionMismatchError

PARTIAL_SUM_TERMS = 10 ** 6
_SUM_BLOCK = 1 << 16     # terms per block of the partial sums: 512 KB buffers


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


def _partial_sums(model: GrowthModel, s_values, terms: int) -> np.ndarray:
    """Rows S_N and S_2N of sum n^{ps+2q}, one column per s, N = terms.

    One pass over n = 1..2N in blocks of _SUM_BLOCK: each block takes log n
    once, and every exponent e reuses it as n^e = exp(e log n), in
    preallocated buffers.
    """
    exponents = [model.p * s + 2 * model.q for s in s_values]
    sums = np.zeros((2, len(exponents)))
    offsets = np.arange(_SUM_BLOCK, dtype=float)
    log_n = np.empty(_SUM_BLOCK)
    powers = np.empty(_SUM_BLOCK)
    for half, first in enumerate((1, terms + 1)):
        for lo in range(first, first + terms, _SUM_BLOCK):
            size = min(_SUM_BLOCK, first + terms - lo)
            logs = np.log(np.add(offsets[:size], lo, out=log_n[:size]), out=log_n[:size])
            for i, e in enumerate(exponents):
                block = np.exp(np.multiply(logs, e, out=powers[:size]), out=powers[:size])
                sums[half, i] += block.sum()
    sums[1] += sums[0]
    return sums


def _divergent(model: GrowthModel, s_values, terms: int) -> list:
    """Divergent when S_{2N}/S_N > 1 + 1/(4 log10 N), for each s."""
    if terms < 2:
        raise ValueError(f"the partial-sum classifier needs terms >= 2 (log10 N > 0), got {terms}")
    s_n, s_2n = _partial_sums(model, s_values, terms)
    cutoff = 1.0 + 1.0 / (4.0 * math.log10(terms))
    return [bool(b / a > cutoff) for a, b in zip(s_n, s_2n)]


def partial_sum_divergent(model: GrowthModel, s: float, terms: int = PARTIAL_SUM_TERMS) -> bool:
    """Partial-sum divergence classifier for sum n^{ps+2q} (`_divergent` at one point).

    Sums to N = terms and 2N and classifies divergent when
    S_{2N}/S_N > 1 + 1/(4 log10 N). Near the boundary (|s - s*| small) the
    classifier is unreliable; keep test grids away from s*.
    """
    return _divergent(model, [s], terms)[0]


def membership_table(model: GrowthModel, s_values, terms: int = PARTIAL_SUM_TERMS) -> list:
    """Rows (p, q, s, s*, verdict, partial-sum-verdict) for CSV export; the partial sums of
    every grid point share one blocked pass (`_divergent`)."""
    s_values = list(s_values)
    s_star = critical_index(model)
    divergent = _divergent(model, s_values, terms)
    return [
        (model.p, model.q, float(s), s_star,
         "member" if membership(model, s) else "excluded",
         "excluded" if diverges else "member")
        for s, diverges in zip(s_values, divergent)
    ]


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
