"""The scale of Hilbert spaces attached to a self-adjoint operator.

Vectors are carried by their coefficients in the eigenbasis of the operator,
so all scale norms, duality pairings, and isometries are diagonal
computations with the weights (|lambda_n| + 1)^e, which the operator computes
once per exponent e (`SpectralOperator.scale_weights`). Membership of an
*infinite* power-law model vector in a given space of the scale is decided
analytically from the growth exponents, never from truncated norms
(truncations are always finite). The partial-sum
classifier that cross-checks it sums every grid point in one blocked pass
over n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .leftdef import SpectralOperator, _require_below
from .spectral import DimensionMismatchError, inner

PARTIAL_SUM_TERMS = 10 ** 6
_SUM_BLOCK = 1 << 16     # terms per block of the partial sums: 512 KB buffers


@dataclass(frozen=True)
class ScaleVector:
    """Truncated vector given by eigenbasis coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return self.coeffs.shape[0]


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


def _coeffs(phi) -> np.ndarray:
    if isinstance(phi, ScaleVector):
        return phi.coeffs
    return np.asarray(phi, dtype=complex)


def _check_dim(operator: SpectralOperator, c: np.ndarray):
    if c.shape != (operator.dim,):
        raise DimensionMismatchError(
            f"coefficient vector has shape {c.shape}, operator dimension is {operator.dim}"
        )


def hs_norm(operator: SpectralOperator, s: float, phi) -> float:
    """Scale norm ||phi||_s = ||(|A| + I)^{s/2} phi||, diagonal in the eigenbasis."""
    c = _coeffs(phi)
    _check_dim(operator, c)
    return float(np.linalg.norm(operator.scale_weights(s / 2) * c))


def duality_pair(operator: SpectralOperator, s: float, phi, psi) -> complex:
    """<phi,psi>_{s,-s} = <(|A|+I)^{-s/2} phi, (|A|+I)^{s/2} psi>.

    On truncated vectors the weights cancel algebraically, so the pairing
    reduces to the plain inner product; it is still evaluated through the
    defining formula so the reduction is a genuine check.
    """
    cp = _coeffs(phi)
    cq = _coeffs(psi)
    _check_dim(operator, cp)
    _check_dim(operator, cq)
    return inner(operator.scale_weights(-s / 2) * cp, operator.scale_weights(s / 2) * cq)


def isometry_check(operator: SpectralOperator, s: float, t: float, phi) -> float:
    """Relative residual of the isometry H_s -> H_{s-t} induced by (|A|+I)^{t/2}.

    Returns | ||(|A|+I)^{t/2} phi||_{s-t} - ||phi||_s | / ||phi||_s.
    """
    c = _coeffs(phi)
    _check_dim(operator, c)
    mapped = operator.scale_weights(t / 2) * c
    norm_s = hs_norm(operator, s, c)
    if norm_s == 0.0:
        return 0.0
    return abs(hs_norm(operator, s - t, mapped) - norm_s) / norm_s


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


def equivalence_check(operator: SpectralOperator, s: float, samples, gamma: float | None = None):
    """Min/max ratio of ||(|A|+I)^{s/2} phi|| to ||(A-gamma)^{s/2} phi|| over samples.

    Both weight choices generate the same spaces with equivalent norms; the
    ratios land inside the diagonal bounds
    [min_n ((|l_n|+1)/(l_n-gamma))^{s/2}, max_n (...)] (endpoints swapped for
    s < 0). Requires gamma < k.
    """
    if gamma is None:
        gamma = operator.shift
    _require_below(gamma, operator.lower_bound)
    lam = operator.eigenvalues
    shifted = np.power(lam - gamma, s / 2)
    plain = operator.scale_weights(s / 2)
    ratios = []
    for phi in samples:
        c = _coeffs(phi)
        _check_dim(operator, c)
        denom = float(np.linalg.norm(shifted * c))
        if denom == 0.0:
            continue
        ratios.append(float(np.linalg.norm(plain * c)) / denom)
    if not ratios:
        raise ValueError("no nonzero sample vectors supplied")
    per_mode = np.power((np.abs(lam) + 1.0) / (lam - gamma), s / 2)
    lo, hi = float(np.min(per_mode)), float(np.max(per_mode))
    return {
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "bound_lo": min(lo, hi),
        "bound_hi": max(lo, hi),
    }
