"""Exact Laguerre machinery: recurrences, quadrature, and the two inner products.

The operator is the shifted Laguerre operator A = l + k acting diagonally on
the generalized Laguerre basis, c_m -> (m + k)^n c_m. The module evaluates the
explicit derivative-weighted inner product

    <p,q>_n = sum_j b_j(n,k) integral p^(j) q^(j) t^(alpha+j) exp(-t) dt

with Gauss-Laguerre quadrature that is exact on the polynomial test grid, and
the spectral inner product sum_m (m+k)^n c_m d_m ||L_m||^2, whose agreement is
the flagship identity check of the package. Each quantity has one route: A^n is
`laguerre_apply_A`, which both the spectral inner product and the identity table
read, and every Gauss rule with the shifted basis at its nodes comes from
`_rule_family`, which both the Dirichlet inner product and the table call. The
rules are Golub-Welsch ones computed with numpy alone (`_genlaguerre_rules`),
every rule of one weight exponent in one array pass: one eigvalsh per node count,
then a single Newton and weight recurrence and a single basis recurrence over the
concatenated nodes. The identity table builds its rules, one pass per derivative
order, and (m+k)^n once per call; ||L_m||^2 is the basis's `norms` array, filled
once when the basis is built.

Everything is a plain array: a polynomial is its coefficient array in L_n^alpha
and a Gauss rule its (nodes, weights) pair, whose sum is np.dot(weights, values).
Derivatives use the basis identity (L_n^alpha)' = -L_{n-1}^{alpha+1}
symbolically, never finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gamma, lgamma, sqrt
from math import exp as _exp

import numpy as np

from .report import _worst


def bj_coeff(n: int, k: float, j: int):
    """The Dirichlet-form coefficient b_j(n,k) = sum_i (-1)^{i+j}/j! C(j,i) (k+i)^n.

    Exact rational arithmetic when k is an integer (returned as Fraction-exact
    float), double evaluation otherwise. b_0 = k^n and b_n = 1 always.
    """
    if j < 0 or j > n:
        raise ValueError(f"derivative order j={j} outside 0..{n}")
    if not k > 0:
        raise ValueError(f"spectral shift k must be positive, got {k}")
    if float(k).is_integer():
        kk = int(k)
        total = sum(
            Fraction((-1) ** (i + j) * comb(j, i) * (kk + i) ** n, factorial(j))
            for i in range(j + 1)
        )
        return float(total)
    return float(sum((-1) ** (i + j) / factorial(j) * comb(j, i) * (k + i) ** n
                     for i in range(j + 1)))


@dataclass(frozen=True)
class LaguerreBasis:
    """Generalized Laguerre basis L_0..L_N for weight t^alpha e^{-t}.

    Stores the three-term recurrence
    (n+1) L_{n+1} = (a_n - x) L_n - c_n L_{n-1}, a_n = 2n+alpha+1, c_n = n+alpha,
    and the squared norms ||L_n||^2 = Gamma(n + alpha + 1) / n! under the weight
    t^alpha e^{-t}, each exp(lgamma(n + alpha + 1) - lgamma(n + 1)), finite for large n.
    """

    alpha: float
    max_degree: int
    rec_a: np.ndarray
    rec_c: np.ndarray
    norms: np.ndarray

    @classmethod
    def build(cls, alpha: float, max_degree: int) -> "LaguerreBasis":
        if not alpha > -1:
            raise ValueError(f"Laguerre parameter must satisfy alpha > -1, got {alpha}")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        ns = np.arange(max_degree + 1, dtype=float)
        a = 2 * ns + alpha + 1
        c = ns + alpha
        norms = np.array([_exp(lgamma(m + alpha + 1.0) - lgamma(m + 1.0))
                          for m in range(max_degree + 1)])
        for array in (a, c, norms):
            array.setflags(write=False)
        return cls(float(alpha), int(max_degree), a, c, norms)

    def eval_all(self, x) -> np.ndarray:
        """Matrix of values V[n, i] = L_n^alpha(x_i) for n = 0..max_degree."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((self.max_degree + 1, x.shape[0]))
        out[0] = 1.0
        if self.max_degree >= 1:
            out[1] = self.alpha + 1.0 - x
        for n in range(1, self.max_degree):
            out[n + 1] = ((self.rec_a[n] - x) * out[n] - self.rec_c[n] * out[n - 1]) / (n + 1)
        return out


def x_poly(basis: LaguerreBasis) -> np.ndarray:
    """The coefficients of the monomial x = (alpha + 1) L_0 - L_1."""
    return np.array([basis.alpha + 1.0, -1.0])


def derivative_coeffs(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of p^(order) in the basis L_m^{alpha+order}.

    Repeated application of (L_n^a)' = -L_{n-1}^{a+1}: the j-th derivative of
    sum c_n L_n^alpha is (-1)^j sum c_n L_{n-j}^{alpha+j}.
    """
    c = np.asarray(coeffs, dtype=float)
    if order == 0:
        return c
    if order >= c.shape[0]:
        return np.zeros(1)
    return (-1.0) ** order * c[order:]


def laguerre_apply_A(k: float, n: int, p) -> np.ndarray:
    """Apply A^n = (l + k)^n diagonally to the coefficients of p: c_m -> (m + k)^n c_m."""
    if not k > 0:
        raise ValueError(f"spectral shift k must be positive, got {k}")
    if n < 0:
        raise ValueError("power must be a nonnegative integer")
    c = np.asarray(p, dtype=float)
    m = np.arange(c.shape[0], dtype=float)
    return (m + k) ** n * c


def _genlaguerre_rules(ms, alpha: float):
    """Nodes and weights of the m-point Gauss rules for t^alpha e^{-t} (Golub-Welsch), for
    every m in `ms` (distinct, descending), concatenated rule by rule in that order.

    Each rule's nodes are the eigenvalues of its m x m Jacobi matrix (diagonal
    2i + alpha + 1, off-diagonal sqrt(i (i + alpha))), refined by one Newton step. With
    L_k^alpha = binom(k + alpha, k) p_k, the three-term recurrence runs on p_k and
    d_k = p_k - p_{k-1}, so L_m' = m binom(m + alpha, m) d_m / x is formed without
    cancellation. One pass at the eigenvalue nodes gives the Newton step and the
    weights 1/(L_{m-1} L_m'), up to a constant: x / (p_{m-1} d_m), each factor scaled
    by the middle of its log-magnitude range over the rule so the product cannot
    overflow, then normalized to the zeroth moment Gamma(alpha + 1). Eigenvector
    weights are not used: they lose all relative accuracy at the large nodes, where
    weights are tiny.

    The recurrence runs once over all rules: step k updates the nodes of the rules with
    m > k, a prefix of the concatenation since m descends. Every step is elementwise, so
    each rule is bitwise the one this function builds for its m alone.
    """
    sizes = np.repeat(ms, ms)
    starts = np.cumsum(ms) - ms
    eigenvalues = []
    for m in ms:
        i = np.arange(1, m)
        jacobi = np.diag(2.0 * np.arange(m) + alpha + 1.0) + np.diag(np.sqrt(i * (i + alpha)), -1)
        eigenvalues.append(np.linalg.eigvalsh(jacobi))
    x = np.concatenate(eigenvalues)
    d = -x / (alpha + 1.0)
    p = d + 1.0
    for k in range(1, ms[0]):
        live = int(np.sum(sizes > k))
        d[:live] = (k * d[:live] - x[:live] * p[:live]) / (k + alpha + 1.0)
        p[:live] += d[:live]
    weights = np.ones_like(x)
    for factor in (p - d, d / x):
        logs = np.log(np.abs(factor))
        middle = (np.maximum.reduceat(logs, starts) + np.minimum.reduceat(logs, starts)) / 2
        weights = weights / (factor / np.repeat(np.exp(middle), ms))
    for start, m in zip(starts, ms):
        rule = weights[start:start + m]
        rule *= gamma(alpha + 1.0) / rule.sum()
    return x - p * x / (sizes * d), weights


def _rule_family(basis: LaguerreBasis, order: int, ms) -> dict:
    """{m: (weights, V)} for every node count m in `ms`: the weights of the m-node Gauss
    rule for t^(alpha + order) e^{-t}, exact for polynomials of degree <= 2m - 1, and V,
    V[d] = L^{alpha+order}_d at its nodes for d = 0..max_degree - order. The rule's sum
    of values f at its nodes is float(np.dot(weights, f)).

    One `_genlaguerre_rules` call builds every rule, in descending m, and one `eval_all`
    runs the recurrence over their concatenated nodes, in `basis` itself at order 0; the
    weights and V are cut per rule once. The recurrence is elementwise, and its leading
    rows do not depend on the top degree, so V is bitwise the table of the rule's nodes
    alone under a basis of any lower degree.
    """
    alpha = basis.alpha + order
    if not alpha > -1:
        raise ValueError(f"weight exponent must exceed -1, got {alpha}")
    ms = sorted(set(ms), reverse=True)
    nodes, weights = _genlaguerre_rules(ms, alpha)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise ArithmeticError(f"node solve failed for alpha'={alpha}, m in {ms}")
    shifted = basis if order == 0 else LaguerreBasis.build(alpha, basis.max_degree - order)
    values = shifted.eval_all(nodes)
    ends = np.cumsum(ms).tolist()
    return {m: (weights[end - m:end], values[:, end - m:end]) for m, end in zip(ms, ends)}


@dataclass(frozen=True)
class DirichletFormSpec:
    """Data of the explicit left-definite inner product: power n, shift k, b_j table."""

    n: int
    k: float
    b: tuple

    @classmethod
    def build(cls, n: int, k: float) -> "DirichletFormSpec":
        if n < 1:
            raise ValueError("form power n must be a positive integer")
        b = tuple(bj_coeff(n, k, j) for j in range(n + 1))
        return cls(int(n), float(k), b)

    def __post_init__(self):
        if abs(self.b[-1] - 1.0) > 1e-9:
            raise ValueError(f"b_n(n,k) must equal 1, got {self.b[-1]}")
        if abs(self.b[0] - self.k ** self.n) > 1e-9 * max(1.0, self.k ** self.n):
            raise ValueError(f"b_0(n,k) must equal k^n, got {self.b[0]}")


def dirichlet_inner(spec: DirichletFormSpec, basis: LaguerreBasis, p, q) -> float:
    """sum_j b_j(n,k) integral p^(j) q^(j) t^(alpha+j) e^{-t} dt, each term by quadrature.

    Node count floor((deg p + deg q)/2) + 1 makes every integral exact.
    """
    cp = np.asarray(p, dtype=float)
    cq = np.asarray(q, dtype=float)
    deg_p, deg_q = cp.shape[0] - 1, cq.shape[0] - 1
    if deg_p > basis.max_degree or deg_q > basis.max_degree:
        raise ValueError(
            f"degrees ({deg_p}, {deg_q}) exceed basis max_degree {basis.max_degree}"
        )
    m = (deg_p + deg_q) // 2 + 1
    total = 0.0
    for j in range(spec.n + 1):
        dp = derivative_coeffs(cp, j)
        dq = derivative_coeffs(cq, j)
        if not (np.any(dp) and np.any(dq)):
            continue
        weights, values = _rule_family(basis, j, [m])[m]
        p_vals = dp @ values[: dp.shape[0]]
        q_vals = dq @ values[: dq.shape[0]]
        total += spec.b[j] * float(np.dot(weights, p_vals * q_vals))
    return total


def spectral_inner(basis: LaguerreBasis, k: float, n: int, p, q) -> float:
    """<A^n p, q> in the eigenbasis: the weighted product sum_m (A^n p)_m d_m ||L_m||^2 of
    `laguerre_apply_A`'s coefficients with q's, the norms the basis's own."""
    a = laguerre_apply_A(k, n, p)
    d = np.asarray(q, dtype=float)
    m = min(a.shape[0], d.shape[0])
    return float(np.sum(a[:m] * d[:m] * basis.norms[:m]))


def laguerre_identity_table(alpha: float, k: float, n: int, max_deg: int) -> list:
    """Rows (alpha, k, n, degP, degQ, dirichlet, spectral, residual) over basis pairs.

    The residual of the pair (L_i, L_j) is |dirichlet - spectral| / sqrt(s_ii s_jj), its
    Cauchy-Schwarz scale (s_mm = (m + k)^n ||L_m||^2, the spectral value of (L_m, L_m)):
    a pair whose spectral value is 0 is measured against the size of its two forms, not
    against 1.

    The Gauss rules of derivative order o (and the shifted basis at their nodes) are
    built by one `_rule_family` call per table and shared by every pair that needs
    them, and so are (m + k)^n, from `laguerre_apply_A`, and ||L_m||^2, the basis's
    `norms`; nothing is kept between calls. For the basis pair (L_i, L_j), i <= j,
    the o-th derivatives are (-1)^o L^{alpha+o}_{i-o} and (-1)^o L^{alpha+o}_{j-o} for
    o <= i and zero beyond, so each term of `dirichlet_inner` is the rule applied to
    the product of two rows of its value table: bitwise the same sum, since a product
    with a single +-1 coefficient is exact. The spectral sum has the
    one term (i + k)^n ||L_i||^2 when i == j and none otherwise, bitwise what
    `spectral_inner` sums.
    """
    basis = LaguerreBasis.build(alpha, max_deg)
    spec = DirichletFormSpec.build(n, k)
    powers = laguerre_apply_A(k, n, np.ones(max_deg + 1))     # (m + k)^n
    diagonal = (powers * basis.norms).tolist()
    # order o is read by the pairs o <= i <= j <= max_deg, whose node counts (i + j)//2 + 1
    # run through o + 1 .. max_deg + 1
    families = [_rule_family(basis, order, range(order + 1, max_deg + 2))
                for order in range(min(n, max_deg) + 1)]
    rows = []
    for i in range(max_deg + 1):
        for j in range(i, max_deg + 1):
            m = (i + j) // 2 + 1
            d = 0.0
            for order in range(min(i, n) + 1):
                weights, values = families[order][m]
                d += spec.b[order] * float(np.dot(weights, values[i - order] * values[j - order]))
            s = diagonal[i] if i == j else 0.0    # s_ii = (i + k)^n ||L_i||^2
            rows.append((alpha, k, n, i, j, d, s, abs(d - s) / sqrt(diagonal[i] * diagonal[j])))
    return rows


def laguerre_identity_check(alpha: float, k: float, n: int, max_deg: int) -> float:
    """Worst residual |dirichlet - spectral| / sqrt(s_ii s_jj) of `laguerre_identity_table`
    over basis pairs (`report._worst`: NaN when any residual is NaN)."""
    if n > 6:
        raise ValueError("identity check supports form powers n <= 6")
    return _worst(row[7] for row in laguerre_identity_table(alpha, k, n, max_deg))
