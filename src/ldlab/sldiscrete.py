"""Finite-difference Sturm-Liouville discretization and discrete boundary objects.

The differential expression is l[f] = -(1/w) [ (p f')' + q f ] on (a, b). The
flux-form stencil with half-node coefficient samples gives a symmetric
tridiagonal matrix T; the operator handed downstream is the
similarity-symmetrized L_h = W^{-1/2} T W^{-1/2}. `discretize` stores only
its two bands: eigenvalues come from a tridiagonal eigensolver, and the dense
real symmetric matrix (a HermitianMatrix with float64 entries) is built and
validated on first access to `DiscreteOperator.matrix`, for consumers that need
the full matrix.

Problems symmetric about the midpoint of their interval (flat, and Jacobi
with alpha = beta) give bands that equal their own reversal, J T J = T with J the
index reversal, up to rounding. `DiscreteOperator.eigenvalues` tests for that in
O(N), against N eps max(|d|, |e|), the tridiagonal solver's own backward-error
scale, and then solves two half-size tridiagonal problems, on the vectors with
J x = x and with J x = -x (Cantoni and Butler, Linear Algebra Appl. 13, 1976). The
solver is O(N^2), so the two halves take about half the time of one full solve;
any other bands take that one solve.

Endpoint classification (regular / limit-circle / limit-point) is caller
metadata. Non-regular endpoints are handled by truncating the interval by a
configurable delta (`SLCoefficients.effective_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable

import numpy as np

from .spectral import HermitianMatrix, _Owned

ENDPOINT_KINDS = ("regular", "limit-circle", "limit-point")
BOUNDARY_TREATMENTS = ("dirichlet", "neumann-type")


def _one(x) -> np.ndarray:
    return np.ones_like(np.asarray(x, dtype=float))


def _zero(x) -> np.ndarray:
    return np.zeros_like(np.asarray(x, dtype=float))


class CoefficientError(ValueError):
    """Raised when p or w fail positivity at sampled grid points."""


class EndpointError(ValueError):
    """Raised for operations that need a regular endpoint."""


class SupportError(ValueError):
    """Raised when a grid function violates a compact-support precondition."""


@dataclass(frozen=True)
class SLCoefficients:
    """Coefficients p, q, w on (a, b) with user-declared endpoint types."""

    p: Callable
    q: Callable
    w: Callable
    a: float
    b: float
    endpoint_a: str = "regular"
    endpoint_b: str = "regular"
    delta: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if self.endpoint_a not in ENDPOINT_KINDS or self.endpoint_b not in ENDPOINT_KINDS:
            raise ValueError(f"endpoint type must be one of {ENDPOINT_KINDS}")
        if not self.a < self.b:
            raise ValueError(f"empty interval ({self.a}, {self.b})")
        a_eff, b_eff = self.effective_interval()
        if not a_eff < b_eff:
            raise ValueError(f"delta={self.delta} empties the interval ({self.a}, {self.b}): "
                             f"truncated to ({a_eff}, {b_eff})")

    @classmethod
    def flat(cls) -> "SLCoefficients":
        """p = w = 1, q = 0 on (0, pi), both endpoints regular."""
        return cls(_one, _zero, _one, 0.0, float(np.pi), "regular", "regular", 0.0, "flat")

    @classmethod
    def jacobi(cls, alpha: float, beta: float) -> "SLCoefficients":
        """w = (1-x)^a (1+x)^b, p = (1-x)^{a+1} (1+x)^{b+1} on (-1, 1); eigenvalues n(n+a+b+1)."""
        if not (alpha > 0 and beta > 0):
            raise ValueError(f"Jacobi parameters must be positive, got ({alpha}, {beta})")
        p = lambda x: (1 - x) ** (alpha + 1) * (1 + x) ** (beta + 1)
        w = lambda x: (1 - x) ** alpha * (1 + x) ** beta
        return cls(p, _zero, w, -1.0, 1.0, "limit-circle", "limit-circle", 0.0, "jacobi")

    @classmethod
    def laguerre(cls, alpha: float, cutoff: float = 40.0) -> "SLCoefficients":
        """w = x^a e^{-x}, p = x^{a+1} e^{-x} on (0, cutoff): truncated-domain model, the
        limit-circle endpoint 0 moved in by delta = 1e-3 (`dataclasses.replace` for another)."""
        if not alpha > -1:
            raise ValueError(f"Laguerre parameter must satisfy alpha > -1, got {alpha}")
        p = lambda x: x ** (alpha + 1) * np.exp(-x)
        w = lambda x: x ** alpha * np.exp(-x)
        return cls(p, _zero, w, 0.0, cutoff, "limit-circle", "limit-point", 1e-3, "laguerre")

    @classmethod
    def from_tables(cls, xs, ps, qs, ws) -> "SLCoefficients":
        """Tabulated coefficients, linearly interpolated. The nodes xs must be strictly
        increasing (ValueError naming the first row that is not): `np.interp` reads
        unordered nodes without complaint, and wrongly."""
        xs = np.asarray(xs, dtype=float)
        ps, qs, ws = (np.asarray(v, dtype=float) for v in (ps, qs, ws))
        unordered = np.flatnonzero(~(xs[1:] > xs[:-1]))
        if unordered.size:
            i = int(unordered[0]) + 1
            raise ValueError(f"table nodes must be strictly increasing: row {i} (from 0) has "
                             f"x = {xs[i]:g} after x = {xs[i - 1]:g}")
        return cls(
            lambda x: np.interp(x, xs, ps),
            lambda x: np.interp(x, xs, qs),
            lambda x: np.interp(x, xs, ws),
            float(xs[0]), float(xs[-1]), "regular", "regular", 0.0, "tabulated",
        )

    def effective_interval(self):
        """(a', b'): the interval after delta-truncation of non-regular endpoints."""
        a_eff = self.a + self.delta if self.endpoint_a != "regular" else self.a
        b_eff = self.b - self.delta if self.endpoint_b != "regular" else self.b
        return a_eff, b_eff


def _grid(coeffs: SLCoefficients, n_interior: int):
    a_eff, b_eff = coeffs.effective_interval()
    h = (b_eff - a_eff) / (n_interior + 1)
    nodes = a_eff + h * np.arange(1, n_interior + 1)
    return nodes, h, a_eff, b_eff


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetrized discrete Sturm-Liouville operator on N interior nodes."""

    coeffs: SLCoefficients
    n_interior: int
    h: float
    nodes: np.ndarray
    diagonal: np.ndarray    # main band of L_h
    offdiagonal: np.ndarray  # first super- (and sub-) diagonal of L_h
    weights: np.ndarray     # w at interior nodes
    p_half: np.ndarray      # p at half nodes, flux coefficients actually used
    q_nodes: np.ndarray
    bc: str

    @cached_property
    def matrix(self) -> HermitianMatrix:
        """Dense L_h assembled from the bands, validated as a float64 HermitianMatrix."""
        n = self.n_interior
        dense = np.zeros((n, n))
        np.fill_diagonal(dense, self.diagonal)
        i = np.arange(n - 1)
        dense[i, i + 1] = self.offdiagonal
        dense[i + 1, i] = self.offdiagonal
        return HermitianMatrix(_Owned(dense))

    def eigenvalues(self) -> np.ndarray:
        """All N eigenvalues of L_h, ascending, by scipy's symmetric tridiagonal solver
        (LAPACK sterf, O(N^2)).

        Bands that equal their own reversal (J T J = T, J the index reversal) to within
        N eps max(|d|, |e|), the solver's own backward-error scale, are folded into two
        half-size tridiagonal problems on the vectors with J x = x and J x = -x
        (Cantoni-Butler), which take about half the time; the symmetry test is O(N). The
        folded bands are the mean of the bands and their reversal, a bitwise no-op on
        exactly persymmetric bands. Any other bands take one call on the bands as stored.
        """
        # imported here: scipy.linalg is not loaded by `import ldlab`
        from scipy.linalg import eigvalsh_tridiagonal
        d, e = self.diagonal, self.offdiagonal
        n = d.shape[0]
        slack = n * np.finfo(float).eps * max(np.max(np.abs(d)), np.max(np.abs(e)))
        if np.max(np.abs(d - d[::-1])) > slack or np.max(np.abs(e - e[::-1])) > slack:
            return eigvalsh_tridiagonal(d, e)
        m, odd = divmod(n, 2)
        d = d[:m + odd] + (d[::-1][:m + odd] - d[:m + odd]) / 2
        e = e[:m] + (e[::-1][:m] - e[:m]) / 2
        if odd:
            # (x, c, Jx): the middle node couples to x by sqrt(2) e_{m-1}; (x, 0, -Jx): not
            sym = np.concatenate((e[:-1], [e[-1] * np.sqrt(2.0)]))
            halves = (eigvalsh_tridiagonal(d, sym), eigvalsh_tridiagonal(d[:-1], e[:-1]))
        else:
            # (x, +-Jx): the coupling e_{m-1} moves onto the last diagonal entry as +-e_{m-1}
            plus, minus = d.copy(), d.copy()
            plus[-1] += e[-1]
            minus[-1] -= e[-1]
            halves = (eigvalsh_tridiagonal(plus, e[:-1]), eigvalsh_tridiagonal(minus, e[:-1]))
        return np.sort(np.concatenate(halves))

    def _apply_flux(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        ext = np.concatenate(([0.0], f, [0.0]))
        flux = self.p_half * np.diff(ext) / self.h
        return -(np.diff(flux) / self.h) - self.q_nodes * f


def discretize(coeffs: SLCoefficients, n_interior: int, bc: str = "dirichlet") -> DiscreteOperator:
    """Flux-form second-order discretization of -(1/w)[(p f')' + q f].

    Dirichlet rows clamp ghost nodes to zero; neumann-type rows zero the
    outermost fluxes instead (the natural condition, which is also the right
    treatment for degenerate limit-circle endpoints where p -> 0).
    """
    if n_interior < 3:
        raise ValueError("need at least 3 interior nodes")
    if bc not in BOUNDARY_TREATMENTS:
        raise ValueError(f"unknown boundary treatment {bc!r}")
    nodes, h, a_eff, _ = _grid(coeffs, n_interior)
    half = a_eff + h * (np.arange(n_interior + 1) + 0.5)
    p_half = np.asarray(coeffs.p(half), dtype=float).copy()
    w_nodes = np.asarray(coeffs.w(nodes), dtype=float)
    q_nodes = np.asarray(coeffs.q(nodes), dtype=float)
    if np.any(p_half <= 0):
        raise CoefficientError(f"p must be positive at half nodes (min {p_half.min():.3e})")
    if np.any(w_nodes <= 0):
        raise CoefficientError(f"w must be positive at grid nodes (min {w_nodes.min():.3e})")
    if bc == "neumann-type":
        p_half[0] = 0.0
        p_half[-1] = 0.0
    t_diag = (p_half[:-1] + p_half[1:]) / h ** 2 - q_nodes
    t_off = -p_half[1:-1] / h ** 2
    root_w = np.sqrt(w_nodes)
    diag = t_diag / root_w / root_w
    # mean of both division orders: the symmetrized dense matrix, entry for entry
    off = (t_off / root_w[:-1] / root_w[1:] + t_off / root_w[1:] / root_w[:-1]) / 2
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise CoefficientError("coefficient samples give a non-finite matrix entry")
    return DiscreteOperator(
        coeffs, n_interior, h, nodes, diag, off,
        w_nodes, p_half, q_nodes, bc,
    )


def greens_dirichlet_check(op: DiscreteOperator, f, g):
    """Residual pair (symmetry, Dirichlet identity) for compactly supported f, g.

    Checks <l f, g>_w = <f, l g>_w (matrix symmetry) and the boundary-free
    Dirichlet formula <l f, g>_w = sum_half h p f' g' - sum h q f g, where f'
    is the half-node difference quotient. Both residuals are absolute.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n = op.n_interior
    if f.shape != (n,) or g.shape != (n,):
        raise ValueError(f"grid functions must have shape ({n},)")
    for name, v in (("f", f), ("g", g)):
        if np.any(v[:2] != 0.0) or np.any(v[-2:] != 0.0):
            raise SupportError(f"{name} must vanish on the first and last two nodes")
    h = op.h
    tf = op._apply_flux(f)
    tg = op._apply_flux(g)
    lhs = h * float(np.dot(tf, g))
    sym = abs(lhs - h * float(np.dot(f, tg)))
    ext_f = np.concatenate(([0.0], f, [0.0]))
    ext_g = np.concatenate(([0.0], g, [0.0]))
    dirichlet = h * float(np.dot(op.p_half * np.diff(ext_f) / h, np.diff(ext_g) / h)) \
        - h * float(np.dot(op.q_nodes * f, g))
    return sym, abs(lhs - dirichlet)


def principal_solution(coeffs: SLCoefficients, lam: float, endpoint: str, n_interior: int) -> np.ndarray:
    """Distinguished small solution from a regular endpoint, on the interior grid.

    Integrates the first-order system u' = v/p, v' = -(q + lam w) u with
    classical RK4 from the endpoint, normalized u = 0, p u' = +1 at a
    (and p u' = -1 at b, so the solution grows into the interval).
    """
    if endpoint not in ("a", "b"):
        raise ValueError("endpoint must be 'a' or 'b'")
    declared = coeffs.endpoint_a if endpoint == "a" else coeffs.endpoint_b
    if declared != "regular":
        raise EndpointError(
            f"principal solutions are only constructed at regular endpoints "
            f"(endpoint {endpoint} is declared {declared})"
        )
    _, h, a_eff, b_eff = _grid(coeffs, n_interior)
    if endpoint == "a":
        x0, step, v = a_eff, h, 1.0
        order = range(n_interior)
    else:
        x0, step, v = b_eff, -h, -1.0
        order = range(n_interior - 1, -1, -1)
    # the step points x0 + step + step + ... (accumulated, so the same floats an
    # `x += step` loop visits) and their midpoints, sampled once as arrays
    xs = np.array(list(accumulate([x0] + [step] * n_interior)))
    pts = np.concatenate((xs, xs[:-1] + step / 2))
    p_at = np.asarray(coeffs.p(pts), dtype=float)
    c_at = -(np.asarray(coeffs.q(pts), dtype=float) + lam * np.asarray(coeffs.w(pts), dtype=float))
    m = n_interior + 1          # step points first, then midpoints
    p_node, p_mid = p_at[:m].tolist(), p_at[m:].tolist()
    c_node, c_mid = c_at[:m].tolist(), c_at[m:].tolist()

    # RK4 for u' = v/p, v' = c u with c = -(q + lam w), in scalar floats
    half, sixth = step / 2, step / 6
    u = 0.0
    out = np.zeros(n_interior)
    for k, idx in enumerate(order):
        pm, cm = p_mid[k], c_mid[k]
        k1u, k1v = v / p_node[k], c_node[k] * u
        k2u, k2v = (v + half * k1v) / pm, cm * (u + half * k1u)
        k3u, k3v = (v + half * k2v) / pm, cm * (u + half * k2u)
        k4u, k4v = (v + step * k3v) / p_node[k + 1], c_node[k + 1] * (u + step * k3u)
        u = u + sixth * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
        out[idx] = u
    return out


@dataclass(frozen=True)
class BoundaryFunctional:
    """Discrete representer of f -> [f, u](endpoint) for a principal solution u."""

    representer: np.ndarray
    solution: np.ndarray
    h: float
    weights: np.ndarray

    def pair(self, f) -> float:
        """Grid duality pairing h * sum w_i f_i r_i ~ [f, u](endpoint)."""
        f = np.asarray(f, dtype=float)
        return self.h * float(np.dot(self.weights * f, self.representer))


def boundary_functional(coeffs: SLCoefficients, u, endpoint: str) -> BoundaryFunctional:
    """Boundary functional generated by a principal solution.

    With u(endpoint) = 0 the Wronskian collapses to [f, u](a) = -f(a) (p u')(a),
    and the normalization of principal_solution makes (p u')(a) = 1 at a
    (-1 at b). The representer concentrates the pairing on the node next to
    the endpoint, so pairings are first-order accurate in h.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    nodes, h, *_ = _grid(coeffs, n)
    w_nodes = np.asarray(coeffs.w(nodes), dtype=float)
    r = np.zeros(n)
    if endpoint == "a":
        r[0] = -1.0 / (h * w_nodes[0])          # -f(a) * (p u')(a) with (p u')(a) = +1
    elif endpoint == "b":
        r[-1] = 1.0 / (h * w_nodes[-1])         # -f(b) * (p u')(b) with (p u')(b) = -1
    else:
        raise ValueError("endpoint must be 'a' or 'b'")
    return BoundaryFunctional(r, u, h, w_nodes)
