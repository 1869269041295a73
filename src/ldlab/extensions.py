"""Self-adjoint extension theory and finite-rank perturbations, finite-dimensional model.

Symmetric restrictions of a Hermitian matrix play the role of minimal
operators: S = {(f, Af) : f perp C} for a constraint subspace C. On these we
compute defect spaces and deficiency indices, check the von Neumann
decomposition, build the Friedrichs extension as a linear relation, run the
power-commutation experiment, and realize the Theta-parameterized singular
perturbation A_Theta = A0 + B Theta B* for self-adjoint relations Theta,
including purely multivalued parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .leftdef import SpectralOperator
from .report import Report
from .spectral import (
    SUBSPACE_TOL,
    DimensionMismatchError,
    HermitianMatrix,
    LinearRelation,
    SpectrumError,
    Subspace,
    _boundary_form,
    _complement,
    _rank,
    _stored,
    as_hermitian,
    eigh,
    orthocomplement,
    rel_is_selfadjoint,
    rel_power,
    subspace_intersect,
    subspaces_equal,
)

FORM_TOL = 1e-10
INTERLACE_SLACK = 1e-10


class NotSymmetricError(ValueError):
    """Raised when a relation expected to be symmetric is not contained in its adjoint."""


class NotSelfAdjointError(ValueError):
    """Raised when a parameter or result fails the self-adjointness test."""


def _operator_hermitian(a) -> HermitianMatrix:
    """The validated matrix of an operator: a SpectralOperator's, or `as_hermitian(a)`."""
    return as_hermitian(a.matrix if isinstance(a, SpectralOperator) else a)


def minimal_relation(operator, constraints: Subspace) -> LinearRelation:
    """The symmetric restriction {(f, Af) : f perp C} as a linear relation."""
    a = _operator_hermitian(operator).entries
    n = a.shape[0]
    if constraints.ambient_dim != n:
        raise DimensionMismatchError(
            f"constraints live in C^{constraints.ambient_dim}, operator in C^{n}"
        )
    dom = orthocomplement(constraints)
    if dom.rank == 0:
        return LinearRelation(Subspace.zero(2 * n))
    # [D; AD] has full column rank for orthonormal D: QR, no rank decision
    q, _ = np.linalg.qr(np.vstack([dom.basis, a @ dom.basis]))
    return LinearRelation(Subspace(2 * n, q))


def _require_symmetric(s: LinearRelation) -> np.ndarray:
    """F*G for the graph basis [F; G] of S; raises NotSymmetricError unless the boundary
    form F*G - G*F vanishes, i.e. unless S is contained in S*."""
    form, defect = _boundary_form(s)
    if defect > SUBSPACE_TOL:
        raise NotSymmetricError("relation is not symmetric (S is not contained in S*)")
    return form


@dataclass(frozen=True)
class DeficiencyReport:
    m_plus: int
    m_minus: int
    defect_plus: Subspace
    defect_minus: Subspace
    adjoint: LinearRelation


def deficiency_indices(s: LinearRelation) -> DeficiencyReport:
    """Deficiency indices (m+, m-) = dims of ker(S* -/+ i) with defect bases and S*.

    S* and its two defect kernels are cached on their relations, so a second
    analysis of the same S repeats only the symmetry check.
    """
    _require_symmetric(s)
    d_plus, d_minus = s.adjoint.defect_kernels
    return DeficiencyReport(d_plus.rank, d_minus.rank, d_plus, d_minus, s.adjoint)


def von_neumann_check(s: LinearRelation) -> Report:
    """Verify graph(S*) = graph(S) (+) D+ (+) D- in the graph space.

    Checks the dimension identity dim S* = dim S + m+ + m-, pairwise trivial
    intersections of the three summands, and that their span recovers S*.
    """
    rep = deficiency_indices(s)
    adj = rep.adjoint
    n = s.space_dim
    # graph of D+/-: [d; +/-i d] / sqrt 2 is orthonormal for an orthonormal basis d
    gp, gm = (Subspace(2 * n, np.vstack([d.basis, sign * 1j * d.basis]) / np.sqrt(2.0))
              for d, sign in ((rep.defect_plus, 1.0), (rep.defect_minus, -1.0)))

    report = Report("von Neumann decomposition", meta={"dim": n})
    report.add_flag("dimension-identity",
                    f"dim S*={adj.dim}, dim S={s.dim}, m+={rep.m_plus}, m-={rep.m_minus}",
                    adj.dim == s.dim + rep.m_plus + rep.m_minus)
    for name, a, b in (("S^D+", s.graph, gp), ("S^D-", s.graph, gm), ("D+^D-", gp, gm)):
        inter = subspace_intersect(a, b)
        report.add_flag(f"trivial-intersection {name}", f"dim={inter.rank}", inter.rank == 0)
    stacked = np.hstack([s.graph.basis, gp.basis, gm.basis])
    span = Subspace.span(stacked, 2 * n)
    report.add_flag("span-equals-adjoint", f"dim span={span.rank}", subspaces_equal(span, adj.graph))
    return report


def form_lower_bound(s: LinearRelation) -> float:
    """Smallest eigenvalue of the quadratic form <g, f> on graph coordinates, the Hermitian
    part of F*G; raises NotSymmetricError unless S is symmetric, read off the same F*G."""
    q = _require_symmetric(s)
    return float(np.linalg.eigvalsh((q + q.conj().T) / 2)[0]) if s.dim else 0.0


def friedrichs_relation(s: LinearRelation) -> LinearRelation:
    """Friedrichs extension of a nonnegative symmetric relation.

    Construction: graph(S) (+) {0} x (dom S)^perp (`LinearRelation.mul_extension`,
    built once per S). The result extends S and has dom = dom S by construction.
    Checked on every call: S is symmetric and nonnegative, and the result is
    self-adjoint. The form identity on dom S is not checked.
    """
    bound = form_lower_bound(s)   # of an orthonormal graph basis: no scale to apply
    if bound < -FORM_TOL:
        raise SpectrumError(f"relation is not nonnegative (form lower bound {bound:.3e})")
    result = s.mul_extension
    if not rel_is_selfadjoint(result):
        raise NotSelfAdjointError("Friedrichs construction failed self-adjointness check")
    return result


@dataclass(frozen=True)
class PowerVerdict:
    verdict: str            # "EQUAL" | "DIFFER"
    power: int
    dim_power_of_friedrichs: int
    dim_friedrichs_of_power: int


def friedrichs_power_experiment(s: LinearRelation, n: int) -> PowerVerdict:
    """Compare dom((S_F)^n) with dom((S^n)_F) as subspaces; report the verdict only.

    The experiment makes no truth claim beyond the trivial cases (self-adjoint
    S, or n = 1, which are EQUAL by construction).
    """
    if not 1 <= n <= 4:
        raise ValueError("power experiment supports 1 <= n <= 4")
    sf_pow = rel_power(friedrichs_relation(s), n)
    pow_f = friedrichs_relation(rel_power(s, n))
    dom_a = sf_pow.domain()
    dom_b = pow_f.domain()
    verdict = "EQUAL" if subspaces_equal(dom_a, dom_b) else "DIFFER"
    return PowerVerdict(verdict, n, dom_a.rank, dom_b.rank)


def _compose_triple_space(t: LinearRelation, s: LinearRelation) -> LinearRelation:
    """Brute-force composition: intersect in (f, g, h) space, then drop g.

    Builds W1 = {(f,g,h) : (f,g) in S} and W2 = {(f,g,h) : (g,h) in T} as
    explicit subspaces of C^{3n}, intersects them, and projects the result to
    the (f, h) coordinates. Serves as the independent oracle for rel_compose.
    """
    n = t.space_dim
    ds, dt = s.dim, t.dim
    w1 = np.zeros((3 * n, ds + n), dtype=complex)
    w1[: 2 * n, :ds] = s.graph.basis
    w1[2 * n:, ds:] = np.eye(n)
    w2 = np.zeros((3 * n, dt + n), dtype=complex)
    w2[:n, dt:] = np.eye(n)
    w2[n:, :dt] = t.graph.basis
    # each block of columns is orthonormal and the blocks have disjoint row supports
    inter = subspace_intersect(Subspace(3 * n, w1), Subspace(3 * n, w2))
    dropped = np.vstack([inter.basis[:n], inter.basis[2 * n:]])
    return LinearRelation(Subspace.span(dropped, 2 * n))


def _domains_equal_by_rank(a: Subspace, b: Subspace) -> bool:
    """Independent equality test: equal dims and rank of the stacked bases."""
    if a.rank != b.rank:
        return False
    if a.rank == 0:
        return True
    stacked = np.hstack([a.basis, b.basis])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv > 1e-9 * sv[0])) == a.rank


def friedrichs_power_oracle(s: LinearRelation, n: int) -> PowerVerdict:
    """Same experiment through the triple-space composition and a rank-based equality test."""
    sf = friedrichs_relation(s)
    sf_pow, s_pow = sf, s
    for _ in range(n - 1):
        sf_pow = _compose_triple_space(sf_pow, sf)
        s_pow = _compose_triple_space(s_pow, s)
    pow_f = friedrichs_relation(s_pow)
    dom_a = sf_pow.domain()
    dom_b = pow_f.domain()
    verdict = "EQUAL" if _domains_equal_by_rank(dom_a, dom_b) else "DIFFER"
    return PowerVerdict(verdict, n, dom_a.rank, dom_b.rank)


def relation_spectrum(t: LinearRelation):
    """Operator-part eigenvalues and multivalued dimension of a self-adjoint relation."""
    if not rel_is_selfadjoint(t):
        raise NotSelfAdjointError("spectrum extraction needs a self-adjoint relation")
    return np.linalg.eigvalsh(t.operator_part), t.space_dim - t.domain().rank


@dataclass(frozen=True)
class PerturbationSpec:
    """Coordinate map B (independent columns) and a self-adjoint relation Theta on C^d."""

    b_map: np.ndarray
    theta: LinearRelation

    def __post_init__(self):
        b = np.array(self.b_map, dtype=complex)   # a copy: the caller's array stays as given
        if b.ndim != 2:
            raise DimensionMismatchError("B must be an n x d matrix")
        d = b.shape[1]
        if d == 0 or _rank(np.linalg.svd(b, compute_uv=False)) < d:
            raise ValueError("columns of B must be linearly independent")
        if self.theta.space_dim != d:
            raise DimensionMismatchError(
                f"Theta lives on C^{self.theta.space_dim}, B has {d} columns"
            )
        if not rel_is_selfadjoint(self.theta):
            raise NotSelfAdjointError("Theta must be a self-adjoint relation")
        b.setflags(write=False)
        object.__setattr__(self, "b_map", b)

    @classmethod
    def from_matrix(cls, b_map, theta_matrix) -> "PerturbationSpec":
        """Accept a Hermitian d x d matrix as parameterization sugar."""
        theta = LinearRelation.from_matrix(HermitianMatrix(np.asarray(theta_matrix)).entries)
        return cls(b_map, theta)

    @property
    def rank(self) -> int:
        return self.b_map.shape[1]


def _compression(a0, spec: PerturbationSpec):
    """(A0 + B Theta_op B*, B mul Theta) for Theta = Theta_op (+) mul Theta, read off the one
    f-block SVD of Theta: Theta_op on dom Theta = U[:, :r], mul Theta = dom^perp = U[:, r:].
    The action is `_stored`, so real-valued data is solved in float64."""
    a = _operator_hermitian(a0).entries
    n = a.shape[0]
    if spec.b_map.shape[0] != n:
        raise DimensionMismatchError(
            f"B has {spec.b_map.shape[0]} rows, operator dimension is {n}"
        )
    u, _, _, r = spec.theta._f_svd
    b_dom = spec.b_map @ u[:, :r]
    b_mul = spec.b_map @ u[:, r:]
    return _stored(a + b_dom @ spec.theta.operator_part @ b_dom.conj().T, copy=False), b_mul


def _finite_spectrum(action: np.ndarray, b_mul: np.ndarray) -> np.ndarray:
    """Eigenvalues of `action` compressed to (B mul Theta)^perp; with mul Theta = {0},
    of `action` as it stands. B has independent columns (checked by PerturbationSpec)
    and mul Theta an orthonormal basis, so B mul Theta has full column rank and its
    complement needs no rank decision."""
    if b_mul.shape[1]:
        q = _stored(_complement(b_mul), copy=False)
        h = q.conj().T @ action @ q
        action = (h + h.conj().T) / 2
    return np.linalg.eigvalsh(action)


def perturb(a0, spec: PerturbationSpec) -> LinearRelation:
    """The perturbed object A_Theta = A0 + B Theta B* as a self-adjoint relation.

    With Theta = Theta_op (+) M split into operator and multivalued parts, the
    graph is {(f, A0 f + B Theta_op B* f + B m) : f perp B M, m in M}, which
    carries multivalued part B M (for M = {0}: the graph of A0 + B Theta B*).
    Together with relation_spectrum this is the graph-route oracle for
    perturbed_spectrum.
    """
    action, b_mul = _compression(a0, spec)
    q = _complement(b_mul)
    n = action.shape[0]
    cols = np.hstack([np.vstack([q, action @ q]), np.vstack([np.zeros_like(b_mul), b_mul])])
    result = LinearRelation(Subspace.span(cols, 2 * n))
    if not rel_is_selfadjoint(result):
        raise NotSelfAdjointError("perturbed relation failed self-adjointness check")
    return result


def perturbed_spectrum(a0, spec: PerturbationSpec):
    """Operator-part eigenvalues and multivalued dimension of A_Theta, by compression.

    The finite spectrum of A0 + B Theta B* is that of A0 + B Theta_op B*
    compressed to (B mul Theta)^perp (Albeverio-Kurasov); dim(B mul Theta)
    eigenvalues sit at infinity. One n x n eigensolve, no graph subspaces; for
    mul Theta = {0} no compression basis either.
    """
    action, b_mul = _compression(a0, spec)
    return _finite_spectrum(action, b_mul), b_mul.shape[1]


def limit_crosscheck(a0, spec: PerturbationSpec, t_list):
    """Penalty surrogate for the multivalued part: Theta_op + t P_M with t -> inf.

    For each t the finite eigenvalues of A0 + B (Theta_op + t P_M) B* are
    compared against the operator-part spectrum of A_Theta; the dim(M)
    largest eigenvalues are the divergent branches. Returns a row per t:
    (t, max deviation of finite eigenvalues, smallest divergent eigenvalue).
    """
    action, b_mul = _compression(a0, spec)
    target, mul_dim = _finite_spectrum(action, b_mul), b_mul.shape[1]
    rows = []
    for t in t_list:
        lam = np.linalg.eigvalsh(_stored(action + float(t) * b_mul @ b_mul.conj().T, copy=False))
        keep = lam.shape[0] - mul_dim
        finite = lam[:keep]
        dev = float(np.max(np.abs(finite - target))) if keep else 0.0
        lowest_div = float(lam[keep]) if mul_dim else float("nan")
        rows.append((float(t), dev, lowest_div))
    return rows, target, mul_dim


def theta_sweep(a0, b_map, family):
    """Spectra along a family of Theta parameters.

    `family` yields (label, theta) pairs where theta is a Hermitian matrix or
    a self-adjoint LinearRelation. Returns rows
    (label, mul_dim, sorted operator-part eigenvalues...). A0 is validated once,
    before the first Theta.
    """
    a0 = _operator_hermitian(a0)
    rows = []
    for label, theta in family:
        if isinstance(theta, LinearRelation):
            spec = PerturbationSpec(b_map, theta)
        else:
            spec = PerturbationSpec.from_matrix(b_map, theta)
        eigs, mul_dim = perturbed_spectrum(a0, spec)
        rows.append((label, mul_dim, tuple(float(x) for x in eigs)))
    return rows


def interlacing_check(a0, phi, t: float) -> bool:
    """Rank-one interlacing: lambda_i(A) <= lambda_i(A + t phi phi*) <= lambda_{i+1}(A).

    For a SpectralOperator, lambda(A) is its stored, validated decomposition's.
    """
    if not t > 0:
        raise ValueError("interlacing check needs t > 0")
    phi = np.asarray(phi, dtype=complex)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-8:
        raise ValueError("phi must be normalized")
    h = _operator_hermitian(a0)
    lam = a0.eigenvalues if isinstance(a0, SpectralOperator) else eigh(h).eigenvalues
    mu = eigh(HermitianMatrix(h.entries + t * np.outer(phi, phi.conj()))).eigenvalues
    scale = max(float(np.max(np.abs(lam))), float(t), 1.0)
    slack = INTERLACE_SLACK * scale
    n = lam.shape[0]
    for i in range(n):
        upper = lam[i + 1] if i + 1 < n else np.inf
        if not (lam[i] - slack <= mu[i] <= upper + slack):
            return False
    return True
