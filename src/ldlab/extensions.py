"""Self-adjoint extension theory and finite-rank perturbations, finite-dimensional model.

Symmetric restrictions of a Hermitian matrix play the role of minimal
operators: S = {(f, Af) : f perp C} for a constraint subspace C. On these we
compute defect spaces and deficiency indices, check the von Neumann
decomposition, build the Friedrichs extension as a linear relation, run the
power-commutation experiment, and realize the Theta-parameterized singular
perturbation A_Theta = A0 + B Theta B* for self-adjoint relations Theta,
including purely multivalued parts. The relation layer, from `minimal_relation` to
the power experiment and its oracle, takes a single relation or a stack of them
(`spectral`'s batch axes) through one function body each.
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
    _complement,
    _ct,
    _first_member,
    _hermitian_entries,
    _max_abs,
    _per_member,
    _rank,
    _stored,
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


def _operator_entries(operator) -> np.ndarray:
    """The validated, read-only entries of an operator: a SpectralOperator's matrix, else
    those of a Hermitian matrix or of a stack of them (`_hermitian_entries`)."""
    return _hermitian_entries(operator.matrix if isinstance(operator, SpectralOperator)
                              else operator)


def minimal_relation(operator, constraints: Subspace) -> LinearRelation:
    """The symmetric restriction {(f, Af) : f perp C} as a linear relation; for a stack of
    Hermitian matrices (..., n, n) and constraints of one shape, a stack of restrictions."""
    a = _operator_entries(operator)
    n = a.shape[-1]
    if constraints.ambient_dim != n:
        raise DimensionMismatchError(
            f"constraints live in C^{constraints.ambient_dim}, operator in C^{n}"
        )
    dom = orthocomplement(constraints)
    if dom.rank == 0:
        return LinearRelation(Subspace(2 * n, np.zeros(dom.basis.shape[:-2] + (2 * n, 0))))
    # [D; AD] has full column rank for orthonormal D: QR, no rank decision
    q, _ = np.linalg.qr(np.concatenate([dom.basis, a @ dom.basis], axis=-2))
    return LinearRelation(Subspace(2 * n, q))


def _require_symmetric(s: LinearRelation) -> np.ndarray:
    """F*G for the graph basis [F; G] of S; raises NotSymmetricError unless the boundary
    form F*G - G*F vanishes, i.e. unless S (every member of a stack) is contained in S*."""
    form, defect = s._boundary_form
    asymmetric = np.asarray(defect) > SUBSPACE_TOL
    if asymmetric.any():
        raise NotSymmetricError("relation is not symmetric (S is not contained in S*)"
                                + _first_member(asymmetric)[1])
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
    analysis of the same S repeats only the symmetry check. For a stack the indices
    are shared by its members (`_rank`), and the bases are stacked.
    """
    _require_symmetric(s)
    d_plus, d_minus = s.adjoint.defect_kernels
    return DeficiencyReport(d_plus.rank, d_minus.rank, d_plus, d_minus, s.adjoint)


def _each(values, batch: tuple) -> list:
    """A per-member value as a list over the members of `batch`, in C order."""
    return np.broadcast_to(values, batch).ravel().tolist()


def von_neumann_check(s: LinearRelation):
    """Verify von Neumann's formula S* = S (+) N+ (+) N-, an orthogonal sum in H (+) H.

    N+/- = {(d, +/-i d) : S* d = +/-i d}. For symmetric S the sum is orthogonal:
    <(f, Sf), (d, +/-i d)> = <f, d> -/+ i<f, S* d> = 0 and <(d+, i d+), (d-, -i d-)> = 0.
    With W = [S | N+ | N-], the orthonormal graph bases side by side, the rows are the
    dimension identity dim S* = dim S + m+ + m-, then max|block of W*W| for each pair of
    summands and max|WW* - P_S*|, each against SUBSPACE_TOL; no rank is decided here.
    Returns a Report, or for a stack a list of one Report per member in C order.
    """
    rep = deficiency_indices(s)
    adj, k, m_plus = rep.adjoint, s.dim, rep.m_plus
    # graph of D+/-: [d; +/-i d] / sqrt 2 is orthonormal for an orthonormal basis d
    defect_graphs = [np.concatenate([d.basis, sign * 1j * d.basis], axis=-2) / np.sqrt(2.0)
                     for d, sign in ((rep.defect_plus, 1.0), (rep.defect_minus, -1.0))]
    w = np.concatenate([s.graph.basis, *defect_graphs], axis=-1)
    gram, batch = _ct(w) @ w, w.shape[:-2]
    cross = {"S,D+": gram[..., :k, k:k + m_plus], "S,D-": gram[..., :k, k + m_plus:],
             "D+,D-": gram[..., k:k + m_plus, k + m_plus:]}
    rows = [(f"orthogonal {pair}", "max|block of W*W|", _each(_max_abs(block), batch))
            for pair, block in cross.items()]
    rows.append(("span-equals-adjoint", "max|WW* - P_S*|",
                 _each(_max_abs(w @ _ct(w) - adj.graph.projector), batch)))

    reports = []
    for i in range(int(np.prod(batch))):
        report = Report("von Neumann decomposition", meta={"dim": s.space_dim})
        report.add_flag("dimension-identity",
                        f"dim S*={adj.dim}, dim S={k}, m+={m_plus}, m-={rep.m_minus}",
                        adj.dim == k + m_plus + rep.m_minus)
        for name, inputs, residuals in rows:
            report.add_check(name, inputs, residuals[i], SUBSPACE_TOL)
        reports.append(report)
    return reports if batch else reports[0]


def form_lower_bound(s: LinearRelation):
    """Smallest eigenvalue of the quadratic form <g, f> on graph coordinates, the Hermitian
    part of F*G (a float, or one per member of a stack); raises NotSymmetricError unless S
    is symmetric, read off the same F*G."""
    q = _require_symmetric(s)
    if not s.dim:
        return _per_member(np.zeros(q.shape[:-2]))
    return _per_member(np.linalg.eigvalsh((q + _ct(q)) / 2)[..., 0])


def friedrichs_relation(s: LinearRelation) -> LinearRelation:
    """Friedrichs extension of a nonnegative symmetric relation, or of each member of a stack.

    Construction: graph(S) (+) {0} x (dom S)^perp (`LinearRelation.mul_extension`,
    built once per S). The result extends S and has dom = dom S by construction.
    Checked on every call: S is symmetric and nonnegative, and the result is
    self-adjoint. The form identity on dom S is not checked. An error names the first
    failing member of a stack.
    """
    bound = np.asarray(form_lower_bound(s))   # of an orthonormal graph basis: no scale to apply
    negative = bound < -FORM_TOL
    if negative.any():
        i, member = _first_member(negative)
        raise SpectrumError(f"relation is not nonnegative (form lower bound {bound[i]:.3e})"
                            + member)
    result = s.mul_extension
    selfadjoint = np.asarray(rel_is_selfadjoint(result))
    if not selfadjoint.all():
        raise NotSelfAdjointError("Friedrichs construction failed self-adjointness check"
                                  + _first_member(~selfadjoint)[1])
    return result


@dataclass(frozen=True)
class PowerVerdict:
    verdict: str            # "EQUAL" | "DIFFER"
    power: int
    dim_power_of_friedrichs: int
    dim_friedrichs_of_power: int


def _verdicts(equal, n: int, dom_a: Subspace, dom_b: Subspace):
    """The PowerVerdict of each member (a list for a stack, in C order) from its equality."""
    batch = dom_a.basis.shape[:-2]
    verdicts = [PowerVerdict("EQUAL" if ok else "DIFFER", n, dom_a.rank, dom_b.rank)
                for ok in _each(equal, batch)]
    return verdicts if batch else verdicts[0]


def friedrichs_power_experiment(s: LinearRelation, n: int):
    """Compare dom((S_F)^n) with dom((S^n)_F) as subspaces; report the verdict only (for a
    stack, one per member).

    The experiment makes no truth claim beyond the trivial cases (self-adjoint
    S, or n = 1, which are EQUAL by construction).
    """
    if not 1 <= n <= 4:
        raise ValueError("power experiment supports 1 <= n <= 4")
    sf_pow = rel_power(friedrichs_relation(s), n)
    pow_f = friedrichs_relation(rel_power(s, n))
    dom_a = sf_pow.domain()
    dom_b = pow_f.domain()
    return _verdicts(subspaces_equal(dom_a, dom_b), n, dom_a, dom_b)


def _compose_triple_space(t: LinearRelation, s: LinearRelation) -> LinearRelation:
    """Brute-force composition: intersect in (f, g, h) space, then drop g.

    Builds W1 = {(f,g,h) : (f,g) in S} and W2 = {(f,g,h) : (g,h) in T} as
    explicit subspaces of C^{3n}, intersects them, and projects the result to
    the (f, h) coordinates. Serves as the independent oracle for rel_compose.
    """
    n = t.space_dim
    ds, dt = s.dim, t.dim
    batch = s.graph.basis.shape[:-2]
    w1 = np.zeros(batch + (3 * n, ds + n), dtype=complex)
    w1[..., : 2 * n, :ds] = s.graph.basis
    w1[..., 2 * n:, ds:] = np.eye(n)
    w2 = np.zeros(batch + (3 * n, dt + n), dtype=complex)
    w2[..., :n, dt:] = np.eye(n)
    w2[..., n:, :dt] = t.graph.basis
    # each block of columns is orthonormal and the blocks have disjoint row supports
    inter = subspace_intersect(Subspace(3 * n, w1), Subspace(3 * n, w2))
    dropped = np.concatenate([inter.basis[..., :n, :], inter.basis[..., 2 * n:, :]], axis=-2)
    return LinearRelation(Subspace.span(dropped, 2 * n))


def _domains_equal_by_rank(a: Subspace, b: Subspace):
    """Independent equality test: equal dims and rank of the stacked bases, counted per
    member with its own cutoff."""
    if a.rank != b.rank or a.rank == 0:
        return np.full(a.basis.shape[:-2], a.rank == b.rank)
    stacked = np.concatenate([a.basis, b.basis], axis=-1)
    sv = np.linalg.svd(stacked, compute_uv=False)
    return np.count_nonzero(sv > 1e-9 * sv[..., :1], axis=-1) == a.rank


def _power_triple_space(t: LinearRelation, n: int) -> LinearRelation:
    """t^n by squaring through `_compose_triple_space`: t^2m = t^m o t^m, t^2m+1 = t^2m o t."""
    if n == 1:
        return t
    half = _power_triple_space(t, n // 2)
    square = _compose_triple_space(half, half)
    return _compose_triple_space(square, t) if n % 2 else square


def friedrichs_power_oracle(s: LinearRelation, n: int):
    """Same experiment through the triple-space composition and a rank-based equality test."""
    sf_pow = _power_triple_space(friedrichs_relation(s), n)
    pow_f = friedrichs_relation(_power_triple_space(s, n))
    dom_a = sf_pow.domain()
    dom_b = pow_f.domain()
    return _verdicts(_domains_equal_by_rank(dom_a, dom_b), n, dom_a, dom_b)


def relation_spectrum(t: LinearRelation):
    """Operator-part eigenvalues and multivalued dimension of a self-adjoint relation."""
    if not rel_is_selfadjoint(t):
        raise NotSelfAdjointError("spectrum extraction needs a self-adjoint relation")
    return np.linalg.eigvalsh(t.operator_part), t.space_dim - t.domain().rank


def _coordinate_map(b_map) -> np.ndarray:
    """B as a read-only complex copy (the caller's array stays as given), checked to be an
    n x d matrix with d >= 1 linearly independent columns (one SVD, `_rank`)."""
    b = np.array(b_map, dtype=complex)
    if b.ndim != 2:
        raise DimensionMismatchError("B must be an n x d matrix")
    if b.shape[1] == 0 or _rank(np.linalg.svd(b, compute_uv=False)) < b.shape[1]:
        raise ValueError("columns of B must be linearly independent")
    b.setflags(write=False)
    return b


def _check_rows(a: np.ndarray, b: np.ndarray):
    """Raise DimensionMismatchError unless the operator a is one n x n matrix for the n rows
    of b (B, or the vector phi)."""
    if a.shape != (b.shape[0],) * 2:
        raise DimensionMismatchError(f"{b.shape[0]} coordinate rows, operator of shape {a.shape}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Coordinate map B (independent columns) and a self-adjoint relation Theta on C^d."""

    b_map: np.ndarray
    theta: LinearRelation

    def __post_init__(self):
        b = _coordinate_map(self.b_map)
        if self.theta.space_dim != b.shape[1]:
            raise DimensionMismatchError(
                f"Theta lives on C^{self.theta.space_dim}, B has {b.shape[1]} columns"
            )
        if not rel_is_selfadjoint(self.theta):
            raise NotSelfAdjointError("Theta must be a self-adjoint relation")
        object.__setattr__(self, "b_map", b)

    @classmethod
    def from_matrix(cls, b_map, theta_matrix) -> "PerturbationSpec":
        """Accept a Hermitian d x d matrix as parameterization sugar."""
        theta = LinearRelation.from_matrix(HermitianMatrix(np.asarray(theta_matrix)).entries)
        return cls(b_map, theta)


def _action(a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """A0 + B Theta B* for an operator Theta, `_stored`: real-valued data is solved in float64."""
    return _stored(a + b @ theta @ b.conj().T, copy=False)


def _compression(a0, spec: PerturbationSpec):
    """(A0 + B Theta_op B*, B mul Theta) for Theta = Theta_op (+) mul Theta, read off the one
    f-block SVD of Theta: Theta_op on dom Theta = U[:, :r], mul Theta = dom^perp = U[:, r:]."""
    a = _operator_entries(a0)
    _check_rows(a, spec.b_map)
    u, _, _, r = spec.theta._f_svd
    return _action(a, spec.b_map @ u[:, :r], spec.theta.operator_part), spec.b_map @ u[:, r:]


def _finite_spectrum(action: np.ndarray, b_mul: np.ndarray) -> np.ndarray:
    """Eigenvalues of `action` compressed to (B mul Theta)^perp, the finite spectrum of
    A_Theta (Albeverio-Kurasov; dim(B mul Theta) eigenvalues sit at infinity); with
    mul Theta = {0}, of `action` as it stands. B has independent columns (checked by
    PerturbationSpec) and mul Theta an orthonormal basis, so B mul Theta has full column
    rank and its complement needs no rank decision."""
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
    Together with relation_spectrum this is the graph-route oracle for the
    compression route (`_compression`, `_finite_spectrum`).
    """
    action, b_mul = _compression(a0, spec)
    q = _complement(b_mul)
    n = action.shape[0]
    cols = np.hstack([np.vstack([q, action @ q]), np.vstack([np.zeros_like(b_mul), b_mul])])
    result = LinearRelation(Subspace.span(cols, 2 * n))
    if not rel_is_selfadjoint(result):
        raise NotSelfAdjointError("perturbed relation failed self-adjointness check")
    return result


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
        lam = np.linalg.eigvalsh(_action(action, b_mul, float(t) * np.eye(mul_dim)))
        keep = lam.shape[0] - mul_dim
        finite = lam[:keep]
        dev = float(np.max(np.abs(finite - target))) if keep else 0.0
        lowest_div = float(lam[keep]) if mul_dim else float("nan")
        rows.append((float(t), dev, lowest_div))
    return rows, target, mul_dim


def theta_sweep(a0, b_map, family):
    """Spectra along a family of Hermitian matrices Theta, each an operator (mul Theta = {0}).

    `family` yields (label, theta) pairs. Returns rows (label, mul_dim = 0, sorted
    eigenvalues of A0 + B Theta B*...). A0 and B are validated once, before the first
    Theta; each Theta is validated as a d x d Hermitian matrix, and each step is one
    `eigvalsh` of `_action`, with no relation built.
    """
    a = _operator_entries(a0)
    b = _coordinate_map(b_map)
    _check_rows(a, b)
    d = b.shape[1]
    rows = []
    for label, theta in family:
        theta = _hermitian_entries(theta)
        if theta.shape != (d, d):
            raise DimensionMismatchError(f"Theta has shape {theta.shape}, B has {d} columns")
        rows.append((label, 0, tuple(float(x) for x in np.linalg.eigvalsh(_action(a, b, theta)))))
    return rows


def _interlaced(lam: np.ndarray, mu: np.ndarray, t: float) -> bool:
    """Rank-one interlacing of the sorted spectra lambda of A and mu of A + t phi phi*, t > 0:
    lambda_i <= mu_i <= lambda_{i+1}, each up to INTERLACE_SLACK * max(|lambda|_max, t, 1)."""
    slack = INTERLACE_SLACK * max(float(np.max(np.abs(lam))), float(t), 1.0)
    return bool(np.all(lam - slack <= mu) and np.all(mu[:-1] <= lam[1:] + slack))


def interlacing_check(a0, phi, t: float) -> bool:
    """Rank-one interlacing (`_interlaced`) of A and A + t phi phi* for a unit vector phi.

    Only eigenvalues are read: for a SpectralOperator, lambda(A) is its stored, validated
    decomposition's, else `eigvalsh` of the `_stored` matrix; mu is `eigvalsh` of `_action`
    with B = phi and Theta = [t].
    """
    if not t > 0:
        raise ValueError("interlacing check needs t > 0")
    phi = np.asarray(phi, dtype=complex)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-8:
        raise ValueError("phi must be normalized")
    a = _operator_entries(a0)
    _check_rows(a, phi)
    lam = a0.eigenvalues if isinstance(a0, SpectralOperator) else np.linalg.eigvalsh(a)
    return _interlaced(lam, np.linalg.eigvalsh(_action(a, phi[:, None], np.array([[t]]))), t)
