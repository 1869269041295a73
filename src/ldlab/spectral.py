"""Dense Hermitian linear algebra, subspaces, and linear relations.

Everything downstream (left-definite spaces, extension theory, perturbations)
is built on the primitives in this module: validated Hermitian matrices,
spectral decompositions (LAPACK's, or the exact one of a diagonal matrix),
matrix powers through the eigenbasis, orthonormal subspaces, and linear
relations represented as subspaces of the doubled space H (+) H. Every rank
decision is one call of `_rank`, the count of singular values above RANK_RTOL
times a reference scale: sigma_max for arbitrary columns, 1 for the f block of
an orthonormal graph basis (its singular values are <= 1), and 2 for the sines
of the principal angles in `subspace_intersect` (Bjorck-Golub), the same
decision as sigma_max on the stack [A, -B]. A complement of a block of full
column rank takes none: it is the trailing columns of one complete QR
(`_complement`), a^perp for an orthonormal basis A and S* = (JS)^perp,
J(f, g) = (g, -f), for an orthonormal graph basis [F; G]. S = S* iff dim S = n
and the boundary form F*G - G*F vanishes; no adjoint is built for that. The
split of a relation is one full SVD of its f block, F = U S V* with r the
count of S > RANK_RTOL: dom = U[:, :r], dom^perp = U[:, r:] and
`operator_part` U_r* G V_r S_r^-1.

A relation's derived spaces are computed once per relation object and cached
on it: the boundary form (F*G and max|F*G - G*F|), `adjoint`, `domain()`,
`operator_part`, `defect_kernels` (ker(T -/+ i)) and `mul_extension`
(T (+) {0} x dom^perp, the Friedrichs construction). Bases whose rank the
construction fixes get no SVD of their own: QR of [I; A] in `from_matrix`,
sqrt2 F ker(G -/+ iF), and `mul_extension` by QR when mul T = 0. `rel_power`
squares: t^4 = t^2 o t^2, two compositions. Every `Subspace` checks its
orthonormality, a stack of them in one batched product (below).

Subspaces, relations and the functions on them take operands with leading
batch axes, (..., m, n), as numpy's linalg does: a stack of same-shape
subspaces or relations goes through every SVD, QR, product and check in one
call, and a single one is the 2-D case of the same function body. Each member's
result is bitwise what it gives alone (LAPACK and BLAS run member by member).
`_rank` decides per member, and a rank fixes the shape of every basis built
from it, so members that disagree raise RaggedRankError and are run apart. A
stack's orthonormality is checked with one batched B*B - I, each member against
ORTHO_TOL. Verdicts (`subspaces_equal`, `rel_is_selfadjoint`, the boundary-form
defect) are a Python scalar for a single operand and an array of the batch
shape for a stack. An error about a stack names its first failing member in C
order ("(stack member k of K)"); about a single operand it reads as always.

A `HermitianMatrix` or `SpectralDecomposition` decides its dtype once, when
built (`_stored`): float64 for real-valued data (a real dtype, or complex with
imaginary part exactly zero), else complex128. A real symmetric matrix thus
goes to LAPACK's real symmetric solver (a third of the complex cost), its
float64 eigenvectors are kept as returned, and every check and product uses
the stored arrays as they are: U* of a float64 U is the view U.T, and complex
vectors meet it as one real product of their (re, im) columns (`_product`).
`extensions` solves its real-valued perturbation matrices by the same rule.

A diagonal matrix with a nondecreasing diagonal is its own spectral
decomposition in the identity basis (`columns` None): `diagonal_eigh` returns it
from the diagonal alone in O(n) time and memory, and `eigh` keeps LAPACK
eigenvectors that are exactly I the same way. A product with that basis is no
product at all.

All values are immutable after construction and every operation is a pure
function, so concurrent read-only use is safe.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERMITIAN_RTOL = 1e-12   # allowed asymmetry relative to the largest entry
ORTHO_TOL = 1e-10        # max-norm tolerance for B*B - I
RANK_RTOL = 1e-10        # singular values below RANK_RTOL * sigma_max are zero
SUBSPACE_TOL = 1e-10     # max-norm tolerance for projector differences and the boundary form
CLUSTER_RTOL = 1e-10     # eigenvalues closer than this (relative) form a cluster


class NotHermitianError(ValueError):
    """Raised when a matrix fails the Hermitian symmetry invariant."""


class DimensionMismatchError(ValueError):
    """Raised when ambient dimensions of operands disagree."""


class SpectrumError(ValueError):
    """Raised when a spectral precondition (e.g. strict positivity) fails."""


class RaggedRankError(ValueError):
    """Raised when the members of a stack disagree on a rank decision; run them apart."""


def _ct(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each member of a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


def _max_abs(a: np.ndarray):
    """max|a| over the entries of a matrix, or one per member of a stack (..., m, n); a must
    be C-contiguous, so that each member's entries are one row of a view."""
    return np.abs(a.reshape(a.shape[:-2] + (-1,))).max(axis=-1)


def _first_member(bad) -> tuple[tuple, str]:
    """(index, suffix) of the first member, in C order, for which the per-member array `bad`
    holds. The suffix names that member in a stack of more than one and is empty otherwise,
    so an error about a single operand reads as it always has."""
    bad = np.asarray(bad)
    k = int(np.argmax(bad))
    return np.unravel_index(k, bad.shape), f" (stack member {k} of {bad.size})" * (bad.size > 1)


def _per_member(values):
    """A per-member array as it is for a stack, a Python scalar for a single operand."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


def inner(x, y) -> complex:
    """Inner product, linear in the first argument: <x,y> = sum x_i conj(y_i)."""
    return complex(np.vdot(np.asarray(y), np.asarray(x)))


@dataclass(frozen=True)
class HermitianMatrix:
    """A validated n x n Hermitian matrix, a read-only `_stored` copy; norm_max = max|entries|."""

    entries: np.ndarray
    norm_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = _stored(self.entries, copy=True)
        if entries.ndim != 2:
            raise NotHermitianError(f"expected a square matrix, got shape {entries.shape}")
        scale = float(_hermitian_scale(entries))
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "norm_max", scale)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _hermitian_scale(entries: np.ndarray):
    """max|entries| of a square matrix, or of each member of a stack (..., n, n), after
    checking that it is nonempty, finite and Hermitian to HERMITIAN_RTOL relative to that
    scale. An error names the first failing member of a stack."""
    if entries.ndim < 2 or entries.shape[-2] != entries.shape[-1]:
        raise NotHermitianError(f"expected a square matrix, got shape {entries.shape}")
    if entries.shape[-1] == 0:
        raise NotHermitianError("empty matrix")
    finite = np.isfinite(entries.view(float).reshape(entries.shape[:-2] + (-1,))).all(axis=-1)
    if not finite.all():
        raise NotHermitianError("matrix contains non-finite entries" + _first_member(~finite)[1])
    asym = entries - _ct(entries)
    asym = np.abs(asym, out=asym).real   # |.| in place: one temporary
    asym = np.max(asym.reshape(asym.shape[:-2] + (-1,)), axis=-1)
    scale = np.max(np.abs(entries.reshape(entries.shape[:-2] + (-1,))), axis=-1)
    bad = asym > HERMITIAN_RTOL * np.maximum(scale, 1e-300)
    if bad.any():
        i, member = _first_member(bad)
        raise NotHermitianError(
            f"matrix is not Hermitian: max asymmetry {asym[i]:.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e} * {scale[i]:.3e}{member}"
        )
    return scale


def _hermitian_entries(matrix) -> np.ndarray:
    """The read-only entries of a HermitianMatrix as they are, else the checked `_stored` copy
    of a Hermitian matrix or of a stack of them (`_hermitian_scale`)."""
    if isinstance(matrix, HermitianMatrix):
        return matrix.entries
    entries = _stored(matrix, copy=True)
    _hermitian_scale(entries)
    entries.setflags(write=False)
    return entries


def as_hermitian(matrix) -> HermitianMatrix:
    """Coerce an array-like (or pass through a HermitianMatrix) with validation."""
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(np.asarray(matrix))


def _stored(a, copy: bool) -> np.ndarray:
    """a as float64 when real-valued (a real dtype, which never passes through complex, or
    complex with imaginary part exactly zero), else as complex128; with copy=False a
    stored dtype is kept as is. Real-valued data thus goes to LAPACK's real routines."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and not np.any(a.imag):
        a, copy = a.real, True   # a strided view of the input: copied out either way
    dtype = np.float64 if a.dtype.kind in "biuf" else np.complex128
    return np.array(a, dtype=dtype) if copy else np.asarray(a, dtype=dtype)


def _ortho_defect(b: np.ndarray):
    """max|B*B - I| of a basis, or one per member of a stack in one batched product, the
    identity subtracted from the diagonal of B*B in place."""
    gram = _ct(b) @ b   # a new C-contiguous array, so the reshape is a view of it
    gram.reshape(gram.shape[:-2] + (-1,))[..., :: gram.shape[-1] + 1] -= 1.0
    return _max_abs(gram)


def _product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x. A float64 m times a complex x is one real product with the (re, im) columns
    of x, so m is never upcast to complex."""
    if m.dtype != np.float64 or not np.iscomplexobj(x):
        return m @ x
    x = np.ascontiguousarray(x, dtype=complex)
    out = m @ x.view(np.float64).reshape(x.shape[0], -1)
    return out.view(complex).reshape((m.shape[0],) + x.shape[1:])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    `columns` is the dense U, stored by `_stored` (LAPACK's float64 U as it is),
    or None for the identity basis U = I: the matrix is then diag(eigenvalues)
    and needs no n x n array. `eigenvectors` is the dense array, for the
    identity a float64 I built on read.

    Products with U and U* go through `to_eigenbasis`, `from_eigenbasis`,
    `apply_function`, `power` and `compress`: for the identity basis none is a
    product, else products with the stored U (`_product`) and U.conj().T, a view
    for float64 U.
    """

    eigenvalues: np.ndarray
    columns: np.ndarray | None = None

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)   # a copy: the caller's stays writable
        if np.any(np.diff(lam) < 0):
            raise SpectrumError("eigenvalues must be nondecreasing")
        u = self.columns
        if u is not None:
            u = _stored(u, copy=False)
            if u.shape != (lam.shape[0],) * 2:
                raise SpectrumError(f"eigenvector columns must form a {lam.shape[0]} x "
                                    f"{lam.shape[0]} array, got shape {u.shape}")
            ortho = _ortho_defect(u)
            if ortho > ORTHO_TOL:
                raise SpectrumError(f"eigenvector columns not orthonormal: {ortho:.3e}")
            u.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "columns", u)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvector columns as a dense array; the identity is built here, once."""
        if self.columns is not None:
            return self.columns
        u = np.eye(self.eigenvalues.shape[0])
        u.setflags(write=False)
        return u

    def to_eigenbasis(self, x) -> np.ndarray:
        """U* x, for a vector or the columns of a matrix x; x itself for the identity basis."""
        x = np.asarray(x)
        return x if self.columns is None else _product(self.columns.conj().T, x)

    def from_eigenbasis(self, c) -> np.ndarray:
        """U c, for a vector or the columns of a matrix c; c itself for the identity basis."""
        c = np.asarray(c)
        return c if self.columns is None else _product(self.columns, c)

    def apply_function(self, func) -> np.ndarray:
        """U diag(func(lambda)) U* as a plain ndarray."""
        values = func(self.eigenvalues)
        if self.columns is None:
            return np.diag(values)
        u = self.columns
        return (u * values) @ u.conj().T

    def power(self, r: float) -> HermitianMatrix:
        """U diag(lambda^r) U* symmetrized as (P + P*)/2; the caller checks the spectrum."""
        powered = self.apply_function(lambda x: np.power(x, float(r)))
        powered = powered + powered.conj().T
        powered /= 2
        return HermitianMatrix(powered)

    def compress(self, m) -> np.ndarray:
        """U* m U, the n x n matrix m in the eigenbasis, as a new array."""
        if self.columns is None:
            return np.array(m)
        u = self.columns
        return u.conj().T @ m @ u


def _check_residual(h: HermitianMatrix, decomp: SpectralDecomposition):
    """Raise unless max|HU - U Lambda| <= ORTHO_TOL * ||H||_max.

    For the identity basis and a diagonal H (every nonzero on the diagonal) the
    residual is exactly max|diag(H) - lambda|, found in O(n) extra memory;
    otherwise HU - U Lambda is formed from the stored arrays.
    """
    lam, diagonal = decomp.eigenvalues, np.diagonal(h.entries)
    if decomp.columns is None and np.count_nonzero(h.entries) == np.count_nonzero(diagonal):
        resid = float(np.max(np.abs(diagonal - lam)))
    else:
        u = decomp.eigenvectors
        resid = float(np.max(np.abs(h.entries @ u - u * lam)))
    if resid > ORTHO_TOL * max(h.norm_max, 1e-300):
        raise SpectrumError(f"eigendecomposition residual too large: {resid:.3e}")


def _zero_cutoff(norm_max: float) -> float:
    """CLUSTER_RTOL * ||H||_max: a lower bound at or below it counts as zero (`mat_power`,
    `leftdef.SpectralOperator`), and a gap between consecutive sorted eigenvalues at or
    below it joins them into one cluster (`_clusters`)."""
    return CLUSTER_RTOL * max(norm_max, 1e-300)


def _clusters(values: np.ndarray, cutoff: float) -> list:
    """The (start, stop) runs of the sorted `values` whose consecutive gaps are all
    <= cutoff, the package's one cluster rule (`eigh`, `leftdef.multiplicity_list`)."""
    edges = np.flatnonzero(np.diff(values) > cutoff) + 1
    bounds = [0, *edges.tolist(), len(values)]
    return list(zip(bounds[:-1], bounds[1:]))


def eigh(matrix) -> SpectralDecomposition:
    """Hermitian eigendecomposition with cluster re-orthonormalization.

    Each run of eigenvalues whose consecutive gaps are at most CLUSTER_RTOL *
    ||H||_max (`_clusters`) is one cluster, and its eigenvectors are
    re-orthonormalized by QR, so degenerate spectra always yield cleanly
    orthonormal columns. Eigenvectors that come out exactly I (a diagonal matrix
    with a nondecreasing diagonal) are orthonormal as they stand and are kept as
    the identity basis. A real-valued matrix is stored, hence solved, in float64;
    the orthonormality and residual checks run on every result, on either route.

    Raises NotHermitianError for non-Hermitian input (with the max asymmetry
    reported) and propagates LinAlgError on non-convergence.
    """
    h = as_hermitian(matrix)
    lam, u = np.linalg.eigh(h.entries)
    if np.count_nonzero(u) == len(lam) and np.all(np.diagonal(u) == 1):
        u = None
    else:
        for start, stop in _clusters(lam, _zero_cutoff(h.norm_max)):
            if stop - start > 1:
                u[:, start:stop] = np.linalg.qr(u[:, start:stop])[0]
    decomp = SpectralDecomposition(lam, u)
    _check_residual(h, decomp)
    return decomp


def diagonal_eigh(diagonal) -> SpectralDecomposition:
    """Exact eigendecomposition of diag(diagonal), from the 1-D diagonal, without LAPACK.

    A nondecreasing diagonal is its own spectrum in the identity basis: nothing
    of n x n size is formed and there is no residual to check. Any other
    diagonal is sorted by order = argsort(diagonal, kind="stable") and gets the
    dense unit columns e_order. For a sorted distinct diagonal the eigenvalues
    and the eigenvectors are bitwise what `eigh` returns.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    if diagonal.ndim != 1 or diagonal.shape[0] == 0:
        raise NotHermitianError(f"expected a nonempty diagonal, got shape {diagonal.shape}")
    if not np.all(np.isfinite(diagonal)):
        raise NotHermitianError("matrix contains non-finite entries")
    if np.all(np.diff(diagonal) >= 0):
        return SpectralDecomposition(diagonal)
    order = np.argsort(diagonal, kind="stable")
    return SpectralDecomposition(diagonal[order], np.eye(diagonal.shape[0])[:, order])


def mat_power(matrix, r: float) -> HermitianMatrix:
    """H^r through the spectral decomposition, U diag(lambda^r) U*.

    For a power that is not a positive integer every eigenvalue must exceed
    `_zero_cutoff` of ||H||_max; otherwise a SpectrumError names the offending eigenvalue.
    mat_power(H, 1) returns H itself.
    """
    if not np.isfinite(r):
        raise ValueError("power must be finite")
    h = as_hermitian(matrix)
    if r == 1:
        return h
    decomp = eigh(h)
    lam = decomp.eigenvalues
    fractional = not (float(r).is_integer() and r > 0)
    cutoff = _zero_cutoff(h.norm_max)
    if fractional and lam[0] <= cutoff:
        raise SpectrumError(
            f"matrix is not strictly positive: eigenvalue {lam[0]:.6e} <= "
            f"{cutoff:.1e} = {CLUSTER_RTOL:.0e} * ||H||_max forbids power {r}"
        )
    return decomp.power(r)


def _rank(s: np.ndarray, scale: float | None = None) -> int:
    """Rank from descending singular values s (..., k): the count of s > RANK_RTOL * scale,
    the package's one cutoff. scale is sigma_max = s[..., 0] by default (0 for an empty s).
    A rank fixes the shape of every basis built from it, so the members of a stack must
    agree on it; where they do not, RaggedRankError asks for them to be run apart."""
    if scale is None:
        scale = s[..., :1] if s.shape[-1] else 0.0
    counts = np.add.reduce(s > RANK_RTOL * scale, axis=-1, dtype=np.intp)
    rank = counts.item(0)
    if counts.ndim and (counts != rank).any():
        raise RaggedRankError(f"stack members disagree on a rank: {sorted(set(counts.tolist()))}")
    return rank


def _columns(a, ambient: int) -> np.ndarray:
    """a as complex columns in C^ambient: a vector is one column, and a matrix, or each
    member of a stack (..., m, k), is read as columns of `ambient` rows."""
    a = np.asarray(a, dtype=complex)
    return a.reshape(a.shape[:-2] + (ambient, -1))


def _onb(columns: np.ndarray, ambient: int) -> np.ndarray:
    """Orthonormal basis of the column space, of each member of a stack alike."""
    cols = _columns(columns, ambient)
    if cols.shape[-1] == 0:
        return np.zeros(cols.shape, dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[..., :_rank(s)]


def _complement(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ran(cols)^perp for a block (or a stack of blocks) of full column
    rank: the trailing columns of one complete QR. The rank is the column count; nothing is
    decided."""
    q, _ = np.linalg.qr(cols, mode="complete")
    return q[..., cols.shape[-1]:]


def _nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(m), of each member of a stack, its dimension decided by
    `_rank`."""
    m = np.asarray(m, dtype=complex)
    batch, (rows, cols) = m.shape[:-2], m.shape[-2:]
    if cols == 0:
        return np.zeros(batch + (0, 0), dtype=complex)
    if rows == 0:
        return np.zeros(batch + (cols, cols), dtype=complex) + np.eye(cols)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return _ct(vh[..., _rank(s):, :])


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n carried by an orthonormal column basis (n, k), or a stack of
    subspaces of one rank k carried by a stack of bases (..., n, k)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = _columns(self.basis, self.ambient_dim)
        if basis.shape[-1] > self.ambient_dim:
            raise DimensionMismatchError(
                f"rank {basis.shape[-1]} exceeds ambient dimension {self.ambient_dim}"
            )
        if basis.shape[-1] > 0:
            ortho = _ortho_defect(basis)
            bad = ortho > ORTHO_TOL
            if bad.any():
                i, member = _first_member(bad)
                raise SpectrumError(f"basis columns not orthonormal: {ortho[i]:.3e}{member}")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def rank(self) -> int:
        return self.basis.shape[-1]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ _ct(self.basis)

    @classmethod
    def span(cls, columns, ambient_dim: int | None = None) -> "Subspace":
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim == 1:
            cols = cols[:, None]
        n = ambient_dim if ambient_dim is not None else cols.shape[-2]
        return cls(n, _onb(cols, n))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))


def _check_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a cap b from the principal angles between a and b (Bjorck-Golub, 1973).

    With B the basis of smaller rank and A the other, the singular values of
    B - A(A*B) = (I - AA*)B are the sines of the principal angles, and a cap b is
    B V over the sines <= 2 RANK_RTOL, orthonormal as built (V is unitary): the
    sines descend, so those rows of V* follow the `_rank(sines, 2.0)` larger ones.
    That is `_rank`'s sigma_max cutoff on the stack [A, -B] restated: its singular
    values are sqrt(1 -/+ cos theta), sigma_max = sqrt2 once a cap b != 0, and
    sqrt(1 - cos theta) <= RANK_RTOL * sqrt2 is theta <= 2 RANK_RTOL.
    """
    _check_ambient(a, b)
    if a.rank < b.rank:
        a, b = b, a
    if b.rank == 0:
        return b
    _, sines, vh = np.linalg.svd(b.basis - a.basis @ (_ct(a.basis) @ b.basis),
                                 full_matrices=False)
    return Subspace(a.ambient_dim, b.basis @ _ct(vh[..., _rank(sines, 2.0):, :]))


def orthocomplement(a: Subspace) -> Subspace:
    """a^perp from the orthonormal basis A of a, which has full column rank (`_complement`)."""
    return Subspace(a.ambient_dim, _complement(a.basis))


def subspaces_equal(a: Subspace, b: Subspace):
    """a = b: equal ranks and projectors within SUBSPACE_TOL; a bool, or one per member of
    a stack."""
    _check_ambient(a, b)
    if a.rank != b.rank or a.rank == 0:
        return _per_member(np.full(a.basis.shape[:-2], a.rank == b.rank))
    return _per_member(_max_abs(a.projector - b.projector) <= SUBSPACE_TOL)


@dataclass(frozen=True)
class LinearRelation:
    """A linear relation on C^n: a subspace of the doubled space C^n (+) C^n.

    The graph basis is stored with the first n rows holding the `f` block and
    the last n rows the `g` block of pairs (f, g). A stacked graph is a stack of
    relations of one dimension, and every derived space is stacked alike.
    """

    graph: Subspace

    def __post_init__(self):
        if self.graph.ambient_dim % 2 != 0:
            raise DimensionMismatchError("relation graph must live in a doubled space")

    @property
    def space_dim(self) -> int:
        return self.graph.ambient_dim // 2

    @property
    def dim(self) -> int:
        return self.graph.rank

    def _blocks(self):
        n = self.space_dim
        return self.graph.basis[..., :n, :], self.graph.basis[..., n:, :]

    @classmethod
    def from_matrix(cls, matrix) -> "LinearRelation":
        """graph(A), its basis a QR of [I; A], which has full column rank at any scale of A."""
        a = np.asarray(matrix)
        n = a.shape[-1]
        cols = np.empty(a.shape[:-2] + (2 * n, n), dtype=np.result_type(a, float))
        cols[..., :n, :] = np.eye(n)
        cols[..., n:, :] = a
        q, _ = np.linalg.qr(cols)
        return cls(Subspace(2 * n, q))

    @classmethod
    def multivalued(cls, n: int) -> "LinearRelation":
        """The purely multivalued relation {0} x C^n."""
        return cls(Subspace(2 * n, np.vstack([np.zeros((n, n)), np.eye(n)])))

    def domain(self) -> Subspace:
        """dom t = ran F = U[:, :r] of the f-block SVD; computed once per relation."""
        return self._domain

    @cached_property
    def _f_svd(self):
        """(U, s, V*, r): the full SVD F = U diag(s) V* of the f block and r, the relation's
        one rank decision; dom t = U[:, :r] and (dom t)^perp = U[:, r:]. The graph basis
        [F; G] is orthonormal, so s <= 1 and r counts s > RANK_RTOL relative to 1, not to
        s[0]: an f block of pure rounding has rank 0."""
        u, s, vh = np.linalg.svd(self._blocks()[0])
        u.setflags(write=False)
        return u, s, vh, _rank(s, 1.0)

    @cached_property
    def _domain(self) -> Subspace:
        u, _, _, r = self._f_svd
        return Subspace(self.space_dim, u[..., :r])

    @cached_property
    def operator_part(self) -> np.ndarray:
        """H = U_r* G F^+ U_r = U_r* G V_r S_r^-1, symmetrized: t's operator part in the basis
        U_r of dom t. For self-adjoint t, t = graph(H) (+) {0} x (dom t)^perp."""
        u, s, vh, r = self._f_svd
        h = _ct(u[..., :r]) @ (self._blocks()[1] @ _ct(vh[..., :r, :])) / s[..., None, :r]
        return (h + _ct(h)) / 2

    @cached_property
    def _boundary_form(self) -> tuple:
        """(F*G, max|F*G - G*F|) for the graph basis [F; G], computed once per relation; the
        defect is a float, or one per member of a stack. F*G - G*F is the Gram matrix of Jt
        against t and t* = (Jt)^perp, so t is in t* iff the defect is 0 (to SUBSPACE_TOL)."""
        f, g = self._blocks()
        form = _ct(f) @ g
        form.setflags(write=False)
        if not self.dim:
            return form, _per_member(np.zeros(form.shape[:-2]))
        return form, _per_member(_max_abs(form - _ct(form)))

    @cached_property
    def adjoint(self) -> "LinearRelation":
        """{(h, k) : <k, f> = <h, g> on t} = (Jt)^perp with J(f, g) = (g, -f). J is unitary,
        so [G; -F] is an orthonormal basis of Jt and t* is its `_complement`."""
        f, g = self._blocks()
        return LinearRelation(Subspace(2 * self.space_dim,
                                       _complement(np.concatenate([g, -f], axis=-2))))

    @cached_property
    def defect_kernels(self) -> tuple[Subspace, Subspace]:
        """(ker(t - i), ker(t + i)), ker(t - si) = {f : (f, si f) in t} = F ker(G - siF).

        For orthonormal x in ker(G - siF), |Gx| = |Fx| and |Fx|^2 + |Gx|^2 = |x|^2
        (inner products likewise), so sqrt2 F x is orthonormal as built.
        """
        f, g = self._blocks()
        return tuple(Subspace(self.space_dim, np.sqrt(2.0) * (f @ _nullspace(g - sign * 1j * f)))
                     for sign in (1.0, -1.0))

    @cached_property
    def mul_extension(self) -> "LinearRelation":
        """t (+) ({0} x (dom t)^perp): t with a multivalued part on the complement of its domain.

        For nonnegative symmetric t this is the Friedrichs extension, which
        `extensions.friedrichs_relation` checks. When dim dom t = dim t (mul t = 0)
        the f block has full column rank, so the columns are independent and QR
        gives the basis without a rank decision; otherwise the span decides the rank.
        """
        n = self.space_dim
        u, _, _, r = self._f_svd
        extra = u[..., r:]
        cols = np.concatenate(
            [self.graph.basis, np.concatenate([np.zeros_like(extra), extra], axis=-2)], axis=-1)
        if r == self.dim:
            q, _ = np.linalg.qr(cols)
            return LinearRelation(Subspace(2 * n, q))
        return LinearRelation(Subspace.span(cols, 2 * n))


def rel_compose(t: LinearRelation, s: LinearRelation) -> LinearRelation:
    """Composition T o S = {(f, h) : exists g with (f, g) in S and (g, h) in T}.

    Matching pairs are found as the nullspace of [G_S, -F_T] acting on graph
    coordinates, so graph(A) o graph(B) = graph(AB) holds by construction.
    """
    if t.space_dim != s.space_dim:
        raise DimensionMismatchError("relations live on different spaces")
    n = t.space_dim
    fs, gs = s._blocks()
    ft, gt = t._blocks()
    null = _nullspace(np.concatenate([gs, -ft], axis=-1))
    a, b = null[..., :s.dim, :], null[..., s.dim:, :]
    return LinearRelation(Subspace.span(np.concatenate([fs @ a, gt @ b], axis=-2), 2 * n))


def rel_power(t: LinearRelation, n: int) -> LinearRelation:
    """t^n by repeated squaring: composition is associative, so t^4 = t^2 o t^2 and t^n
    takes floor(log2 n) + popcount(n) - 1 `rel_compose` calls, not n - 1."""
    if n < 1:
        raise ValueError("power must be a positive integer")
    out, square = None, t
    while True:
        if n & 1:
            out = square if out is None else rel_compose(out, square)
        n >>= 1
        if not n:
            return out
        square = rel_compose(square, square)


def rel_is_selfadjoint(t: LinearRelation):
    """t = t*: t is contained in t* (the cached `_boundary_form` defect vanishes) and
    dim t = n = dim t*, so t is a Lagrangian subspace of the doubled space. No adjoint and
    no projector is formed. A bool, or one per member of a stack."""
    if t.dim != t.space_dim:
        return _per_member(np.zeros(t.graph.basis.shape[:-2], dtype=bool))
    return _per_member(np.asarray(t._boundary_form[1]) <= SUBSPACE_TOL)


def load_matrix_csv(path) -> np.ndarray:
    """Read a complex matrix stored row-major, each entry as adjacent (re, im) columns."""
    rows = []
    with open(path, "r", newline="") as fh:
        for record in csv.reader(fh):
            if not record:
                continue
            vals = [float(x) for x in record]
            if len(vals) % 2 != 0:
                raise ValueError(f"{path}: odd column count, expected (re, im) pairs")
            rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(len(vals) // 2)])
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return np.array(rows, dtype=complex)
