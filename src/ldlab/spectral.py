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
orthonormality.

A `HermitianMatrix` or `SpectralDecomposition` decides its dtype once, when
built (`_stored`): float64 for real-valued data (a real dtype, or complex with
imaginary part exactly zero), else complex128. A real symmetric matrix thus
goes to LAPACK's real symmetric solver (a third of the complex cost), its
float64 eigenvectors are kept as returned, and every check and product uses
the stored arrays as they are: U* of a float64 U is the view U.T, and complex
vectors meet it as one real product of their (re, im) columns (`_product`).
`extensions` solves its real-valued perturbation matrices by the same rule.

The exact decomposition of a diagonal matrix (`diagonal_eigh`) is its sorted
diagonal and a permutation, `unit_rows`; given the diagonal alone it takes
O(n) time and memory, checks included; LAPACK's unit-permutation eigenvectors
are kept the same way. Every product with such a basis is a gather or scatter.

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
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise NotHermitianError(f"expected a square matrix, got shape {entries.shape}")
        if entries.shape[0] == 0:
            raise NotHermitianError("empty matrix")
        if not np.all(np.isfinite(entries.view(float))):
            raise NotHermitianError("matrix contains non-finite entries")
        asym = entries - entries.conj().T
        asym = float(np.max(np.abs(asym, out=asym).real))   # |.| in place: one temporary
        scale = float(np.max(np.abs(entries)))
        if asym > HERMITIAN_RTOL * max(scale, 1e-300):
            raise NotHermitianError(
                f"matrix is not Hermitian: max asymmetry {asym:.3e} "
                f"exceeds {HERMITIAN_RTOL:.1e} * {scale:.3e}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "norm_max", scale)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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


def _ortho_defect(b: np.ndarray) -> float:
    """max|B*B - I|, the identity subtracted from the diagonal of B*B in place."""
    gram = b.conj().T @ b   # a new C-contiguous array, so reshape(-1) is a view of it
    gram.reshape(-1)[:: gram.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max())


def _unit_permutation(u: np.ndarray) -> np.ndarray | None:
    """Row of each column's single entry if u has exactly one entry per column, every one
    equal to 1 and in distinct rows, else None; then u*u = I exactly. O(n) extra memory."""
    cols = u.shape[1]
    if np.count_nonzero(u) != cols:
        return None
    rows, where = np.nonzero(u)
    if not (np.all(u[rows, where] == 1) and np.all(np.diff(rows) > 0)
            and np.unique(where).size == cols):
        return None
    row_of = np.empty(cols, dtype=np.intp)
    row_of[where] = rows
    return row_of


def _is_permutation(rows: np.ndarray, n: int) -> bool:
    """True iff rows holds each of 0..n-1 exactly once, so that the unit columns e_rows
    are orthonormal (u*u = I exactly). O(n)."""
    return (rows.shape == (n,) and rows.dtype.kind in "iu"
            and (n == 0 or (rows.min() >= 0 and rows.max() < n))
            and bool(np.all(np.bincount(rows, minlength=n) == 1)))


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

    It holds exactly one of `columns`, stored by `_stored` (LAPACK's float64 U as
    it is), and `unit_rows`: the row of each column's single 1, proved a
    permutation in O(n), also for dense columns of that form. `eigenvectors` is
    the dense array, for `unit_rows` a float64 permuted identity built on read.

    Products with U and U* go through `to_eigenbasis`, `from_eigenbasis`,
    `apply_function`, `power` and `compress`: for a permutation basis a gather
    or scatter, bitwise the product with the 0/1 matrix, else products with the
    stored U (`_product`) and U.conj().T, a view for float64 U.
    """

    eigenvalues: np.ndarray
    columns: np.ndarray | None = None
    unit_rows: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(lam) < 0):
            raise SpectrumError("eigenvalues must be nondecreasing")
        if self.columns is None:
            u = None
            rows = np.asarray(self.unit_rows)
            if not _is_permutation(rows, lam.shape[0]):
                raise SpectrumError("eigenvector columns not orthonormal: unit_rows is not "
                                    f"a permutation of 0..{lam.shape[0] - 1}")
        else:
            if self.unit_rows is not None:
                raise ValueError("give the eigenvector columns or their unit_rows, not both")
            u = _stored(self.columns, copy=False)
            if u.shape != (lam.shape[0],) * 2:
                raise SpectrumError(f"eigenvector columns must form a {lam.shape[0]} x "
                                    f"{lam.shape[0]} array, got shape {u.shape}")
            rows = _unit_permutation(u)
            if rows is None:
                ortho = _ortho_defect(u)
                if ortho > ORTHO_TOL:
                    raise SpectrumError(f"eigenvector columns not orthonormal: {ortho:.3e}")
            u.setflags(write=False)
        lam.setflags(write=False)
        if rows is not None:
            rows.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "columns", u if rows is None else None)
        object.__setattr__(self, "unit_rows", rows)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvector columns as a dense array; a permuted identity is built here, once."""
        if self.columns is not None:
            return self.columns
        u = np.eye(self.unit_rows.shape[0])[:, self.unit_rows]
        u.setflags(write=False)
        return u

    def to_eigenbasis(self, x) -> np.ndarray:
        """U* x, for a vector or the columns of a matrix x."""
        x = np.asarray(x)
        if self.unit_rows is not None:
            return x[self.unit_rows]
        return _product(self.columns.conj().T, x)

    def from_eigenbasis(self, c) -> np.ndarray:
        """U c, for a vector or the columns of a matrix c."""
        c = np.asarray(c)
        if self.unit_rows is not None:
            out = np.empty_like(c)
            out[self.unit_rows] = c
            return out
        return _product(self.columns, c)

    def apply_function(self, func) -> np.ndarray:
        """U diag(func(lambda)) U* as a plain ndarray."""
        values = func(self.eigenvalues)
        if self.unit_rows is not None:
            return np.diag(self.from_eigenbasis(values))
        u = self.columns
        return (u * values) @ u.conj().T

    def power(self, r: float) -> HermitianMatrix:
        """U diag(lambda^r) U* symmetrized as (P + P*)/2; the caller checks the spectrum."""
        powered = self.apply_function(lambda x: np.power(x, float(r)))
        powered = powered + powered.conj().T
        powered /= 2
        return HermitianMatrix(powered)

    def compress(self, m) -> np.ndarray:
        """U* m U, the n x n matrix m in the eigenbasis."""
        m = np.asarray(m)
        if self.unit_rows is not None:
            return m[np.ix_(self.unit_rows, self.unit_rows)]
        u = self.columns
        return u.conj().T @ m @ u


def _check_residual(h, decomp: SpectralDecomposition):
    """Raise unless max|HU - U Lambda| <= ORTHO_TOL * ||H||_max.

    `h` is a HermitianMatrix or, with a unit-permutation U, the 1-D diagonal of
    a diagonal matrix. For diagonal H and a unit-permutation U the residual is
    exactly max|H[row_j, row_j] - lambda_j|, found in O(n) without a dense
    product; otherwise HU - U Lambda is formed from the stored arrays.
    """
    lam, rows = decomp.eigenvalues, decomp.unit_rows
    if isinstance(h, HermitianMatrix):
        diagonal, scale = np.diagonal(h.entries), h.norm_max
        if np.count_nonzero(h.entries) != np.count_nonzero(diagonal):
            diagonal = None
    else:
        diagonal = np.asarray(h, dtype=float)
        scale = float(np.max(np.abs(diagonal)))
    if rows is not None and diagonal is not None:
        resid = float(np.max(np.abs(diagonal[rows] - lam)))
    else:
        u = decomp.eigenvectors
        resid = float(np.max(np.abs(h.entries @ u - u * lam)))
    if resid > ORTHO_TOL * max(scale, 1e-300):
        raise SpectrumError(f"eigendecomposition residual too large: {resid:.3e}")


def _zero_cutoff(norm_max: float) -> float:
    """CLUSTER_RTOL * ||H||_max: eigenvalue gaps at or below it join a cluster (`eigh`), and
    a lower bound at or below it counts as zero (`mat_power`, `leftdef.SpectralOperator`)."""
    return CLUSTER_RTOL * max(norm_max, 1e-300)


def eigh(matrix) -> SpectralDecomposition:
    """Hermitian eigendecomposition with cluster re-orthonormalization.

    Eigenvalues within CLUSTER_RTOL * ||H||_max of each other are treated as
    one cluster and their eigenvectors re-orthonormalized by QR, so degenerate
    spectra always yield cleanly orthonormal columns. A real-valued matrix is
    stored, hence solved, in float64; the orthonormality and residual checks
    run on every result, on either route.

    Raises NotHermitianError for non-Hermitian input (with the max asymmetry
    reported) and propagates LinAlgError on non-convergence.
    """
    h = as_hermitian(matrix)
    lam, u = np.linalg.eigh(h.entries)
    gap_tol = _zero_cutoff(h.norm_max)
    start = 0
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i] - lam[i - 1] > gap_tol:
            if i - start > 1:
                q, _ = np.linalg.qr(u[:, start:i])
                u[:, start:i] = q
            start = i
    decomp = SpectralDecomposition(lam, u)
    _check_residual(h, decomp)
    return decomp


def diagonal_eigh(diagonal) -> SpectralDecomposition:
    """Exact eigendecomposition of diag(diagonal), from the 1-D diagonal, without LAPACK.

    The eigenvalues are the diagonal sorted by order = argsort(diagonal,
    kind="stable") and the eigenvectors the unit columns e_order, kept as
    `unit_rows`; for a sorted distinct diagonal both are bitwise what `eigh`
    returns. Nothing of n x n size is formed, and the checks of `eigh` run in
    O(n): finite values, nondecreasing eigenvalues, a valid permutation
    (u*u = I) and the exact residual.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    if diagonal.ndim != 1 or diagonal.shape[0] == 0:
        raise NotHermitianError(f"expected a nonempty diagonal, got shape {diagonal.shape}")
    if not np.all(np.isfinite(diagonal)):
        raise NotHermitianError("matrix contains non-finite entries")
    order = np.argsort(diagonal, kind="stable")
    decomp = SpectralDecomposition(diagonal[order], unit_rows=order)
    _check_residual(diagonal, decomp)
    return decomp


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
    """Rank from descending singular values s: the count of s > RANK_RTOL * scale, the
    package's one cutoff. scale is sigma_max = s[0] by default (0 for an empty s)."""
    if scale is None:
        scale = s[0] if s.size else 0.0
    return int(np.count_nonzero(s > RANK_RTOL * scale))


def _onb(columns: np.ndarray, ambient: int) -> np.ndarray:
    """Orthonormal basis of the column space."""
    cols = np.asarray(columns, dtype=complex).reshape(ambient, -1)
    if cols.shape[1] == 0:
        return np.zeros((ambient, 0), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :_rank(s)]


def _complement(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ran(cols)^perp for a block of full column rank: the trailing
    columns of one complete QR. The rank is the column count; nothing is decided."""
    q, _ = np.linalg.qr(cols, mode="complete")
    return q[:, cols.shape[1]:]


def _nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(m), its dimension decided by `_rank`."""
    m = np.asarray(m, dtype=complex)
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[_rank(s):, :].conj().T


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n carried by an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex).reshape(self.ambient_dim, -1)
        if basis.shape[1] > self.ambient_dim:
            raise DimensionMismatchError(
                f"rank {basis.shape[1]} exceeds ambient dimension {self.ambient_dim}"
            )
        if basis.shape[1] > 0:
            ortho = _ortho_defect(basis)
            if ortho > ORTHO_TOL:
                raise SpectrumError(f"basis columns not orthonormal: {ortho:.3e}")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @classmethod
    def span(cls, columns, ambient_dim: int | None = None) -> "Subspace":
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim == 1:
            cols = cols[:, None]
        n = ambient_dim if ambient_dim is not None else cols.shape[0]
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
        return Subspace.zero(a.ambient_dim)
    _, sines, vh = np.linalg.svd(b.basis - a.basis @ (a.basis.conj().T @ b.basis),
                                 full_matrices=False)
    return Subspace(a.ambient_dim, b.basis @ vh[_rank(sines, 2.0):].conj().T)


def orthocomplement(a: Subspace) -> Subspace:
    """a^perp from the orthonormal basis A of a, which has full column rank (`_complement`)."""
    return Subspace(a.ambient_dim, _complement(a.basis))


def subspaces_equal(a: Subspace, b: Subspace) -> bool:
    _check_ambient(a, b)
    if a.rank != b.rank:
        return False
    return float(np.max(np.abs(a.projector - b.projector))) <= SUBSPACE_TOL if a.rank else True


@dataclass(frozen=True)
class LinearRelation:
    """A linear relation on C^n: a subspace of the doubled space C^n (+) C^n.

    The graph basis is stored with the first n rows holding the `f` block and
    the last n rows the `g` block of pairs (f, g).
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
        return self.graph.basis[:n], self.graph.basis[n:]

    @classmethod
    def from_matrix(cls, matrix) -> "LinearRelation":
        """graph(A), its basis a QR of [I; A], which has full column rank at any scale of A."""
        a = np.asarray(matrix)
        q, _ = np.linalg.qr(np.vstack([np.eye(a.shape[0]), a]))
        return cls(Subspace(2 * a.shape[0], q))

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
        return Subspace(self.space_dim, u[:, :r])

    @cached_property
    def operator_part(self) -> np.ndarray:
        """H = U_r* G F^+ U_r = U_r* G V_r S_r^-1, symmetrized: t's operator part in the basis
        U_r of dom t. For self-adjoint t, t = graph(H) (+) {0} x (dom t)^perp."""
        u, s, vh, r = self._f_svd
        h = u[:, :r].conj().T @ (self._blocks()[1] @ vh[:r].conj().T) / s[:r]
        return (h + h.conj().T) / 2

    @cached_property
    def _boundary_form(self) -> tuple[np.ndarray, float]:
        """(F*G, max|F*G - G*F|) for the graph basis [F; G], computed once per relation.
        F*G - G*F is the Gram matrix of Jt against t and t* = (Jt)^perp, so t is in t* iff
        the defect is 0 (to SUBSPACE_TOL)."""
        f, g = self._blocks()
        form = f.conj().T @ g
        form.setflags(write=False)
        return form, float(np.max(np.abs(form - form.conj().T))) if self.dim else 0.0

    @cached_property
    def adjoint(self) -> "LinearRelation":
        """{(h, k) : <k, f> = <h, g> on t} = (Jt)^perp with J(f, g) = (g, -f). J is unitary,
        so [G; -F] is an orthonormal basis of Jt and t* is its `_complement`."""
        f, g = self._blocks()
        return LinearRelation(Subspace(2 * self.space_dim, _complement(np.vstack([g, -f]))))

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
        extra = u[:, r:]
        cols = np.hstack([self.graph.basis, np.vstack([np.zeros_like(extra), extra])])
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
    null = _nullspace(np.hstack([gs, -ft]))
    a, b = null[: s.dim], null[s.dim:]
    return LinearRelation(Subspace.span(np.vstack([fs @ a, gt @ b]), 2 * n))


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


def rel_is_selfadjoint(t: LinearRelation) -> bool:
    """t = t*: t is contained in t* (the cached `_boundary_form` defect vanishes) and
    dim t = n = dim t*, so t is a Lagrangian subspace of the doubled space. No adjoint and
    no projector is formed."""
    return t.dim == t.space_dim and t._boundary_form[1] <= SUBSPACE_TOL


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
