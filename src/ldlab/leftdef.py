"""Left-definite spaces and operators for positive semi-bounded Hermitian matrices.

The central object is a SpectralOperator: a Hermitian matrix together with its
eigendecomposition, from which it reads its lower bound k = lambda_min and its
shift gamma < k (0 when k is positive beyond the cutoff below, else k - 1). From it
we build the r-th left-definite space, the r-th left-definite operator, the shifted
closed forms, and a verification report for the defining properties and the
spectral-stability statements. Every H_r inner product is diagonal in A's
eigenbasis: <x,y>_r = sum_k lambda_k^r c_{x,k} conj(c_{y,k}) with c = U* x, so
`ld_inner` takes each block into the eigenbasis by one U* product and sums there,
with no U round trip and no n x n array, multiplying by lambda^{r/2}
(`SpectralOperator._power`, kept on the operator once per exponent).
`apply_power` and `ld_inner` take a vector or an n x k block of columns, a vector
being a block of one. A block is one product, whose columns agree with the vector
calls to rounding (within gamma_n = n eps / (1 - n eps) of the product of the
norms), not bit for bit. The report takes each sample's pair (x, y) into the
eigenbasis once, as one n x 2 block, and reads everything else from those
coefficients: <x,x>_r and <x,y>_r from `ld_inner`, A^r x = U (lambda^r c_x), and
both closed forms.

`SpectralOperator.from_matrix` decomposes with `spectral.eigh`, which caches the
decomposition on the matrix (real symmetric: in float64). `from_diag` (the
diag-growth and Laguerre operators) keeps the exact decomposition of a diagonal
matrix with no LAPACK call. Both models have a nondecreasing diagonal, which is its
own spectrum in the identity basis: nothing of n x n size is held, and the dense
matrix is built, once, when a consumer first reads `matrix`. The left-definite
operator A_r is A itself and holds the SpectralOperator, so its spectrum is `eigh` of
the given matrix or, for `from_diag`, the stored diagonal; no left-definite
construction reads `matrix`. Left-definite constructions need k > 0 beyond the
cutoff CLUSTER_RTOL * ||A||_max (`spectral._zero_cutoff`, the one that also sets the
shift, the gap that splits eigh's and `multiplicity_list`'s clusters, and
`mat_power`'s positivity), so every left-definite construction runs at gamma = 0.
The operator keeps its decomposition and nothing else: the weights of the Hilbert
scale are `hscale`'s, computed there on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .report import Report, Table, _worst
from .spectral import (
    CLUSTER_RTOL,
    DimensionMismatchError,
    HermitianMatrix,
    SpectralDecomposition,
    _Owned,
    _check_residual,
    _clusters,
    _zero_cutoff,
    as_hermitian,
    diagonal_eigh,
    eigh,
    inner,
)

PROPERTY_TOL = 1e-9


class ShiftError(ValueError):
    """Raised when an operator is not positive (or a shift is not below its bound)."""


@dataclass(frozen=True)
class SpectralOperator:
    """Hermitian matrix + spectral data, with lower bound k and shift gamma < k read off it.

    `dense` is the matrix as given, or None when `decomp` has the identity basis,
    so that the matrix is diag(eigenvalues) (`from_diag`). Such an operator holds
    O(n) data; `matrix` builds its dense HermitianMatrix, validated like any
    other, when a consumer first reads it. A given matrix must be diagonalized by
    the given decomposition (`_check_residual`), unless that is the one `eigh`
    cached on it (`from_matrix`), which has passed the check already.
    """

    dense: HermitianMatrix | None
    decomp: SpectralDecomposition

    def __post_init__(self):
        if self.dense is None:
            if self.decomp.columns is not None:
                raise ValueError("an operator given without its matrix needs the identity "
                                 "eigenbasis")
        elif self.dense.dim != self.dim:
            raise DimensionMismatchError(f"matrix dimension {self.dense.dim} differs from the "
                                         f"decomposition's {self.dim}")
        elif vars(self.dense).get("_eigh") is not self.decomp:
            _check_residual(self.dense, self.decomp)

    @classmethod
    def from_matrix(cls, matrix) -> "SpectralOperator":
        """A Hermitian matrix decomposed by LAPACK (`eigh`)."""
        h = as_hermitian(matrix)
        return cls(h, eigh(h))

    @classmethod
    def from_diag(cls, values) -> "SpectralOperator":
        """diag(values) for nondecreasing values, its own spectrum in the identity basis
        (`diagonal_eigh`), with no LAPACK call: O(n) data, the matrix built when first read.
        Unsorted values raise SpectrumError; `from_matrix(np.diag(values))` takes them."""
        return cls(None, diagonal_eigh(values))

    @property
    def lower_bound(self) -> float:
        """k = lambda_min."""
        return float(self.decomp.eigenvalues[0])

    @property
    def shift(self) -> float:
        """gamma < k: 0 when k is positive beyond `_zero_cutoff`, else k - 1."""
        k = self.lower_bound
        return 0.0 if k > _zero_cutoff(self.norm_max) else k - 1.0

    @cached_property
    def matrix(self) -> HermitianMatrix:
        """The dense matrix; for the identity basis diag(lambda), built once."""
        if self.dense is not None:
            return self.dense
        return HermitianMatrix(_Owned(np.diag(self.decomp.eigenvalues)))

    @property
    def norm_max(self) -> float:
        """max|entries| of the matrix, known without building it: the dense matrix's own, else
        (the identity basis) the larger magnitude at the two ends of its sorted diagonal."""
        if self.dense is not None:
            return self.dense.norm_max
        lam = self.decomp.eigenvalues
        return max(abs(float(lam[0])), abs(float(lam[-1])))

    @property
    def dim(self) -> int:
        return self.decomp.eigenvalues.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.decomp.eigenvalues

    def require_positive(self):
        """Raise ShiftError unless k > `_zero_cutoff`, the shift's cutoff."""
        cutoff = _zero_cutoff(self.norm_max)
        if not self.lower_bound > cutoff:
            raise ShiftError(
                f"operator lower bound k = {self.lower_bound} is not positive (cutoff "
                f"{cutoff:.3e} = {CLUSTER_RTOL:.0e} * ||A||_max): apply a shift first "
                "(left-definite constructions need k > 0)"
            )

    @cached_property
    def _powers(self) -> dict:
        """lambda^r for each exponent r that `_power` has been given."""
        return {}

    def _power(self, r: float) -> np.ndarray:
        """lambda^r, computed once per exponent and kept in `_powers`."""
        r = float(r)
        powers = self._powers.get(r)
        if powers is None:
            powers = self._powers[r] = np.power(self.decomp.eigenvalues, r)
        return powers

    def apply_power(self, r: float, x) -> np.ndarray:
        """A^r x through the eigenbasis without forming the matrix: U (lambda^r * U* x),
        for the identity basis lambda^r * x (`SpectralDecomposition.to_eigenbasis`); x is
        a vector or an n x k block, which is one product. lambda^r is `_power(r)`."""
        x = np.asarray(x, dtype=complex)
        powers = self._power(r)
        if x.ndim == 2:
            powers = powers[:, None]
        return self.decomp.from_eigenbasis(powers * self.decomp.to_eigenbasis(x))


def _as_block(operator: SpectralOperator, x) -> np.ndarray:
    """x as an n x k block of complex columns; a vector is a block of one."""
    c = np.asarray(x, dtype=complex)
    block = c[:, None] if c.ndim == 1 else c
    if block.ndim != 2 or block.shape[0] != operator.dim:
        raise DimensionMismatchError(
            f"coefficient array has shape {c.shape}, operator dimension is {operator.dim}"
        )
    return block


@dataclass(frozen=True)
class LeftDefiniteSpace:
    """The r-th left-definite space: inner product <x,y>_r = <A^{r/2}x, A^{r/2}y>."""

    r: float
    operator: SpectralOperator


@dataclass(frozen=True)
class LeftDefiniteOperator:
    """The r-th left-definite operator: A itself (`operator`) on H_r, domain marker
    D(A^{(r+2)/2})."""

    r: float
    operator: SpectralOperator
    domain_tag: str

    @property
    def spectrum(self) -> np.ndarray:
        """A's eigenvalues: `eigh` of the matrix the operator was given (cached on it), else
        (`from_diag`) the stored decomposition's, with no matrix built."""
        op = self.operator
        return (op.decomp if op.dense is None else eigh(op.dense)).eigenvalues


def _exponent_tag(exponent: float) -> str:
    frac = Fraction(exponent).limit_denominator(64)
    if abs(float(frac) - exponent) > 1e-12:
        return f"D(A^{exponent:g})"
    if frac.denominator == 1:
        return f"D(A^{frac.numerator})"
    return f"D(A^{{{frac.numerator}/{frac.denominator}}})"


def ld_space(operator: SpectralOperator, r: float) -> LeftDefiniteSpace:
    """H_r, given by its inner product (`ld_inner`). Its precondition is that of every
    left-definite construction: k > 0 (`require_positive`) and r > 0. Builds nothing of
    n x n size."""
    operator.require_positive()
    if not r > 0:
        raise ValueError(f"left-definite index must be positive, got {r}")
    return LeftDefiniteSpace(float(r), operator)


def ld_inner(space: LeftDefiniteSpace, x, y=None):
    """<x,y>_r = <A^{r/2}x, A^{r/2}y>, equal to <A^r x, y> for matrices.

    Two vectors give a complex. Blocks of columns give the array G[i, j] = <x_i, y_j>_r.
    The sum is taken in the eigenbasis: each block is taken there by one U* product,
    times lambda^{r/2} (`SpectralOperator._power`, no product), then one sum of
    products, sum_k lambda_k^r c_{x,k} conj(c_{y,k}). y=None stands for y = x, taken
    once. For the identity basis the block is its own coefficients and no product is made.
    """
    op = space.operator
    half = op._power(space.r / 2)[:, None]
    half_x = half * op.decomp.to_eigenbasis(_as_block(op, x))
    half_y = half_x if y is None else half * op.decomp.to_eigenbasis(_as_block(op, y))
    # einsum, not a complex @: the first zgemm call raises the peak resident memory
    gram = np.einsum("ki,kj->ij", half_x, half_y.conj())
    vectors = np.ndim(x) == 1 and (y is None or np.ndim(y) == 1)
    return complex(gram[0, 0]) if vectors else gram


def ld_operator(operator: SpectralOperator, r: float) -> LeftDefiniteOperator:
    """The r-th left-definite operator, on H_r (`ld_space`): A itself, so nothing of n x n size
    is built for it."""
    return _operator_on(ld_space(operator, r))


def _operator_on(space: LeftDefiniteSpace) -> LeftDefiniteOperator:
    """A_r on the space H_r as given, whose precondition `ld_space` has checked."""
    return LeftDefiniteOperator(space.r, space.operator, _exponent_tag((space.r + 2) / 2))


@dataclass(frozen=True)
class ClosedFormR:
    """Shifted closed form t_r[f,g] = <(A-gamma)^{r/2}f, (A-gamma)^{r/2}g> + gamma<f,g>.

    r is a positive integer; the form is semi-bounded with lower bound
    gamma + (k - gamma)^r.
    """

    r: int
    gamma: float
    operator: SpectralOperator

    def __post_init__(self):
        if not (isinstance(self.r, int) or float(self.r).is_integer()) or self.r < 1:
            raise ValueError(f"closed-form index must be a positive integer, got {self.r}")
        if not self.gamma < self.operator.lower_bound:
            raise ShiftError(f"shift {self.gamma} must lie strictly below the lower bound "
                             f"{self.operator.lower_bound}")
        object.__setattr__(self, "r", int(self.r))

    @cached_property
    def _half(self) -> np.ndarray:
        """(lambda - gamma)^{r/2}, computed once per form."""
        return np.power(self.operator.decomp.eigenvalues - self.gamma, self.r / 2)

    def __call__(self, f, g=None) -> complex:
        """t_r[f, g]; g=None stands for g = f, taken into the eigenbasis once."""
        decomp = self.operator.decomp
        half = self._half
        f = np.asarray(f, dtype=complex)
        g = f if g is None else np.asarray(g, dtype=complex)
        hf = half * decomp.to_eigenbasis(f)
        hg = hf if g is f else half * decomp.to_eigenbasis(g)
        return inner(hf, hg) + self.gamma * inner(f, g)

    def lower_bound(self) -> float:
        return self.gamma + (self.operator.lower_bound - self.gamma) ** self.r


def multiplicity_list(eigenvalues) -> list:
    """(value, multiplicity) of each cluster of the sorted eigenvalues, value the cluster's
    first. The clusters are `eigh`'s (`_clusters`): runs whose consecutive gaps are at
    most _zero_cutoff(max(|lambda_0|, |lambda_-1|))."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    cutoff = _zero_cutoff(max(abs(lam[0]), abs(lam[-1])))
    return [(float(lam[start]), stop - start) for start, stop in _clusters(lam, cutoff)]


def verify_ld_properties(
    operator: SpectralOperator, r: float, sample_count: int, seed: int, *,
    tol: float = PROPERTY_TOL,
) -> Report:
    """Residual report for the left-definite property suite, each residual against `tol`.

    Checks, on `sample_count` seeded random pairs (x, y) in H_r = `ld_space(operator, r)`:
    the lower bound <x,x>_r >= k^r <x,x>; the duality identity <x,y>_r = <A^r x, y>;
    that the eigenvectors stay orthogonal in H_r with Gram entries lambda_n^r; and that
    the eigenvalue multiplicity lists of A and of the r-th left-definite operator
    coincide. Each pair is taken into the eigenbasis once, as one n x 2 block of
    coefficients c = U* [x, y]; <x,x>_r and <x,y>_r are `ld_inner` of c in H_r of
    diag(lambda), the operator A is in its eigenbasis, built once (U* is an isometry onto
    it), and the duality's other side is A^r x = U (lambda^r c_x), one U product. That
    operator takes each power of lambda once (`SpectralOperator._power`). The multiplicity
    flag compares the operator's stored eigenvalues with `LeftDefiniteOperator.spectrum`:
    `eigh` of the matrix the operator was given (cached on it), so it FAILs only when the
    stored decomposition is not the one `eigh` finds. For a `from_matrix` operator they are one
    decomposition, and for `from_diag` the spectrum is the stored diagonal itself: on
    neither is the flag an independent route, and on `from_diag` it restates the
    construction. For integer r it also checks the closed form's lower bound
    t_r[f,f] >= (gamma + (k - gamma)^r) <f,f> (gamma the operator's shift) and
    tabulates the gaps t_{r+1}[f,f] - t_r[f,f] on unit vectors (`form_ordering`,
    informational), both forms evaluated on the same coefficients with no product.
    Both read the suite's one sample stream v = (x_0, y_0, x_1, y_1, ...): the lower
    bound v_0 .. v_{samples-1}, the table the next min(samples, 20) vectors, normalized.
    """
    if sample_count < 1:
        raise ValueError(f"the property suite needs at least one sample, got {sample_count}")
    space = ld_space(operator, r)
    diag = SpectralOperator.from_diag(operator.eigenvalues)
    eigen = LeftDefiniteSpace(space.r, diag)
    rng = np.random.default_rng(seed)
    n = operator.dim
    try:
        norm_r = operator.norm_max ** r
    except OverflowError:
        raise ValueError(f"||A||_max^r overflows a float for r={r:g}, "
                         f"||A||_max={operator.norm_max:g}: choose a smaller r") from None
    k_r = operator.lower_bound ** r
    closed = float(r).is_integer()
    if closed:
        form = ClosedFormR(int(r), operator.shift, diag)
        next_form = ClosedFormR(int(r) + 1, operator.shift, diag)
        bound = form.lower_bound()
    ordered = sample_count + min(sample_count, 20)   # stream positions the closed forms read

    report = Report(
        "left-definite property suite",
        meta={"r": float(r), "dim": n, "samples": sample_count, "seed": seed},
    )

    lowers, duals, forms, gaps = [], [], [], []
    for i in range(sample_count):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        # one n x 2 block per sample, one U* product: one block of all samples grows peak
        # memory with their count
        coeffs = operator.decomp.to_eigenbasis(np.column_stack((x, y)))
        gram = ld_inner(eigen, coeffs)
        norm_x, norm_y = float(np.linalg.norm(x)), float(np.linalg.norm(y))
        xx, yy = float(np.vdot(x, x).real), float(np.vdot(y, y).real)
        lowers.append((k_r * xx - gram[0, 0].real) / (norm_r * norm_x ** 2))
        power_x = operator.decomp.from_eigenbasis(diag.apply_power(r, coeffs[:, 0]))
        duals.append(abs(gram[0, 1] - inner(power_x, y)) / (norm_r * max(norm_x, norm_y) ** 2))
        for j, c, vv, norm_v in ((2 * i, coeffs[:, 0], xx, norm_x),
                                 (2 * i + 1, coeffs[:, 1], yy, norm_y)):
            if not closed or j >= ordered:
                break
            if j < sample_count:
                forms.append((bound * vv - form(c).real) / (norm_r * vv))
            else:
                f = c / norm_v
                gaps.append(next_form(f).real - form(f).real)
    report.add_check("lower-bound(4)", f"r={r:g}, {sample_count} samples", _worst(lowers), tol)
    report.add_check("duality(5)", f"r={r:g}, {sample_count} samples", _worst(duals), tol)

    # eigen-Gram: <phi_n, phi_m>_r = delta_nm * lambda_n^r. A^r (a temporary) and its
    # compression are dropped once read.
    lam = operator.eigenvalues
    gram = operator.decomp.compress(operator.decomp.power(r).entries)
    gram_diag = np.diagonal(gram).real.copy()
    np.fill_diagonal(gram, 0)
    lam_max_r = float(np.max(lam)) ** r
    report.add_check(
        "eigen-gram-offdiag", f"r={r:g}", float(np.max(np.abs(gram))) / lam_max_r, tol
    )
    del gram
    diag_dev = float(np.max(np.abs(gram_diag - lam ** r) / lam ** r))
    report.add_check("eigen-gram-diag", f"r={r:g}", diag_dev, tol)

    # multiplicity stability: A_r on the suite's H_r (`ld_operator`'s construction) is A
    # itself, so its eigenvalue list (with multiplicity) must agree exactly with the stored
    # one (`eigh`, cached on the given matrix: no second eigensolve, and no matrix built)
    a_r = _operator_on(space)
    report.add_flag("multiplicity-invariance", f"r={r:g}, tag={a_r.domain_tag}",
                    np.array_equal(lam, a_r.spectrum))

    report.add_table(
        Table.build(
            "eigen_gram_diag",
            ("n", "lambda_n", "gram_nn", "lambda_n^r"),
            [(i, float(lam[i]), float(gram_diag[i]), float(lam[i] ** r)) for i in range(n)],
        )
    )
    if closed:
        report.add_check("closed-form-lower-bound", f"r={int(r)}, gamma={operator.shift:g}",
                         _worst(forms), tol)
        # informational only: whether the shifted forms stay ordered between
        # consecutive integer indices on unit samples (open question; no assertion)
        report.add_table(Table.build("form_ordering", ("r", "r_next", "min_gap", "max_gap"),
                                     [(int(r), int(r) + 1, min(gaps), max(gaps))]))
    return report
