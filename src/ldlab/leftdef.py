"""Left-definite spaces and operators for positive semi-bounded Hermitian matrices.

The central object is a SpectralOperator: a Hermitian matrix together with its
eigendecomposition, from which it reads its lower bound k = lambda_min and its
shift gamma < k (0 when k is positive beyond the cutoff below, else k - 1). From it
we build the r-th left-definite space (its inner product <A^{r/2}x, A^{r/2}y>,
`ld_inner`, applied through the eigenbasis with no n x n array), the r-th left-definite
operator, the shifted closed forms, and a verification report for the defining
properties and the spectral-stability statements. `apply_power` and `ld_inner`
take a vector or an n x k block of columns, a vector being a block of one; the
report reads every <x,x>_r and <x,y>_r from `ld_inner`, each sample's pair
(x, y) going through A^{r/2} as one n x 2 block.

`SpectralOperator.from_matrix` decomposes with LAPACK (real symmetric: in
float64). `from_diag` (the diag-growth and Laguerre operators) keeps the exact
decomposition of a diagonal matrix with no LAPACK call. Both models have a
nondecreasing diagonal, which is its own spectrum in the identity basis: nothing
of n x n size is held, and the dense matrix is built, once, when a consumer
first reads `matrix`. Left-definite constructions need k > 0 beyond the cutoff
CLUSTER_RTOL * ||A||_max (`spectral._zero_cutoff`, the one that also sets the
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
    other, when a consumer first reads it.
    """

    dense: HermitianMatrix | None
    decomp: SpectralDecomposition

    def __post_init__(self):
        if self.dense is None and self.decomp.columns is not None:
            raise ValueError("an operator given without its matrix needs the identity eigenbasis")

    @classmethod
    def from_matrix(cls, matrix) -> "SpectralOperator":
        """A Hermitian matrix decomposed by LAPACK (`eigh`)."""
        h = as_hermitian(matrix)
        return cls(h, eigh(h))

    @classmethod
    def from_diag(cls, values) -> "SpectralOperator":
        """diag(values) as its exact decomposition (`diagonal_eigh` of the values), with no
        LAPACK call. Nondecreasing values are their own spectrum in the identity basis: O(n)
        data, the matrix built when first read. Any other values keep their dense matrix."""
        decomp = diagonal_eigh(values)
        dense = None if decomp.columns is None else HermitianMatrix(np.diag(values))
        return cls(dense, decomp)

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
        return HermitianMatrix(np.diag(self.decomp.eigenvalues))

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

    def apply_power(self, r: float, x) -> np.ndarray:
        """A^r x through the eigenbasis without forming the matrix: U (lambda^r * U* x),
        for the identity basis lambda^r * x (`SpectralDecomposition.to_eigenbasis`); x is
        a vector or an n x k block.

        A block goes through column by column: BLAS rounds a product differently at
        different block widths (float64 U at n = 30: one n x 4 product against two n x 2
        ones), and each column must come out bitwise as it would alone."""
        x = np.asarray(x, dtype=complex)
        powers = np.power(self.decomp.eigenvalues, float(r))

        def power_of(v):
            return self.decomp.from_eigenbasis(powers * self.decomp.to_eigenbasis(v))
        return power_of(x) if x.ndim == 1 else np.array([power_of(c) for c in x.T]).T


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
    """The r-th left-definite operator: same matrix action, domain marker D(A^{(r+2)/2})."""

    r: float
    action: HermitianMatrix
    domain_tag: str

    @property
    def spectrum(self) -> np.ndarray:
        return eigh(self.action).eigenvalues


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

    Two vectors give a complex. Blocks of columns give the array G[i, j] = <x_i, y_j>_r,
    each entry `inner` of two columns of A^{r/2} applied to the block by one `apply_power`
    call. y=None stands for y = x, applied once.
    """
    op = space.operator

    def half(v):    # the rows A^{r/2} v_i, each contiguous: a strided vdot rounds differently
        return np.ascontiguousarray(op.apply_power(space.r / 2, _as_block(op, v)).T)
    half_x = half(x)
    half_y = half_x if y is None else half(y)
    gram = np.empty((len(half_x), len(half_y)), dtype=complex)
    for i, a in enumerate(half_x):
        for j, b in enumerate(half_y):
            gram[i, j] = np.vdot(b, a)    # inner(a, b)
    vectors = np.ndim(x) == 1 and (y is None or np.ndim(y) == 1)
    return complex(gram[0, 0]) if vectors else gram


def ld_operator(operator: SpectralOperator, r: float) -> LeftDefiniteOperator:
    """The r-th left-definite operator, on H_r (`ld_space`); at finite dimension the action
    is A itself."""
    return _operator_on(ld_space(operator, r))


def _operator_on(space: LeftDefiniteSpace) -> LeftDefiniteOperator:
    """A_r on the space H_r as given, whose precondition `ld_space` has checked."""
    return LeftDefiniteOperator(space.r, space.operator.matrix, _exponent_tag((space.r + 2) / 2))


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

    def __call__(self, f, g) -> complex:
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        decomp = self.operator.decomp
        lam = decomp.eigenvalues
        cf = decomp.to_eigenbasis(f)
        cg = decomp.to_eigenbasis(g)
        half = np.power(lam - self.gamma, self.r / 2)
        return inner(half * cf, half * cg) + self.gamma * inner(f, g)

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

    Checks, on `sample_count` seeded random pairs (x, y), with <x,x>_r and <x,y>_r from
    `ld_inner` in H_r = `ld_space(operator, r)`: the lower bound
    <x,x>_r >= k^r <x,x>; the duality identity <x,y>_r = <A^r x, y>; that the
    eigenvectors stay orthogonal in H_r with Gram entries lambda_n^r; and that
    the eigenvalue multiplicity lists of A and of the r-th left-definite
    operator coincide. That last flag compares the operator's stored eigenvalues
    with a fresh LAPACK `eigh` of the left-definite action: for `from_diag`
    operators the stored values are exact and the route is independent, so the
    flag can fail; for `from_matrix` operators both sides are `eigh` of the same
    matrix and it cannot. For integer r it also checks the closed form's lower
    bound t_r[f,f] >= (gamma + (k - gamma)^r) <f,f> (gamma the operator's shift)
    and tabulates the gaps t_{r+1}[f,f] - t_r[f,f] on unit vectors
    (`form_ordering`, informational). Both read the suite's one sample stream
    v = (x_0, y_0, x_1, y_1, ...): the lower bound v_0 .. v_{samples-1}, the
    table the next min(samples, 20) vectors, normalized.
    """
    if sample_count < 1:
        raise ValueError(f"the property suite needs at least one sample, got {sample_count}")
    space = ld_space(operator, r)
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
        form = ClosedFormR(int(r), operator.shift, operator)
        next_form = ClosedFormR(int(r) + 1, operator.shift, operator)
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
        gram = ld_inner(space, np.array((x, y)).T)    # the n x 2 block, columns contiguous
        norm_x, norm_y = float(np.linalg.norm(x)), float(np.linalg.norm(y))
        xx, yy = float(np.vdot(x, x).real), float(np.vdot(y, y).real)
        lowers.append((k_r * xx - gram[0, 0].real) / (norm_r * norm_x ** 2))
        dual = abs(gram[0, 1] - inner(operator.apply_power(r, x), y))
        duals.append(dual / (norm_r * max(norm_x, norm_y) ** 2))
        for j, v, vv, norm_v in ((2 * i, x, xx, norm_x), (2 * i + 1, y, yy, norm_y)):
            if not closed or j >= ordered:
                break
            if j < sample_count:
                forms.append((bound * vv - form(v, v).real) / (norm_r * vv))
            else:
                f = v / norm_v
                gaps.append(next_form(f, f).real - form(f, f).real)
    report.add_check("lower-bound(4)", f"r={r:g}, {sample_count} samples", _worst(lowers), tol)
    report.add_check("duality(5)", f"r={r:g}, {sample_count} samples", _worst(duals), tol)

    # eigen-Gram: <phi_n, phi_m>_r = delta_nm * lambda_n^r. A^r (a temporary) and its
    # compression are dropped once read, so neither is alive during the dense eigh below.
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

    # multiplicity stability: A_r on the suite's H_r (`ld_operator`'s construction) acts as
    # A itself, so its eigenvalue list (with multiplicity) must agree exactly
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
