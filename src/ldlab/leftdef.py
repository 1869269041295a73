"""Left-definite spaces and operators for positive semi-bounded Hermitian matrices.

The central object is a SpectralOperator: a Hermitian matrix together with its
eigendecomposition, its lower bound k, and a shift gamma < k. From it we build
the r-th left-definite space (Gram matrix A^r), the r-th left-definite
operator, the shifted closed forms, and a verification report for the
defining properties and the spectral-stability statements.

`SpectralOperator.from_matrix` decomposes with LAPACK (real symmetric: in
float64). `from_diag` (the diag-growth and Laguerre operators) keeps the exact
decomposition of a diagonal matrix, its sorted values and their permutation,
with no LAPACK call and nothing of n x n size; the dense matrix is built, once,
when a consumer first reads `matrix`. Left-definite constructions need k > 0
beyond the cutoff CLUSTER_RTOL * ||A||_max, the same one that sets the default shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .report import Report, Table
from .spectral import (
    CLUSTER_RTOL,
    DimensionMismatchError,
    HermitianMatrix,
    SpectralDecomposition,
    as_hermitian,
    diagonal_eigh,
    eigh,
    inner,
)

PROPERTY_TOL = 1e-9
MULTIPLICITY_RTOL = 1e-8   # sorted eigenvalues this close (relative) count as one


class ShiftError(ValueError):
    """Raised when an operator is not positive (or a shift is not below its bound)."""


def _require_below(shift: float, bound: float):
    """Raise ShiftError unless the shift lies strictly below the lower bound."""
    if not shift < bound:
        raise ShiftError(f"shift {shift} must lie strictly below the lower bound {bound}")


def _norm_max(dense: HermitianMatrix | None, decomp: SpectralDecomposition) -> float:
    """max|entries| of an operator: the dense matrix's own, else (a diagonal operator) the
    larger magnitude at the two ends of its sorted diagonal."""
    if dense is not None:
        return dense.norm_max
    lam = decomp.eigenvalues
    return max(abs(float(lam[0])), abs(float(lam[-1])))


def _zero_cutoff(norm_max: float) -> float:
    """Lower bounds at or below CLUSTER_RTOL * ||A||_max, eigh's cluster cutoff, count as zero."""
    return CLUSTER_RTOL * max(norm_max, 1e-300)


@dataclass(frozen=True)
class SpectralOperator:
    """Hermitian matrix + spectral data + lower bound k + shift gamma < k.

    `dense` is the matrix as given, or None for an operator diagonal in the
    permutation eigenbasis of `decomp` (`from_diag`). Such an operator holds
    O(n) data; `matrix` builds its dense HermitianMatrix, validated like any
    other, when a consumer first reads it.
    """

    dense: HermitianMatrix | None
    decomp: SpectralDecomposition
    lower_bound: float
    shift: float

    def __post_init__(self):
        if self.dense is None and self.decomp.unit_rows is None:
            raise ValueError("an operator given without its matrix needs a permutation eigenbasis")
        _require_below(self.shift, self.lower_bound)

    @classmethod
    def _with_default_shift(cls, dense: HermitianMatrix | None, decomp: SpectralDecomposition,
                            shift: float | None) -> "SpectralOperator":
        """Default shift: 0 when k is positive beyond `_zero_cutoff`, else k - 1."""
        k = float(decomp.eigenvalues[0])
        if shift is None:
            shift = 0.0 if k > _zero_cutoff(_norm_max(dense, decomp)) else k - 1.0
        return cls(dense, decomp, k, float(shift))

    @classmethod
    def from_matrix(cls, matrix, shift: float | None = None) -> "SpectralOperator":
        """A Hermitian matrix decomposed by LAPACK (`eigh`)."""
        h = as_hermitian(matrix)
        return cls._with_default_shift(h, eigh(h), shift)

    @classmethod
    def from_diag(cls, values, shift: float | None = None) -> "SpectralOperator":
        """diag(values) as its exact decomposition (`diagonal_eigh` of the values): sorted
        values and their permutation, O(n) data and checks, no LAPACK call."""
        return cls._with_default_shift(None, diagonal_eigh(values), shift)

    @cached_property
    def matrix(self) -> HermitianMatrix:
        """The dense matrix; for a diagonal operator the scatter U diag(lambda) U*, built once."""
        if self.dense is not None:
            return self.dense
        return HermitianMatrix(self.decomp.apply_function(lambda lam: lam))

    @property
    def norm_max(self) -> float:
        """max|entries| of the matrix, known without building it."""
        return _norm_max(self.dense, self.decomp)

    @property
    def dim(self) -> int:
        return self.decomp.eigenvalues.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.decomp.eigenvalues

    def scale_weights(self, exponent: float) -> np.ndarray:
        """(|lambda_n| + 1)^exponent, the diagonal of (|A| + I)^exponent in the eigenbasis that
        sets the norms of the Hilbert scale (`hscale`); computed once per exponent and kept,
        read-only, on the operator."""
        weights = self._scale_weights.get(exponent)
        if weights is None:
            weights = np.power(np.abs(self.eigenvalues) + 1.0, exponent)
            weights.setflags(write=False)
            self._scale_weights[exponent] = weights
        return weights

    @cached_property
    def _scale_weights(self) -> dict:
        return {}

    def require_positive(self):
        """Raise ShiftError unless k > CLUSTER_RTOL * ||A||_max, the default shift's cutoff."""
        cutoff = _zero_cutoff(self.norm_max)
        if not self.lower_bound > cutoff:
            raise ShiftError(
                f"operator lower bound k = {self.lower_bound} is not positive (cutoff "
                f"{cutoff:.3e} = {CLUSTER_RTOL:.0e} * ||A||_max): apply a shift first "
                "(left-definite constructions need k > 0)"
            )

    def power(self, r: float) -> HermitianMatrix:
        """A^r through the stored decomposition (positive spectrum assumed for fractional r)."""
        return self.decomp.power(r)

    def apply_power(self, r: float, x) -> np.ndarray:
        """A^r x through the eigenbasis without forming the matrix: U (lambda^r * U* x),
        gathers for a permutation basis (`SpectralDecomposition.to_eigenbasis`)."""
        x = np.asarray(x, dtype=complex)
        powers = np.power(self.decomp.eigenvalues, float(r))
        return self.decomp.from_eigenbasis(powers * self.decomp.to_eigenbasis(x))


@dataclass(frozen=True)
class LeftDefiniteSpace:
    """The r-th left-definite space: inner product <x,y>_r = <A^{r/2}x, A^{r/2}y>."""

    r: float
    gram: HermitianMatrix
    operator: SpectralOperator


@dataclass(frozen=True)
class LeftDefiniteOperator:
    """The r-th left-definite operator: same matrix action, domain marker D(A^{(r+2)/2})."""

    r: float
    action: HermitianMatrix
    domain_exponent: float
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


def _require_ld(operator: SpectralOperator, r: float):
    """The precondition of every left-definite construction: k > 0 (`require_positive`), r > 0."""
    operator.require_positive()
    if not r > 0:
        raise ValueError(f"left-definite index must be positive, got {r}")


def ld_space(operator: SpectralOperator, r: float) -> LeftDefiniteSpace:
    """Build H_r with Gram matrix A^r; requires k > 0 and r > 0."""
    _require_ld(operator, r)
    return LeftDefiniteSpace(float(r), operator.power(r), operator)


def ld_inner(space: LeftDefiniteSpace, x, y) -> complex:
    """<x,y>_r = <A^{r/2}x, A^{r/2}y>, equal to <A^r x, y> for matrices."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (space.operator.dim,) or y.shape != (space.operator.dim,):
        raise DimensionMismatchError(
            f"vectors must have shape ({space.operator.dim},), got {x.shape} and {y.shape}"
        )
    half_x = space.operator.apply_power(space.r / 2, x)
    half_y = space.operator.apply_power(space.r / 2, y)
    return inner(half_x, half_y)


def ld_operator(operator: SpectralOperator, r: float) -> LeftDefiniteOperator:
    """The r-th left-definite operator; at finite dimension the action is A itself."""
    _require_ld(operator, r)
    exponent = (r + 2) / 2
    return LeftDefiniteOperator(float(r), operator.matrix, exponent, _exponent_tag(exponent))


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
        _require_below(self.gamma, self.operator.lower_bound)
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
    """Cluster sorted eigenvalues into (value, multiplicity) pairs."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    scale = max(abs(lam[0]), abs(lam[-1]), 1e-300)
    out = []
    for v in lam:
        if out and abs(v - out[-1][0]) <= MULTIPLICITY_RTOL * scale:
            out[-1][1] += 1
        else:
            out.append([float(v), 1])
    return [(v, m) for v, m in out]


def verify_ld_properties(
    operator: SpectralOperator, r: float, sample_count: int, seed: int, *,
    tol: float = PROPERTY_TOL,
) -> Report:
    """Residual report for the left-definite property suite, each residual against `tol`.

    Checks, on `sample_count` seeded random pairs (x, y): the lower bound
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
    _require_ld(operator, r)
    rng = np.random.default_rng(seed)
    n = operator.dim
    k_r, norm_r = operator.lower_bound ** r, operator.norm_max ** r
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

    worst_lower = worst_dual = worst_form = 0.0
    gaps = []
    for i in range(sample_count):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        half_x, half_y = operator.apply_power(r / 2, x), operator.apply_power(r / 2, y)
        norm_x, norm_y = float(np.linalg.norm(x)), float(np.linalg.norm(y))
        xx, yy = float(np.vdot(x, x).real), float(np.vdot(y, y).real)
        lower = (k_r * xx - inner(half_x, half_x).real) / (norm_r * norm_x ** 2)
        worst_lower = max(worst_lower, lower)
        dual = abs(inner(half_x, half_y) - inner(operator.apply_power(r, x), y))
        worst_dual = max(worst_dual, dual / (norm_r * max(norm_x, norm_y) ** 2))
        for j, v, vv, norm_v in ((2 * i, x, xx, norm_x), (2 * i + 1, y, yy, norm_y)):
            if not closed or j >= ordered:
                break
            if j < sample_count:
                worst_form = max(worst_form, (bound * vv - form(v, v).real) / (norm_r * vv))
            else:
                f = v / norm_v
                gaps.append(next_form(f, f).real - form(f, f).real)
    report.add_check("lower-bound(4)", f"r={r:g}, {sample_count} samples", worst_lower, tol)
    report.add_check("duality(5)", f"r={r:g}, {sample_count} samples", worst_dual, tol)

    # eigen-Gram: <phi_n, phi_m>_r = delta_nm * lambda_n^r. A^r (a temporary) and its
    # compression are dropped once read, so neither is alive during the dense eigh below.
    lam = operator.eigenvalues
    gram = operator.decomp.compress(operator.power(r).entries)
    gram_diag = np.diagonal(gram).real.copy()
    np.fill_diagonal(gram, 0)
    lam_max_r = float(np.max(lam)) ** r
    report.add_check(
        "eigen-gram-offdiag", f"r={r:g}", float(np.max(np.abs(gram))) / lam_max_r, tol
    )
    del gram
    diag_dev = float(np.max(np.abs(gram_diag - lam ** r) / lam ** r))
    report.add_check("eigen-gram-diag", f"r={r:g}", diag_dev, tol)

    # multiplicity stability: the r-th left-definite operator acts as A itself
    # (`ld_operator`), so its eigenvalue list (with multiplicity) must agree exactly
    same = np.array_equal(lam, eigh(operator.matrix).eigenvalues)
    report.add_flag("multiplicity-invariance", f"r={r:g}, tag={_exponent_tag((r + 2) / 2)}", same)

    report.add_table(
        Table.build(
            "eigen_gram_diag",
            ("n", "lambda_n", "gram_nn", "lambda_n^r"),
            [(i, float(lam[i]), float(gram_diag[i]), float(lam[i] ** r)) for i in range(n)],
        )
    )
    if closed:
        report.add_check("closed-form-lower-bound", f"r={int(r)}, gamma={operator.shift:g}",
                         worst_form, tol)
        # informational only: whether the shifted forms stay ordered between
        # consecutive integer indices on unit samples (open question; no assertion)
        report.add_table(Table.build("form_ordering", ("r", "r_next", "min_gap", "max_gap"),
                                     [(int(r), int(r) + 1, min(gaps), max(gaps))]))
    return report
