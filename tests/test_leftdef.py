import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from ldlab import leftdef, scenarios
from ldlab.config import parse_config
from ldlab.leftdef import (
    ClosedFormR,
    ShiftError,
    SpectralOperator,
    ld_inner,
    ld_operator,
    ld_space,
    multiplicity_list,
    verify_ld_properties,
)
from ldlab.report import Report
from ldlab.scenarios import build_operator, run_scenario
from ldlab.sldiscrete import SLCoefficients, discretize
from ldlab.spectral import (
    DimensionMismatchError,
    HermitianMatrix,
    SpectralDecomposition,
    SpectrumError,
    _check_residual,
    inner,
    mat_power,
)


def seeded_positive_operator(seed, n=20):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return SpectralOperator.from_matrix(m @ m.conj().T + 0.5 * np.eye(n))


class TestSpectralOperator:
    def test_lower_bound_is_min_eigenvalue(self):
        op = SpectralOperator.from_diag([2.0, 3.0, 7.0])
        assert op.lower_bound == 2.0
        assert op.shift == 0.0

    def test_default_shift_below_nonpositive_bound(self):
        op = SpectralOperator.from_diag([-1.0, 4.0])
        assert op.shift < op.lower_bound == -1.0

    def test_rejects_shift_at_or_above_bound(self):
        # an operator's shift is read off its spectrum, so it is below k on any spectrum
        for values in ([1.0, 2.0], [1e-13, 1.0], [0.0, 2.0], [-3.0, 2.0]):
            op = SpectralOperator.from_diag(values)
            assert op.shift < op.lower_bound == values[0]

    def test_one_shift_rule_and_message(self):
        # the closed form takes its gamma as given and holds it below k; the scale's
        # equivalence check reads the operator's shift, below k by construction
        op = SpectralOperator.from_diag([1.0, 2.0])
        message = "shift 1.0 must lie strictly below the lower bound 1.0"
        with pytest.raises(ShiftError, match=message):
            ClosedFormR(1, 1.0, op)

    def test_semibounded_on_eigenbasis(self):
        op = seeded_positive_operator(0, n=8)
        lam = op.eigenvalues
        assert np.all(lam >= op.lower_bound - 1e-12 * np.max(np.abs(lam)))

    def test_rejects_matrix_and_decomposition_of_different_sizes(self):
        # a 3 x 3 matrix with a 4-value decomposition was built with dim 4, and the suite
        # passed every row but multiplicity-invariance on it
        with pytest.raises(DimensionMismatchError, match="matrix dimension 3 differs"):
            SpectralOperator(HermitianMatrix(2 * np.eye(3)), SpectralDecomposition(np.arange(1.0, 5.0)))
        op = SpectralOperator(HermitianMatrix(2 * np.eye(3)), SpectralDecomposition(np.full(3, 2.0)))
        assert op.dim == op.matrix.dim == 3

    def test_rejects_a_decomposition_that_does_not_diagonalize_the_matrix(self):
        # it was accepted: apply_power(1, e1) read [1, 0] where A e1 = [2, 1], and the suite
        # passed every row on it
        h = HermitianMatrix([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(SpectrumError, match="residual too large"):
            SpectralOperator(h, SpectralDecomposition([1.0, 3.0]))
        u = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        op = SpectralOperator(h, SpectralDecomposition([1.0, 3.0], u))
        np.testing.assert_allclose(op.apply_power(1, [1.0, 0.0]), [2.0, 1.0], atol=1e-15)

    def test_from_matrix_checks_its_residual_once(self, monkeypatch):
        # the decomposition `eigh` cached on the matrix has passed the check already
        import ldlab.spectral as spectral
        calls, real = [], spectral._check_residual

        def counting(h, decomp):
            calls.append(decomp)
            real(h, decomp)
        monkeypatch.setattr(spectral, "_check_residual", counting)
        monkeypatch.setattr(leftdef, "_check_residual", counting)
        op = seeded_positive_operator(4, n=6)
        assert calls == [op.decomp]
        SpectralOperator(op.matrix, op.decomp)
        assert calls == [op.decomp]
        SpectralOperator(op.matrix, SpectralDecomposition(op.eigenvalues, op.decomp.columns))
        assert len(calls) == 2


class TestFromDiag:
    """from_diag builds the exact decomposition; from_matrix is the LAPACK route."""

    @pytest.mark.parametrize("n", [10, 401, 1000])
    def test_bitwise_equal_to_lapack_route(self, n):
        for values in (np.arange(n, dtype=float) + 1.0, np.arange(1, n + 1, dtype=float) ** 2):
            exact = SpectralOperator.from_diag(values)
            dense = SpectralOperator.from_matrix(HermitianMatrix(np.diag(values)))
            np.testing.assert_array_equal(exact.eigenvalues, dense.eigenvalues)
            np.testing.assert_array_equal(exact.decomp.eigenvectors, dense.decomp.eigenvectors)
            assert (exact.lower_bound, exact.shift) == (dense.lower_bound, dense.shift)

    @pytest.mark.parametrize("values", [[3.0, 1.0, 2.0, 2.0, 5.0], [2.0, 2.0, 5.0]])
    def test_unsorted_or_degenerate_values(self, values):
        # from_diag takes nondecreasing values only; an unsorted diagonal goes through LAPACK
        if np.any(np.diff(values) < 0):
            with pytest.raises(SpectrumError, match="nondecreasing"):
                SpectralOperator.from_diag(values)
            op = SpectralOperator.from_matrix(np.diag(values))
        else:
            op = SpectralOperator.from_diag(values)
        np.testing.assert_array_equal(op.eigenvalues, np.sort(values))
        assert op.lower_bound == min(values)
        np.testing.assert_array_equal(op.decomp.apply_function(lambda x: x), op.matrix.entries)

    def test_calls_no_lapack(self, monkeypatch):
        calls = []

        def wrap(name):
            real = getattr(np.linalg, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counting

        monkeypatch.setattr(np.linalg, "eigh", wrap("eigh"))
        monkeypatch.setattr(np.linalg, "qr", wrap("qr"))
        SpectralOperator.from_diag([1.0, 2.0, 2.0, 3.0, 5.0])
        SpectralOperator.from_diag(np.arange(401, dtype=float) + 1.0)
        with pytest.raises(SpectrumError, match="nondecreasing"):
            SpectralOperator.from_diag([3.0, 1.0, 2.0, 2.0, 5.0])
        assert calls == []
        SpectralOperator.from_matrix(np.diag([5.0, 2.0, 2.0]))   # the wrappers are in place
        assert calls == ["eigh", "qr"]


class TestLazyDenseMatrix:
    """A from_diag operator (nondecreasing values) holds O(n) data, in the identity basis,
    until a consumer reads its dense matrix."""

    VALUES = [0.5, 1.0, 2.0, 2.0, 3.0, 6.0]

    def test_holds_no_dense_array(self):
        op = SpectralOperator.from_diag(self.VALUES)
        assert op.dense is None and op.dim == len(self.VALUES)
        assert op.norm_max == 6.0 == HermitianMatrix(np.diag(self.VALUES)).norm_max
        rng = np.random.default_rng(3)
        x = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        op.apply_power(2.0, x)
        ClosedFormR(1, op.shift, op)(x, x)
        assert "matrix" not in vars(op) and "eigenvectors" not in vars(op.decomp)
        assert op.decomp.columns is None

    @pytest.mark.parametrize("spec", [{"kind": "diag-growth", "p": 0.5, "q": -1.0, "N": 50},
                                      {"kind": "laguerre", "alpha": 1.0, "k": 0.5, "N": 50}])
    def test_scenario_operators_hold_no_dense_array(self, spec):
        op = parsed_operator(spec)
        assert op.dense is None and op.decomp.columns is None and "matrix" not in vars(op)

    def test_built_and_validated_when_first_read(self, monkeypatch):
        import ldlab.spectral as spectral
        validated = []
        check = spectral.HermitianMatrix.__post_init__

        def counting(self):
            check(self)
            validated.append(self.entries.shape)
        monkeypatch.setattr(spectral.HermitianMatrix, "__post_init__", counting)
        op = SpectralOperator.from_diag(self.VALUES)
        ld_op = ld_operator(op, 2.0)     # A_r is A itself: its spectrum is the stored one
        assert ld_op.operator is op and ld_op.spectrum is op.eigenvalues
        assert validated == [] and "matrix" not in vars(op)
        matrix = op.matrix
        assert validated == [(6, 6)]
        assert matrix is op.matrix and validated == [(6, 6)]      # built once, then cached
        np.testing.assert_array_equal(matrix.entries, np.diag(self.VALUES))
        assert matrix.entries.dtype == np.float64 and matrix.norm_max == op.norm_max

    def test_suite_builds_no_dense_matrix(self):
        op = SpectralOperator.from_diag(np.arange(1.0, 402.0))
        report = verify_ld_properties(op, 3, 100, seed=0)
        assert report.overall == "PASS"
        assert "matrix" not in vars(op) and "eigenvectors" not in vars(op.decomp)

    @pytest.mark.parametrize("fault", ["values", "finite"])
    def test_each_linear_time_check_raises(self, fault):
        import ldlab.spectral as spectral
        values = np.array(self.VALUES)
        if fault == "values":
            # an unsorted diagonal fails the O(n) order check of its spectrum
            with pytest.raises(SpectrumError, match="nondecreasing"):
                SpectralOperator.from_diag(values[::-1])
        else:
            values[2] = np.nan
            with pytest.raises(spectral.NotHermitianError, match="non-finite"):
                SpectralOperator.from_diag(values)


class TestEigenbasisProducts:
    """Products through the stored eigenbasis give bitwise the values of the u.conj().T
    expression."""

    @pytest.mark.parametrize("make", [
        lambda: seeded_positive_operator(20, n=9),
        lambda: SpectralOperator.from_matrix(np.diag([4.0, 1.0, 3.0, 2.0]))])
    def test_apply_power_and_closed_form(self, make):
        op = make()
        rng = np.random.default_rng(21)
        n = op.dim
        u, lam = op.decomp.eigenvectors, op.eigenvalues
        for _ in range(5):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            expected = u @ (np.power(lam, 1.5) * (u.conj().T @ x))
            np.testing.assert_array_equal(op.apply_power(1.5, x), expected)
            half = np.power(lam - op.shift, 1.0)
            form = inner(half * (u.conj().T @ x), half * (u.conj().T @ y)) + op.shift * inner(x, y)
            assert ClosedFormR(2, op.shift, op)(x, y) == form


class TestEigensolveBudget:
    """The suite decomposes nothing its operator already holds: `eigh` is cached on the
    matrix, and a `from_diag` operator's spectrum is its stored diagonal, with no matrix."""

    @staticmethod
    def counting_eigh(monkeypatch) -> list:
        calls, real = [], np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_from_matrix_and_suite_make_one_eigensolve(self, monkeypatch, r):
        calls = self.counting_eigh(monkeypatch)
        op = SpectralOperator.from_matrix(discretize(SLCoefficients.flat(), 40).matrix)
        assert len(calls) == 1
        report = verify_ld_properties(op, r, 5, seed=2)
        assert report.overall == "PASS" and len(calls) == 1

    @pytest.mark.parametrize("r", [1.5, 3.0])
    def test_from_diag_and_suite_make_none(self, monkeypatch, r):
        calls = self.counting_eigh(monkeypatch)
        op = SpectralOperator.from_diag(np.arange(41, dtype=float) + 1.0)
        report = verify_ld_properties(op, r, 5, seed=2)
        assert report.overall == "PASS" and calls == []

    @pytest.mark.parametrize("make", [lambda: seeded_positive_operator(2, n=8),
                                      lambda: SpectralOperator.from_diag([1.0, 2.0, 2.0, 5.0])],
                             ids=["from_matrix", "from_diag"])
    def test_reading_the_spectrum_twice_adds_none(self, monkeypatch, make):
        op = make()
        calls = self.counting_eigh(monkeypatch)
        first = ld_operator(op, 2.0).spectrum
        second = ld_operator(op, 2.0).spectrum
        assert calls == [] and first is second
        np.testing.assert_array_equal(first, op.eigenvalues)


class TestPowerBudget:
    """Each eigenvalue power the suite uses is computed once over the n eigenvalues:
    lambda^{r/2} and lambda^r by `SpectralOperator._power` (kept on the operator per exponent),
    (lambda - gamma)^{r/2} by each closed form (kept on the form), and lambda^r once more
    for the eigen-Gram's dense A^r."""

    @pytest.mark.parametrize("make", [
        lambda: SpectralOperator.from_matrix(discretize(SLCoefficients.flat(), 40).matrix),
        lambda: SpectralOperator.from_diag(np.arange(41, dtype=float) + 1.0)],
        ids=["from_matrix", "from_diag"])
    @pytest.mark.parametrize("r, exponents", [(1.5, [0.75, 1.5, 1.5]),
                                              (3.0, [1.5, 1.5, 2.0, 3.0, 3.0])])
    def test_one_full_length_power_per_exponent(self, monkeypatch, make, r, exponents):
        op = make()
        calls, real = [], np.power

        def counting(base, exponent, *args, **kwargs):
            if np.shape(base) == (op.dim,):
                calls.append(float(exponent))
            return real(base, exponent, *args, **kwargs)
        monkeypatch.setattr(np, "power", counting)
        report = verify_ld_properties(op, r, 30, seed=4)
        assert {row.name for row in report.rows} >= {"duality(5)", "lower-bound(4)"}
        assert sorted(calls) == exponents

    def test_ld_inner_takes_each_power_once_across_calls(self, monkeypatch):
        # each ld_inner reads the operator's own lambda^{r/2} (`_power`), kept across calls
        op = SpectralOperator.from_matrix(discretize(SLCoefficients.flat(), 40).matrix)
        space = ld_space(op, 1.5)
        x = np.random.default_rng(3).normal(size=op.dim)
        calls, real = [], np.power

        def counting(base, exponent, *args, **kwargs):
            if np.shape(base) == (op.dim,):
                calls.append(float(exponent))
            return real(base, exponent, *args, **kwargs)
        monkeypatch.setattr(np, "power", counting)
        grams = [ld_inner(space, x) for _ in range(10)]
        assert calls == [0.75]
        assert len(set(grams)) == 1

    def test_operators_are_freed_with_gc_disabled(self):
        # the dict of powers holds arrays only: reference counting frees the operator
        op = SpectralOperator.from_matrix(discretize(SLCoefficients.flat(), 40).matrix)
        gc.disable()
        try:
            ld_inner(ld_space(op, 1.5), np.ones(op.dim))
            op.apply_power(2.0, np.ones(op.dim))
            assert 0.75 in op._powers and 2.0 in op._powers
            freed = weakref.ref(op)
            del op
            assert freed() is None
        finally:
            gc.enable()


def gram(space) -> np.ndarray:
    """G[i, j] = <e_j, e_i>_r, the Gram matrix of H_r in the standard basis, from `ld_inner`."""
    basis = np.eye(space.operator.dim)
    return np.array([[ld_inner(space, ej, ei) for ej in basis] for ei in basis])


class TestLdSpace:
    def test_gram_r1(self):
        op = SpectralOperator.from_diag([1.0, 4.0])
        np.testing.assert_allclose(gram(ld_space(op, 1.0)), np.diag([1.0, 4.0]), atol=1e-12)

    def test_gram_r2(self):
        op = SpectralOperator.from_diag([1.0, 4.0])
        np.testing.assert_allclose(gram(ld_space(op, 2.0)), np.diag([1.0, 16.0]), atol=1e-12)

    def test_gram_fractional_scalar(self):
        op = SpectralOperator.from_diag([2.0])
        np.testing.assert_allclose(gram(ld_space(op, 0.5)), [[np.sqrt(2.0)]], atol=1e-14)

    def test_builds_nothing_dense(self, monkeypatch):
        # H_r is its inner product: no power, eigensolve or dense A^r at N = 800
        import ldlab.spectral as spectral
        op = SpectralOperator.from_matrix(discretize(SLCoefficients.flat(), 800).matrix)

        def forbidden(*args, **kwargs):
            raise AssertionError("a dense power or eigensolve was called")
        monkeypatch.setattr(SpectralDecomposition, "power", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(spectral, "mat_power", forbidden)
        space = ld_space(op, 2.0)
        u0 = op.decomp.eigenvectors[:, 0]
        assert ld_inner(space, u0, u0).real == pytest.approx(op.lower_bound ** 2, rel=1e-10)

    def test_requires_positive_bound(self):
        op = SpectralOperator.from_diag([-1.0, 4.0])
        with pytest.raises(ShiftError, match="shift first"):
            ld_space(op, 1.0)

    def test_requires_positive_r(self):
        op = SpectralOperator.from_diag([1.0, 4.0])
        with pytest.raises(ValueError, match="positive"):
            ld_space(op, -1.0)


class TestLdInner:
    def test_hand_values_diag_1_4(self):
        op = SpectralOperator.from_diag([1.0, 4.0])
        ones = np.ones(2)
        assert ld_inner(ld_space(op, 1.0), ones, ones) == pytest.approx(5.0, abs=1e-12)
        assert ld_inner(ld_space(op, 2.0), ones, ones) == pytest.approx(17.0, abs=1e-12)

    def test_eigenvector_gives_lambda_power(self):
        op = SpectralOperator.from_diag([3.0, 5.0])
        space = ld_space(op, 2.5)
        assert ld_inner(space, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(3.0 ** 2.5, rel=1e-12)

    def test_matches_gram_quadratic_form(self):
        # oracle: y* A^r x with the Gram A^r formed densely by `mat_power` (eigh of the matrix)
        rng = np.random.default_rng(2)
        for op in (seeded_positive_operator(1, n=10),
                   SpectralOperator.from_matrix(np.diag([4.0, 0.5, 9.0, 2.5, 2.5, 6.0]))):
            x = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            y = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            for r in (0.5, 1.5, 2.0, 3.0):
                direct = complex(y.conj() @ mat_power(op.matrix, r).entries @ x)
                assert ld_inner(ld_space(op, r), x, y) == pytest.approx(direct, rel=1e-10)

    def test_dimension_mismatch(self):
        op = SpectralOperator.from_diag([1.0, 4.0])
        with pytest.raises(DimensionMismatchError):
            ld_inner(ld_space(op, 1.0), np.ones(3), np.ones(2))
        with pytest.raises(DimensionMismatchError):
            ld_inner(ld_space(op, 1.0), np.ones((3, 2)))

    @pytest.mark.parametrize("make", [
        lambda: SpectralOperator.from_matrix(discretize(SLCoefficients.flat(), 30).matrix),
        lambda: SpectralOperator.from_matrix(np.diag(np.arange(30, 0, -1, dtype=float))),
        lambda: seeded_positive_operator(6, n=12)], ids=["float64", "unsorted-diagonal", "complex"])
    def test_block_columns_match_the_vector_calls_to_rounding(self, make):
        # a block is one product, which BLAS rounds differently from the vector products
        # (flat SL at N = 30: one n x 4 product against two n x 2 ones); each column agrees
        # with its vector call within 4 n eps times ||A^r|| ||x|| (Higham's gamma_n)
        op = make()
        rng = np.random.default_rng(8)
        block = rng.normal(size=(op.dim, 3)) + 1j * rng.normal(size=(op.dim, 3))
        other = rng.normal(size=(op.dim, 2)) + 1j * rng.normal(size=(op.dim, 2))
        tol = 4 * op.dim * np.finfo(float).eps

        def size(v):    # ||A^{3/4}|| ||v||, the scale of A^{3/4} v and of its H_{3/2} norm
            return float(np.max(op.eigenvalues)) ** 0.75 * float(np.linalg.norm(v))
        applied = op.apply_power(0.75, block)
        assert applied.shape == (op.dim, 3)
        for j in range(3):
            alone = op.apply_power(0.75, block[:, j])
            assert float(np.max(np.abs(applied[:, j] - alone))) <= tol * size(block[:, j])
        space = ld_space(op, 1.5)
        gram, cross = ld_inner(space, block), ld_inner(space, block, other)
        assert gram.shape == (3, 3) and cross.shape == (3, 2)
        for i in range(3):
            for j in range(3):
                alone = ld_inner(space, block[:, i], block[:, j])
                assert abs(gram[i, j] - alone) <= tol * size(block[:, i]) * size(block[:, j])
            for j in range(2):
                alone = ld_inner(space, block[:, i], other[:, j])
                assert abs(cross[i, j] - alone) <= tol * size(block[:, i]) * size(other[:, j])
        assert ld_inner(space, block[:, 0]) == ld_inner(space, block[:, 0], block[:, 0])


class TestLdOperator:
    def test_domain_tags(self):
        op = SpectralOperator.from_diag([1.0, 2.0])
        assert ld_operator(op, 1.0).domain_tag == "D(A^{3/2})"
        assert ld_operator(op, 2.0).domain_tag == "D(A^2)"

    def test_action_and_spectrum_unchanged(self):
        # A_r acts as A itself, and its spectrum is `eigh` of A's matrix, cached on it
        op = seeded_positive_operator(3, n=6)
        ld_op = ld_operator(op, 2.0)
        assert ld_op.operator is op
        assert ld_op.spectrum is op.eigenvalues


class TestClosedForm:
    def test_one_argument_is_the_diagonal_value(self):
        # t_r[f] takes f into the eigenbasis once; the bits are those of t_r[f, f]
        rng = np.random.default_rng(9)
        for op in (seeded_positive_operator(5, n=7), SpectralOperator.from_diag([1.0, 2.5, 4.0])):
            f = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            for r, gamma in ((1, op.shift), (3, op.lower_bound - 0.5)):
                form = ClosedFormR(r, gamma, op)
                assert form(f) == form(f, f)

    def test_scalar_example(self):
        # A = diag(2), gamma = 1, r = 2, f = (1): (2-1)^2 + 1 = 2
        op = SpectralOperator.from_diag([2.0])
        assert ClosedFormR(2, 1.0, op)([1.0], [1.0]) == pytest.approx(2.0, abs=1e-14)

    def test_r1_telescopes_to_plain_form(self):
        op = seeded_positive_operator(4, n=7)
        rng = np.random.default_rng(5)
        f = rng.normal(size=7) + 1j * rng.normal(size=7)
        expected = complex(f.conj() @ op.matrix.entries @ f)
        assert ClosedFormR(1, op.shift, op)(f, f) == pytest.approx(expected, rel=1e-12)

    def test_diag_2_5_gamma0(self):
        op = SpectralOperator.from_diag([2.0, 5.0])
        assert ClosedFormR(2, op.shift, op)(np.ones(2), np.ones(2)) == pytest.approx(29.0, abs=1e-12)

    def test_value_real_on_diagonal(self):
        op = seeded_positive_operator(6, n=5)
        rng = np.random.default_rng(7)
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert abs(ClosedFormR(3, op.shift, op)(f, f).imag) <= 1e-10 * abs(ClosedFormR(3, op.shift, op)(f, f))

    def test_rejects_gamma_at_bound(self):
        op = SpectralOperator.from_diag([2.0, 5.0])
        with pytest.raises(ShiftError):
            ClosedFormR(2, 2.0, op)

    def test_rejects_fractional_r(self):
        op = SpectralOperator.from_diag([2.0, 5.0])
        with pytest.raises(ValueError, match="positive integer"):
            ClosedFormR(1.5, 0.0, op)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_lower_bound_on_seeded_samples(self, r):
        op = seeded_positive_operator(8, n=12)
        gamma = op.shift - 0.7
        form = ClosedFormR(r, gamma, op)
        bound = form.lower_bound()
        rng = np.random.default_rng(9)
        for _ in range(200):
            f = rng.normal(size=12) + 1j * rng.normal(size=12)
            norm_sq = float(np.vdot(f, f).real)
            scale = op.matrix.norm_max ** r * norm_sq
            assert form(f, f).real >= bound * norm_sq - 1e-9 * scale


class TestMultiplicity:
    def test_cluster_counts(self):
        assert multiplicity_list([2.0, 2.0, 5.0]) == [(2.0, 2), (5.0, 1)]
        # consecutive gaps of 3e-10 under the cutoff 5e-10 chain three values whose ends
        # are 6e-10 apart into one cluster, as `eigh` groups them
        assert multiplicity_list([1.0, 1 + 3e-10, 1 + 6e-10, 5.0]) == [(1.0, 3), (5.0, 1)]

    def test_degenerate_spectrum_preserved(self):
        op = SpectralOperator.from_diag([2.0, 2.0, 5.0])
        ld_op = ld_operator(op, 3.0)
        assert multiplicity_list(op.eigenvalues) == multiplicity_list(ld_op.spectrum)
        assert multiplicity_list(op.eigenvalues)[0][1] == 2


class TestVerifyProperties:
    def test_report_passes_on_seeded_operator(self):
        op = seeded_positive_operator(10)
        report = verify_ld_properties(op, 2.0, 40, seed=11)
        assert report.overall == "PASS"
        names = {row.name for row in report.rows}
        assert {"lower-bound(4)", "duality(5)", "eigen-gram-offdiag",
                "eigen-gram-diag", "multiplicity-invariance"} <= names

    def test_equality_at_the_bound(self):
        # eigenvector at the lower bound: <x,x>_2 = k^2 <x,x> exactly
        op = SpectralOperator.from_diag([2.0, 3.0])
        space = ld_space(op, 2.0)
        x = np.array([1.0, 0.0])
        assert ld_inner(space, x, x).real == pytest.approx(4.0, abs=1e-12)
        assert op.lower_bound ** 2 == pytest.approx(4.0)

    def test_laguerre_truncation_eigengram(self):
        # diagonal (m + k) model: eigen-Gram entries are (m + k)^r exactly
        k, r = 1.0, 2.0
        op = SpectralOperator.from_diag(np.arange(6, dtype=float) + k)
        space = ld_space(op, r)
        for m in range(6):
            em = np.zeros(6)
            em[m] = 1.0
            assert ld_inner(space, em, em).real == pytest.approx((m + k) ** r, rel=1e-12)

    def test_fractional_r_property_suite(self):
        op = seeded_positive_operator(12, n=10)
        report = verify_ld_properties(op, 0.5, 25, seed=13)
        assert report.overall == "PASS"

    def test_multiplicity_invariance_can_fail(self):
        # the stored decomposition is off by a few ulps in one eigenvalue: it passes
        # construction and the residual check, but not the comparison with LAPACK
        values = np.arange(1.0, 9.0)
        h = HermitianMatrix(np.diag(values))
        exact = SpectralOperator.from_diag(values)
        lam = values.copy()
        lam[3] = np.nextafter(np.nextafter(lam[3], np.inf), np.inf)
        decomp = SpectralDecomposition(lam, exact.decomp.eigenvectors)
        _check_residual(h, decomp)
        op = SpectralOperator(h, decomp)
        flags = {row.name: row.status for row in verify_ld_properties(op, 2.0, 5, seed=1).rows}
        assert flags["multiplicity-invariance"] == "FAIL"
        flags = {row.name: row.status for row in verify_ld_properties(exact, 2.0, 5, seed=1).rows}
        assert flags["multiplicity-invariance"] == "PASS"

    def test_peak_memory_within_four_dense_arrays(self):
        # A^r, its compression and the dense matrix of the eigh are never alive
        # together, and no step holds more than four n x n float64 arrays at once
        n = 400
        op = SpectralOperator.from_diag(np.arange(1.0, n + 1))
        # a small run first, so one-time allocations of the first call are not counted
        verify_ld_properties(SpectralOperator.from_diag(np.arange(1.0, 9.0)), 3, 2, seed=0)
        tracemalloc.start()
        try:
            report = verify_ld_properties(op, 3, 5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.overall == "PASS"
        assert peak <= 4 * n * n * 8


def reference_closed_form(op, r, samples, seed):
    """The closed-form row and the form_ordering cells as the leftdef-verify runner
    computed them before the suite owned them: per-sample loops on a second generator
    seeded like the suite's, so they replay the suite's stream."""
    rng = np.random.default_rng(seed)
    form = ClosedFormR(int(r), op.shift, op)
    bound = form.lower_bound()
    worst = 0.0
    for _ in range(samples):
        f = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        scale = op.norm_max ** r * float(np.vdot(f, f).real)
        value = form(f, f).real
        worst = max(worst, (bound * float(np.vdot(f, f).real) - value) / scale)
    next_form = ClosedFormR(int(r) + 1, op.shift, op)
    gaps = []
    for _ in range(min(samples, 20)):
        f = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        f = f / np.linalg.norm(f)
        gaps.append(next_form(f, f).real - form(f, f).real)
    return worst, (int(r), int(r) + 1, min(gaps), max(gaps))


def parsed_operator(spec):
    """The operator of `spec` as parse_config types it."""
    raw = {"operatorSpec": spec, "experiment": "leftdef-verify"}
    return build_operator(parse_config(json.dumps(raw)).operator_spec).operator


def jacobi_neumann_plus_one():
    # Jacobi(1,1) neumann-type has lambda_0 = 0; A + I is positive, so the suite runs at
    # gamma = 0, like every left-definite construction (gamma != 0: TestClosedForm)
    spec = {"kind": "sl", "coeffs": {"name": "jacobi", "alpha": 1.0, "beta": 1.0},
            "N": 12, "bc": "neumann-type"}
    a = parsed_operator(spec).matrix.entries
    return SpectralOperator.from_matrix(a + np.eye(a.shape[0]))


REFERENCE_OPERATORS = {
    "from_diag": lambda: SpectralOperator.from_diag(np.arange(9, dtype=float) + 1.0),
    "flat-sl": lambda: parsed_operator(
        {"kind": "sl", "coeffs": "flat", "N": 16, "bc": "dirichlet"}),
    "jacobi-neumann": jacobi_neumann_plus_one,
}


class TestOneSampleStream:
    """Every leftdef-verify row and table comes from the suite's one generator."""

    @pytest.mark.parametrize("samples", [1, 2, 7, 25])
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("kind", sorted(REFERENCE_OPERATORS))
    def test_closed_form_bitwise_equal_to_reference(self, kind, r, samples):
        # the suite evaluates both forms on the coefficients of its n x 2 sample blocks (one
        # U* product per block), the reference on each vector's own U* product: by the block
        # rule each value agrees within 2 gamma_n ||A^{r/2}||^2 ||f||^2, two rounded stages
        # (the product and the sum), and bit for bit in the identity basis, which makes none
        op = REFERENCE_OPERATORS[kind]()
        seed = 17
        report = verify_ld_properties(op, r, samples, seed)
        worst, cells = reference_closed_form(op, r, samples, seed)
        rows = {row.name: row for row in report.rows}
        n, eps = op.dim, np.finfo(float).eps
        rounding = 2 * n * eps / (1 - n * eps)
        lam_max = float(op.eigenvalues[-1])
        residual = rows["closed-form-lower-bound"].residual
        assert abs(residual - worst) <= rounding * lam_max ** r / op.norm_max ** r
        assert rows["closed-form-lower-bound"].inputs == f"r={int(r)}, gamma={op.shift:g}"
        ordering = [t for t in report.tables if t.name == "form_ordering"]
        assert len(ordering) == 1 and len(ordering[0].rows) == 1
        got = ordering[0].rows[0]
        assert got[:2] == cells[:2]
        for gap, reference in zip(got[2:], cells[2:]):    # t_{r+1}[f] - t_r[f], unit f
            assert abs(gap - reference) <= rounding * (lam_max ** (r + 1) + lam_max ** r)
        if op.decomp.columns is None:
            assert residual == worst and got == cells

    def test_fractional_r_has_no_closed_form(self):
        report = verify_ld_properties(seeded_positive_operator(2, n=6), 1.5, 4, seed=1)
        assert "closed-form-lower-bound" not in {row.name for row in report.rows}
        assert [t.name for t in report.tables] == ["eigen_gram_diag"]

    def test_runner_leaves_the_scenario_generator_untouched(self):
        raw = {"operatorSpec": {"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": 10},
               "experiment": "leftdef-verify", "params": {"r": 2, "samples": 10}, "seed": 3}
        config = parse_config(json.dumps(raw))
        rng = np.random.default_rng(config.seed)
        before = rng.bit_generator.state
        report = Report("leftdef-verify")
        scenarios._RUNNERS["leftdef-verify"](report, build_operator(config.operator_spec),
                                             config, rng)
        assert rng.bit_generator.state == before
        assert "closed-form-lower-bound" in {row.name for row in report.rows}

    @pytest.mark.parametrize("r", [0.5, 2.0, 3])
    def test_two_apply_power_calls_per_sample(self, monkeypatch, r):
        # lambda^{r/2} read by `ld_inner` for the coefficients of the sample pair (x, y), one
        # n x 2 block, then lambda^r applied to those of x: both on the operator in its
        # eigenbasis, the identity basis, so neither makes a product
        powers, calls = [], []
        power, apply_power = SpectralOperator._power, SpectralOperator.apply_power

        def counting_power(self, exponent):
            powers.append((exponent, self.decomp.columns is None))
            return power(self, exponent)

        def counting(self, exponent, x):
            calls.append((exponent, np.shape(x), self.decomp.columns is None))
            return apply_power(self, exponent, x)
        monkeypatch.setattr(SpectralOperator, "_power", counting_power)
        monkeypatch.setattr(SpectralOperator, "apply_power", counting)
        verify_ld_properties(seeded_positive_operator(4, n=10), r, 7, seed=3)
        assert calls == [(r, (10,), True)] * 7
        assert powers == [(r / 2, True), (r, True)] * 7

    @staticmethod
    def nan_on_call(real, index):
        calls = []

        def wrapped(*args):
            calls.append(None)
            return real(*args) * (np.nan if len(calls) - 1 == index else 1.0)
        return wrapped

    def suite_rows(self, op=None):
        op = seeded_positive_operator(4, n=10) if op is None else op
        report = verify_ld_properties(op, 2.0, 3, seed=3)
        return {row.name: (row.status, row.residual) for row in report.rows}

    def test_nan_sample_fails_lower_bound_and_duality(self, monkeypatch):
        # _power call 2 is sample 1's lambda^{r/2} for (x, y) (2 calls per sample)
        monkeypatch.setattr(SpectralOperator, "_power",
                            self.nan_on_call(SpectralOperator._power, 2))
        rows = self.suite_rows()
        for name in ("lower-bound(4)", "duality(5)"):
            assert rows[name][0] == "FAIL" and np.isnan(rows[name][1])
        assert rows["closed-form-lower-bound"][0] == "PASS"

    def test_nan_power_r_fails_duality_only(self, monkeypatch):
        # _power call 3 is sample 1's lambda^r for A^r x, read by the duality row alone
        monkeypatch.setattr(SpectralOperator, "_power",
                            self.nan_on_call(SpectralOperator._power, 3))
        rows = self.suite_rows()
        assert rows["duality(5)"][0] == "FAIL" and np.isnan(rows["duality(5)"][1])
        assert rows["lower-bound(4)"][0] == "PASS"

    def test_nan_from_ld_inner_fails_lower_bound_and_duality(self, monkeypatch):
        # the suite reads <x,x>_r and <x,y>_r from `ld_inner`: call 1 is sample 1's pair
        monkeypatch.setattr(leftdef, "ld_inner", self.nan_on_call(leftdef.ld_inner, 1))
        rows = self.suite_rows()
        for name in ("lower-bound(4)", "duality(5)"):
            assert rows[name][0] == "FAIL" and np.isnan(rows[name][1])

    @pytest.mark.parametrize("make", [lambda: seeded_positive_operator(4, n=10),
                                      lambda: REFERENCE_OPERATORS["flat-sl"](),
                                      lambda: REFERENCE_OPERATORS["from_diag"]()],
                             ids=["complex", "flat-sl", "from_diag"])
    def test_relative_error_in_ld_inner_fails_duality(self, monkeypatch, make):
        op = make()
        assert self.suite_rows(op)["duality(5)"][0] == "PASS"
        real = leftdef.ld_inner
        monkeypatch.setattr(leftdef, "ld_inner", lambda *args: real(*args) * (1 + 1e-6))
        status, residual = self.suite_rows(op)["duality(5)"]
        assert status == "FAIL" and residual > 1e-8

    def test_nan_form_value_fails_closed_form(self, monkeypatch):
        # closed-form call 1 is stream position 1, one of the lower-bound samples
        monkeypatch.setattr(ClosedFormR, "__call__", self.nan_on_call(ClosedFormR.__call__, 1))
        rows = self.suite_rows()
        assert rows["closed-form-lower-bound"][0] == "FAIL"
        assert np.isnan(rows["closed-form-lower-bound"][1])
        assert rows["lower-bound(4)"][0] == rows["duality(5)"][0] == "PASS"

    @pytest.mark.parametrize("samples", [7, 25])
    def test_each_form_value_takes_one_eigenbasis_product(self, monkeypatch, samples):
        # per sample: one U* of the n x 2 block (x, y) and one U for A^r x = U (lambda^r c_x);
        # every closed-form value and table gap reads the block's coefficients, with no
        # product of its own
        from ldlab import spectral
        real, calls = spectral._product, []

        def counting(m, x):
            calls.append(np.shape(x))
            return real(m, x)
        monkeypatch.setattr(spectral, "_product", counting)
        verify_ld_properties(seeded_positive_operator(4, n=10), 2.0, samples, seed=3)
        assert calls == [(10, 2), (10,)] * samples

    def test_rejects_an_empty_suite(self):
        with pytest.raises(ValueError, match="at least one sample, got 0"):
            verify_ld_properties(SpectralOperator.from_diag([1.0, 4.0]), 2.0, 0, 1)

    def test_checks_positivity_once(self, monkeypatch):
        checks = []
        require_positive = SpectralOperator.require_positive

        def counting(self):
            checks.append(self)
            return require_positive(self)
        monkeypatch.setattr(SpectralOperator, "require_positive", counting)
        verify_ld_properties(seeded_positive_operator(5, n=6), 2.0, 3, seed=0)
        assert len(checks) == 1


class TestDefaultShift:
    """Positivity of the lower bound is decided relative to the matrix scale."""

    @pytest.mark.parametrize("n", [10, 12, 16, 50, 400])
    def test_zero_lower_bound_gets_unit_shift(self, n):
        # Jacobi(1,1) neumann-type has lambda_0 = 0; rounding gives it either sign
        spec = {"kind": "sl", "coeffs": {"name": "jacobi", "alpha": 1.0, "beta": 1.0},
                "N": n, "bc": "neumann-type"}
        op = parsed_operator(spec)
        assert op.shift == op.lower_bound - 1.0

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_cutoff_scales_with_matrix(self, scale):
        assert SpectralOperator.from_diag([1e-13 * scale, scale]).shift < 0.0
        assert SpectralOperator.from_diag([1e-6 * scale, scale]).shift == 0.0

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_positivity_uses_the_same_cutoff(self, scale):
        with pytest.raises(ShiftError, match="not positive"):
            SpectralOperator.from_diag([1e-13 * scale, scale]).require_positive()
        SpectralOperator.from_diag([1e-6 * scale, scale]).require_positive()

    def test_rounding_level_bound_is_a_scenario_error(self):
        # Jacobi(1, 2) neumann-type has lambda_0 = 0; rounding leaves k = O(1e-14) > 0,
        # which the eigen-Gram check would divide by
        spec = {"kind": "sl", "coeffs": {"name": "jacobi", "alpha": 1.0, "beta": 2},
                "N": 20, "bc": "neumann-type"}
        k = parsed_operator(spec).lower_bound
        assert 0.0 < k < 1e-12
        raw = {"operatorSpec": spec, "experiment": "leftdef-verify",
               "params": {"samples": 5}, "seed": 5}
        report = run_scenario(parse_config(json.dumps(raw)))
        assert [(r.name, r.status) for r in report.rows] == [("scenario-error", "FAIL")]
        assert report.rows[0].inputs.startswith(f"ShiftError: operator lower bound k = {k} ")
