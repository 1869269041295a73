import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldlab import spectral
from ldlab.leftdef import ShiftError, SpectralOperator, ld_space
from ldlab.spectral import (
    HermitianMatrix,
    LinearRelation,
    NotHermitianError,
    SpectralDecomposition,
    SpectrumError,
    SUBSPACE_TOL,
    Subspace,
    _check_residual,
    _nullspace,
    _ortho_defect,
    diagonal_eigh,
    eigh,
    load_matrix_csv,
    mat_power,
    orthocomplement,
    rel_compose,
    rel_is_selfadjoint,
    subspace_intersect,
    subspaces_equal,
)


def random_hermitian(rng, n, complex_=True):
    m = rng.normal(size=(n, n))
    if complex_:
        m = m + 1j * rng.normal(size=(n, n))
    return HermitianMatrix(m + m.conj().T)


class TestHermitianMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotHermitianError, match="asymmetry"):
            HermitianMatrix(np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NotHermitianError, match="finite"):
            HermitianMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_entries_immutable(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    def test_norm_max_computed_once(self, monkeypatch):
        real_max = np.max
        calls = []

        def counting_max(*args, **kwargs):
            calls.append(1)
            return real_max(*args, **kwargs)

        monkeypatch.setattr(np, "max", counting_max)
        h = HermitianMatrix(np.array([[1.0, -3.0], [-3.0, 2.0]]))
        assert len(calls) == 2      # the validator's asymmetry and scale passes
        assert h.norm_max == 3.0
        assert h.norm_max == 3.0
        assert len(calls) == 2      # norm_max is the validator's scale, not a third pass
        assert "norm_max" in vars(h)


class TestEigh:
    def test_diagonal_input(self):
        decomp = eigh(HermitianMatrix(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 2.0, 3.0])
        # permutation eigenvectors
        np.testing.assert_allclose(np.abs(decomp.eigenvectors),
                                   np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_two_by_two(self):
        # characteristic polynomial (2-l)^2 - 1 = 0 -> l = 1, 3
        decomp = eigh(HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 3.0], atol=1e-12)
        v0 = decomp.eigenvectors[:, 0]
        v1 = decomp.eigenvectors[:, 1]
        np.testing.assert_allclose(np.abs(v0), [1, 1] / np.sqrt(2), atol=1e-12)
        assert abs(v0[0] + v0[1]) < 1e-12          # (1,-1)/sqrt(2) direction
        np.testing.assert_allclose(np.abs(v1), [1, 1] / np.sqrt(2), atol=1e-12)

    def test_identity(self):
        decomp = eigh(HermitianMatrix(np.eye(4)))
        np.testing.assert_allclose(decomp.eigenvalues, np.ones(4))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = random_hermitian(rng, 8)
            decomp = eigh(h)
            u = decomp.eigenvectors
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10
            assert np.max(np.abs(decomp.apply_function(lambda x: x) - h.entries)) <= 1e-10 * h.norm_max

    def test_degenerate_cluster_orthonormal(self):
        h = HermitianMatrix(np.diag([2.0, 2.0, 5.0]))
        decomp = eigh(h)
        u = decomp.eigenvectors
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-12

    def test_clusters_split_at_consecutive_gaps(self):
        # the one cluster rule of `eigh` and `multiplicity_list`: a gap <= cutoff joins
        values = np.array([1.0, 1 + 3e-10, 1 + 6e-10, 5.0, 5.0, 7.0])
        assert spectral._clusters(values, 5e-10) == [(0, 3), (3, 5), (5, 6)]
        assert spectral._clusters(values, 0.0) == [(0, 1), (1, 2), (2, 3), (3, 5), (5, 6)]
        assert spectral._clusters(values[:1], 5e-10) == [(0, 1)]


def _recording(monkeypatch, name: str, corrupt=None, results=None) -> list:
    """np.linalg.<name> wrapped to record the dtype it is handed; `corrupt` edits its result
    and `results`, if given, collects what it returns."""
    real = getattr(np.linalg, name)
    dtypes = []

    def recording(a, *args, **kwargs):
        dtypes.append(a.dtype)
        out = real(a, *args, **kwargs)
        out = corrupt(*out) if corrupt else out
        if results is not None:
            results.append(out)
        return out

    monkeypatch.setattr(np.linalg, name, recording)
    return dtypes


def _real_valued(seed, n=30) -> HermitianMatrix:
    """A real symmetric matrix given as complex128 with zero imaginary part, stored as float64."""
    h = random_hermitian(np.random.default_rng(seed), n, complex_=False)
    h = HermitianMatrix(h.entries.astype(complex))
    assert h.entries.dtype == np.float64
    return h


class TestStorage:
    """Real-valued data is stored once as float64, anything else as complex128."""

    def test_float_and_zero_imaginary_inputs_store_the_same_float64(self):
        m = random_hermitian(np.random.default_rng(47), 9, complex_=False).entries
        from_float = HermitianMatrix(m.copy())
        from_complex = HermitianMatrix(m.astype(complex))
        assert from_float.entries.dtype == from_complex.entries.dtype == np.float64
        assert from_float.entries.tobytes() == from_complex.entries.tobytes()
        assert from_float.norm_max == from_complex.norm_max
        assert HermitianMatrix(np.eye(3, dtype=int)).entries.dtype == np.float64

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_callers_array_stays_writable(self, dtype):
        m = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=dtype)
        h = HermitianMatrix(m)
        assert m.flags.writeable and not h.entries.flags.writeable
        assert not np.shares_memory(h.entries, m)       # a copy, not a view
        m[0, 0] = 7.0
        assert h.entries[0, 0] == 2.0

    def test_callers_eigenvalues_stay_writable(self):
        values = np.array([1.0, 2.0, 2.0, 5.0])
        for decomp in (SpectralDecomposition(values), diagonal_eigh(values)):
            assert values.flags.writeable and not decomp.eigenvalues.flags.writeable
            assert not np.shares_memory(decomp.eigenvalues, values)

    def test_one_imaginary_pair_keeps_complex128(self):
        entries = _real_valued(48, n=6).entries.astype(complex)
        entries[1, 4] += 1e-300j
        entries[4, 1] -= 1e-300j
        h = HermitianMatrix(entries)
        assert h.entries.dtype == np.complex128
        np.testing.assert_array_equal(h.entries, entries)

    def test_lapack_basis_of_a_diagonal_matrix_is_kept_as_identity_or_columns(self):
        # a sorted diagonal's LAPACK eigenvectors are exactly I: kept as the identity basis,
        # with no QR of a cluster of repeated values
        for values in ([1.0, 2.0, 2.0, 2.0], [2.0, 2.0, 3.0, 5.0]):
            assert eigh(HermitianMatrix(np.diag(values))).columns is None
        decomp = eigh(HermitianMatrix(np.diag([1.0, 2.0, 3.0, 5.0])))
        assert decomp.columns is None and "eigenvectors" not in vars(decomp)
        u = decomp.eigenvectors
        assert u.dtype == np.float64 and not u.flags.writeable
        np.testing.assert_array_equal(u, np.eye(4))
        # an unsorted one's are a permuted identity: kept as dense columns
        decomp = eigh(HermitianMatrix(np.diag([3.0, 1.0, 2.0, 5.0])))
        assert decomp.columns is not None and decomp.eigenvectors is decomp.columns
        np.testing.assert_array_equal(np.abs(decomp.columns), np.eye(4)[:, [1, 2, 0, 3]])


class TestRealRoute:
    """A Hermitian matrix whose imaginary part is exactly zero is solved in float64."""

    def test_real_valued_input_reaches_lapack_as_float64(self, monkeypatch):
        h = _real_valued(40)
        complex_lam = np.linalg.eigvalsh(h.entries.astype(complex))
        results = []
        dtypes = _recording(monkeypatch, "eigh", results=results)
        decomp = eigh(h)
        assert dtypes == [np.float64]
        assert decomp.columns is results[0][1]      # LAPACK's float64 result, not a copy
        assert decomp.columns.dtype == np.float64 and decomp.eigenvectors is decomp.columns
        tol = 1e-12 * h.norm_max
        assert np.max(np.abs(decomp.eigenvalues - complex_lam)) <= tol
        assert np.max(np.abs(decomp.apply_function(lambda x: x) - h.entries)) <= tol

    def test_one_imaginary_pair_keeps_complex_route(self, monkeypatch):
        entries = _real_valued(41).entries.astype(complex)
        entries[3, 7] += 1e-3j
        entries[7, 3] -= 1e-3j
        h = HermitianMatrix(entries)
        real_lam = np.linalg.eigvalsh(entries.real)
        complex_lam = np.linalg.eigh(entries)[0]
        dtypes = _recording(monkeypatch, "eigh")
        decomp = eigh(h)
        assert dtypes == [np.complex128]
        assert decomp.columns.dtype == np.complex128
        np.testing.assert_array_equal(decomp.eigenvalues, complex_lam)
        assert np.max(np.abs(decomp.eigenvalues - real_lam)) > 1e-9

    @pytest.mark.parametrize("fault, message", [("vector", "not orthonormal"),
                                                ("value", "residual too large")])
    def test_corrupted_float64_result_is_rejected(self, monkeypatch, fault, message):
        h = _real_valued(42)

        def corrupt(lam, u):
            if fault == "vector":
                u[:, 0] *= 1.0 + 1e-6
            else:
                lam[-1] += 1e-6 * h.norm_max
            return lam, u

        dtypes = _recording(monkeypatch, "eigh", corrupt)
        with pytest.raises(SpectrumError, match=message):
            eigh(h)
        assert dtypes == [np.float64]


def _permutation(order):
    u = np.zeros((len(order), len(order)), dtype=complex)
    u[order, np.arange(len(order))] = 1.0
    return u


class TestDiagonalEigh:
    @pytest.mark.parametrize("n", [10, 401])
    def test_bitwise_equal_to_eigh_for_sorted_distinct(self, n):
        values = np.sort(np.random.default_rng(n).normal(size=n))
        exact = diagonal_eigh(values)
        dense = eigh(HermitianMatrix(np.diag(values)))
        np.testing.assert_array_equal(exact.eigenvalues, dense.eigenvalues)
        np.testing.assert_array_equal(exact.eigenvectors, dense.eigenvectors)

    @pytest.mark.parametrize("values", [[3.0, 1.0, 2.0, 2.0, 5.0], [2.0, 2.0, 5.0],
                                        [-1.0, 4.0, -1.0]])
    def test_unsorted_or_degenerate_input(self, values):
        h = HermitianMatrix(np.diag(values))
        decomp = diagonal_eigh(values)
        np.testing.assert_array_equal(decomp.eigenvalues, np.sort(values))
        np.testing.assert_allclose(decomp.eigenvalues, eigh(h).eigenvalues, rtol=1e-14)
        u = decomp.eigenvectors
        np.testing.assert_array_equal(u.conj().T @ u, np.eye(len(values)))
        np.testing.assert_array_equal(decomp.apply_function(lambda x: x), h.entries)


class TestExactChecks:
    """Dense eigenvector columns, a permuted identity among them, pass the Gram check, and
    the residual check sees a wrong eigenvalue in either basis."""

    @pytest.mark.parametrize("rows", [[0, 0, 2], [1, 1, 1]])
    def test_repeated_row_rejected(self, rows):
        u = np.zeros((3, 3))
        u[rows, [0, 1, 2]] = 1.0
        with pytest.raises(SpectrumError, match="not orthonormal"):
            SpectralDecomposition([1.0, 2.0, 3.0], u)

    def test_repeated_column_rejected(self):
        u = np.zeros((3, 3))
        u[[0, 1, 2], [0, 0, 2]] = 1.0
        with pytest.raises(SpectrumError, match="not orthonormal"):
            SpectralDecomposition([1.0, 2.0, 3.0], u)

    @pytest.mark.parametrize("columns", [np.eye(3), np.eye(3)[:, :2], np.eye(2)[:, :1]])
    def test_columns_must_match_the_eigenvalues(self, columns):
        with pytest.raises(SpectrumError, match="must form a 2 x 2 array"):
            SpectralDecomposition([1.0, 2.0], columns)

    def test_perturbed_permutation_goes_through_gram_check(self):
        u = _permutation([1, 2, 0])
        u[1, 0] = 1.0 + 1e-6
        with pytest.raises(SpectrumError, match="not orthonormal: 2.000e-06"):
            SpectralDecomposition([1.0, 2.0, 3.0], u)

    def test_residual_check_can_fail_on_diagonal(self):
        h = HermitianMatrix(np.diag([1.0, 3.0, 2.0]))
        u = _permutation([0, 2, 1])
        _check_residual(h, SpectralDecomposition([1.0, 2.0, 3.0], u))
        with pytest.raises(SpectrumError, match="residual"):
            _check_residual(h, SpectralDecomposition([1.0, 2.0 + 1e-9, 3.0], u))
        with pytest.raises(SpectrumError, match="residual"):
            _check_residual(h, SpectralDecomposition([1.0, 2.0, 3.0], _permutation([0, 1, 2])))

    def test_off_diagonal_entry_uses_dense_residual(self):
        entries = np.diag([1.0, 2.0, 3.0])
        entries[0, 2] = entries[2, 0] = 1e-3
        for columns in (np.eye(3), None):
            with pytest.raises(SpectrumError, match="residual too large: 1.000e-03"):
                _check_residual(HermitianMatrix(entries),
                                SpectralDecomposition([1.0, 2.0, 3.0], columns))


class TestPermutationBasis:
    """A diagonal matrix's eigenbasis is a permuted identity: the identity basis, nothing
    n x n, for a nondecreasing diagonal, and dense unit columns for any other."""

    VALUES = [[3.0, 1.0, 2.0, 2.0, 5.0], [2.0, 2.0, 5.0], [-1.0, 4.0, -1.0, 0.5, 4.0, -3.0],
              [-3.0, -1.0, -1.0, 0.5, 4.0, 4.0]]

    @pytest.mark.parametrize("values", VALUES)
    def test_products_are_bitwise_the_dense_ones(self, values):
        decomp = diagonal_eigh(values)
        assert (decomp.columns is None) == bool(np.all(np.diff(values) >= 0))
        assert "eigenvectors" not in vars(decomp)   # nothing dense built by the products
        rng = np.random.default_rng(len(values))
        n = len(values)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        block = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gathered = [decomp.to_eigenbasis(x), decomp.to_eigenbasis(block), decomp.from_eigenbasis(x),
                    decomp.from_eigenbasis(block), decomp.compress(m),
                    decomp.apply_function(lambda lam: lam ** 3 - 2.0)]
        assert "eigenvectors" not in vars(decomp)
        u = decomp.eigenvectors
        dense = [u.conj().T @ x, u.conj().T @ block, u @ x, u @ block, u.conj().T @ m @ u,
                 (u * (decomp.eigenvalues ** 3 - 2.0)) @ u.conj().T]
        for got, want in zip(gathered, dense):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_decreasing_values_rejected(self):
        with pytest.raises(SpectrumError, match="nondecreasing"):
            SpectralDecomposition([2.0, 1.0, 3.0])

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, 2.0], [], [[1.0, 2.0]],
                                        np.eye(2)])
    def test_nonfinite_or_malformed_diagonal_rejected(self, values):
        with pytest.raises(NotHermitianError):
            diagonal_eigh(values)

    def test_residual_of_a_diagonal_in_linear_time(self):
        # the identity basis of a diagonal H: max|diag(H) - lambda|, no n x n product
        decomp = SpectralDecomposition([1.0, 2.0, 3.0])
        _check_residual(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), decomp)
        with pytest.raises(SpectrumError, match="residual too large"):
            _check_residual(HermitianMatrix(np.diag([1.0, 2.0 + 1e-9, 3.0])), decomp)
        with pytest.raises(SpectrumError, match="residual too large"):
            _check_residual(HermitianMatrix(np.diag([1.0, 3.0, 2.0])), decomp)
        assert "eigenvectors" not in vars(decomp)


class TestRealProducts:
    """A float64 eigenbasis is never upcast: complex vectors go as (re, im) pairs."""

    def test_real_operands_match_complex_products(self):
        h = _real_valued(43)
        decomp = eigh(h)
        u = decomp.columns
        assert u.dtype == np.float64
        uc = u.astype(complex)
        rng = np.random.default_rng(44)
        x = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
        block = rng.normal(size=(h.dim, 2)) + 1j * rng.normal(size=(h.dim, 2))
        tol = 1e-12 * np.linalg.norm(x)
        assert np.max(np.abs(decomp.to_eigenbasis(x) - uc.conj().T @ x)) <= tol
        assert np.max(np.abs(decomp.from_eigenbasis(x) - uc @ x)) <= tol
        assert np.max(np.abs(decomp.to_eigenbasis(block) - uc.conj().T @ block)) \
            <= 1e-12 * np.linalg.norm(block)
        assert np.max(np.abs(decomp.from_eigenbasis(block) - uc @ block)) \
            <= 1e-12 * np.linalg.norm(block)
        powered = decomp.apply_function(lambda lam: lam ** 2)
        gram = decomp.compress(powered)
        assert powered.dtype == gram.dtype == np.float64
        scale = h.norm_max ** 2
        assert np.max(np.abs(powered - (uc * decomp.eigenvalues ** 2) @ uc.conj().T)) \
            <= 1e-12 * scale
        assert np.max(np.abs(gram - np.diag(decomp.eigenvalues ** 2))) <= 1e-11 * scale
        m = rng.normal(size=(h.dim, h.dim)) + 1j * rng.normal(size=(h.dim, h.dim))
        assert np.max(np.abs(decomp.compress(m) - uc.conj().T @ m @ uc)) \
            <= 1e-12 * np.abs(m).sum()

    def test_complex_eigenvectors_keep_complex_products(self):
        decomp = eigh(random_hermitian(np.random.default_rng(45), 12))
        u = decomp.columns
        assert u.dtype == np.complex128 and decomp.eigenvectors is u
        x = np.random.default_rng(46).normal(size=12) + 0j
        np.testing.assert_array_equal(decomp.to_eigenbasis(x), u.conj().T @ x)
        np.testing.assert_array_equal(decomp.from_eigenbasis(x), u @ x)


class TestMatPower:
    def test_diagonal_sqrt(self):
        out = mat_power(HermitianMatrix(np.diag([1.0, 4.0])), 0.5)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-12)

    def test_two_by_two_sqrt_matches_eigendecomposition(self):
        h = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        decomp = eigh(h)
        u = decomp.eigenvectors
        expected = (u * np.array([1.0, np.sqrt(3.0)])) @ u.conj().T
        np.testing.assert_allclose(mat_power(h, 0.5).entries, expected, atol=1e-12)

    def test_power_zero_is_identity(self):
        # r = 0 is not a positive integer: it goes through the eigenbasis of a positive matrix
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        positive = HermitianMatrix(h.entries + (1.0 - eigh(h).eigenvalues[0]) * np.eye(5))
        np.testing.assert_allclose(mat_power(positive, 0.0).entries, np.eye(5), atol=1e-12)
        with pytest.raises(SpectrumError, match="not strictly positive"):
            mat_power(HermitianMatrix(np.diag([-1.0, 2.0])), 0.0)

    def test_power_one_is_input(self):
        h = HermitianMatrix(np.diag([2.0, 7.0]))
        assert mat_power(h, 1.0) is h

    def test_fractional_power_rejects_nonpositive(self):
        with pytest.raises(SpectrumError, match="not strictly positive"):
            mat_power(HermitianMatrix(np.diag([-1.0, 2.0])), 0.5)

    def test_positivity_cutoff_is_relative(self):
        # the one cutoff CLUSTER_RTOL * ||H||_max, as `leftdef.ld_space` decides it: a small
        # positive matrix is positive at any scale, and 1e-3 is zero next to 1e12
        small = HermitianMatrix(1e-9 * np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(mat_power(small, 0.5).entries,
                                   np.sqrt(1e-9 * np.diag([1.0, 2.0, 3.0])), rtol=1e-12, atol=0)
        assert ld_space(SpectralOperator.from_matrix(small), 0.5).r == 0.5
        wide = HermitianMatrix(np.diag([1e-3, 1e12]))
        with pytest.raises(SpectrumError, match=r"1\.0e\+02 = 1e-10 \* \|\|H\|\|_max"):
            mat_power(wide, 0.5)
        with pytest.raises(ShiftError):
            ld_space(SpectralOperator.from_matrix(wide), 0.5)

    def test_integer_power_allows_indefinite(self):
        h = HermitianMatrix(np.diag([-2.0, 3.0]))
        np.testing.assert_allclose(mat_power(h, 2.0).entries, np.diag([4.0, 9.0]), atol=1e-12)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_power_is_the_symmetrized_product_bitwise(self, complex_):
        decomp = eigh(random_hermitian(np.random.default_rng(12), 9, complex_))
        assert decomp.columns.dtype == (np.complex128 if complex_ else np.float64)
        powered = decomp.apply_function(lambda lam: np.power(lam, 3.0))
        got = decomp.power(3).entries
        expected = (powered + powered.conj().T) / 2
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
    def test_power_semigroup(self, r, s):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = HermitianMatrix(m @ m.conj().T + 0.5 * np.eye(6))
        prod = mat_power(h, r).entries @ mat_power(h, s).entries
        together = mat_power(h, r + s).entries
        assert np.max(np.abs(prod - together)) <= 1e-9 * h.norm_max ** (r + s)


def e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def contains(space: Subspace, v) -> bool:
    """v lies in the subspace: its residual off the projector is <= SUBSPACE_TOL * ||v||."""
    return np.linalg.norm(v - space.projector @ v) <= SUBSPACE_TOL * np.linalg.norm(v)


class TestSubspaces:
    def test_intersect_coordinate_planes(self):
        a = Subspace.span(np.column_stack([e(3, 0), e(3, 1)]))
        b = Subspace.span(np.column_stack([e(3, 1), e(3, 2)]))
        inter = subspace_intersect(a, b)
        assert inter.rank == 1
        assert contains(inter, e(3, 1))

    def test_orthocomplement_in_c2(self):
        oc = orthocomplement(Subspace.span(e(2, 0)))
        assert oc.rank == 1
        assert contains(oc, e(2, 1))

    def test_sum_rank_two(self):
        # Gram determinant of {e1, (e1+e2)/sqrt 2} is 1/2 != 0, so the sum has rank 2
        a = Subspace.span(e(2, 0))
        b = Subspace.span(np.array([1.0, 1.0]) / np.sqrt(2))
        assert Subspace.span(np.hstack([a.basis, b.basis]), 2).rank == 2

    def test_ambient_mismatch(self):
        from ldlab.spectral import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            subspace_intersect(Subspace.span(e(2, 0)), Subspace.span(e(3, 0)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 7),
           da=st.integers(0, 4), db=st.integers(0, 4))
    def test_dimension_formula(self, seed, n, da, db):
        rng = np.random.default_rng(seed)
        da, db = min(da, n), min(db, n)
        a = Subspace.span(rng.normal(size=(n, da)) + 1j * rng.normal(size=(n, da)),
                          ambient_dim=n)
        b = Subspace.span(rng.normal(size=(n, db)) + 1j * rng.normal(size=(n, db)),
                          ambient_dim=n)
        a_plus_b = Subspace.span(np.hstack([a.basis, b.basis]), n)
        assert a_plus_b.rank + subspace_intersect(a, b).rank == a.rank + b.rank


def _intersect_by_stacked_nullspace(a: Subspace, b: Subspace) -> Subspace:
    """The former route, kept as an oracle: x = A u = B v for (u, v) in ker [A, -B], the
    kernel decided by `_rank` on the full SVD of the stack; sqrt2 A u is orthonormal."""
    if a.rank == 0 or b.rank == 0:
        return Subspace.zero(a.ambient_dim)
    null = _nullspace(np.hstack([a.basis, -b.basis]))
    return Subspace(a.ambient_dim, np.sqrt(2.0) * (a.basis @ null[: a.rank]))


def _planted_pair(seed: int, m: int, planted: int):
    """Random subspaces a, b of C^m whose intersection is a random `planted`-dim subspace:
    each adds random columns, few enough that generic columns meet in {0} only."""
    rng = np.random.default_rng(seed)
    gauss = lambda k: rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    common = gauss(planted)
    extra_a = int(rng.integers(0, (m - planted) // 2 + 1))
    extra_b = int(rng.integers(0, m - planted - extra_a + 1))
    a = Subspace.span(np.hstack([common, gauss(extra_a)]), m)
    b = Subspace.span(np.hstack([common, gauss(extra_b)]), m)
    return a, b, Subspace.span(common, m)


class TestPrincipalAngleIntersection:
    """subspace_intersect (sines of the principal angles) against the stacked [A, -B]
    nullspace route it replaced, on seeded pairs in C^2n and C^3n."""

    @pytest.mark.parametrize("factor", [2, 3])
    @pytest.mark.parametrize("n", [5, 8, 11, 16])
    @pytest.mark.parametrize("planted", [0, 1, 2, 3])
    def test_matches_stacked_nullspace_route(self, factor, n, planted):
        a, b, common = _planted_pair(1000 * factor + 10 * n + planted, factor * n, planted)
        inter = subspace_intersect(a, b)
        assert inter.rank == planted
        assert subspaces_equal(inter, common)
        assert subspaces_equal(inter, _intersect_by_stacked_nullspace(a, b))
        assert subspaces_equal(inter, subspace_intersect(b, a))
        if planted:
            assert _ortho_defect(inter.basis) <= 1e-13

    @pytest.mark.parametrize("angle, meets", [(1e-6, False), (1e-13, True)])
    @pytest.mark.parametrize("m", [10, 27, 48])
    def test_planted_angle(self, angle, meets, m):
        rng = np.random.default_rng(m)
        q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        ka, kb = m // 3, m // 4
        # b holds cos(angle) q0 + sin(angle) q_last: at `angle` from q0 in a, the rest of b
        # far from a
        tilted = np.cos(angle) * q[:, 0] + np.sin(angle) * q[:, -1]
        mixed = q[:, ka:m - 1] @ (rng.normal(size=(m - 1 - ka, kb - 1))
                                   + 1j * rng.normal(size=(m - 1 - ka, kb - 1)))
        a = Subspace(m, q[:, :ka])
        b = Subspace.span(np.column_stack([tilted, mixed]), m)
        for first, second in ((a, b), (b, a)):
            inter = subspace_intersect(first, second)
            assert inter.rank == int(meets)
            assert subspaces_equal(inter, _intersect_by_stacked_nullspace(first, second))
        if meets:
            assert subspaces_equal(inter, Subspace(m, q[:, :1]))
            assert _ortho_defect(inter.basis) <= 1e-13


class TestRelations:
    def test_adjoint_of_hermitian_graph_is_itself(self):
        t = LinearRelation.from_matrix(np.diag([1.0, 2.0]))
        assert subspaces_equal(t.adjoint.graph, t.graph)
        assert rel_is_selfadjoint(t)

    def test_adjoint_of_multivalued_is_itself(self):
        t = LinearRelation.multivalued(3)
        assert subspaces_equal(t.adjoint.graph, t.graph)
        assert rel_is_selfadjoint(t)

    def test_graph_of_widely_scaled_diagonal_is_selfadjoint(self):
        # [I; A] has full column rank at any scale, so QR keeps both dimensions
        t = LinearRelation.from_matrix(np.diag([1.0, 1e11]))
        assert t.dim == 2
        assert rel_is_selfadjoint(t)

    def test_adjoint_of_nilpotent_is_transpose(self):
        t = LinearRelation.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        expected = LinearRelation.from_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert subspaces_equal(t.adjoint.graph, expected.graph)
        assert not rel_is_selfadjoint(t)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5), d=st.integers(0, 6))
    def test_adjoint_involution(self, seed, n, d):
        rng = np.random.default_rng(seed)
        d = min(d, 2 * n)
        g = Subspace.span(rng.normal(size=(2 * n, d)) + 1j * rng.normal(size=(2 * n, d)),
                          ambient_dim=2 * n)
        t = LinearRelation(g)
        assert subspaces_equal(t.adjoint.adjoint.graph, t.graph)

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        composed = rel_compose(LinearRelation.from_matrix(a), LinearRelation.from_matrix(b))
        assert subspaces_equal(composed.graph, LinearRelation.from_matrix(a @ b).graph)

    def test_compose_square(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        t = LinearRelation.from_matrix(a)
        assert subspaces_equal(rel_compose(t, t).graph,
                               LinearRelation.from_matrix(a @ a).graph)

    def test_compose_multivalued_after_identity(self):
        # ({0} x H) o graph(I): every f maps to g = 0 under S = graph(I)? No --
        # (f, g) in graph(I) means g = f, then (f, h) needs (f, h) in {0} x H,
        # so f = 0 and h arbitrary: the composition is {0} x H again.
        n = 3
        mult = LinearRelation.multivalued(n)
        ident = LinearRelation.from_matrix(np.eye(n))
        out = rel_compose(mult, ident)
        assert subspaces_equal(out.graph, mult.graph)

    def test_compose_identity_neutral(self):
        rng = np.random.default_rng(9)
        g = Subspace.span(rng.normal(size=(6, 2)), ambient_dim=6)
        t = LinearRelation(g)
        ident = LinearRelation.from_matrix(np.eye(3))
        assert subspaces_equal(rel_compose(ident, t).graph, t.graph)
        assert subspaces_equal(rel_compose(t, ident).graph, t.graph)

    def test_mul_part_and_domain(self):
        # dim mul t = dim t - dim dom t
        t = LinearRelation.multivalued(2)
        assert (t.dim, t.domain().rank) == (2, 0)
        g = LinearRelation.from_matrix(np.diag([1.0, 2.0]))
        assert (g.dim, g.domain().rank) == (2, 2)


class TestOneCutoff:
    """The f-block split and the principal-angle intersection decide their rank through
    `_rank`, each with its own reference scale."""

    @staticmethod
    def _record_scales(monkeypatch) -> list:
        scales, real = [], spectral._rank

        def recording(s, scale=None):
            scales.append(scale)
            return real(s, scale)
        monkeypatch.setattr(spectral, "_rank", recording)
        return scales

    def test_f_svd_counts_relative_to_one(self, monkeypatch):
        t = LinearRelation(Subspace(4, np.eye(4)[:, [0, 3]]))    # f block diag(1, 0)
        scales = self._record_scales(monkeypatch)
        assert t.domain().rank == 1
        assert scales == [1.0]

    def test_intersection_keeps_sines_below_twice_rank_rtol(self, monkeypatch):
        a, b = Subspace(4, np.eye(4)[:, :2]), Subspace(4, np.eye(4)[:, 1:3])
        scales = self._record_scales(monkeypatch)
        assert subspace_intersect(a, b).rank == 1
        assert scales == [2.0]


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        path = tmp_path / "matrix.csv"
        np.savetxt(path, m.view(float), delimiter=",", fmt="%.17g")   # (re, im) pairs, exact
        np.testing.assert_array_equal(load_matrix_csv(path), m)

    def test_rejects_odd_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="odd column count"):
            load_matrix_csv(path)
