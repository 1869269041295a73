import json
import tracemalloc

import numpy as np
import pytest

from ldlab import scenarios
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
from ldlab.spectral import (
    DimensionMismatchError,
    HermitianMatrix,
    SpectralDecomposition,
    SpectrumError,
    _check_residual,
    inner,
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
        with pytest.raises(ShiftError):
            SpectralOperator.from_diag([1.0, 2.0], shift=1.0)

    def test_one_shift_rule_and_message(self):
        # the operator, the closed form and the scale's equivalence check share one rule
        from ldlab.hscale import equivalence_check
        op = SpectralOperator.from_diag([1.0, 2.0])
        message = "shift 1.0 must lie strictly below the lower bound 1.0"
        for build in (lambda: SpectralOperator.from_diag([1.0, 2.0], shift=1.0),
                      lambda: ClosedFormR(1, 1.0, op),
                      lambda: equivalence_check(op, 1.0, [np.ones(2)], gamma=1.0)):
            with pytest.raises(ShiftError, match=message):
                build()

    def test_semibounded_on_eigenbasis(self):
        op = seeded_positive_operator(0, n=8)
        lam = op.eigenvalues
        assert np.all(lam >= op.lower_bound - 1e-12 * np.max(np.abs(lam)))


class TestFromDiag:
    """from_diag builds the exact decomposition; from_matrix is the LAPACK route."""

    @pytest.mark.parametrize("n", [10, 401, 1000])
    def test_bitwise_equal_to_lapack_route(self, n):
        for values in (np.arange(n, dtype=float) + 1.0, np.arange(1, n + 1, dtype=float) ** 2):
            exact = SpectralOperator.from_diag(values)
            dense = SpectralOperator.from_matrix(HermitianMatrix.diag(values))
            np.testing.assert_array_equal(exact.eigenvalues, dense.eigenvalues)
            np.testing.assert_array_equal(exact.decomp.eigenvectors, dense.decomp.eigenvectors)
            assert (exact.lower_bound, exact.shift) == (dense.lower_bound, dense.shift)

    @pytest.mark.parametrize("values", [[3.0, 1.0, 2.0, 2.0, 5.0], [2.0, 2.0, 5.0]])
    def test_unsorted_or_degenerate_values(self, values):
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
        SpectralOperator.from_diag([3.0, 1.0, 2.0, 2.0, 5.0])
        SpectralOperator.from_diag(np.arange(401, dtype=float) + 1.0)
        assert calls == []
        SpectralOperator.from_matrix(np.diag([2.0, 2.0, 5.0]))   # the wrappers are in place
        assert calls == ["eigh", "qr"]


class TestLazyDenseMatrix:
    """A from_diag operator holds O(n) data until a consumer reads its dense matrix."""

    VALUES = [3.0, 1.0, 2.0, 2.0, 6.0, 0.5]

    def test_holds_no_dense_array(self):
        op = SpectralOperator.from_diag(self.VALUES)
        assert op.dense is None and op.dim == len(self.VALUES)
        assert op.norm_max == 6.0 == HermitianMatrix.diag(self.VALUES).norm_max
        rng = np.random.default_rng(3)
        x = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        op.apply_power(2.0, x)
        ClosedFormR(1, op.shift, op)(x, x)
        assert "matrix" not in vars(op) and "eigenvectors" not in vars(op.decomp)

    def test_built_and_validated_when_ld_operator_reads_it(self, monkeypatch):
        import ldlab.spectral as spectral
        validated = []
        check = spectral.HermitianMatrix.__post_init__

        def counting(self):
            check(self)
            validated.append(self.entries.shape)
        monkeypatch.setattr(spectral.HermitianMatrix, "__post_init__", counting)
        op = SpectralOperator.from_diag(self.VALUES)
        assert validated == []
        action = ld_operator(op, 2.0).action
        assert validated == [(6, 6)]
        assert action is op.matrix and op.matrix is op.matrix      # built once, then cached
        np.testing.assert_array_equal(action.entries, np.diag(self.VALUES))
        assert action.entries.dtype == np.float64 and action.norm_max == op.norm_max

    @pytest.mark.parametrize("fault", ["permutation", "values", "shift"])
    def test_each_linear_time_check_raises(self, monkeypatch, fault):
        import ldlab.spectral as spectral
        values = np.array(self.VALUES)
        if fault == "permutation":
            monkeypatch.setattr(spectral.np, "argsort", lambda a, kind: np.zeros(len(a), int))
            with pytest.raises(SpectrumError, match="not orthonormal"):
                SpectralOperator.from_diag(values)
        elif fault == "values":
            monkeypatch.setattr(spectral.np, "argsort", lambda a, kind: np.arange(len(a)))
            with pytest.raises(SpectrumError, match="nondecreasing"):
                SpectralOperator.from_diag(values)
        else:
            with pytest.raises(ShiftError):
                SpectralOperator.from_diag(values, shift=0.5)


class TestEigenbasisProducts:
    """Products through the stored eigenbasis give bitwise the values of the u.conj().T
    expression."""

    @pytest.mark.parametrize("make", [lambda: seeded_positive_operator(20, n=9),
                                      lambda: SpectralOperator.from_diag([4.0, 1.0, 3.0, 2.0])])
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


class TestLdSpace:
    def test_gram_r1(self):
        op = SpectralOperator.from_diag([1.0, 4.0])
        np.testing.assert_allclose(ld_space(op, 1.0).gram.entries, np.diag([1.0, 4.0]),
                                   atol=1e-12)

    def test_gram_r2(self):
        op = SpectralOperator.from_diag([1.0, 4.0])
        np.testing.assert_allclose(ld_space(op, 2.0).gram.entries, np.diag([1.0, 16.0]),
                                   atol=1e-12)

    def test_gram_fractional_scalar(self):
        op = SpectralOperator.from_diag([2.0])
        np.testing.assert_allclose(ld_space(op, 0.5).gram.entries, [[np.sqrt(2.0)]],
                                   atol=1e-14)

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
        op = seeded_positive_operator(1, n=10)
        space = ld_space(op, 1.5)
        rng = np.random.default_rng(2)
        x = rng.normal(size=10) + 1j * rng.normal(size=10)
        y = rng.normal(size=10) + 1j * rng.normal(size=10)
        direct = complex(y.conj() @ space.gram.entries @ x)
        assert ld_inner(space, x, y) == pytest.approx(direct, rel=1e-10)

    def test_dimension_mismatch(self):
        op = SpectralOperator.from_diag([1.0, 4.0])
        with pytest.raises(DimensionMismatchError):
            ld_inner(ld_space(op, 1.0), np.ones(3), np.ones(2))


class TestLdOperator:
    def test_domain_tags(self):
        op = SpectralOperator.from_diag([1.0, 2.0])
        assert ld_operator(op, 1.0).domain_tag == "D(A^{3/2})"
        assert ld_operator(op, 2.0).domain_tag == "D(A^2)"

    def test_action_and_spectrum_unchanged(self):
        op = seeded_positive_operator(3, n=6)
        ld_op = ld_operator(op, 2.0)
        np.testing.assert_array_equal(ld_op.action.entries, op.matrix.entries)
        np.testing.assert_allclose(ld_op.spectrum, op.eigenvalues, atol=1e-12)


class TestClosedForm:
    def test_scalar_example(self):
        # A = diag(2), gamma = 1, r = 2, f = (1): (2-1)^2 + 1 = 2
        op = SpectralOperator.from_diag([2.0], shift=1.0)
        assert ClosedFormR(2, op.shift, op)([1.0], [1.0]) == pytest.approx(2.0, abs=1e-14)

    def test_r1_telescopes_to_plain_form(self):
        op = seeded_positive_operator(4, n=7)
        rng = np.random.default_rng(5)
        f = rng.normal(size=7) + 1j * rng.normal(size=7)
        expected = complex(f.conj() @ op.matrix.entries @ f)
        assert ClosedFormR(1, op.shift, op)(f, f) == pytest.approx(expected, rel=1e-12)

    def test_diag_2_5_gamma0(self):
        op = SpectralOperator.from_diag([2.0, 5.0], shift=0.0)
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
        h = HermitianMatrix.diag(values)
        exact = SpectralOperator.from_diag(values)
        lam = values.copy()
        lam[3] = np.nextafter(np.nextafter(lam[3], np.inf), np.inf)
        decomp = SpectralDecomposition(lam, exact.decomp.eigenvectors)
        _check_residual(h, decomp)
        op = SpectralOperator(h, decomp, exact.lower_bound, exact.shift)
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


def jacobi_neumann_plus_one():
    # Jacobi(1,1) neumann-type has lambda_0 = 0; A + I is positive, and the shift
    # -0.5 makes the closed forms' gamma nonzero
    spec = {"kind": "sl", "coeffs": {"name": "jacobi", "alpha": 1.0, "beta": 1.0},
            "N": 12, "bc": "neumann-type"}
    a = build_operator(spec).operator.matrix.entries
    return SpectralOperator.from_matrix(a + np.eye(a.shape[0]), shift=-0.5)


REFERENCE_OPERATORS = {
    "from_diag": lambda: SpectralOperator.from_diag(np.arange(9, dtype=float) + 1.0),
    "flat-sl": lambda: build_operator(
        {"kind": "sl", "coeffs": "flat", "N": 16, "bc": "dirichlet"}).operator,
    "jacobi-neumann": jacobi_neumann_plus_one,
}


class TestOneSampleStream:
    """Every leftdef-verify row and table comes from the suite's one generator."""

    @pytest.mark.parametrize("samples", [1, 2, 7, 25])
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("kind", sorted(REFERENCE_OPERATORS))
    def test_closed_form_bitwise_equal_to_reference(self, kind, r, samples):
        op = REFERENCE_OPERATORS[kind]()
        seed = 17
        report = verify_ld_properties(op, r, samples, seed)
        worst, cells = reference_closed_form(op, r, samples, seed)
        rows = {row.name: row for row in report.rows}
        assert rows["closed-form-lower-bound"].residual == worst
        assert rows["closed-form-lower-bound"].inputs == f"r={int(r)}, gamma={op.shift:g}"
        ordering = [t for t in report.tables if t.name == "form_ordering"]
        assert len(ordering) == 1 and ordering[0].rows == (cells,)

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
    def test_three_apply_power_calls_per_sample(self, monkeypatch, r):
        calls = []
        apply_power = SpectralOperator.apply_power

        def counting(self, power, x):
            calls.append(power)
            return apply_power(self, power, x)
        monkeypatch.setattr(SpectralOperator, "apply_power", counting)
        verify_ld_properties(seeded_positive_operator(4, n=10), r, 7, seed=3)
        assert calls == [r / 2, r / 2, r] * 7

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
        op = build_operator(spec).operator
        assert op.shift == op.lower_bound - 1.0

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_cutoff_scales_with_matrix(self, scale):
        assert SpectralOperator.from_diag([1e-13 * scale, scale]).shift < 0.0
        assert SpectralOperator.from_diag([1e-6 * scale, scale]).shift == 0.0

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_positivity_uses_the_same_cutoff(self, scale):
        with pytest.raises(ShiftError, match="not positive"):
            SpectralOperator.from_diag([1e-13 * scale, scale], shift=-1.0).require_positive()
        SpectralOperator.from_diag([1e-6 * scale, scale]).require_positive()

    def test_rounding_level_bound_is_a_scenario_error(self):
        # Jacobi(1, 2) neumann-type has lambda_0 = 0; rounding leaves k = O(1e-14) > 0,
        # which the eigen-Gram check would divide by
        spec = {"kind": "sl", "coeffs": {"name": "jacobi", "alpha": 1.0, "beta": 2},
                "N": 20, "bc": "neumann-type"}
        k = build_operator(spec).operator.lower_bound
        assert 0.0 < k < 1e-12
        raw = {"operatorSpec": spec, "experiment": "leftdef-verify",
               "params": {"samples": 5}, "seed": 5}
        report = run_scenario(parse_config(json.dumps(raw)))
        assert [(r.name, r.status) for r in report.rows] == [("scenario-error", "FAIL")]
        assert report.rows[0].inputs.startswith(f"ShiftError: operator lower bound k = {k} ")
