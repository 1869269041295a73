import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldlab.hscale import (
    GrowthModel,
    _log_power_sum,
    _weights,
    critical_index,
    duality_pair,
    equivalence_check,
    hs_norm,
    isometry_check,
    membership,
    membership_table,
    partial_sum_divergent,
)
from ldlab.leftdef import SpectralOperator
from ldlab.spectral import DimensionMismatchError


def e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestHsNorm:
    def test_diagonal_evaluation(self):
        # |A| + I = diag(2, 4); s = 2: ||e1||_2 = 2
        op = SpectralOperator.from_diag([1.0, 3.0])
        assert hs_norm(op, 2.0, e(2, 0)) == pytest.approx(2.0, abs=1e-14)

    def test_s_zero_is_plain_norm(self):
        op = SpectralOperator.from_diag([1.0, 3.0])
        v = np.array([3.0, 4.0])
        assert hs_norm(op, 0.0, v) == pytest.approx(5.0, abs=1e-14)

    def test_negative_index_inverse_weight(self):
        op = SpectralOperator.from_diag([1.0, 3.0])
        assert hs_norm(op, -2.0, e(2, 1)) == pytest.approx(0.25, abs=1e-14)

    def test_nesting_monotone_in_s(self):
        op = SpectralOperator.from_diag([2.0, 5.0, 11.0])
        rng = np.random.default_rng(0)
        grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        for _ in range(20):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            norms = [hs_norm(op, s, v) for s in grid]
            assert all(a <= b + 1e-12 * b for a, b in zip(norms, norms[1:]))


class TestHsNormRange:
    """Norms whose entries, centre factor or value leave the float range on the way."""

    op = GrowthModel(2, 0.5).operator(50)
    e0 = np.eye(50)[:, 0]

    def test_entries_below_the_square_underflow(self):
        # |1e-200|^2 underflows to 0; the column is nonzero and ||e_0||_200 = 2^100
        assert hs_norm(self.op, 200.0, 1e-200 * self.e0) == pytest.approx(2.0 ** 100 * 1e-200,
                                                                          rel=1e-12)
        norms = hs_norm(self.op, 200.0, np.column_stack([self.e0, 1e-200 * self.e0]))
        np.testing.assert_allclose(norms, [2.0 ** 100, 2.0 ** 100 * 1e-200], rtol=1e-12)

    def test_centre_factor_past_the_float_range(self):
        # s = 380: exp(190 m) overflows a float (m = log(2 * 2501) / 2), the norm does not
        assert hs_norm(self.op, 380.0, self.e0) == pytest.approx(2.0 ** 190, rel=1e-12)
        assert hs_norm(self.op, 380.0, 1e-200 * self.e0) == pytest.approx(2.0 ** 190 * 1e-200,
                                                                          rel=1e-12)

    @pytest.mark.parametrize("s", [190.0, 380.0])
    def test_norm_past_the_float_range_raises(self, s):
        # ||e_49||_s = 2501^{s/2} > 1e322
        with pytest.raises(ValueError, match=f"scale norm at s={s:g} overflows a float"):
            hs_norm(self.op, s, np.eye(50)[:, 49])

    @pytest.mark.parametrize("s", [-3.0, 0.5, 2.0, 150.0])
    def test_bitwise_the_centred_product_where_the_factor_is_finite(self, s):
        rng = np.random.default_rng(12)
        block = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        w, shift = _weights(self.op, s / 2)
        top = float(np.max(w))
        squared = np.square(block.real) + np.square(block.imag)
        reference = np.sqrt(np.square(w / top) @ squared) * top * math.exp(shift)
        np.testing.assert_array_equal(hs_norm(self.op, s, block), reference)


class TestDualityPair:
    def test_weights_cancel(self):
        op = SpectralOperator.from_diag([1.0, 3.0])
        ones = np.ones(2)
        for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
            assert duality_pair(op, s, ones, ones) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonality(self):
        op = SpectralOperator.from_diag([1.0, 3.0])
        assert duality_pair(op, 1.0, e(2, 0), e(2, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_reduction_to_plain_inner_product(self):
        op = SpectralOperator.from_diag(np.arange(1.0, 11.0))
        rng = np.random.default_rng(1)
        for s in (-1.5, 0.7, 2.0):
            x = rng.normal(size=10) + 1j * rng.normal(size=10)
            y = rng.normal(size=10) + 1j * rng.normal(size=10)
            plain = complex(np.vdot(y, x))
            assert duality_pair(op, s, x, y) == pytest.approx(plain, rel=1e-12)


class TestDualityPairBlock:
    """Blocks pair column j with column j; every pairing agrees with the vector call's to
    rounding."""

    def setup_method(self):
        self.op = GrowthModel(2.0, 0.5).operator(60)
        rng = np.random.default_rng(12)
        self.phi = rng.normal(size=(60, 5)) + 1j * rng.normal(size=(60, 5))
        self.psi = rng.normal(size=(60, 5)) + 1j * rng.normal(size=(60, 5))

    @pytest.mark.parametrize("s", [-2.0, 0.0, 1.5, 200.0])
    def test_block_of_one_is_the_vector_call(self, s):
        x, y = self.phi[:, 3], self.psi[:, 1]
        pairs = duality_pair(self.op, s, x[:, None], y[:, None])
        assert pairs.shape == (1,) and pairs[0] == duality_pair(self.op, s, x, y)

    @pytest.mark.parametrize("s", [-2.0, 0.7, 3.0])
    def test_block_is_the_vdot_of_each_weighted_pair(self, s):
        # strided columns (a transposed row-major array) as well as contiguous ones; each
        # pairing within 4 n eps of the product of the weighted norms (Higham's gamma_n)
        rows = np.ascontiguousarray(self.psi.T)
        left, right = _weights(self.op, -s / 2)[0], _weights(self.op, s / 2)[0]
        pairs = duality_pair(self.op, s, self.phi, rows.T)
        assert pairs.shape == (5,)
        tol = 4 * 60 * np.finfo(float).eps
        for pair, x, y in zip(pairs, self.phi.T, rows):
            scale = np.linalg.norm(left * x) * np.linalg.norm(right * y)
            assert abs(pair - np.vdot(right * y, left * x)) <= tol * scale

    @pytest.mark.parametrize("shapes", [((60, 5), (60, 4)), ((60,), (60, 1)), ((59, 5), (59, 5))])
    def test_mismatched_blocks_raise(self, shapes):
        with pytest.raises(DimensionMismatchError):
            duality_pair(self.op, 1.0, np.ones(shapes[0]), np.ones(shapes[1]))


class TestIsometry:
    def test_t_zero_residual_zero(self):
        op = SpectralOperator.from_diag([1.0, 3.0])
        assert isometry_check(op, 1.5, 0.0, np.array([1.0, 2.0])) == 0.0

    def test_scalar_case(self):
        op = SpectralOperator.from_diag([1.0])
        assert isometry_check(op, 2.0, 2.0, np.array([1.0])) <= 1e-14

    def test_seeded_dim10_grid(self):
        op = SpectralOperator.from_diag(np.arange(1.0, 11.0) ** 1.3)
        rng = np.random.default_rng(2)
        phi = rng.normal(size=10) + 1j * rng.normal(size=10)
        assert isometry_check(op, 1.5, 0.5, phi) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1000),
           s=st.floats(-3, 3, allow_nan=False),
           t=st.floats(-3, 3, allow_nan=False))
    def test_residual_bounded_on_grid(self, seed, s, t):
        op = SpectralOperator.from_diag([1.0, 2.0, 6.0, 13.0])
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert isometry_check(op, s, t, phi) <= 1e-10


class TestIsometryBlock:
    """A vector is a block of one; a block's residual is the worst over its columns."""

    def setup_method(self):
        self.op = GrowthModel(2.0, 0.5).operator(60)
        rng = np.random.default_rng(11)
        self.block = rng.normal(size=(60, 7)) + 1j * rng.normal(size=(60, 7))

    @pytest.mark.parametrize("s, t", [(1.5, 0.5), (-2.0, 1.0), (0.7, -1.3)])
    def test_block_of_one_is_the_vector_call(self, s, t):
        v = self.block[:, 2]
        assert isometry_check(self.op, s, t, v[:, None]) == isometry_check(self.op, s, t, v)
        assert hs_norm(self.op, s, v[:, None])[0] == hs_norm(self.op, s, v)

    @pytest.mark.parametrize("s, t", [(1.5, 0.5), (-2.0, 1.0), (0.7, -1.3), (3.0, 3.0)])
    def test_block_agrees_with_per_vector_calls(self, s, t):
        norms = hs_norm(self.op, s, self.block)
        per_vector = [hs_norm(self.op, s, v) for v in self.block.T]
        np.testing.assert_allclose(norms, per_vector, rtol=1e-13, atol=0)
        # the residual is relative already: column norms 1e-13 apart move it by about 1e-13
        worst = max(isometry_check(self.op, s, t, v) for v in self.block.T)
        assert abs(isometry_check(self.op, s, t, self.block) - worst) <= 1e-13

    def test_t_zero_residual_exactly_zero(self):
        for s in (-1.0, 0.0, 2.5):
            assert isometry_check(self.op, s, 0.0, self.block) == 0.0

    def test_zero_columns_skipped(self):
        block = self.block.copy()
        block[:, [0, 4]] = 0.0
        # a zero column read would be 0/0 = NaN
        kept = isometry_check(self.op, 1.5, 0.5, block[:, [1, 2, 3, 5, 6]])
        assert isometry_check(self.op, 1.5, 0.5, block) == pytest.approx(kept, rel=0, abs=1e-13)
        assert isometry_check(self.op, 1.5, 0.5, np.zeros((60, 3))) == 0.0

    def test_underflowed_column_gets_its_value(self):
        # s = 200 on diag-growth p=2, N=50: w_{100}^2 spans e^1426, so e_0's squared weight
        # underflows against the largest; the column is taken again against its own largest
        # weighted term, and ||e_0||_200 = (1 + 1)^100
        op = GrowthModel(2, 0.5).operator(50)
        e0 = np.eye(50)[:, [0]]
        assert hs_norm(op, 200.0, e0[:, 0]) == pytest.approx(2.0 ** 100, rel=1e-12)
        assert hs_norm(op, 200.0, np.hstack([e0, 3 * e0]))[1] == pytest.approx(3 * 2.0 ** 100,
                                                                               rel=1e-12)
        assert isometry_check(op, 200.0, 0.5, np.hstack([self.block[:50, :2], e0])) <= 1e-10
        assert isometry_check(op, 200.0, 0.5, self.block[:50, :2]) <= 1e-10

    @pytest.mark.parametrize("s, size", [(380.0, 1e-160), (200.0, 1e-200)])
    def test_column_whose_weighted_terms_underflow_gets_its_value(self, s, size):
        # s = 380: w_{190}(e_0) is about e^-677, so every weighted term of 1e-160 e_0
        # underflows; at s = 200, |1e-200|^2 itself underflows to 0. Taken from |c| over its
        # largest entry, the column is checked as e_0 is: the residual is homogeneous in c
        op = GrowthModel(2, 0.5).operator(50)
        e0 = np.eye(50)[:, 0]
        residual = isometry_check(op, s, 0.5, e0)
        assert 0.0 < residual <= 1e-10
        assert isometry_check(op, s, 0.5, size * e0) == residual
        block = np.column_stack([self.block[:50, :2], size * e0])
        assert isometry_check(op, s, 0.5, block) == max(
            isometry_check(op, s, 0.5, self.block[:50, :2]), residual)

    def test_nan_column_mid_block_is_nan(self):
        block = self.block.copy()
        block[5, 3] = np.nan
        assert np.isnan(isometry_check(self.op, 1.5, 0.5, block))

    @pytest.mark.parametrize("shape", [(59, 3), (61, 1), (60, 2, 2), (59,)])
    def test_wrong_row_count_raises(self, shape):
        with pytest.raises(DimensionMismatchError, match="operator dimension is 60"):
            isometry_check(self.op, 1.0, 0.5, np.ones(shape))
        with pytest.raises(DimensionMismatchError):
            hs_norm(self.op, 1.0, np.ones(shape))


class TestCriticalIndex:
    def test_harmonic_boundary(self):
        model = GrowthModel(1.0, -1.0)
        assert critical_index(model) == pytest.approx(1.0)
        assert not membership(model, 1.0)    # harmonic divergence at s = s*
        assert membership(model, 0.99)

    def test_p2_q0(self):
        assert critical_index(GrowthModel(2.0, 0.0)) == pytest.approx(-0.5)

    def test_p1_q_minus_three_halves(self):
        assert critical_index(GrowthModel(1.0, -1.5)) == pytest.approx(2.0)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            GrowthModel(0.0, 1.0)


class TestPartialSumClassifier:
    @pytest.mark.parametrize("p,q", [(1.0, -1.0), (2.0, 0.0), (1.0, -1.5)])
    def test_agreement_off_the_boundary(self, p, q):
        model = GrowthModel(p, q)
        s_star = critical_index(model)
        for offset in (-1.5, -0.5, -0.15, -0.06, 0.06, 0.15, 0.5, 1.5):
            s = s_star + offset
            assert membership(model, s) == (not partial_sum_divergent(model, s))

    @pytest.mark.parametrize("terms", [1, 0, -3])
    def test_rejects_fewer_than_two_terms(self, terms):
        # the cutoff 1 + 1/(4 log10 N) needs log10 N > 0
        model = GrowthModel(2.0, 0.5)
        with pytest.raises(ValueError, match=f"got {terms}"):
            partial_sum_divergent(model, -3.0, terms=terms)
        with pytest.raises(ValueError, match=f"got {terms}"):
            membership_table(model, [-3.0, 0.0], terms)

    def test_steep_growth_sums_do_not_overflow(self):
        # p = 50: n^74 at s* + 1.5 passes the float range from n = 14643 on, so the sums of
        # plain floats read inf / inf = NaN and the verdict "member"; in logs both are finite
        model = GrowthModel(50.0, 0.0)
        s_star = critical_index(model)
        assert partial_sum_divergent(model, s_star + 1.5)
        assert partial_sum_divergent(model, s_star + 1.5, terms=100)
        rows = membership_table(model, [s_star + d for d in (-1.5, -0.06, 0.06, 0.5, 1.5)])
        assert [row[5] for row in rows] == [row[4] for row in rows]

    def test_membership_table_columns(self):
        model = GrowthModel(1.0, -1.0)
        rows = membership_table(model, [0.0, 2.0])
        assert rows[0][:4] == (1.0, -1.0, 0.0, 1.0)
        assert rows[0][4] == "member" and rows[1][4] == "excluded"


def reference_partial_sums(model, s, terms):
    """S_N and S_2N of sum n^{ps+2q} from one array of all 2N powers (inf past the float range)."""
    with np.errstate(over="ignore"):
        powers = np.arange(1, 2 * terms + 1, dtype=float) ** (model.p * s + 2 * model.q)
        return float(np.sum(powers[:terms])), float(np.sum(powers))


class TestClosedFormPartialSums:
    """The partial sums in closed form and in logs, checked against the one-array sums; every
    grid point's verdict is the one-point one."""

    GRID = [(p, q) for p in (0.5, 1.0, 2.0, 3.0) for q in (-1.5, -1.0, 0.0, 0.5)]
    OFFSETS = (-1.5, -0.5, -0.15, -0.06, 0.06, 0.15, 0.5, 1.5)

    @staticmethod
    def assert_sums_match(model, s_values, terms):
        for s in s_values:
            for n, want in zip((terms, 2 * terms), reference_partial_sums(model, s, terms)):
                got = _log_power_sum(model.p * s + 2 * model.q, n)
                assert math.isfinite(got)
                if math.isfinite(want):   # relative 1e-12 of the sum is 1e-12 in its log
                    assert got == pytest.approx(math.log(want), rel=0, abs=1e-12)

    @pytest.mark.parametrize("terms", [1000, 100_003])
    def test_sums_match_one_array_reference(self, terms):
        for p, q in self.GRID[::3]:
            model = GrowthModel(p, q)
            self.assert_sums_match(model, [critical_index(model) + d for d in self.OFFSETS], terms)

    @settings(max_examples=80, deadline=None)
    @given(p=st.floats(0.25, 50.0), q=st.sampled_from([-0.5, 0.0]) | st.floats(-2.0, 2.0),
           offset=st.sampled_from(OFFSETS) | st.none(), terms=st.integers(2, 10 ** 5))
    @example(p=2.0, q=-0.5, offset=None, terms=1000)     # e = -1: the harmonic number H_N
    @example(p=2.0, q=0.0, offset=None, terms=100_003)   # e = 0: S_N = N
    @example(p=50.0, q=0.0, offset=1.5, terms=60)        # e = 74: 2N below the head of 148
    @example(p=50.0, q=0.0, offset=1.5, terms=100)       # N below the head, 2N past it
    @example(p=50.0, q=0.0, offset=1.5, terms=10_000)    # the reference S_2N is inf
    def test_sums_match_one_array_reference_anywhere(self, p, q, offset, terms):
        # s = s* + offset; offset None takes s = 0, where e = 2q exactly (-1 or 0 at q = -1/2, 0)
        model = GrowthModel(p, q)
        self.assert_sums_match(model, [0.0 if offset is None else critical_index(model) + offset],
                               terms)

    def test_exact_sums_at_e_minus_one_and_zero(self):
        # S_N = N at e = 0 and the harmonic number H_N at e = -1
        for n in (10 ** 6, 2 * 10 ** 6):
            assert _log_power_sum(0.0, n) == pytest.approx(math.log(n), rel=0, abs=1e-14)
            harmonic = math.fsum(1.0 / np.arange(n, 0, -1, dtype=float))
            assert _log_power_sum(-1.0, n) == pytest.approx(math.log(harmonic), rel=0, abs=1e-14)

    def test_analytic_verdicts_at_1e15_terms(self):
        # the cost does not grow with N: 10^15 terms are as quick as 10^6
        for p, q in self.GRID:
            model = GrowthModel(p, q)
            rows = membership_table(model, [critical_index(model) + d for d in self.OFFSETS],
                                    10 ** 15)
            assert [row[5] for row in rows] == [row[4] for row in rows]

    def test_table_verdicts_equal_one_point_classifier(self):
        terms = 100_003
        for p, q in self.GRID:
            model = GrowthModel(p, q)
            s_values = [critical_index(model) + d for d in self.OFFSETS]
            rows = membership_table(model, s_values, terms)
            one_point = ["excluded" if partial_sum_divergent(model, s, terms) else "member"
                         for s in s_values]
            assert [row[5] for row in rows] == one_point

    def test_scale_run_allocates_nothing_of_n_by_n_size(self):
        # the smallest n x n array, float64, would take 8 n^2 bytes; allow an eighth of it
        n = 2000
        rng = np.random.default_rng(7)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        model = GrowthModel(2, 0.5)
        s_values = [critical_index(model) + d for d in self.OFFSETS]
        tracemalloc.start()
        try:
            op = model.operator(n)
            hs_norm(op, 1.0, v)
            isometry_check(op, 1.0, 0.5, v)
            duality_pair(op, 1.0, v, w)
            duality_pair(op, 1.0, np.column_stack([v, w]), np.column_stack([w, v]))
            equivalence_check(op, 2.0, np.column_stack([v, w]))
            membership_table(model, s_values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n


class TestEquivalence:
    def test_scalar_exact_ratio(self):
        op = SpectralOperator.from_diag([1.0])
        for s in (0.5, 1.0, 2.0):
            stats = equivalence_check(op, s, np.array([1.0]))
            assert stats["min_ratio"] == pytest.approx(2.0 ** (s / 2), rel=1e-12)

    def test_s_zero_ratio_one(self):
        op = SpectralOperator.from_diag([1.0, 5.0])
        stats = equivalence_check(op, 0.0, np.array([1.0, 2.0]))
        assert stats["min_ratio"] == pytest.approx(1.0) == stats["max_ratio"]

    def test_ratios_within_diagonal_bounds(self):
        rng = np.random.default_rng(3)
        op = SpectralOperator.from_diag(np.sort(rng.uniform(1.0, 9.0, size=10)))
        samples = rng.normal(size=(10, 50)) + 1j * rng.normal(size=(10, 50))
        stats = equivalence_check(op, 2.0, samples)
        assert stats["bound_lo"] - 1e-12 <= stats["min_ratio"]
        assert stats["max_ratio"] <= stats["bound_hi"] + 1e-12
        assert 0 < stats["min_ratio"] <= stats["max_ratio"] < np.inf

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_nan_sample_gives_nan_ratios(self, where):
        op = SpectralOperator.from_diag([1.0, 2.0, 5.0])
        samples = np.outer([1.0, 2.0, 3.0], np.arange(1.0, 6.0))
        samples[:, where] = [1.0, np.nan, 0.0]
        stats = equivalence_check(op, 2.0, samples)
        assert np.isnan(stats["min_ratio"]) and np.isnan(stats["max_ratio"])

    def test_gamma_is_the_operator_shift(self):
        # k = -1 gives gamma = k - 1 = -2; s = 2 on e_0: ratio (|-1| + 1) / (-1 - gamma) = 2
        op = SpectralOperator.from_diag([-1.0, 3.0])
        assert op.shift == -2.0
        stats = equivalence_check(op, 2.0, np.array([1.0, 0.0]))
        assert stats["max_ratio"] == pytest.approx(2.0, rel=1e-12) == stats["bound_hi"]

    @pytest.mark.parametrize("s", [-1.0, 2.0])
    def test_block_equals_per_column_calls(self, s):
        # the block's two norms are each one product, so its extremes agree with the
        # extremes of the vector calls within 4 n eps relative; zero columns are skipped
        op = GrowthModel(2.0, 0.5).operator(40)
        rng = np.random.default_rng(15)
        block = rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6))
        alone = [equivalence_check(op, s, c) for c in block.T]
        block = np.column_stack([block, np.zeros(40)])
        stats = equivalence_check(op, s, block)
        tol = 4 * 40 * np.finfo(float).eps
        assert stats["min_ratio"] == pytest.approx(min(a["min_ratio"] for a in alone), rel=tol)
        assert stats["max_ratio"] == pytest.approx(max(a["max_ratio"] for a in alone), rel=tol)
        assert equivalence_check(op, s, block[:, [2]]) == alone[2]

    @pytest.mark.parametrize("shape", [(39, 2), (41,), (40, 2, 2)])
    def test_wrong_row_count_raises(self, shape):
        op = GrowthModel(2.0, 0.5).operator(40)
        with pytest.raises(DimensionMismatchError, match="operator dimension is 40"):
            equivalence_check(op, 2.0, np.ones(shape))


class TestWeightsOnce:
    """The weights (|lambda_n| + 1)^e, computed once per call and exponent as w * exp(c)."""

    def test_weights_centred_on_the_log_range(self):
        # L = log(|lambda| + 1) spans [log 2, log 2501]: w = exp(e (L - m)), m its middle
        op = GrowthModel(2, 0.5).operator(50)
        w, shift = _weights(op, 100.0)
        middle = (np.log(2.0) + np.log(2501.0)) / 2
        assert shift == pytest.approx(100.0 * middle, rel=1e-15)
        assert w[0] * w[-1] == pytest.approx(1.0, rel=1e-12) and np.all(np.isfinite(w))
        w, shift = _weights(op, 0.5)
        np.testing.assert_allclose(w * np.exp(shift), np.power(np.abs(op.eigenvalues) + 1.0, 0.5),
                                   rtol=1e-15)
