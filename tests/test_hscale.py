import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldlab.hscale import (
    GrowthModel,
    ScaleVector,
    _partial_sums,
    critical_index,
    duality_pair,
    equivalence_check,
    hs_norm,
    isometry_check,
    membership,
    membership_table,
    partial_sum_divergent,
)
from ldlab.leftdef import ShiftError, SpectralOperator


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

    def test_accepts_scale_vector(self):
        op = SpectralOperator.from_diag([1.0, 3.0])
        assert hs_norm(op, 2.0, ScaleVector(np.array([1.0, 0.0]))) == pytest.approx(2.0)


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

    def test_membership_table_columns(self):
        model = GrowthModel(1.0, -1.0)
        rows = membership_table(model, [0.0, 2.0])
        assert rows[0][:4] == (1.0, -1.0, 0.0, 1.0)
        assert rows[0][4] == "member" and rows[1][4] == "excluded"


def reference_partial_sums(model, s, terms):
    """S_N and S_2N of sum n^{ps+2q} from one array of all 2N powers."""
    powers = np.arange(1, 2 * terms + 1, dtype=float) ** (model.p * s + 2 * model.q)
    return float(np.sum(powers[:terms])), float(np.sum(powers))


class TestBlockedPartialSums:
    """Every grid point shares one blocked pass over n; the verdicts are the one-point ones."""

    GRID = [(p, q) for p in (0.5, 1.0, 2.0, 3.0) for q in (-1.5, -1.0, 0.0, 0.5)]
    OFFSETS = (-1.5, -0.5, -0.15, -0.06, 0.06, 0.15, 0.5, 1.5)

    @pytest.mark.parametrize("terms", [1000, 100_003])
    def test_sums_match_one_array_reference(self, terms):
        for p, q in self.GRID[::3]:
            model = GrowthModel(p, q)
            s_values = [critical_index(model) + d for d in self.OFFSETS]
            s_n, s_2n = _partial_sums(model, s_values, terms)
            for i, s in enumerate(s_values):
                want_n, want_2n = reference_partial_sums(model, s, terms)
                assert s_n[i] == pytest.approx(want_n, rel=1e-12)
                assert s_2n[i] == pytest.approx(want_2n, rel=1e-12)

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
            equivalence_check(op, 2.0, [v, w])
            membership_table(model, s_values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n


class TestEquivalence:
    def test_scalar_exact_ratio(self):
        op = SpectralOperator.from_diag([1.0], shift=0.0)
        for s in (0.5, 1.0, 2.0):
            stats = equivalence_check(op, s, [np.array([1.0])])
            assert stats["min_ratio"] == pytest.approx(2.0 ** (s / 2), rel=1e-12)

    def test_s_zero_ratio_one(self):
        op = SpectralOperator.from_diag([1.0, 5.0], shift=0.0)
        stats = equivalence_check(op, 0.0, [np.array([1.0, 2.0])])
        assert stats["min_ratio"] == pytest.approx(1.0) == stats["max_ratio"]

    def test_ratios_within_diagonal_bounds(self):
        rng = np.random.default_rng(3)
        op = SpectralOperator.from_diag(np.sort(rng.uniform(1.0, 9.0, size=10)), shift=0.0)
        samples = [rng.normal(size=10) + 1j * rng.normal(size=10) for _ in range(50)]
        stats = equivalence_check(op, 2.0, samples)
        assert stats["bound_lo"] - 1e-12 <= stats["min_ratio"]
        assert stats["max_ratio"] <= stats["bound_hi"] + 1e-12
        assert 0 < stats["min_ratio"] <= stats["max_ratio"] < np.inf

    def test_rejects_gamma_at_bound(self):
        op = SpectralOperator.from_diag([1.0, 5.0])
        with pytest.raises(ShiftError):
            equivalence_check(op, 1.0, [np.ones(2)], gamma=1.0)


class TestWeightsOnce:
    """The weights (|lambda_n| + 1)^e are computed once per (operator, exponent)."""

    CONFIG = ('{"operatorSpec": {"kind": "diag-growth", "p": 2.0, "q": 0.5, "N": 200}, '
              '"experiment": "scale", "params": {"samples": 8}, "seed": 3}')

    def test_one_power_per_distinct_exponent_in_a_scale_scenario(self, monkeypatch):
        from ldlab.config import parse_config
        from ldlab.scenarios import build_operator, run_scenario

        config = parse_config(self.CONFIG)
        base = np.abs(build_operator(config.operator_spec).operator.eigenvalues) + 1.0
        real_power = np.power
        exponents = []

        def counting(x, exponent, *args, **kwargs):
            if np.shape(x) == base.shape and np.array_equal(x, base):
                exponents.append(float(exponent))
            return real_power(x, exponent, *args, **kwargs)

        monkeypatch.setattr(np, "power", counting)
        report = run_scenario(config)
        assert report.overall == "PASS"
        assert exponents and len(exponents) == len(set(exponents))

    def test_weights_are_kept_read_only_per_exponent(self):
        op = SpectralOperator.from_diag([3.0, 1.0, 2.0])
        w = op.scale_weights(0.5)
        assert op.scale_weights(0.5) is w and not w.flags.writeable
        np.testing.assert_array_equal(w, np.power(np.abs(op.eigenvalues) + 1.0, 0.5))
        assert op.scale_weights(-0.5) is not w
