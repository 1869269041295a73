import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from ldlab import classical
from ldlab.classical import (
    DirichletFormSpec,
    LaguerreBasis,
    _genlaguerre_rules,
    _rule_family,
    bj_coeff,
    derivative_coeffs,
    dirichlet_inner,
    laguerre_apply_A,
    laguerre_identity_check,
    laguerre_identity_table,
    spectral_inner,
    x_poly,
)
from ldlab.config import parse_config
from ldlab.scenarios import run_scenario


def gauss_quadrature(weight_exponent: float, m: int) -> tuple:
    """(nodes, weights) of the lone m-node Gauss-Laguerre rule for weight
    t^{weight_exponent} e^{-t}: the batched build with one node count."""
    return _genlaguerre_rules([m], float(weight_exponent))


def integrate(rule: tuple, values: np.ndarray) -> float:
    """The rule's sum of values at its nodes, as the module forms it."""
    return float(np.dot(rule[1], values))


def basis_poly(n: int) -> np.ndarray:
    """L_n^alpha as a coefficient vector: 1 at position n."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return coeffs


class TestBjCoefficients:
    def test_spot_table_n2_k1(self):
        assert bj_coeff(2, 1, 0) == 1.0
        assert bj_coeff(2, 1, 1) == 3.0      # -1 + 4
        assert bj_coeff(2, 1, 2) == 1.0      # (1 - 8 + 9) / 2

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_endpoints_exact(self, n, k):
        assert bj_coeff(n, k, 0) == float(k) ** n
        assert bj_coeff(n, k, n) == 1.0

    def test_noninteger_k(self):
        # j = 1, n = 2: -(k^2) + (k+1)^2 = 2k + 1
        k = 1.5
        assert bj_coeff(2, k, 1) == pytest.approx(2 * k + 1, rel=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="outside"):
            bj_coeff(2, 1.0, 3)
        with pytest.raises(ValueError, match="positive"):
            bj_coeff(2, 0.0, 1)


def laguerre_power_basis(alpha: float, degree: int) -> list:
    """L_0^alpha..L_degree^alpha as power-basis Polynomials, the recurrence multiplied out."""
    x = Polynomial([0.0, 1.0])
    polys = [Polynomial([1.0]), Polynomial([alpha + 1.0, -1.0])]
    for n in range(1, degree):
        polys.append(((2 * n + alpha + 1 - x) * polys[n] - (n + alpha) * polys[n - 1]) / (n + 1))
    return polys[: degree + 1]


class TestLaguerreBasis:
    def test_l0_is_one(self):
        basis = LaguerreBasis.build(0.7, 5)
        assert basis.eval_all(3.3)[0, 0] == 1.0

    def test_l1_alpha1_at_zero(self):
        basis = LaguerreBasis.build(1.0, 5)
        assert basis.eval_all(0.0)[1, 0] == 2.0   # L_1^a = a + 1 - x

    def test_derivative_identity(self):
        # oracle for `derivative_coeffs`, which encodes (L_n^a)' = -L_{n-1}^{a+1}: the j-th
        # derivative of p = sum c_n L_n^a taken term by term in the power basis
        rng = np.random.default_rng(4)
        xs = np.linspace(0.0, 10.0, 21)
        for alpha in (0.0, 0.5, 2.0):
            polys = laguerre_power_basis(alpha, 8)
            for deg in range(9):
                c = rng.normal(size=deg + 1)
                p = sum(cn * pn for cn, pn in zip(c, polys))
                for j in range(4):
                    want = p.deriv(j)(xs)
                    d = derivative_coeffs(c, j)
                    got = d @ LaguerreBasis.build(alpha + j, d.shape[0] - 1).eval_all(xs)
                    # atol for points near a root of p^(j)
                    np.testing.assert_allclose(got, want, rtol=1e-10,
                                               atol=1e-10 * np.max(np.abs(want)))

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LaguerreBasis.build(0.0, -1)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 30])
    def test_norm_by_quadrature(self, n):
        alpha = 0.5
        basis = LaguerreBasis.build(alpha, 30)
        rule = gauss_quadrature(alpha, n + 1)
        values = basis.eval_all(rule[0])[n]
        assert integrate(rule, values ** 2) == pytest.approx(basis.norms[n], rel=1e-10)

    def test_gamma_ratio_large_arguments(self):
        # ||L_60^0.5||^2 = Gamma(61.5)/Gamma(61) stays finite in ratio form
        norms = LaguerreBasis.build(0.5, 60).norms
        assert norms.shape == (61,) and np.all(np.isfinite(norms))
        assert norms[60] == pytest.approx(math.gamma(61.5) / math.gamma(61.0), rel=1e-12)
        assert norms[0] == pytest.approx(math.gamma(1.5), rel=1e-15)
        assert not norms.flags.writeable


class TestDerivativeCoeffs:
    def test_shift_and_sign(self):
        # p = L_2^alpha: p' = -L_1^{alpha+1}, p'' = L_0^{alpha+2}
        c = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(derivative_coeffs(c, 1), [-0.0, -0.0, -1.0][1:])
        np.testing.assert_array_equal(derivative_coeffs(c, 2), [1.0])

    def test_vanishing_beyond_degree(self):
        np.testing.assert_array_equal(derivative_coeffs(np.array([3.0]), 1), [0.0])


class TestApplyA:
    def test_eigenvector(self):
        basis = LaguerreBasis.build(1.0, 5)
        p = basis_poly(3)
        out = laguerre_apply_A(1.0, 1, p)
        np.testing.assert_allclose(out, [0, 0, 0, 4.0])

    def test_action_on_x(self):
        # x = (a+1) L_0 - L_1 and l[x] = -L_1 = x - a - 1
        alpha = 0.5
        basis = LaguerreBasis.build(alpha, 5)
        p = x_poly(basis)
        # apply l = A - k with k = 1: (m + 1 - 1) scaling is just m
        applied = laguerre_apply_A(1.0, 1, p)
        ell_x = applied - p          # l[x] = (A - 1)[x]
        np.testing.assert_allclose(ell_x, [0.0, -1.0], atol=1e-14)
        xs = np.linspace(0.0, 4.0, 9)
        values = ell_x @ basis.eval_all(xs)[:2]
        np.testing.assert_allclose(values, xs - alpha - 1.0, atol=1e-12)

    def test_power_zero_identity(self):
        p = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(laguerre_apply_A(2.0, 0, p), p)


class TestQuadrature:
    def test_one_node_alpha0(self):
        nodes, weights = gauss_quadrature(0.0, 1)
        np.testing.assert_allclose(nodes, [1.0], atol=1e-14)
        np.testing.assert_allclose(weights, [1.0], atol=1e-14)

    def test_gamma3_with_two_nodes(self):
        rule = gauss_quadrature(0.0, 2)
        assert integrate(rule, rule[0] ** 2) == pytest.approx(2.0, rel=1e-13)

    def test_weighted_first_moment(self):
        # integral t * t e^{-t} dt = Gamma(3) = 2 under weight t e^{-t}
        rule = gauss_quadrature(1.0, 2)
        assert integrate(rule, rule[0]) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 3.5, 7.0])
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 21, 31, 40])
    def test_gamma_moment_exactness(self, alpha, m):
        rule = gauss_quadrature(alpha, m)
        for d in range(2 * m):    # exact through degree 2m - 1
            moment = integrate(rule, rule[0] ** d)
            exact = math.gamma(d + alpha + 1)
            assert moment == pytest.approx(exact, rel=1e-10)

    def test_rejects_bad_parameters(self):
        # LaguerreBasis.build rejects alpha <= -1, a basis built by hand does not
        basis = dataclasses.replace(LaguerreBasis.build(0.0, 3), alpha=-1.0)
        with pytest.raises(ValueError, match="must exceed -1"):
            _rule_family(basis, 0, [3])


class TestGenLaguerreRule:
    """The numpy Golub-Welsch rule against scipy's as an independent oracle."""

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.0, 3.5, 7.0])
    def test_matches_scipy(self, alpha):
        special = pytest.importorskip("scipy.special")
        ms = list(range(40, 0, -1))
        nodes, weights = _genlaguerre_rules(ms, alpha)
        end = 0
        for m in ms:
            ref_nodes, ref_weights = special.roots_genlaguerre(m, alpha)
            np.testing.assert_allclose(nodes[end:end + m], ref_nodes, rtol=1e-12, atol=0)
            np.testing.assert_allclose(weights[end:end + m], ref_weights, rtol=1e-11, atol=0)
            end += m

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 3.5, 7.0])
    def test_batched_rules_bitwise_one_m_rules(self, alpha):
        ms = list(range(40, 0, -1))
        nodes, weights = _genlaguerre_rules(ms, alpha)
        cuts = np.cumsum(ms)[:-1]
        rules = dict(zip(ms, zip(np.split(nodes, cuts), np.split(weights, cuts))))
        assert np.array_equal(nodes, np.concatenate([rules[m][0] for m in range(40, 0, -1)]))
        for m in range(1, 41):
            one_nodes, one_weights = gauss_quadrature(alpha, m)
            ref_nodes, ref_weights = reference_rule(m, alpha)
            assert np.array_equal(rules[m][0], one_nodes)
            assert np.array_equal(rules[m][1], one_weights)
            assert np.array_equal(one_nodes, ref_nodes) and np.array_equal(one_weights, ref_weights)
            assert rules[m][0].shape == rules[m][1].shape == (m,)


def reference_rule(m, alpha):
    """One Golub-Welsch rule with its own recurrence, the loop the batched pass replaced."""
    i = np.arange(1, m)
    jacobi = np.diag(2.0 * np.arange(m) + alpha + 1.0) + np.diag(np.sqrt(i * (i + alpha)), -1)
    x = np.linalg.eigvalsh(jacobi)
    d = -x / (alpha + 1.0)
    p = d + 1.0
    for k in range(1, m):
        d = (k * d - x * p) / (k + alpha + 1.0)
        p = p + d
    weights = 1.0
    for factor in (p - d, d / x):
        logs = np.log(np.abs(factor))
        weights = weights / (factor / np.exp((logs.max() + logs.min()) / 2))
    return x - p * x / (m * d), weights * (math.gamma(alpha + 1.0) / weights.sum())


class TestDirichletFormSpec:
    def test_build_small(self):
        spec = DirichletFormSpec.build(2, 1.0)
        assert spec.b == (1.0, 3.0, 1.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="b_n"):
            DirichletFormSpec(2, 1.0, (1.0, 3.0, 2.0))
        with pytest.raises(ValueError, match="b_0"):
            DirichletFormSpec(2, 1.0, (4.0, 3.0, 1.0))


class TestInnerProducts:
    def test_hand_instance_alpha1_k1_n1(self):
        # p = q = x: dirichlet = Gamma(4) + Gamma(3) = 8, spectral = 4 + 4 = 8
        basis = LaguerreBasis.build(1.0, 4)
        spec = DirichletFormSpec.build(1, 1.0)
        p = x_poly(basis)
        d = dirichlet_inner(spec, basis, p, p)
        s = spectral_inner(basis, 1.0, 1, p, p)
        assert d == pytest.approx(8.0, abs=1e-12)
        assert s == pytest.approx(8.0, abs=1e-12)

    def test_constant_gives_kn_gamma(self):
        alpha, k = 0.5, 2.0
        basis = LaguerreBasis.build(alpha, 4)
        for n in (1, 2, 3):
            spec = DirichletFormSpec.build(n, k)
            d = dirichlet_inner(spec, basis, basis_poly(0), basis_poly(0))
            assert d == pytest.approx(k ** n * math.gamma(alpha + 1), rel=1e-12)

    def test_l0_l1_orthogonal(self):
        basis = LaguerreBasis.build(1.0, 4)
        spec = DirichletFormSpec.build(2, 1.0)
        assert dirichlet_inner(spec, basis, basis_poly(0), basis_poly(1)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_spectral_eigenvector_value(self):
        basis = LaguerreBasis.build(1.0, 6)
        for m in (0, 2, 5):
            value = spectral_inner(basis, 1.0, 3, basis_poly(m), basis_poly(m))
            assert value == pytest.approx((m + 1.0) ** 3 * basis.norms[m], rel=1e-13)

    def test_spectral_orthogonality(self):
        basis = LaguerreBasis.build(1.0, 6)
        assert spectral_inner(basis, 1.0, 2, basis_poly(1), basis_poly(4)) == 0.0

    def test_first_form_identity(self):
        # <Af, g>_H = <f, g>_1: dirichlet with n = 1 against applying A first
        # and then taking the plain weighted inner product (power 0)
        alpha, k = 0.5, 1.0
        basis = LaguerreBasis.build(alpha, 6)
        spec = DirichletFormSpec.build(1, k)
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = rng.normal(size=5)
            q = rng.normal(size=6)
            lhs = spectral_inner(basis, k, 0, laguerre_apply_A(k, 1, p), q)
            rhs = dirichlet_inner(spec, basis, p, q)
            assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-10)


class TestIdentity:
    def test_flagship_case(self):
        assert laguerre_identity_check(0.5, 1.0, 2, 8) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_grid(self, alpha, n):
        assert laguerre_identity_check(alpha, 1.0, n, 6) <= 1e-8

    def test_table_rows_shape(self):
        rows = laguerre_identity_table(1.0, 1.0, 1, 3)
        assert len(rows) == 10          # unordered pairs (i <= j) of degrees 0..3
        assert all(len(r) == 8 for r in rows)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError, match="n <= 6"):
            laguerre_identity_check(1.0, 1.0, 7, 4)

    def test_high_degree_cancellation_within_params(self):
        # pair (28, 30) has spectral 0 and terms of absolute mass 2.1e13: its rounding-level
        # sum -0.63 is measured against sqrt(s_28,28 s_30,30), not against 1
        assert laguerre_identity_check(3.0, 2.0, 6, 30) <= 1e-8

    def test_nan_residual_after_the_first_row_is_kept(self, monkeypatch):
        table = laguerre_identity_table(1.0, 1.0, 2, 4)
        table[3] = table[3][:7] + (float("nan"),)
        monkeypatch.setattr(classical, "laguerre_identity_table", lambda *args: table)
        assert math.isnan(laguerre_identity_check(1.0, 1.0, 2, 4))

    @pytest.mark.parametrize("args", [(1.0, 1.0, 3, 8), (3.0, 2.0, 6, 30), (0.5, 2.0, 2, 30)])
    def test_every_bj_is_checked(self, args, monkeypatch):
        # b_j scaled by 1 + 1e-6, one j at a time, moves the residual to 4e-7 .. 1e-6,
        # ten times the 1e-8 identity tolerance and more
        real = DirichletFormSpec.build
        for j in range(args[2] + 1):
            def build(n, k, j=j):
                spec = real(n, k)
                b = tuple(v * (1 + 1e-6) if i == j else v for i, v in enumerate(spec.b))
                object.__setattr__(spec, "b", b)
                return spec
            monkeypatch.setattr(DirichletFormSpec, "build", build)
            assert laguerre_identity_check(*args) >= 1e-7, f"b_{j}"

    def test_relative_error_in_apply_a_fails_the_scenario(self, monkeypatch):
        # the table's (m + k)^n is `laguerre_apply_A`'s
        raw = {"operatorSpec": {"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": 8},
               "experiment": "laguerre-identity", "params": {"n": 3, "deg": 8}}
        config = parse_config(json.dumps(raw))
        assert run_scenario(config).overall == "PASS"
        real = classical.laguerre_apply_A
        monkeypatch.setattr(classical, "laguerre_apply_A", lambda *args: real(*args) * (1 + 1e-6))
        rows = {row.name: row for row in run_scenario(config).rows}
        assert rows["laguerre-identity"].status == "FAIL"
        assert rows["laguerre-identity"].residual >= 1e-7

    def test_spectral_inner_reads_apply_a(self, monkeypatch):
        basis = LaguerreBasis.build(1.0, 6)
        p, q = np.arange(1.0, 6.0), np.arange(7.0, 0.0, -1.0)
        value = spectral_inner(basis, 1.5, 2, p, q)
        real = classical.laguerre_apply_A
        monkeypatch.setattr(classical, "laguerre_apply_A", lambda *args: real(*args) * 2.0)
        assert spectral_inner(basis, 1.5, 2, p, q) == 2.0 * value


def reference_table(alpha, k, n, max_deg):
    """The identity table with a fresh Gauss rule and shifted basis for every pair."""
    basis = LaguerreBasis.build(alpha, max_deg)
    spec = DirichletFormSpec.build(n, k)
    rows = []
    for i in range(max_deg + 1):
        for j in range(i, max_deg + 1):
            cp, cq = basis_poly(i), basis_poly(j)
            m = (i + j) // 2 + 1
            d = 0.0
            for order in range(n + 1):
                dp = derivative_coeffs(cp, order)
                dq = derivative_coeffs(cq, order)
                if not (np.any(dp) and np.any(dq)):
                    continue
                rule = gauss_quadrature(alpha + order, m)
                shifted = LaguerreBasis.build(alpha + order, max(dp.shape[0], dq.shape[0]) - 1)
                values = shifted.eval_all(rule[0])
                p_vals = dp @ values[: dp.shape[0]]
                q_vals = dq @ values[: dq.shape[0]]
                d += spec.b[order] * integrate(rule, p_vals * q_vals)
            s = spectral_inner(basis, k, n, basis_poly(i), basis_poly(j))
            s_ii = spectral_inner(basis, k, n, basis_poly(i), basis_poly(i))
            s_jj = spectral_inner(basis, k, n, basis_poly(j), basis_poly(j))
            rows.append((alpha, k, n, i, j, d, s, abs(d - s) / math.sqrt(s_ii * s_jj)))
    return rows


class TestRuleReuse:
    """Each Gauss rule is built once per table call; no state survives the call."""

    @pytest.mark.parametrize("args", [(1.0, 1.0, 3, 20), (0.5, 2.0, 2, 30), (2.0, 0.7, 4, 12),
                                      (0.0, 3.0, 1, 25), (-0.5, 1.5, 6, 8)])
    def test_bitwise_equal_to_per_pair_rules(self, args):
        # the spectral column is spectral_inner of each pair, bitwise
        assert laguerre_identity_table(*args) == reference_table(*args)

    @pytest.mark.parametrize("args", [(1.0, 1.0, 3, 20), (0.5, 2.0, 2, 30)])
    def test_spectral_factors_built_once_per_call(self, args, monkeypatch):
        # ||L_m||^2 is the `norms` array of the one basis built at (alpha, deg), which the
        # order-0 rules share; each order o >= 1 builds its shifted basis once
        real = LaguerreBasis.build
        built = []

        def recording(alpha, max_degree):
            built.append(real(alpha, max_degree))
            return built[-1]

        monkeypatch.setattr(LaguerreBasis, "build", recording)
        alpha, k, n, deg = args
        rows = laguerre_identity_table(*args)
        assert [(b.alpha, b.max_degree) for b in built] == \
            [(alpha + o, deg - o) for o in range(min(n, deg) + 1)]
        diagonal = [row[6] for row in rows if row[3] == row[4]]
        assert diagonal == ((np.arange(deg + 1) + k) ** n * built[0].norms).tolist()

    @pytest.mark.parametrize("args", [(1.0, 1.0, 3, 20), (0.5, 2.0, 2, 30), (0.0, 3.0, 6, 4)])
    def test_rules_built_once_per_call(self, args, monkeypatch):
        # one batched build per derivative order, covering every (alpha + o, m) a pair reads
        import ldlab.classical as classical

        real = classical._genlaguerre_rules
        calls = []

        def counting(ms, alpha):
            calls.append((alpha, tuple(ms)))
            return real(ms, alpha)

        monkeypatch.setattr(classical, "_genlaguerre_rules", counting)
        alpha, _, n, deg = args
        laguerre_identity_table(*args)
        first = list(calls)
        assert [a for a, _ in first] == [alpha + order for order in range(min(n, deg) + 1)]
        read = {(alpha + order, (i + j) // 2 + 1) for i in range(deg + 1)
                for j in range(i, deg + 1) for order in range(min(i, n) + 1)}
        assert {(a, m) for a, ms in first for m in ms} == read
        assert sum(len(ms) for _, ms in first) == len(read)
        laguerre_identity_table(*args)
        assert calls[len(first):] == first

    def test_single_inner_product_unchanged(self):
        basis = LaguerreBasis.build(0.5, 12)
        spec = DirichletFormSpec.build(3, 2.0)
        rng = np.random.default_rng(3)
        p = rng.normal(size=6)
        q = rng.normal(size=9)
        expected = 0.0
        for order in range(4):
            dp, dq = derivative_coeffs(p, order), derivative_coeffs(q, order)
            rule = gauss_quadrature(0.5 + order, (5 + 8) // 2 + 1)
            values = LaguerreBasis.build(0.5 + order, dq.shape[0] - 1).eval_all(rule[0])
            expected += spec.b[order] * integrate(
                rule, (dp @ values[: dp.shape[0]]) * (dq @ values[: dq.shape[0]]))
        assert dirichlet_inner(spec, basis, p, q) == expected

