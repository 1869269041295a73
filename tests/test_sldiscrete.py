import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldlab
from ldlab.sldiscrete import (
    CoefficientError,
    EndpointError,
    SLCoefficients,
    SupportError,
    boundary_functional,
    discretize,
    greens_dirichlet_check,
    principal_solution,
)


def flat():
    return SLCoefficients.flat()


def tabulated():
    xs = np.linspace(0.0, 2.0, 9)
    return SLCoefficients.from_tables(xs, 1.0 + xs ** 2, np.sin(xs), 2.0 + np.cos(xs))


def dense_reference(coeffs, n, bc):
    """L_h by the dense formula: full T, both-sided W^{-1/2} scaling, symmetrization."""
    a_eff, b_eff = coeffs.effective_interval()
    h = (b_eff - a_eff) / (n + 1)
    nodes = a_eff + h * np.arange(1, n + 1)
    p_half = np.asarray(coeffs.p(a_eff + h * (np.arange(n + 1) + 0.5)), dtype=float).copy()
    w_nodes = np.asarray(coeffs.w(nodes), dtype=float)
    q_nodes = np.asarray(coeffs.q(nodes), dtype=float)
    if bc == "neumann-type":
        p_half[0] = p_half[-1] = 0.0
    t = np.zeros((n, n))
    np.fill_diagonal(t, (p_half[:-1] + p_half[1:]) / h ** 2 - q_nodes)
    off = -p_half[1:-1] / h ** 2
    t[np.arange(n - 1), np.arange(1, n)] = off
    t[np.arange(1, n), np.arange(n - 1)] = off
    root_w = np.sqrt(w_nodes)
    l_h = t / root_w[:, None] / root_w[None, :]
    return (l_h + l_h.T) / 2


def rk4_reference(coeffs, lam, endpoint, n):
    """Principal solution by the per-stage scalar RK4 loop, coefficients called pointwise."""
    a_eff, b_eff = coeffs.effective_interval()
    h = (b_eff - a_eff) / (n + 1)

    def rhs(x, state):
        u, v = state
        return np.array([v / float(coeffs.p(x)), -(float(coeffs.q(x)) + lam * float(coeffs.w(x))) * u])

    if endpoint == "a":
        x, step, state, order = a_eff, h, np.array([0.0, 1.0]), range(n)
    else:
        x, step, state, order = b_eff, -h, np.array([0.0, -1.0]), range(n - 1, -1, -1)
    out = np.zeros(n)
    for idx in order:
        k1 = rhs(x, state)
        k2 = rhs(x + step / 2, state + step / 2 * k1)
        k3 = rhs(x + step / 2, state + step / 2 * k2)
        k4 = rhs(x + step, state + step * k3)
        state = state + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x += step
        out[idx] = state[0]
    return out


class TestDiscretize:
    def test_flat_lowest_eigenvalue_closed_form(self):
        op = discretize(flat(), 99)
        lam = op.eigenvalues()
        closed = (2 / op.h ** 2) * (1 - np.cos(op.h))
        assert lam[0] == pytest.approx(closed, rel=1e-12)
        assert lam[0] < 1.0
        assert abs(lam[0] - 1.0) < 1e-3

    def test_matrix_symmetric_eigenvalues_real(self):
        op = discretize(SLCoefficients.jacobi(1.0, 1.0), 50)
        m = op.matrix.entries
        assert np.max(np.abs(m - m.T)) == 0.0
        assert np.all(np.isreal(op.eigenvalues()))

    def test_q_shift_moves_spectrum(self):
        # l = -(1/w)[(pf')' + qf]: replacing q by q + c shifts eigenvalues by -c
        base = flat()
        c = 2.5
        shifted = SLCoefficients(base.p, lambda x: np.full_like(np.asarray(x, float), c),
                                 base.w, base.a, base.b)
        lam0 = discretize(base, 40).eigenvalues()
        lam1 = discretize(shifted, 40).eigenvalues()
        np.testing.assert_allclose(lam1, lam0 - c, atol=1e-10)

    def test_jacobi_dirichlet_converges_to_four(self):
        op = discretize(SLCoefficients.jacobi(1.0, 1.0), 400)
        lam = op.eigenvalues()
        nonzero = lam[lam > 0.5]
        assert nonzero[0] == pytest.approx(4.0, abs=0.05)

    def test_rejects_nonpositive_coefficients(self):
        bad = SLCoefficients(lambda x: -np.ones_like(np.asarray(x, float)),
                             lambda x: np.zeros_like(np.asarray(x, float)),
                             lambda x: np.ones_like(np.asarray(x, float)), 0.0, 1.0)
        with pytest.raises(CoefficientError, match="p must be positive"):
            discretize(bad, 10)

    def test_rejects_nan_coefficient_sample(self):
        xs = np.linspace(0.0, 1.0, 6)
        ps = np.ones(6)
        ps[3] = np.nan          # p_half <= 0 is False for NaN: the band check catches it
        bad = SLCoefficients.from_tables(xs, ps, np.zeros(6), np.ones(6))
        with pytest.raises(CoefficientError, match="non-finite"):
            discretize(bad, 20)

    def test_requires_minimum_nodes(self):
        with pytest.raises(ValueError):
            discretize(flat(), 2)

    @pytest.mark.parametrize("pair", [(100, 200), (200, 400)])
    def test_second_order_convergence_flat(self, pair):
        errors = []
        for n in pair:
            lam = discretize(flat(), n).eigenvalues()
            errors.append(np.abs(lam[:3] - np.array([1.0, 4.0, 9.0])))
        ratios = errors[0] / errors[1]
        assert np.all((ratios > 3.5) & (ratios < 4.5))

    def test_jacobi_neumann_second_order_to_four(self):
        errors = []
        for n in (100, 200):
            lam = discretize(SLCoefficients.jacobi(1.0, 1.0), n, bc="neumann-type").eigenvalues()
            errors.append(abs(lam[1] - 4.0))
        assert 3.5 < errors[0] / errors[1] < 4.5

    def test_laguerre_truncated_flag(self):
        # both Laguerre endpoints are non-regular: the grid lives on the delta-truncated interval
        op = discretize(SLCoefficients.laguerre(0.5), 30)
        a, b = op.coeffs.effective_interval()
        assert (a, b) == (1e-3, 40.0 - 1e-3)
        assert op.h == (b - a) / 31 and a < op.nodes[0] < op.nodes[-1] < b

    @pytest.mark.parametrize("coeffs, delta, interval", [
        (SLCoefficients.jacobi(1.0, 1.0), 1.0, "(-1.0, 1.0): truncated to (0.0, 0.0)"),
        (SLCoefficients.jacobi(1.0, 1.0), 1.5, "(-1.0, 1.0): truncated to (0.5, -0.5)"),
        (SLCoefficients.laguerre(1.0, cutoff=2.0), 1.0, "(0.0, 2.0): truncated to (1.0, 1.0)"),
        (SLCoefficients.laguerre(1.0, cutoff=1.0), 0.75, "(0.0, 1.0): truncated to (0.75, 0.25)"),
    ])
    def test_rejects_a_delta_that_empties_the_interval(self, coeffs, delta, interval):
        message = f"delta={delta} empties the interval {interval}"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(coeffs, delta=delta)

    @pytest.mark.parametrize("coeffs", [SLCoefficients.jacobi(1.0, 1.0),
                                        SLCoefficients.laguerre(1.0, cutoff=2.0)])
    def test_delta_just_below_the_limit_builds(self, coeffs):
        op = discretize(replace(coeffs, delta=0.999), 12)
        a, b = op.coeffs.effective_interval()
        assert (a, b) != (op.coeffs.a, op.coeffs.b) and a < op.nodes[0] < op.nodes[-1] < b
        assert np.all(np.isfinite(op.eigenvalues()))


class TestTridiagonal:
    @pytest.mark.parametrize("n", [50, 400, 1600])
    def test_flat_dirichlet_exact_discrete_eigenvalues(self, n):
        # on (0, pi) with h = pi/(N+1) the discrete spectrum is (4/h^2) sin^2(j h/2)
        lam = discretize(flat(), n).eigenvalues()
        h = np.pi / (n + 1)
        exact = 4.0 / h ** 2 * np.sin(np.arange(1, n + 1) * h / 2) ** 2
        assert lam.shape == (n,)
        assert np.max(np.abs(lam - exact)) <= 1e-12 * exact[-1]

    @pytest.mark.parametrize("coeffs", [flat, tabulated, lambda: SLCoefficients.jacobi(1.0, 1.0),
                                        lambda: SLCoefficients.laguerre(0.5)],
                             ids=["flat", "tabulated", "jacobi", "laguerre"])
    @pytest.mark.parametrize("n", [10, 57, 400])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann-type"])
    def test_dense_matrix_matches_dense_formula(self, coeffs, n, bc):
        op = discretize(coeffs(), n, bc)
        assert np.array_equal(op.matrix.entries, dense_reference(coeffs(), n, bc))

    def test_eigenvalues_match_dense_solver(self):
        # two routes: Jacobi(1,1) bands are persymmetric to rounding, so `eigenvalues` folds
        # them into two half-size tridiagonal problems; the dense solver takes the full matrix
        op = discretize(SLCoefficients.jacobi(1.0, 1.0), 120, "neumann-type")
        dense = np.linalg.eigvalsh(op.matrix.entries.real)
        np.testing.assert_allclose(op.eigenvalues(), dense, rtol=0, atol=1e-12 * dense[-1])

    def test_eigenvalues_leave_dense_matrix_unbuilt(self):
        op = discretize(flat(), 30)
        op.eigenvalues()
        assert "matrix" not in vars(op)
        assert op.matrix is op.matrix           # built once, then cached

    def test_import_leaves_scipy_linalg_unloaded(self):
        # nor any other scipy module: the tridiagonal solver imports its own on first call
        code = ("import sys, ldlab, ldlab.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        src = str(Path(ldlab.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=src)
        assert out.stdout.strip() == "[]"


def mirrored(rng, length: int) -> np.ndarray:
    """A random band equal to its own reversal."""
    half = rng.normal(size=length // 2)
    return np.concatenate((half, rng.normal(size=length % 2), half[::-1]))


def counting_solver(monkeypatch) -> list:
    """Wrap scipy's tridiagonal solver; the list collects the size of each call."""
    import scipy.linalg
    sizes, real = [], scipy.linalg.eigvalsh_tridiagonal

    def counting(d, e, *args, **kwargs):
        sizes.append(len(d))
        return real(d, e, *args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", counting)
    return sizes


class TestFold:
    """Bands equal to their reversal are solved as two half-size problems (J x = +-x)."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 64), k=st.integers(-20, 40))
    def test_persymmetric_bands_match_dense_solver(self, seed, n, k):
        rng = np.random.default_rng(seed)
        d, e = 2.0 ** k * mirrored(rng, n), 2.0 ** k * mirrored(rng, n - 1)
        op = replace(discretize(flat(), n), n_interior=n, diagonal=d, offdiagonal=e)
        dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        with pytest.MonkeyPatch.context() as monkeypatch:
            sizes = counting_solver(monkeypatch)
            lam = op.eigenvalues()
        assert sizes == [n - n // 2, n // 2]
        np.testing.assert_allclose(lam, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense)))

    @pytest.mark.parametrize("coeffs, n, bc, sizes", [
        (flat, 1600, "dirichlet", [800, 800]),
        (flat, 1601, "dirichlet", [801, 800]),
        (lambda: SLCoefficients.jacobi(1.0, 1.0), 1600, "neumann-type", [800, 800]),
        (lambda: SLCoefficients.jacobi(1.0, 1.0), 401, "dirichlet", [201, 200]),
    ], ids=["flat-even", "flat-odd", "jacobi11-even", "jacobi11-odd"])
    def test_symmetric_problems_fold(self, monkeypatch, coeffs, n, bc, sizes):
        op = discretize(coeffs(), n, bc)
        calls = counting_solver(monkeypatch)
        lam = op.eigenvalues()
        assert calls == sizes and lam.shape == (n,) and np.all(np.diff(lam) >= 0)

    @pytest.mark.parametrize("coeffs", [lambda: SLCoefficients.jacobi(1.0, 2.0),
                                        lambda: SLCoefficients.laguerre(0.5), tabulated],
                             ids=["jacobi12", "laguerre", "tabulated"])
    @pytest.mark.parametrize("n", [400, 401])
    def test_asymmetric_problems_take_one_call_as_before(self, monkeypatch, coeffs, n):
        from scipy.linalg import eigvalsh_tridiagonal
        op = discretize(coeffs(), n, "neumann-type")
        unfolded = eigvalsh_tridiagonal(op.diagonal, op.offdiagonal)
        calls = counting_solver(monkeypatch)
        lam = op.eigenvalues()
        assert calls == [n]
        assert np.array_equal(lam, unfolded)


class TestFromTables:
    xs = np.linspace(0.0, 3.0, 7)

    def test_reads_increasing_nodes(self):
        coeffs = SLCoefficients.from_tables(self.xs, 1.0 + self.xs ** 2, 0 * self.xs,
                                            1.0 + 0 * self.xs)
        np.testing.assert_allclose(coeffs.p(np.array([0.1, 0.5])), [1.05, 1.25], rtol=1e-15)

    @pytest.mark.parametrize("order, row", [
        ([0, 4, 2, 5, 1, 3, 6], "row 2 (from 0) has x = 1 after x = 2"),   # p(0.1) read 1.2
        ([0, 1, 2, 2, 3, 4, 5, 6], "row 3 (from 0) has x = 1 after x = 1"),
    ])
    def test_rejects_nodes_out_of_order(self, order, row):
        xs = self.xs[order]
        with pytest.raises(ValueError, match=re.escape(row)):
            SLCoefficients.from_tables(xs, 1.0 + xs ** 2, 0 * xs, 1.0 + 0 * xs)


class TestBuildA0:
    def test_dirichlet_eigenvalues_near_squares(self):
        lam = discretize(flat(), 199, "dirichlet").eigenvalues()
        assert lam[0] == pytest.approx(1.0, abs=1e-3)
        assert lam[1] == pytest.approx(4.0, abs=5e-3)

    def test_neumann_smallest_to_zero(self):
        lam = discretize(flat(), 199, "neumann-type").eigenvalues()
        assert abs(lam[0]) <= 1e-10
        assert lam[1] == pytest.approx(1.0, abs=2e-2)   # {0, 1, 4, ...} trend
        assert lam[2] == pytest.approx(4.0, abs=5e-2)

    def test_rejects_unknown_bc(self):
        with pytest.raises(ValueError, match="boundary"):
            discretize(flat(), 10, "robin")


class TestGreensDirichlet:
    @staticmethod
    def bump(n):
        f = np.zeros(n)
        inner = np.linspace(0.0, 1.0, n - 4)
        f[2:-2] = np.sin(np.pi * inner) ** 2
        return f

    def test_symmetry_residual_roundoff(self):
        op = discretize(flat(), 80)
        f, g = self.bump(80), np.roll(self.bump(80), 3)
        g[:2] = g[-2:] = 0.0
        sym, _ = greens_dirichlet_check(op, f, g)
        assert sym <= 1e-12

    def test_dirichlet_identity_flat(self):
        # <Lf, f>_w = sum h p (f')^2 for p = 1, q = 0
        op = discretize(flat(), 120)
        f = self.bump(120)
        _, resid = greens_dirichlet_check(op, f, f)
        scale = op.h * float(np.sum(np.diff(np.concatenate(([0], f, [0]))) ** 2)) / op.h ** 2
        assert resid <= 1e-10 * max(scale, 1.0)

    def test_q_term_signs(self):
        # q = -1, p = 1: Dirichlet sum acquires + sum h f g relative to q = 0
        base = flat()
        withq = SLCoefficients(base.p, lambda x: -np.ones_like(np.asarray(x, float)),
                               base.w, base.a, base.b)
        n = 60
        f = self.bump(n)
        op0 = discretize(base, n)
        op1 = discretize(withq, n)
        lhs0 = op0.h * float(np.dot(op0._apply_flux(f), f))
        lhs1 = op1.h * float(np.dot(op1._apply_flux(f), f))
        extra = op0.h * float(np.dot(f, f))
        assert lhs1 - lhs0 == pytest.approx(extra, rel=1e-12)
        for op in (op0, op1):
            _, resid = greens_dirichlet_check(op, f, f)
            assert resid <= 1e-9

    def test_support_violation(self):
        op = discretize(flat(), 40)
        f = np.ones(40)
        with pytest.raises(SupportError):
            greens_dirichlet_check(op, f, f)


class TestPrincipalSolution:
    def test_linear_solution_lambda_zero(self):
        coeffs = flat()
        n = 50
        u = principal_solution(coeffs, 0.0, "a", n)
        h = np.pi / (n + 1)
        xs = h * np.arange(1, n + 1)
        np.testing.assert_allclose(u, xs, rtol=1e-10)

    def test_sin_solution_lambda_one(self):
        coeffs = flat()
        n = 200
        u = principal_solution(coeffs, 1.0, "a", n)
        h = np.pi / (n + 1)
        xs = h * np.arange(1, n + 1)
        assert np.max(np.abs(u - np.sin(xs))) <= 1e-8   # RK4: O(h^4)

    def test_fourth_order_convergence(self):
        coeffs = flat()
        errs = []
        for n in (25, 50):
            u = principal_solution(coeffs, 1.0, "a", n)
            h = np.pi / (n + 1)
            xs = h * np.arange(1, n + 1)
            errs.append(np.max(np.abs(u - np.sin(xs))))
        assert 10 < errs[0] / errs[1] < 22      # ~2^4

    def test_endpoint_b_mirror(self):
        coeffs = flat()
        n = 200
        u = principal_solution(coeffs, 1.0, "b", n)
        h = np.pi / (n + 1)
        xs = h * np.arange(1, n + 1)
        np.testing.assert_allclose(u, np.sin(np.pi - xs), atol=1e-8)

    def test_eigenvalue_gives_eigenvector_direction(self):
        coeffs = flat()
        n = 150
        op = discretize(coeffs, n)
        lam = op.eigenvalues()
        u = principal_solution(coeffs, float(lam[0]), "a", n)
        _, vecs = np.linalg.eigh(op.matrix.entries.real)
        v = vecs[:, 0]
        cos = abs(np.dot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert cos == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("coeffs", [flat, tabulated], ids=["flat", "tabulated"])
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    @pytest.mark.parametrize("endpoint", ["a", "b"])
    def test_matches_scalar_rk4_reference(self, coeffs, lam, endpoint):
        for n in (7, 120):
            u = principal_solution(coeffs(), lam, endpoint, n)
            assert np.array_equal(u, rk4_reference(coeffs(), lam, endpoint, n))

    def test_rejects_nonregular_endpoint(self):
        coeffs = SLCoefficients.jacobi(1.0, 1.0)
        with pytest.raises(EndpointError):
            principal_solution(coeffs, 0.0, "a", 20)


class TestBoundaryFunctional:
    def test_constant_function_pairs_to_minus_one(self):
        coeffs = flat()
        n = 100
        u = principal_solution(coeffs, 0.0, "a", n)
        func = boundary_functional(coeffs, u, "a")
        assert func.pair(np.ones(n)) == pytest.approx(-1.0, abs=1e-12)

    def test_vanishing_smooth_function_order_h(self):
        coeffs = flat()
        n = 100
        h = np.pi / (n + 1)
        xs = h * np.arange(1, n + 1)
        u = principal_solution(coeffs, 0.0, "a", n)
        func = boundary_functional(coeffs, u, "a")
        f = np.sin(xs)                     # f(a) = 0, f'(a) = 1
        assert abs(func.pair(f)) <= 10 * h

    def test_proportional_function_pairs_small(self):
        coeffs = flat()
        n = 200
        h = np.pi / (n + 1)
        xs = h * np.arange(1, n + 1)
        u = principal_solution(coeffs, 0.0, "a", n)
        func = boundary_functional(coeffs, u, "a")
        assert abs(func.pair(xs)) <= 10 * h       # [x, x](a) = 0 analytically

    def test_endpoint_b_sign(self):
        coeffs = flat()
        n = 100
        u = principal_solution(coeffs, 0.0, "b", n)
        func = boundary_functional(coeffs, u, "b")
        # [f, u_b](b) = -f(b) (p u')(b) = +f(b) with the (p u')(b) = -1 normalization
        assert func.pair(np.ones(n)) == pytest.approx(1.0, abs=1e-12)

    def test_smooth_f_matches_minus_f_at_a(self):
        coeffs = flat()
        n = 200
        h = np.pi / (n + 1)
        xs = h * np.arange(1, n + 1)
        u = principal_solution(coeffs, 0.0, "a", n)
        func = boundary_functional(coeffs, u, "a")
        f = np.cos(xs) + 0.5 * xs ** 2
        max_fprime = float(np.max(np.abs(-np.sin(xs) + xs)))
        assert abs(func.pair(f) - (-1.0)) <= 10 * h * max(max_fprime, 1.0)
