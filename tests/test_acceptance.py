"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the ACCEPTANCE lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ldlab.classical import bj_coeff, dirichlet_inner, laguerre_identity_check
from ldlab.classical import DirichletFormSpec, LaguerreBasis, spectral_inner, x_poly
from ldlab.config import parse_config
from ldlab.extensions import (
    PerturbationSpec,
    deficiency_indices,
    friedrichs_power_experiment,
    friedrichs_power_oracle,
    friedrichs_relation,
    interlacing_check,
    limit_crosscheck,
    minimal_relation,
    perturb,
    relation_spectrum,
    von_neumann_check,
)
from ldlab.hscale import (
    GrowthModel,
    critical_index,
    duality_pair,
    hs_norm,
    isometry_check,
    partial_sum_divergent,
    membership,
)
from ldlab.leftdef import (
    ClosedFormR,
    SpectralOperator,
    ld_operator,
    multiplicity_list,
    verify_ld_properties,
)
from ldlab.report import emit
from ldlab.scenarios import run_scenario
from ldlab.sldiscrete import (
    SLCoefficients,
    boundary_functional,
    discretize,
    greens_dirichlet_check,
    principal_solution,
)
from ldlab.spectral import (
    LinearRelation,
    Subspace,
    mat_power,
    rel_is_selfadjoint,
    subspaces_equal,
)

_SUITE_START = time.perf_counter()


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def seeded_pd(seed, n=20, complex_=True):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    if complex_:
        m = m + 1j * rng.normal(size=(n, n))
    return SpectralOperator.from_matrix(m @ m.conj().T + 0.5 * np.eye(n))


def test_criterion_01_laguerre_identity_flagship():
    with criterion(1, "laguerre-identity (alpha grid, n grid, deg 8)"):
        start = time.perf_counter()
        for alpha in (0.5, 1.0, 2.0):
            for n in (1, 2, 3):
                assert laguerre_identity_check(alpha, 1.0, n, 8) <= 1e-8
        assert time.perf_counter() - start <= 5.0


def test_criterion_02_bj_spot_table():
    with criterion(2, "b_j spot table exact"):
        assert bj_coeff(2, 1, 0) == 1.0
        assert bj_coeff(2, 1, 1) == 3.0
        assert bj_coeff(2, 1, 2) == 1.0
        for n in range(1, 6):
            for k in (1, 2, 3, 5):
                assert bj_coeff(n, k, 0) == float(k) ** n
                assert bj_coeff(n, k, n) == 1.0


def test_criterion_03_hand_checked_instance():
    with criterion(3, "alpha=1, k=1, n=1, p=q=x gives 8"):
        basis = LaguerreBasis.build(1.0, 4)
        spec = DirichletFormSpec.build(1, 1.0)
        p = x_poly(basis)
        assert abs(dirichlet_inner(spec, basis, p, p) - 8.0) <= 1e-12
        assert abs(spectral_inner(basis, 1.0, 1, p, p) - 8.0) <= 1e-12


def test_criterion_04_left_definite_property_suite():
    with criterion(4, "left-definite properties on seeded 20x20"):
        for seed in range(5):
            op = seeded_pd(seed)
            for r in (0.5, 1.0, 2.0, 3.0):
                report = verify_ld_properties(op, r, 50, seed=seed + 100)
                by_name = {row.name: row for row in report.rows}
                assert by_name["lower-bound(4)"].residual <= 1e-9
                assert by_name["duality(5)"].residual <= 1e-9
                assert by_name["eigen-gram-offdiag"].residual <= 1e-9
                assert by_name["eigen-gram-diag"].residual <= 1e-9
                assert by_name["multiplicity-invariance"].status == "PASS"
            # power semigroup on the same seeded matrices
            h = op.matrix
            for r in (0.5, 1.0, 1.5, 2.0):
                for s in (0.5, 1.0, 1.5, 2.0):
                    prod = mat_power(h, r).entries @ mat_power(h, s).entries
                    assert np.max(np.abs(prod - mat_power(h, r + s).entries)) \
                        <= 1e-9 * h.norm_max ** (r + s)
        degenerate = SpectralOperator.from_diag([2.0, 2.0, 5.0])
        assert multiplicity_list(degenerate.eigenvalues) == \
            multiplicity_list(ld_operator(degenerate, 2.0).spectrum) == [(2.0, 2), (5.0, 1)]


def test_criterion_05_closed_form_lower_bound():
    with criterion(5, "closed forms t_r lower bound, 1000 samples, r in {1,2,3}"):
        op = seeded_pd(7)
        rng = np.random.default_rng(99)
        for r in (1, 2, 3):
            gamma = op.lower_bound - 0.75
            form = ClosedFormR(r, gamma, op)
            bound = form.lower_bound()
            for _ in range(1000):
                f = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
                norm_sq = float(np.vdot(f, f).real)
                scale = op.matrix.norm_max ** r * norm_sq
                assert form(f, f).real >= bound * norm_sq - 1e-9 * scale


def test_criterion_06_scale_module():
    with criterion(6, "scale: norms, isometry, duality, critical indices, classifier"):
        op = seeded_pd(11, n=12)
        rng = np.random.default_rng(12)
        for _ in range(20):
            phi = rng.normal(size=12) + 1j * rng.normal(size=12)
            psi = rng.normal(size=12) + 1j * rng.normal(size=12)
            for s in (-2.0, -1.0, 0.5, 1.0, 2.0):
                weights = (np.abs(op.eigenvalues) + 1.0) ** s
                assert hs_norm(op, s, phi) == pytest.approx(np.sqrt(weights @ np.abs(phi) ** 2),
                                                            rel=1e-12)
                for t in (-1.0, 0.0, 0.5, 2.0):
                    assert isometry_check(op, s, t, phi) <= 1e-10
                plain = complex(np.vdot(psi, phi))
                assert abs(duality_pair(op, s, phi, psi) - plain) <= 1e-12 * max(abs(plain), 1.0)
        assert critical_index(GrowthModel(1.0, -1.0)) == pytest.approx(1.0, abs=1e-14)
        assert critical_index(GrowthModel(2.0, 0.0)) == pytest.approx(-0.5, abs=1e-14)
        assert not membership(GrowthModel(1.0, -1.0), 1.0)   # s = s* excluded
        for p in (1.0, 2.0):
            for q in (-1.5, -1.0, 0.0):
                model = GrowthModel(p, q)
                s_star = critical_index(model)
                for offset in (-1.5, -0.5, -0.15, -0.06, 0.06, 0.15, 0.5, 1.5):
                    s = s_star + offset
                    assert membership(model, s) == (not partial_sum_divergent(model, s))


def test_criterion_07_extension_trials():
    with criterion(7, "deficiency/von Neumann/Friedrichs, 100 seeded trials"):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(5, 11))
            d = 1 + trial % 3
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = m @ m.conj().T + 0.5 * np.eye(n)
            c = Subspace.span(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)),
                              ambient_dim=n)
            s = minimal_relation(h, c)
            rep = deficiency_indices(s)
            assert (rep.m_plus, rep.m_minus) == (d, d)
            assert von_neumann_check(s).overall == "PASS"
            sf = friedrichs_relation(s)
            assert rel_is_selfadjoint(sf)
            assert subspaces_equal(sf.domain(), s.domain())


def test_criterion_08_friedrichs_conjecture_harness():
    with criterion(8, "power-commutation harness, oracle agreement"):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        for dim in (4, 6, 8):
            h = rng.normal(size=(dim, dim))
            h = h @ h.T + 0.5 * np.eye(dim)
            s0 = minimal_relation(h, Subspace.zero(dim))
            for n in (1, 2, 3):
                assert friedrichs_power_experiment(s0, n).verdict == "EQUAL"
        for trial in range(100):
            codim = 1 + trial % 2
            n_pow = 2 + trial % 2
            m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            h = m @ m.conj().T + 0.5 * np.eye(6)
            c = Subspace.span(rng.normal(size=(6, codim)) + 1j * rng.normal(size=(6, codim)),
                              ambient_dim=6)
            s = minimal_relation(h, c)
            assert friedrichs_power_experiment(s, 1).verdict == "EQUAL"
            main = friedrichs_power_experiment(s, n_pow)
            oracle = friedrichs_power_oracle(s, n_pow)
            assert main.verdict == oracle.verdict
        assert time.perf_counter() - start <= 10.0


def test_criterion_09_perturbations():
    with criterion(9, "perturbations: golden-ratio pair, interlacing, limits"):
        b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        spec = PerturbationSpec.from_matrix(b, [[1.0]])
        eigs, _ = relation_spectrum(perturb(np.diag([1.0, 3.0]), spec))
        expected = np.array([(5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2])
        assert np.max(np.abs(eigs - expected)) <= 1e-12

        rng = np.random.default_rng(31)
        for _ in range(100):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            a0 = m @ m.conj().T
            phi = rng.normal(size=8) + 1j * rng.normal(size=8)
            phi = phi / np.linalg.norm(phi)
            assert interlacing_check(a0, phi, float(rng.uniform(0.1, 4.0)))

        bmul = np.array([[1.0], [0.0]])
        spec_mul = PerturbationSpec(bmul, LinearRelation.multivalued(1))
        rows, target, mul_dim = limit_crosscheck(np.diag([1.0, 2.0]), spec_mul, [1e8])
        assert mul_dim == 1 and rows[0][1] <= 1e-6

        for seed in range(10):
            rng2 = np.random.default_rng(seed)
            n, d = 7, 2
            m = rng2.normal(size=(n, n)) + 1j * rng2.normal(size=(n, n))
            a0 = m @ m.conj().T
            bmat = rng2.normal(size=(n, d)) + 1j * rng2.normal(size=(n, d))
            t = rng2.normal(size=(d, d))
            theta = (t + t.T) / 2
            eigs, mul_dim = relation_spectrum(perturb(a0, PerturbationSpec.from_matrix(bmat, theta)))
            direct = np.linalg.eigvalsh(a0 + bmat @ theta @ bmat.conj().T)
            assert mul_dim == 0
            assert np.max(np.abs(eigs - direct)) <= 1e-10 * max(1.0, float(np.max(np.abs(direct))))


def test_criterion_10_sl_discretization():
    with criterion(10, "FD eigenvalue convergence orders and Dirichlet formula"):
        flat = SLCoefficients.flat()
        errors = []
        for n in (100, 200, 400):
            lam = discretize(flat, n).eigenvalues()
            errors.append(abs(lam[0] - 1.0))
        for e0, e1 in zip(errors, errors[1:]):
            assert 3.5 <= e0 / e1 <= 4.5

        jac = SLCoefficients.jacobi(1.0, 1.0)
        errors4 = []
        for n in (100, 200, 400):
            lam = discretize(jac, n, bc="neumann-type").eigenvalues()
            errors4.append(abs(lam[1] - 4.0))
        for e0, e1 in zip(errors4, errors4[1:]):
            assert 3.5 <= e0 / e1 <= 4.5

        for n in (60, 120):
            op = discretize(flat, n)
            f = np.zeros(n)
            inner = np.linspace(0.0, 1.0, n - 4)
            f[2:-2] = np.sin(np.pi * inner) ** 2
            sym, resid = greens_dirichlet_check(op, f, f)
            scale = max(1.0, op.h * float(np.sum(np.diff(f) ** 2)) / op.h ** 2)
            assert sym <= 1e-12 * scale
            assert resid <= op.h ** 2 * scale


def test_criterion_11_boundary_functional():
    with criterion(11, "boundary pairing equals -f(a) to 10 h max|f'|"):
        flat = SLCoefficients.flat()
        for n in (50, 100, 200):
            h = np.pi / (n + 1)
            xs = h * np.arange(1, n + 1)
            u = principal_solution(flat, 0.0, "a", n)
            func = boundary_functional(flat, u, "a")
            for f, fprime, f_at_a in (
                (np.ones(n), np.zeros(n), 1.0),
                (np.cos(xs), -np.sin(xs), 1.0),
                (1.0 + 0.3 * xs + xs ** 2, 0.3 + 2 * xs, 1.0),
            ):
                bound = 10 * h * max(float(np.max(np.abs(fprime))), 1.0)
                assert abs(func.pair(f) - (-f_at_a)) <= bound


def test_criterion_12_determinism_and_runtime(tmp_path):
    with criterion(12, "byte-identical reruns; suite under 60 s"):
        raw = {
            "operatorSpec": {"kind": "diag-growth", "p": 1.0, "q": -1.0, "N": 10},
            "experiment": "extensions",
            "params": {"trials": 10, "dimMin": 5, "dimMax": 9, "codim": 2},
            "seed": 3,
        }
        config = parse_config(json.dumps(raw))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        emit(run_scenario(config), "csv", out1)
        emit(run_scenario(config), "csv", out2)
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        for p1, p2 in zip(sorted((out1 / "tables").iterdir()),
                          sorted((out2 / "tables").iterdir())):
            assert p1.read_bytes() == p2.read_bytes()
        assert time.perf_counter() - _SUITE_START <= 60.0
