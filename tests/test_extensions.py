import functools
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldlab.extensions import (
    NotSelfAdjointError,
    NotSymmetricError,
    PerturbationSpec,
    deficiency_indices,
    form_lower_bound,
    friedrichs_power_experiment,
    friedrichs_power_oracle,
    friedrichs_relation,
    interlacing_check,
    limit_crosscheck,
    minimal_relation,
    perturb,
    relation_spectrum,
    theta_sweep,
    von_neumann_check,
)
from ldlab import extensions, scenarios, spectral
from ldlab.config import parse_config
from ldlab.leftdef import SpectralOperator
from ldlab.spectral import (
    DimensionMismatchError,
    LinearRelation,
    NotHermitianError,
    SpectrumError,
    Subspace,
    orthocomplement,
    rel_compose,
    rel_is_selfadjoint,
    rel_power,
    subspace_intersect,
    subspaces_equal,
)
from ldlab.sldiscrete import SLCoefficients, discretize


def relation_from_blocks(f_block, g_block):
    """The relation spanned by the columns of [F; G]."""
    f = np.atleast_2d(np.asarray(f_block, dtype=complex))
    g = np.atleast_2d(np.asarray(g_block, dtype=complex))
    return LinearRelation(Subspace.span(np.vstack([f, g]), 2 * f.shape[0]))


def mul_part(t: LinearRelation) -> Subspace:
    """mul t = {g : (0, g) in t} = G ker F, read off the relation's one f-block SVD:
    G V[:, r:], orthonormal since G*G = I - F*F is the identity on ker F."""
    _, _, vh, r = t._f_svd
    return Subspace(t.space_dim, t.graph.basis[t.space_dim:] @ vh[r:].conj().T)


def seeded_restriction(seed, n, codim, complex_=True):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    if complex_:
        m = m + 1j * rng.normal(size=(n, n))
    h = m @ m.conj().T + 0.5 * np.eye(n)
    c = rng.normal(size=(n, codim))
    if complex_:
        c = c + 1j * rng.normal(size=(n, codim))
    return h, Subspace.span(c, ambient_dim=n)


class TestMinimalRelation:
    def test_no_constraints_gives_full_graph(self):
        a = np.diag([1.0, 2.0])
        s = minimal_relation(a, Subspace.zero(2))
        assert subspaces_equal(s.graph, LinearRelation.from_matrix(a).graph)
        assert rel_is_selfadjoint(s)

    def test_codim_one_restriction(self):
        a = np.diag([1.0, 2.0, 3.0])
        c = Subspace.span(np.ones(3) / np.sqrt(3))
        s = minimal_relation(a, c)
        assert s.dim == 2
        rep = deficiency_indices(s)   # raises NotSymmetricError unless S is in S*
        assert (rep.m_plus, rep.m_minus) == (1, 1)
        assert not rel_is_selfadjoint(s)

    def test_full_constraint_gives_trivial_relation(self):
        a = np.diag([1.0, 2.0])
        s = minimal_relation(a, Subspace(2, np.eye(2)))
        assert s.dim == 0


class TestDeficiency:
    def test_selfadjoint_has_zero_indices(self):
        s = LinearRelation.from_matrix(np.diag([1.0, 2.0, 3.0]))
        rep = deficiency_indices(s)
        assert (rep.m_plus, rep.m_minus) == (0, 0)

    def test_codim_one(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = minimal_relation(a, Subspace.span(np.ones(3) / np.sqrt(3)))
        rep = deficiency_indices(s)
        assert (rep.m_plus, rep.m_minus) == (1, 1)

    def test_codim_two_dim_six(self):
        h, c = seeded_restriction(0, 6, 2)
        rep = deficiency_indices(minimal_relation(h, c))
        assert (rep.m_plus, rep.m_minus) == (2, 2)

    def test_rejects_nonsymmetric(self):
        t = LinearRelation.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSymmetricError):
            deficiency_indices(t)

    @pytest.mark.parametrize("codim", [1, 2, 3])
    def test_indices_match_codim_on_seeded_trials(self, codim):
        for seed in range(8):
            n = 5 + (seed % 5)
            h, c = seeded_restriction(seed, n, codim)
            rep = deficiency_indices(minimal_relation(h, c))
            assert (rep.m_plus, rep.m_minus) == (codim, codim)


class TestVonNeumann:
    def test_selfadjoint_case(self):
        s = LinearRelation.from_matrix(np.diag([1.0, 2.0]))
        assert von_neumann_check(s).overall == "PASS"

    def test_codim_one_dimension_identity(self):
        h, c = seeded_restriction(1, 5, 1)
        s = minimal_relation(h, c)
        report = von_neumann_check(s)
        assert report.overall == "PASS"
        assert s.adjoint.dim == s.dim + 2   # (n-1) + 1 + 1 = n + 1

    def test_codim_two_dimension_identity(self):
        h, c = seeded_restriction(2, 6, 2)
        s = minimal_relation(h, c)
        assert von_neumann_check(s).overall == "PASS"
        assert s.adjoint.dim == s.dim + 4

    @pytest.mark.parametrize("k", [None, 3])
    def test_takes_no_factorization(self, monkeypatch, k):
        # S*, D+ and D- are cached by deficiency_indices: the check is products only
        h, c = restriction_draws(64, 8, 2, k or 1)
        s = minimal_relation(h if k else h[0], Subspace.span(c if k else c[0]))
        deficiency_indices(s)
        svds, calls = _count_svds(monkeypatch), []
        for name in ("qr", "eigh", "eigvalsh"):
            _record_calls(monkeypatch, np.linalg, name, calls)
        reports = von_neumann_check(s)
        assert svds == [] and calls == []
        assert [r.overall for r in (reports if k else [reports])] == ["PASS"] * (k or 1)

    def test_swapped_defect_kernels_fail_orthogonality_and_span(self, monkeypatch):
        # (d-, i d-) is not in S*, and <(f, Sf), (d-, i d-)> = 2<f, d->; the swapped pair
        # (d-, i d-), (d+, -i d+) stays orthogonal
        s = minimal_relation(*seeded_restriction(65, 7, 2))
        real = LinearRelation.defect_kernels
        monkeypatch.setattr(LinearRelation, "defect_kernels",
                            property(lambda t: real.__get__(t, LinearRelation)[::-1]))
        statuses = {row.name: row.status for row in von_neumann_check(s).rows}
        assert statuses == {"dimension-identity": "PASS", "orthogonal S,D+": "FAIL",
                            "orthogonal S,D-": "FAIL", "orthogonal D+,D-": "PASS",
                            "span-equals-adjoint": "FAIL"}

    @pytest.mark.parametrize("exponent", [0, 4, 8, 12, 14])
    def test_residuals_do_not_see_the_scale(self, exponent):
        # every residual compares orthonormal bases, so ||A|| does not enter it
        for seed in range(26):
            n, codim = 4 + seed % 13, 1 + seed % 3
            h, c = seeded_restriction(seed, n, codim)
            s = minimal_relation(h * (10.0 ** exponent / np.linalg.norm(h, 2)), c)
            rep, report = deficiency_indices(s), von_neumann_check(s)
            residuals = [row.residual for row in report.rows if row.name != "dimension-identity"]
            assert (rep.m_plus, rep.m_minus) == (codim, codim), seed
            assert report.overall == "PASS", (seed, report.rows)
            assert len(residuals) == 4 and max(residuals) <= 1e-13, (seed, report.rows)


class TestFriedrichs:
    def test_already_selfadjoint_is_fixed_point(self):
        s = LinearRelation.from_matrix(np.diag([1.0, 2.0]))
        sf = friedrichs_relation(s)
        assert subspaces_equal(sf.graph, s.graph)

    def test_restriction_splits_operator_and_mul_part(self):
        # diag(1,2) restricted to span{e1}: operator part 1 on e1, mul part span{e2}
        a = np.diag([1.0, 2.0])
        s = minimal_relation(a, Subspace.span(np.array([0.0, 1.0])))
        sf = friedrichs_relation(s)
        assert rel_is_selfadjoint(sf)
        eigs, mul_dim = relation_spectrum(sf)
        np.testing.assert_allclose(eigs, [1.0])
        assert mul_dim == 1
        assert subspaces_equal(mul_part(sf), Subspace.span(np.array([0.0, 1.0])))

    def test_domain_preserved_and_extends(self):
        for seed in range(10):
            h, c = seeded_restriction(seed, 7, 1 + seed % 3)
            s = minimal_relation(h, c)
            sf = friedrichs_relation(s)
            assert rel_is_selfadjoint(sf)
            assert subspaces_equal(sf.domain(), s.domain())
            # extends S: graph(S) inside graph(S_F)
            resid = s.graph.basis - sf.graph.projector @ s.graph.basis
            assert np.max(np.abs(resid)) <= 1e-9

    def test_form_preserved_on_domain(self):
        h, c = seeded_restriction(3, 6, 2)
        s = minimal_relation(h, c)
        sf = friedrichs_relation(s)
        f, g = sf._blocks()
        rng = np.random.default_rng(4)
        x = s.domain().basis @ (rng.normal(size=s.domain().rank))
        coeffs, *_ = np.linalg.lstsq(f, x[:, None], rcond=None)
        value = complex(x.conj() @ (g @ coeffs)[:, 0])
        expected = complex(x.conj() @ h @ x)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_rejects_indefinite(self):
        s = LinearRelation.from_matrix(np.diag([-1.0, 2.0]))
        with pytest.raises(SpectrumError, match="not nonnegative"):
            friedrichs_relation(s)


class TestPowerExperiment:
    def test_selfadjoint_base_equal(self):
        s = LinearRelation.from_matrix(np.diag([1.0, 2.0, 3.0]))
        for n in (1, 2, 3):
            assert friedrichs_power_experiment(s, n).verdict == "EQUAL"

    def test_power_one_always_equal(self):
        h, c = seeded_restriction(5, 6, 2)
        s = minimal_relation(h, c)
        assert friedrichs_power_experiment(s, 1).verdict == "EQUAL"

    def test_oracle_agreement_seeded(self):
        for seed in range(12):
            codim = 1 + seed % 2
            h, c = seeded_restriction(seed, 6, codim)
            s = minimal_relation(h, c)
            for n in (2, 3):
                main = friedrichs_power_experiment(s, n)
                oracle = friedrichs_power_oracle(s, n)
                assert main.verdict == oracle.verdict
                assert (main.dim_power_of_friedrichs, main.dim_friedrichs_of_power) == \
                    (oracle.dim_power_of_friedrichs, oracle.dim_friedrichs_of_power)

    def test_rejects_large_power(self):
        s = LinearRelation.from_matrix(np.diag([1.0]))
        with pytest.raises(ValueError):
            friedrichs_power_experiment(s, 5)

    @pytest.mark.parametrize("n, composes", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
    @pytest.mark.parametrize("kind", ["symmetric", "friedrichs", "hermitian-graph"])
    @pytest.mark.parametrize("seed", [70, 71])
    def test_rel_power_by_squaring(self, monkeypatch, n, composes, kind, seed):
        s = minimal_relation(*seeded_restriction(seed, 6, 1 + seed % 2))
        t = {"symmetric": s, "friedrichs": friedrichs_relation(s),
             "hermitian-graph": _hermitian_graph(seed, 5)}[kind]
        expected = t
        for _ in range(n - 1):
            expected = rel_compose(expected, t)   # t o t o ... o t, left to right
        calls = []
        _record_calls(monkeypatch, spectral, "rel_compose", calls)
        power = rel_power(t, n)
        assert len(calls) == composes
        assert subspaces_equal(power.graph, expected.graph)


class TestPerturb:
    def test_decoupled_coordinate(self):
        spec = PerturbationSpec.from_matrix(np.array([[1.0], [0.0]]), [[0.5]])
        eigs, mul_dim = relation_spectrum(perturb(np.diag([1.0, 2.0]), spec))
        np.testing.assert_allclose(eigs, [1.5, 2.0], atol=1e-12)
        assert mul_dim == 0

    def test_two_by_two_golden_ratio_values(self):
        b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        spec = PerturbationSpec.from_matrix(b, [[1.0]])
        eigs, _ = relation_spectrum(perturb(np.diag([1.0, 3.0]), spec))
        expected = np.array([(5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2])
        np.testing.assert_allclose(eigs, expected, atol=1e-12)

    def test_purely_multivalued_theta(self):
        b = np.array([[1.0], [0.0]])
        spec = PerturbationSpec(b, LinearRelation.multivalued(1))
        rel = perturb(np.diag([1.0, 2.0]), spec)
        eigs, mul_dim = relation_spectrum(rel)
        np.testing.assert_allclose(eigs, [2.0], atol=1e-12)
        assert mul_dim == 1
        assert subspaces_equal(mul_part(rel), Subspace.span(np.array([1.0, 0.0])))

    def test_matrix_theta_matches_direct_eigensolve(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n, d = 6, 2
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a0 = m @ m.conj().T
            b = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
            t = rng.normal(size=(d, d))
            theta = (t + t.T) / 2
            spec = PerturbationSpec.from_matrix(b, theta)
            eigs, mul_dim = relation_spectrum(perturb(a0, spec))
            direct = np.linalg.eigvalsh(a0 + b @ theta @ b.conj().T)
            assert mul_dim == 0
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(eigs - direct)) <= 1e-10 * scale

    def test_mixed_theta_operator_and_mul_part(self):
        # Theta on C^2: operator part t on span{e1}, multivalued part span{e2}
        rng = np.random.default_rng(12)
        m = rng.normal(size=(5, 5))
        a0 = m @ m.T + np.eye(5)
        b = Subspace.span(rng.normal(size=(5, 2))).basis
        t = 0.8
        theta = relation_from_blocks(
            np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[t, 0.0], [0.0, 1.0]])
        )
        spec = PerturbationSpec(b, theta)
        rel = perturb(a0, spec)
        assert rel_is_selfadjoint(rel)
        eigs, mul_dim = relation_spectrum(rel)
        assert mul_dim == 1
        assert len(eigs) == 4
        # penalty-limit oracle: Theta_op + s P_M with s = 1e8
        rows, target, _ = limit_crosscheck(a0, spec, [1e8])
        np.testing.assert_allclose(target, eigs, atol=1e-12)
        assert rows[0][1] <= 1e-6

    def test_rejects_rank_deficient_b(self):
        b = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ValueError, match="independent"):
            PerturbationSpec.from_matrix(b, np.eye(2))

    def test_rejects_non_selfadjoint_theta(self):
        b = np.array([[1.0], [0.0]])
        theta = relation_from_blocks(np.array([[1.0]]), np.array([[1.0 + 1j]]))
        with pytest.raises(NotSelfAdjointError):
            PerturbationSpec(b, theta)

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_callers_b_stays_writable_and_detached(self, dtype):
        b = np.zeros((4, 1), dtype=dtype)
        b[0, 0] = 1
        spec = PerturbationSpec(b, LinearRelation.from_matrix(np.array([[1.0]])))
        assert b.flags.writeable
        assert not spec.b_map.flags.writeable
        b[1, 0] = 5
        np.testing.assert_array_equal(spec.b_map, [[1], [0], [0], [0]])


class TestLimitCrosscheck:
    def test_multivalued_limit(self):
        b = np.array([[1.0], [0.0]])
        spec = PerturbationSpec(b, LinearRelation.multivalued(1))
        rows, target, mul_dim = limit_crosscheck(np.diag([1.0, 2.0]), spec, [1e8])
        assert mul_dim == 1
        np.testing.assert_allclose(target, [2.0], atol=1e-12)
        assert rows[0][1] <= 1e-6

    def test_no_mul_part_constant_in_t(self):
        b = np.array([[1.0], [0.0]])
        spec = PerturbationSpec.from_matrix(b, [[0.7]])
        rows, target, mul_dim = limit_crosscheck(np.diag([1.0, 2.0]), spec, [1.0, 100.0, 1e6])
        assert mul_dim == 0
        assert all(abs(r[1]) <= 1e-9 for r in rows)

    def test_rank_two_fully_multivalued_on_dim4(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4))
        a0 = m @ m.T + np.eye(4)
        b = Subspace.span(rng.normal(size=(4, 2))).basis
        spec = PerturbationSpec(b, LinearRelation.multivalued(2))
        rows, target, mul_dim = limit_crosscheck(a0, spec, [1e8])
        assert mul_dim == 2
        # oracle: constrained eigenproblem on the orthocomplement of ran(B)
        from ldlab.spectral import orthocomplement
        comp = orthocomplement(Subspace.span(b)).basis
        constrained = np.linalg.eigvalsh(comp.conj().T @ a0 @ comp)
        np.testing.assert_allclose(np.sort(target), np.sort(constrained), atol=1e-9)
        assert rows[0][1] <= 1e-5


def _theta(kind):
    if kind == "matrix":
        return LinearRelation.from_matrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]]))
    if kind == "multivalued":
        return LinearRelation.multivalued(2)
    # mixed: operator part 0.8 on span{e1 + e2}, multivalued part span{e1 - e2}
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return relation_from_blocks(u @ np.diag([1.0, 0.0]), u @ np.diag([0.8, 1.0]))


def _dense_operator(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m @ m.conj().T + np.eye(n)


def _flat_sl(n):
    return np.asarray(discretize(SLCoefficients.flat(), n).matrix.entries)


def _compressed_spectrum(a0, spec):
    """(finite eigenvalues, mul_dim) of A_Theta by the compression route."""
    action, b_mul = extensions._compression(a0, spec)
    return extensions._finite_spectrum(action, b_mul), b_mul.shape[1]


class TestPerturbedSpectrumOracle:
    """The compression route against the graph route relation_spectrum(perturb(...))."""

    @pytest.mark.parametrize("kind", ["matrix", "multivalued", "mixed"])
    @pytest.mark.parametrize("operator", ["dense-8", "flat-sl-150"])
    def test_agrees_with_graph_route(self, kind, operator):
        a0 = _dense_operator(8, 31) if operator == "dense-8" else _flat_sl(150)
        rng = np.random.default_rng(32)
        n = a0.shape[0]
        b = Subspace.span(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))).basis
        spec = PerturbationSpec(b, _theta(kind))
        eigs, mul_dim = _compressed_spectrum(a0, spec)
        oracle, oracle_mul = relation_spectrum(perturb(a0, spec))
        assert mul_dim == oracle_mul == {"matrix": 0, "multivalued": 2, "mixed": 1}[kind]
        assert eigs.shape == oracle.shape
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert float(np.max(np.abs(eigs - oracle))) <= 1e-10 * scale

    def test_sweep_and_crosscheck_run_no_svd_above_n_rows(self, monkeypatch):
        import numpy.linalg._linalg as linalg_impl

        n = 40
        a0 = _flat_sl(n)
        b = Subspace.span(np.random.default_rng(33).normal(size=(n, 2))).basis
        real_svd = linalg_impl.svd
        rows_seen = []

        def counting_svd(a, *args, **kwargs):
            rows_seen.append(np.shape(a)[-2])
            return real_svd(a, *args, **kwargs)

        # np.linalg.svd for direct callers, the module global for matrix_rank/pinv
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(linalg_impl, "svd", counting_svd)
        family = [(t, t * np.eye(2)) for t in np.linspace(0.0, 10.0, 11)]
        theta_sweep(a0, b, family)
        for kind in ("multivalued", "mixed"):
            limit_crosscheck(a0, PerturbationSpec(b, _theta(kind)), [1e8])
        assert rows_seen, "the sweep made no SVD call at all; the wrapper is not in place"
        assert max(rows_seen) <= n


class _MatmulSpy(np.ndarray):
    """An array that records the operand shapes of every matmul it takes part in."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulSpy.shapes.append(tuple(np.shape(x) for x in inputs))
        plain = [x.view(np.ndarray) if isinstance(x, _MatmulSpy) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _record_calls(monkeypatch, module, name: str, log: list):
    """module.<name> wrapped to append (name, args) to `log` on every call."""
    real = getattr(module, name)

    def recording(*args, **kwargs):
        log.append((name, args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


class TestPerturbationBudget:
    """LAPACK calls and dense products of the perturbation routes."""

    def test_perturb_sweep_lapack_budget(self, monkeypatch):
        from ldlab.config import parse_config
        from ldlab.scenarios import run_scenario

        t_steps = 7
        config = parse_config('{"operatorSpec": {"kind": "sl", "coeffs": "flat", "N": 40, '
                              '"bc": "dirichlet"}, "experiment": "perturb-sweep", '
                              f'"params": {{"rank": 1, "tSteps": {t_steps}}}, "seed": 5}}')
        log = []
        for name in ("eigh", "eigvalsh"):
            _record_calls(monkeypatch, np.linalg, name, log)
        report = run_scenario(config)
        assert report.overall == "PASS"
        assert [args[0].dtype for _, args in log] == [np.float64] * len(log)
        names = [name for name, _ in log]
        # eigh: the operator's decomposition; eigvalsh: one per sweep step, whose last the
        # interlacing row reads, the crosscheck's target and its penalty solve
        assert names.count("eigh") == 1
        assert names.count("eigvalsh") == t_steps + 2

    def test_limit_crosscheck_compresses_once_without_full_svd(self, monkeypatch):
        n = 30
        b = Subspace.span(np.random.default_rng(34).normal(size=(n, 2))).basis
        spec = PerturbationSpec(b, _theta("mixed"))
        compressions, svds = [], _count_svds(monkeypatch)
        _record_calls(monkeypatch, extensions, "_compression", compressions)
        rows, target, mul_dim = limit_crosscheck(_flat_sl(n), spec, [1e6, 1e8])
        assert len(compressions) == 1
        assert svds and max(shape[-1] for shape in svds) <= b.shape[1]
        assert mul_dim == 1 and len(rows) == 2

    @pytest.mark.parametrize("kind", ["matrix", "multivalued"])
    def test_matrix_theta_takes_no_square_product(self, monkeypatch, kind):
        n = 12
        a0 = _dense_operator(n, 35)
        b = Subspace.span(np.random.default_rng(36).normal(size=(n, 2))).basis
        spec = PerturbationSpec(b, _theta(kind))
        real = extensions._compression

        def spying(*args):
            action, b_mul = real(*args)
            return action.view(_MatmulSpy), b_mul

        monkeypatch.setattr(extensions, "_compression", spying)
        monkeypatch.setattr(_MatmulSpy, "shapes", [])
        eigs, mul_dim = _compressed_spectrum(a0, spec)
        square = [shapes for shapes in _MatmulSpy.shapes if (n, n) in shapes]
        if kind == "matrix":
            assert square == [] and mul_dim == 0
            np.testing.assert_array_equal(eigs, np.linalg.eigvalsh(real(a0, spec)[0]))
        else:
            assert square, "the spy saw no product; the compression of a multivalued part is one"


class TestThetaSweepAndInterlacing:
    def test_sweep_monotone_and_endpoints(self):
        a0 = np.diag([1.0, 3.0])
        b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        family = [(t, np.array([[t]])) for t in np.linspace(0.0, 10.0, 11)]
        rows = theta_sweep(a0, b, family)
        spectra = np.array([r[2] for r in rows])
        assert np.all(np.diff(spectra, axis=0) >= -1e-12)
        np.testing.assert_allclose(spectra[0], [1.0, 3.0], atol=1e-12)

    def test_sweep_limit_matches_multivalued(self):
        # the tight t -> inf statement is limit_crosscheck's job; the sweep
        # endpoint at moderate t should already approach the multivalued spectrum
        a0 = np.diag([1.0, 3.0])
        b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        spec = PerturbationSpec(b, LinearRelation.multivalued(1))
        eigs_mul, _ = relation_spectrum(perturb(a0, spec))
        rows = theta_sweep(a0, b, [(1e4, np.array([[1e4]]))])
        finite = np.array(rows[0][2][: len(eigs_mul)])
        np.testing.assert_allclose(finite, eigs_mul, atol=1e-3)
        crossrows, target, _ = limit_crosscheck(a0, spec, [1e8])
        np.testing.assert_allclose(target, eigs_mul, atol=1e-12)
        assert crossrows[0][1] <= 1e-6

    def _sweep_case(self):
        n = 12
        a0 = _dense_operator(n, 63)
        b = Subspace.span(np.random.default_rng(64).normal(size=(n, 2))).basis
        family = [(t, t * np.array([[1.0, 0.3], [0.3, -0.5]])) for t in (0.0, 0.5, 2.0)]
        family.append(("complex", np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])))
        return a0, b, family

    def test_sweep_matches_per_theta_specs(self):
        # one eigvalsh of A0 + B Theta B* per step against the compression route of a
        # PerturbationSpec per Theta: the two agree to rounding
        a0, b, family = self._sweep_case()
        rows = theta_sweep(a0, b, family)
        assert [(label, mul) for label, mul, _ in rows] == [(label, 0) for label, _ in family]
        for (_, _, eigs), (_, theta) in zip(rows, family):
            expected, mul_dim = _compressed_spectrum(a0, PerturbationSpec.from_matrix(b, theta))
            assert mul_dim == 0 and len(eigs) == len(expected)
            scale = float(np.max(np.abs(expected)))
            assert float(np.max(np.abs(np.array(eigs) - expected))) <= 1e-12 * scale

    def test_sweep_rejects_a_bad_theta_mid_family(self):
        a0, b, family = self._sweep_case()
        not_hermitian = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            theta_sweep(a0, b, family[:2] + [("bad", not_hermitian)] + family[2:])
        with pytest.raises(DimensionMismatchError):
            theta_sweep(a0, b, family[:2] + [("bad", np.eye(3))])

    def test_single_matrix_routes_reject_stacks_and_row_mismatches(self):
        a0, b, family = self._sweep_case()
        stack = np.stack([a0, a0])
        for call in (lambda: theta_sweep(stack, b, family),
                     lambda: theta_sweep(a0, b[:-1], family),
                     lambda: interlacing_check(stack, b[:, 0], 1.0),
                     lambda: interlacing_check(a0, np.eye(13)[0], 1.0),
                     lambda: limit_crosscheck(stack, PerturbationSpec(b, _theta("mixed")), [1e8])):
            with pytest.raises(DimensionMismatchError, match="coordinate rows"):
                call()

    def test_sweep_rejects_a_dependent_b_before_any_eigensolve(self, monkeypatch):
        a0, b, family = self._sweep_case()
        log = []
        for name in ("eigh", "eigvalsh"):
            _record_calls(monkeypatch, np.linalg, name, log)
        with pytest.raises(ValueError, match="linearly independent"):
            theta_sweep(a0, np.column_stack([b[:, 0], 2 * b[:, 0]]), family)
        assert log == []

    def test_sweep_validates_a0_once(self, monkeypatch):
        # one Hermitian check for the ndarray A0, one per matrix Theta
        builds = []
        real = spectral._hermitian_scale

        def counting(entries):
            builds.append(entries.shape)
            return real(entries)

        monkeypatch.setattr(spectral, "_hermitian_scale", counting)
        a0 = np.diag(np.arange(1.0, 9.0))
        b = np.eye(8)[:, :1]
        family = [(t, np.array([[t]])) for t in np.linspace(0.0, 9.0, 10)]
        theta_sweep(a0, b, family)
        assert builds == [(8, 8)] + [(1, 1)] * 10

    def test_interlacing_validates_a0_once(self, monkeypatch):
        # one Hermitian check for the ndarray A0; the rank-one update goes to eigvalsh as is
        builds = []
        real = spectral._hermitian_scale

        def counting(entries):
            builds.append(entries.shape)
            return real(entries)

        monkeypatch.setattr(spectral, "_hermitian_scale", counting)
        assert interlacing_check(np.diag(np.arange(1.0, 9.0)), np.eye(8)[0], 2.0)
        assert builds == [(8, 8)]

    def test_interlacing_two_by_two(self):
        # eigenvalues (5 +/- sqrt 5)/2 = 1.38..., 3.61... interlace 1, 3
        a0 = np.diag([1.0, 3.0])
        phi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert interlacing_check(a0, phi, 1.0)

    def test_interlacing_seeded_dim8(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            a0 = m @ m.conj().T
            phi = rng.normal(size=8) + 1j * rng.normal(size=8)
            phi = phi / np.linalg.norm(phi)
            assert interlacing_check(a0, phi, float(rng.uniform(0.1, 5.0)))

    def test_interlacing_reads_operator_decomposition(self, monkeypatch):
        op = SpectralOperator.from_matrix(_flat_sl(20))
        phi = np.random.default_rng(37).normal(size=20)
        phi = phi / np.linalg.norm(phi)
        calls = []
        for name in ("eigh", "eigvalsh"):
            _record_calls(monkeypatch, np.linalg, name, calls)
        # eigenvalues only: mu for the operator, lambda and mu for its plain matrix
        assert interlacing_check(op, phi, 3.0)
        assert [name for name, _ in calls] == ["eigvalsh"]
        assert interlacing_check(op.matrix, phi, 3.0)
        assert [name for name, _ in calls] == ["eigvalsh"] * 3
        assert [args[0].dtype for _, args in calls] == [np.float64] * 3

    def test_interlacing_requires_positive_t(self):
        with pytest.raises(ValueError):
            interlacing_check(np.eye(2), np.array([1.0, 0.0]), 0.0)


# Oracles for the one-kernel forms of the adjoint, mul_part, the defect spaces
# and orthocomplement: the span / intersection / full-SVD complement routes.

def _complement_oracle(a: Subspace) -> Subspace:
    """Trailing left singular vectors of the full SVD of the basis."""
    if a.rank == 0:
        return Subspace(a.ambient_dim, np.eye(a.ambient_dim))
    u, s, _ = np.linalg.svd(a.basis, full_matrices=True)
    return Subspace(a.ambient_dim, u[:, int(np.sum(s > spectral.RANK_RTOL * s[0])):])


def _adjoint_oracle(t: LinearRelation) -> LinearRelation:
    """Complement of the flipped graph J(f, g) = (g, -f)."""
    n = t.space_dim
    f, g = t.graph.basis[:n], t.graph.basis[n:]
    return LinearRelation(_complement_oracle(Subspace.span(np.vstack([g, -f]), 2 * n)))


def _mul_oracle(t: LinearRelation) -> Subspace:
    """g-block of graph(t) intersected with {0} x C^n."""
    n = t.space_dim
    bottom = Subspace.span(np.vstack([np.zeros((n, n)), np.eye(n)]), 2 * n)
    return Subspace.span(subspace_intersect(t.graph, bottom).basis[n:], n)


def _defect_oracle(adjoint: LinearRelation, sign: float) -> Subspace:
    """f-block of graph(S*) intersected with graph(sign * i * I)."""
    n = adjoint.space_dim
    eig_graph = LinearRelation.from_matrix(sign * 1j * np.eye(n))
    return Subspace.span(subspace_intersect(adjoint.graph, eig_graph.graph).basis[:n], n)


def _hermitian_graph(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return LinearRelation.from_matrix(m + m.conj().T)


def _random_relation(seed, n, d):
    rng = np.random.default_rng(seed)
    return LinearRelation(Subspace.span(rng.normal(size=(2 * n, d)) + 1j * rng.normal(size=(2 * n, d))))


# label -> (builder, (m+, m-) for symmetric relations or None, dim mul)
RELATIONS = {
    "hermitian-graph-3": (lambda: _hermitian_graph(41, 3), (0, 0), 0),
    "hermitian-graph-7": (lambda: _hermitian_graph(42, 7), (0, 0), 0),
    "random-d4-in-C3": (lambda: _random_relation(43, 3, 4), None, None),
    "zero": (lambda: LinearRelation(Subspace.zero(10)), (5, 5), 0),
    "full": (lambda: LinearRelation(Subspace(10, np.eye(10))), None, 5),
}
for _c in (1, 2, 3):
    RELATIONS[f"minimal-codim{_c}"] = (
        lambda c=_c: minimal_relation(*seeded_restriction(50 + c, 7, c)), (_c, _c), 0)
    RELATIONS[f"friedrichs-codim{_c}"] = (
        lambda c=_c: friedrichs_relation(minimal_relation(*seeded_restriction(50 + c, 7, c))),
        (0, 0), _c)


def _selfadjointness_case(kind: str, seed: int, n: int, exponent: float):
    """(t, whether t = t*) for one kind of relation at operator scale 10**exponent."""
    rng = np.random.default_rng(seed)
    m = 10.0 ** exponent * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    if kind == "hermitian":
        return LinearRelation.from_matrix(m + m.conj().T), True
    if kind == "non-hermitian":
        return LinearRelation.from_matrix(m), False
    if kind == "multivalued":
        return LinearRelation.multivalued(n), True
    if kind == "non-symmetric-blocks":
        return relation_from_blocks(rng.normal(size=(n, n)), rng.normal(size=(n, n))), False
    h, c = seeded_restriction(seed, n, 1 + seed % (n - 1))
    s = minimal_relation(10.0 ** exponent * h, c)
    return (s, False) if kind == "minimal" else (friedrichs_relation(s), True)


class TestSelfadjointnessOracle:
    """rel_is_selfadjoint reads the boundary form; the oracle compares graph(t) with
    graph(t*) by projectors. Both must agree, and give the verdict the kind fixes.

    Non-Hermitian matrices are drawn at scales 1e-8 ... 1e8 only. From about
    ||A|| = 1e10 on, graph(A) is within rounding of {0} x C^n, which is self-adjoint,
    and both routes call it self-adjoint: a limit of the graph, not of either test."""

    @pytest.mark.parametrize("kind", ["hermitian", "non-hermitian", "multivalued",
                                      "non-symmetric-blocks", "minimal", "friedrichs"])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7), exponent=st.floats(-8.0, 12.0))
    def test_form_check_agrees_with_adjoint_route(self, kind, seed, n, exponent):
        if kind == "non-hermitian":
            exponent = min(exponent, 8.0)
        t, expected = _selfadjointness_case(kind, seed, n, exponent)
        assert rel_is_selfadjoint(t) == subspaces_equal(t.graph, t.adjoint.graph) == expected


class TestKernelOracles:
    """Each one-kernel form against the route it replaced, on seeded relations."""

    @pytest.mark.parametrize("label", sorted(RELATIONS))
    def test_adjoint_is_annihilator(self, label):
        t = RELATIONS[label][0]()
        adj = t.adjoint
        n = t.space_dim
        assert t.dim + adj.dim == 2 * n
        if t.dim and adj.dim:
            f, g = t.graph.basis[:n], t.graph.basis[n:]
            h, k = adj.graph.basis[:n], adj.graph.basis[n:]
            # <k, f> = <h, g> for every (f, g) in t and (h, k) in t*
            assert float(np.max(np.abs(f.conj().T @ k - g.conj().T @ h))) <= 1e-12
        assert subspaces_equal(adj.graph, _adjoint_oracle(t).graph)

    @pytest.mark.parametrize("label", sorted(RELATIONS))
    def test_mul_part_matches_intersection(self, label):
        t = RELATIONS[label][0]()
        mul = mul_part(t)
        assert subspaces_equal(mul, _mul_oracle(t))
        if RELATIONS[label][2] is not None:
            assert mul.rank == RELATIONS[label][2]

    @pytest.mark.parametrize("label", sorted(k for k, v in RELATIONS.items() if v[1]))
    def test_defect_spaces_match_intersection(self, label):
        s = RELATIONS[label][0]()
        rep = deficiency_indices(s)
        assert (rep.m_plus, rep.m_minus) == RELATIONS[label][1]
        assert subspaces_equal(rep.adjoint.graph, s.adjoint.graph)
        assert subspaces_equal(rep.defect_plus, _defect_oracle(rep.adjoint, +1.0))
        assert subspaces_equal(rep.defect_minus, _defect_oracle(rep.adjoint, -1.0))

    @pytest.mark.parametrize("label", sorted(RELATIONS))
    def test_orthocomplement_matches_full_svd(self, label):
        t = RELATIONS[label][0]()
        for a in (t.graph, t.domain(), mul_part(t)):
            comp = orthocomplement(a)
            assert comp.rank + a.rank == a.ambient_dim
            assert subspaces_equal(comp, _complement_oracle(a))


def _count_svds(monkeypatch) -> list:
    """Shapes of every numpy SVD call made after this point in the test."""
    import numpy.linalg._linalg as linalg_impl

    real_svd = linalg_impl.svd
    calls = []

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(linalg_impl, "svd", counting_svd)
    return calls


class TestSingleRankDecision:
    """S* is built once per relation, and every rank goes through RANK_RTOL."""

    def test_von_neumann_builds_adjoint_once(self, monkeypatch):
        s = minimal_relation(*seeded_restriction(60, 8, 2))
        real = LinearRelation.adjoint.func
        calls = []

        def counting_adjoint(t):
            calls.append(t.dim)
            return real(t)

        prop = functools.cached_property(counting_adjoint)
        prop.__set_name__(LinearRelation, "adjoint")
        monkeypatch.setattr(LinearRelation, "adjoint", prop)
        assert deficiency_indices(s).m_plus == 2
        assert von_neumann_check(s).overall == "PASS"
        assert calls == [s.dim]
        sf = friedrichs_relation(s)
        assert rel_is_selfadjoint(sf) and rel_is_selfadjoint(friedrichs_relation(s))
        assert calls == [s.dim]   # the symmetry and self-adjointness checks read F*G only

    @pytest.mark.parametrize("label", sorted(RELATIONS))
    def test_selfadjointness_takes_no_factorization(self, monkeypatch, label):
        t = RELATIONS[label][0]()
        svds, qrs = _count_svds(monkeypatch), []
        _record_calls(monkeypatch, np.linalg, "qr", qrs)
        rel_is_selfadjoint(t)
        assert svds == [] and qrs == []
        assert "adjoint" not in vars(t)

    def test_extension_trial_svd_budget(self, monkeypatch):
        s = minimal_relation(*seeded_restriction(61, 8, 1))
        calls = _count_svds(monkeypatch)
        # one trial of the extensions scenario
        rep = deficiency_indices(s)
        vn = von_neumann_check(s)
        sf = friedrichs_relation(s)
        assert (rep.m_plus, rep.m_minus) == (1, 1) and vn.overall == "PASS"
        assert rel_is_selfadjoint(sf)
        assert subspaces_equal(sf.domain(), s.domain())
        # two defect kernels of S* (dim 9) and the f blocks of S and S_F; the von Neumann
        # check reads one Gram matrix and takes none
        assert calls == [(8, 9), (8, 9), (8, 7), (8, 8)]

    def test_friedrichs_trial_svd_budget(self, monkeypatch):
        s = minimal_relation(*seeded_restriction(62, 10, 2))
        calls = _count_svds(monkeypatch)
        # one trial of the friedrichs-conjecture scenario at n = 4
        main = friedrichs_power_experiment(s, 4)
        oracle = friedrichs_power_oracle(s, 4)
        assert main == oracle
        # S^4 = S^2 o S^2 on both routes: two compositions per power, not three
        assert len(calls) == 23, calls

    def test_sweep_takes_one_svd_and_one_eigvalsh_per_step(self, monkeypatch):
        a0 = _dense_operator(8, 39)
        b = Subspace.span(np.random.default_rng(40).normal(size=(8, 2))).basis
        family = [(t, t * np.array([[0.7, 0.2], [0.2, -0.4]])) for t in (0.5, 1.0, 2.0)]
        calls, eigensolves = _count_svds(monkeypatch), []
        _record_calls(monkeypatch, np.linalg, "eigvalsh", eigensolves)
        theta_sweep(a0, b, family)
        # B's independence, checked once for the sweep; each step one eigvalsh of
        # A0 + B Theta B*, with no relation (graph QR, f-block SVD) built for Theta
        assert calls == [(8, 2)], calls
        assert [args[0].shape for _, args in eigensolves] == [(8, 8)] * len(family)

    def test_spec_independence_uses_rank_rtol(self, monkeypatch):
        b = np.zeros((4, 2))
        b[0, :] = 1.0
        b[1, 1] = 1e-6     # sigma_min / sigma_max ~ 5e-7
        assert PerturbationSpec.from_matrix(b, np.eye(2)).b_map.shape == (4, 2)
        monkeypatch.setattr(spectral, "RANK_RTOL", 1e-4)
        with pytest.raises(ValueError, match="linearly independent"):
            PerturbationSpec.from_matrix(b, np.eye(2))


def _derived_spaces(t: LinearRelation) -> dict:
    """Basis of every derived space cached on t, by name."""
    d_plus, d_minus = t.defect_kernels
    return {"adjoint": t.adjoint.graph.basis, "domain": t.domain().basis,
            "defect+": d_plus.basis, "defect-": d_minus.basis,
            "mul_extension": t.mul_extension.graph.basis, "operator_part": t.operator_part}


class TestCachedDerivedSpaces:
    """Each derived space is computed once per relation object and is what a fresh
    computation on an equal but distinct object gives."""

    @pytest.mark.parametrize("label", sorted(RELATIONS))
    def test_cached_equals_fresh(self, label):
        t = RELATIONS[label][0]()
        cached = _derived_spaces(t)
        again = _derived_spaces(t)
        twin = LinearRelation(Subspace(t.graph.ambient_dim, t.graph.basis.copy()))
        fresh = _derived_spaces(twin)
        for name, basis in cached.items():
            assert again[name] is basis, name
            assert fresh[name] is not basis, name
            np.testing.assert_array_equal(fresh[name], basis, err_msg=name)
        assert t.adjoint is t.adjoint and twin.adjoint is not t.adjoint

    def test_friedrichs_of_relation_with_mul_part_is_fixed_point(self):
        # dim dom = dim S - dim mul: the span, not QR, decides the rank
        sf = friedrichs_relation(minimal_relation(*seeded_restriction(63, 7, 2)))
        assert sf.domain().rank < sf.dim
        again = friedrichs_relation(sf)
        assert again.dim == sf.dim
        assert subspaces_equal(again.graph, sf.graph)


def _ortho_defect(basis) -> float:
    if basis.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[1]))))


def _split_relation(seed, n, r, extra, selfadjoint):
    """(t, M): t = graph(M) on an r-dimensional D = ran Q_r, plus {0} x N, with Q a random
    unitary. Self-adjoint t has M Hermitian and N = D^perp; otherwise M is arbitrary and
    N is `extra` directions of D^perp. F has rank r < dim t whenever N is not {0}."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d, perp = q[:, :r], q[:, r:]
    m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    if selfadjoint:
        m = m + m.conj().T
    else:
        perp = perp[:, :extra]
    cols = np.hstack([np.vstack([d, d @ m]), np.vstack([np.zeros_like(perp), perp])])
    return LinearRelation(Subspace.span(cols, 2 * n)), m


def _operator_part_reference(t: LinearRelation) -> np.ndarray:
    """D* G F^+ D by least squares, symmetrized: the formula the one-SVD split replaced."""
    n = t.space_dim
    f, g = t.graph.basis[:n], t.graph.basis[n:]
    d = t.domain().basis
    coeffs, *_ = np.linalg.lstsq(f, d, rcond=None)
    h = d.conj().T @ (g @ coeffs)
    return (h + h.conj().T) / 2


class TestOneSvdSplit:
    """dom t = U_r, (dom t)^perp = U[:, r:], mul t = G V[:, r:] and the operator part, all
    read off the one SVD F = U S V* of the f block."""

    @staticmethod
    def _check_split(t: LinearRelation):
        n = t.space_dim
        dom, mul = t.domain(), mul_part(t)
        u = t._f_svd[0]
        # rank(dom) + dim ker F = dim t: G is isometric on ker F, so dim mul = dim ker F
        assert dom.rank + mul.rank == t.dim
        np.testing.assert_array_equal(dom.basis, u[:, :dom.rank])
        assert u.shape == (n, n) and _ortho_defect(u) <= 1e-12
        if dom.rank < n and t.dim:
            assert float(np.max(np.abs(u[:, dom.rank:].conj().T @ t.graph.basis[:n]))) <= 1e-12
        if rel_is_selfadjoint(t) and dom.rank:
            ref = _operator_part_reference(t)
            assert t.operator_part.shape == (dom.rank, dom.rank)
            assert float(np.max(np.abs(t.operator_part - ref))) <= 1e-12 * np.linalg.norm(ref, 2)

    @pytest.mark.parametrize("label", sorted(RELATIONS))
    def test_split_of_fixture(self, label):
        self._check_split(RELATIONS[label][0]())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), r=st.integers(1, 8),
           extra=st.integers(0, 8), selfadjoint=st.booleans())
    def test_split_of_generated_relation(self, seed, n, r, extra, selfadjoint):
        r = min(r, n)
        extra = min(extra, n - r)
        t, m = _split_relation(seed, n, r, extra, selfadjoint)
        assert t.domain().rank == r
        assert mul_part(t).rank == (n - r if selfadjoint else extra)
        assert rel_is_selfadjoint(t) == selfadjoint   # a random complex M is not Hermitian
        self._check_split(t)
        if selfadjoint:
            eigs, mul_dim = relation_spectrum(t)
            assert mul_dim == n - r
            scale = np.linalg.norm(m, 2)
            assert float(np.max(np.abs(eigs - np.linalg.eigvalsh(m)))) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8))
    def test_spectrum_of_a_graph_is_the_matrix_spectrum(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = m + m.conj().T
        eigs, mul_dim = relation_spectrum(LinearRelation.from_matrix(a))
        assert mul_dim == 0
        scale = max(1.0, np.linalg.norm(a, 2))
        assert float(np.max(np.abs(eigs - np.linalg.eigvalsh(a)))) <= 1e-12 * scale

    def test_purely_multivalued_relation_has_empty_operator_part(self):
        t = LinearRelation.multivalued(3)
        assert t.operator_part.shape == (0, 0)
        eigs, mul_dim = relation_spectrum(t)
        assert eigs.shape == (0,) and mul_dim == 3

    def test_no_least_squares_anywhere(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        a0 = _dense_operator(8, 41)
        b = Subspace.span(np.random.default_rng(42).normal(size=(8, 2))).basis
        kinds = ("matrix", "multivalued", "mixed")
        assert [row[1] for row in theta_sweep(a0, b, [(0.5, 0.5 * np.eye(2))])] == [0]
        for kind, mul in zip(kinds, (0, 2, 1)):
            spec = PerturbationSpec(b, _theta(kind))
            assert _compressed_spectrum(a0, spec)[1] == mul
            rows, target, mul_dim = limit_crosscheck(a0, spec, [1e8])
            eigs, graph_mul = relation_spectrum(perturb(a0, spec))
            assert mul_dim == graph_mul and rows[0][1] <= 1e-5
            np.testing.assert_allclose(eigs, target, atol=1e-9)
            assert relation_spectrum(_theta(kind))[1] == mul_dim

    def test_spanned_multivalued_relation_has_no_domain(self):
        # the f block is zero up to rounding; its cutoff is relative to 1, not to sigma_max(F)
        rng = np.random.default_rng(2998)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        t = LinearRelation(Subspace.span(np.vstack([np.zeros((2, 2)), q]), 4))
        assert t.domain().rank == 0 and mul_part(t).rank == 2


class TestScaleProperties:
    """Deficiency, von Neumann and Friedrichs verdicts at operator scales 1e-8 ... 1e12, and
    the bases built without a rank decision are orthonormal there."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 9), codim=st.integers(1, 3),
           exponent=st.floats(-8.0, 12.0))
    def test_verdicts_and_bases(self, seed, n, codim, exponent):
        codim = min(codim, n - 1)
        h, c = seeded_restriction(seed, n, codim)
        s = minimal_relation(10.0 ** exponent * h, c)
        rep = deficiency_indices(s)
        assert (rep.m_plus, rep.m_minus) == (codim, codim)
        assert rep.adjoint.dim == s.dim + 2 * codim
        assert von_neumann_check(s).overall == "PASS"
        sf = friedrichs_relation(s)
        assert rel_is_selfadjoint(sf)
        assert sf.dim == n
        # QR graph of S and of S_F, the sqrt2 F ker(G -/+ iF) defect bases
        for basis in (s.graph.basis, sf.graph.basis, rep.defect_plus.basis,
                      rep.defect_minus.basis):
            assert _ortho_defect(basis) <= 1e-13

    @pytest.mark.xfail(strict=True, reason=(
        "graph bases are not scale-invariant: rounding in the f block of the Friedrichs "
        "graph exceeds RANK_RTOL * sigma_max(F) once ||A|| is about 1e6, so dom S_F "
        "gains spurious dimensions"))
    def test_friedrichs_domain_at_large_scale(self):
        h, c = seeded_restriction(64, 6, 2)
        s = minimal_relation(1e8 * h, c)
        sf = friedrichs_relation(s)
        assert subspaces_equal(sf.domain(), s.domain())
        assert mul_part(sf).rank == 2

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: at dim 11 the oracle's friedrichs_relation of the triple-space "
        "power (_power_triple_space(s, 4)) of trial 6 has boundary-form defect 2.2e-10, "
        "over SUBSPACE_TOL 1e-10, so the run ends in scenario-error NotSelfAdjointError"))
    def test_friedrichs_oracle_at_dim_11(self):
        config = parse_config(json.dumps({
            "operatorSpec": {"kind": "diag-growth", "p": 1.0, "q": -1.0, "N": 10},
            "experiment": "friedrichs-conjecture",
            "params": {"dim": 11, "codim": 1, "n": 4, "trials": 20}, "seed": 0}))
        report = scenarios.run_scenario(config)
        assert not any(r.name == "scenario-error" for r in report.rows), report.rows

    def test_multivalued_bases_orthonormal_by_construction(self):
        sf = friedrichs_relation(minimal_relation(*seeded_restriction(65, 8, 3)))
        mul = mul_part(sf)
        assert mul.rank == 3 and _ortho_defect(mul.basis) <= 1e-13
        inter = subspace_intersect(sf.graph, sf.adjoint.graph)
        assert inter.rank == sf.dim and _ortho_defect(inter.basis) <= 1e-13


def restriction_draws(seed, n, codim, k):
    """(h, c): k seeded positive definite matrices on C^n and k blocks of codim constraint
    columns, stacked (k, n, n) and (k, n, codim) as the scenarios draw them."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    h = m @ np.swapaxes(m.conj(), -1, -2) + 0.5 * np.eye(n)
    c = rng.normal(size=(k, n, codim)) + 1j * rng.normal(size=(k, n, codim))
    return h, c


def stack_and_singles(h, c):
    """The minimal relations of a stack of draws, as one stack and one by one."""
    return (minimal_relation(h, Subspace.span(c)),
            [minimal_relation(h[i], Subspace.span(c[i])) for i in range(len(h))])


class TestStackEqualsLoop:
    """A stack of same-shape relations gives, bitwise, each member's result as a single
    relation: every LAPACK call and product runs member by member in one call."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 12), codim=st.integers(0, 3),
           k=st.integers(1, 8))
    def test_relation_layer(self, seed, n, codim, k):
        s, singles = stack_and_singles(*restriction_draws(seed, n, codim, k))
        rep = deficiency_indices(s)
        reports = von_neumann_check(s)
        sf = friedrichs_relation(s)
        inter = subspace_intersect(s.graph, s.adjoint.graph)
        assert len(reports) == k
        for i, t in enumerate(singles):
            one = deficiency_indices(t)
            assert (rep.m_plus, rep.m_minus) == (one.m_plus, one.m_minus) == (codim, codim)
            pairs = ((s.graph, t.graph), (rep.defect_plus, one.defect_plus),
                     (rep.defect_minus, one.defect_minus), (rep.adjoint.graph, one.adjoint.graph),
                     (sf.graph, friedrichs_relation(t).graph),
                     (inter, subspace_intersect(t.graph, t.adjoint.graph)))
            for stacked, single in pairs:
                np.testing.assert_array_equal(stacked.basis[i], single.basis)
            assert reports[i].rows == von_neumann_check(t).rows
            assert form_lower_bound(s)[i] == form_lower_bound(t)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 12), codim=st.integers(0, 3),
           k=st.integers(1, 8), power=st.integers(1, 4))
    def test_power_experiment_and_oracle(self, seed, n, codim, k, power):
        s, singles = stack_and_singles(*restriction_draws(seed, n, codim, k))
        for experiment in (friedrichs_power_experiment, friedrichs_power_oracle):
            try:
                verdicts = experiment(s, power)
            except spectral.RaggedRankError:
                assume(False)   # a stack that must be run apart: test_ragged_rank_splits_out
            except ValueError as exc:
                # at n >= 11 and power 4, S_F^4 can fail its self-adjointness check: the
                # stack names a member, whose own run raises the same error
                named = re.fullmatch(r"(.*) \(stack member (\d+) of \d+\)", str(exc))
                with pytest.raises(type(exc)) as single:
                    experiment(singles[int(named[2]) if named else 0], power)
                assert str(single.value) == (named[1] if named else str(exc))
                return
            assert verdicts == [experiment(t, power) for t in singles]
        for route in (rel_power, extensions._power_triple_space):
            stacked = route(s, power).graph.basis
            for i, t in enumerate(singles):
                np.testing.assert_array_equal(stacked[i], route(t, power).graph.basis)

    def test_ragged_rank_splits_out(self):
        h, c = restriction_draws(70, 8, 2, 4)
        c[1, :, 1] = c[1, :, 0]     # member 1's constraints span one dimension
        with pytest.raises(spectral.RaggedRankError, match=r"disagree on a rank: \[1, 2\]"):
            Subspace.span(c)

        def trial(h, c):
            s = minimal_relation(h, Subspace.span(c))
            rep = deficiency_indices(s)
            return [(rep.m_plus, rep.m_minus, basis) for basis in s.graph.basis]

        rows = scenarios._by_shape([(h[i], c[i]) for i in range(4)], trial)
        assert [row[:2] for row in rows] == [(2, 2), (1, 1), (2, 2), (2, 2)]
        for i, (_, _, basis) in enumerate(rows):
            np.testing.assert_array_equal(
                basis, minimal_relation(h[i], Subspace.span(c[i])).graph.basis)

    def test_failing_member_is_named_and_reported_in_trial_order(self):
        h, c = restriction_draws(71, 6, 1, 5)
        h[2] = -h[2]     # the third member's form is negative definite
        with pytest.raises(SpectrumError) as single:
            friedrichs_relation(minimal_relation(h[2], Subspace.span(c[2])))
        message = str(single.value)
        assert message.startswith("relation is not nonnegative (form lower bound -")
        with pytest.raises(SpectrumError) as stacked:
            friedrichs_relation(minimal_relation(h, Subspace.span(c)))
        assert str(stacked.value) == message + " (stack member 2 of 5)"

        # draw 3 (n = 6) fails in the first group, draw 2 (n = 5) in the second: the scenario
        # reports draw 2, with the message a loop over the draws would have raised
        other_h, other_c = restriction_draws(72, 5, 1, 1)
        h[3] = -h[3]
        draws = [(h[0], c[0]), (h[1], c[1]), (-other_h[0], other_c[0]), (h[3], c[3])]

        def trial(h, c):
            return [sf.dim for sf in [friedrichs_relation(minimal_relation(h, Subspace.span(c)))]
                    for _ in range(len(h))]

        with pytest.raises(SpectrumError) as first:
            scenarios._by_shape(draws, trial)
        with pytest.raises(SpectrumError) as loop:
            friedrichs_relation(minimal_relation(-other_h[0], Subspace.span(other_c[0])))
        assert str(first.value) == str(loop.value)


def _record_shapes(monkeypatch, module, name: str) -> list:
    """Shapes of the first argument of every call of module.name after this point."""
    real, shapes = getattr(module, name), []

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return shapes


class TestStackBudget:
    """A K-member stack makes the calls of one member, each with a leading K."""

    # one extension trial at n = 8, codim 1, after minimal_relation: the SVDs of
    # `test_extension_trial_svd_budget`, the complete QR of [G; -F] (S*) and the QR of the
    # Friedrichs graph, and one orthonormality check per Subspace built: S*, D+, D-, S_F and
    # the domains of S and S_F
    SVDS = [(8, 9), (8, 9), (8, 7), (8, 8)]
    QRS = [(16, 7), (16, 8)]
    CHECKS = [(16, 9), (8, 1), (8, 1), (16, 8), (8, 7), (8, 7)]

    @staticmethod
    def _counters(monkeypatch):
        return (_count_svds(monkeypatch), _record_shapes(monkeypatch, np.linalg, "qr"),
                _record_shapes(monkeypatch, spectral, "_ortho_defect"))

    @pytest.mark.parametrize("k", [None, 1, 4])
    def test_extension_trial(self, monkeypatch, k):
        h, c = restriction_draws(61, 8, 1, k or 1)
        s = minimal_relation(h if k else h[0], Subspace.span(c if k else c[0]))
        svds, qrs, checks = self._counters(monkeypatch)
        rep = deficiency_indices(s)
        vn = von_neumann_check(s)
        sf = friedrichs_relation(s)
        assert (rep.m_plus, rep.m_minus) == (1, 1)
        assert np.all(rel_is_selfadjoint(sf))
        assert np.all(subspaces_equal(sf.domain(), s.domain()))
        assert all(r.overall == "PASS" for r in (vn if k else [vn]))
        lead = (k,) if k else ()
        assert svds == [lead + shape for shape in self.SVDS]
        assert qrs == [lead + shape for shape in self.QRS]
        assert checks == [lead + shape for shape in self.CHECKS]

    def test_friedrichs_trial(self, monkeypatch):
        h, c = restriction_draws(62, 10, 2, 4)
        single = minimal_relation(h[0], Subspace.span(c[0]))
        s = minimal_relation(h, Subspace.span(c))
        counted = []
        for relation in (single, s):
            counters = self._counters(monkeypatch)
            friedrichs_power_experiment(relation, 4)
            friedrichs_power_oracle(relation, 4)
            counted.append(counters)
            monkeypatch.undo()
        (svds, qrs, checks), (stack_svds, stack_qrs, stack_checks) = counted
        assert (len(svds), len(qrs), len(checks)) == (23, 3, 27)
        assert stack_svds == [(4,) + shape for shape in svds]
        assert stack_qrs == [(4,) + shape for shape in qrs]
        assert stack_checks == [(4,) + shape for shape in checks]

    def test_corrupted_member_is_named(self):
        h, c = restriction_draws(63, 8, 2, 4)
        basis = minimal_relation(h, Subspace.span(c)).graph.basis.copy()
        basis[2, 3, 1] += 1e-9
        with pytest.raises(SpectrumError,
                           match=r"^basis columns not orthonormal: \S+ \(stack member 2 of 4\)$"):
            Subspace(16, basis)
        with pytest.raises(SpectrumError, match=r"^basis columns not orthonormal: \S+$"):
            Subspace(16, basis[2])
        for i in (0, 1, 3):
            Subspace(16, basis[i])


def _scenario_table(experiment: str, params: dict, seed: int):
    config = parse_config(json.dumps({
        "operatorSpec": {"kind": "diag-growth", "p": 1.0, "q": -1.0, "N": 10},
        "experiment": experiment, "params": params, "seed": seed}))
    report = scenarios.run_scenario(config)
    assert report.overall == "PASS", report.rows
    return report.tables[0].rows


class TestStackedScenarios:
    """The extension and Friedrichs drivers run same-size trials as stacks (two stacks per
    size here: 2048 entries hold 20 trials on C^10); their rows are those of the
    trial-by-trial loop over the same seeded stream, kept here as the reference."""

    @staticmethod
    def _loop_restriction(rng, n, codim):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = m @ m.conj().T + 0.5 * np.eye(n)
        c = Subspace.span(rng.normal(size=(n, codim)) + 1j * rng.normal(size=(n, codim)))
        return minimal_relation(h, c)

    def test_extension_rows_are_the_loop_rows(self):
        trials, codim, seed = 70, 2, 17
        rng = np.random.default_rng(seed)
        expected = []
        for trial in range(trials):
            n = int(rng.integers(10, 12))
            s = self._loop_restriction(rng, n, codim)
            rep = deficiency_indices(s)
            sf = friedrichs_relation(s)
            ok = ((rep.m_plus, rep.m_minus) == (codim, codim)
                  and von_neumann_check(s).overall == "PASS" and rel_is_selfadjoint(sf)
                  and subspaces_equal(sf.domain(), s.domain()))
            expected.append((trial, n, codim, rep.m_plus, rep.m_minus, s.dim, rep.adjoint.dim,
                             "PASS" if ok else "FAIL"))
        params = {"trials": trials, "dimMin": 10, "dimMax": 11, "codim": codim}
        assert _scenario_table("extensions", params, seed) == tuple(expected)

    def test_friedrichs_rows_are_the_loop_rows(self):
        trials, dim, codim, power, seed = 25, 10, 2, 3, 18
        rng = np.random.default_rng(seed)
        expected = []
        for trial in range(trials):
            s = self._loop_restriction(rng, dim, codim)
            main = friedrichs_power_experiment(s, power)
            oracle = friedrichs_power_oracle(s, power)
            expected.append((trial, dim, codim, power, main.verdict, oracle.verdict,
                             main.dim_power_of_friedrichs, main.dim_friedrichs_of_power))
        params = {"dim": dim, "codim": codim, "n": power, "trials": trials}
        assert _scenario_table("friedrichs-conjecture", params, seed) == tuple(expected)
