"""Scenario orchestration: build the operator, dispatch the experiment, report.

Each experiment draws all its randomness from one numpy Generator seeded with
the config seed (PCG64, numpy's default bit generator): the one `run_scenario`
passes to the runner, or, for leftdef-verify, the property suite's own
(`leftdef.verify_ld_properties`), which leaves the runner's untouched. So
identical (config, seed) pairs reproduce identical reports byte for byte. A ValueError (LinAlgError and every
ldlab error class included) or OSError inside an experiment becomes a
`scenario-error` FAIL row with the diagnostic text. Any other exception is a
programming error, not a failed check, and propagates to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import classical, extensions, hscale, leftdef, sldiscrete
from .config import ScenarioConfig
from .report import Report, Table, _worst
from .spectral import LinearRelation, Subspace, load_matrix_csv


@dataclass(frozen=True)
class BuiltOperator:
    operator: "leftdef.SpectralOperator"
    label: str
    growth: hscale.GrowthModel | None = None
    discrete: "sldiscrete.DiscreteOperator | None" = None


def _given(spec: dict, key: str) -> dict:
    """{key: spec[key]} when the spec sets it, else {}: the callee's default applies."""
    return {key: spec[key]} if key in spec else {}


def build_operator(spec: dict) -> BuiltOperator:
    """The operator of an operatorSpec as `parse_config` types it."""
    kind, n = spec["kind"], spec.get("N")
    if kind == "diag-growth":
        model = hscale.GrowthModel(spec["p"], spec["q"])
        return BuiltOperator(model.operator(n), f"diag-growth(p={model.p},q={model.q},N={n})",
                             growth=model)
    if kind == "matrix-file":
        matrix = load_matrix_csv(spec["path"])
        return BuiltOperator(leftdef.SpectralOperator.from_matrix(matrix),
                             f"matrix-file({spec['path']})")
    if kind == "laguerre":
        eigs = np.arange(n + 1, dtype=float) + spec["k"]
        return BuiltOperator(leftdef.SpectralOperator.from_diag(eigs),
                             f"laguerre(alpha={spec['alpha']},k={spec['k']},N={n})")
    coeffs = _sl_coeffs(spec["coeffs"])   # kind "sl"
    if "delta" in spec:
        coeffs = replace(coeffs, delta=spec["delta"])
    op = sldiscrete.discretize(coeffs, n, **_given(spec, "bc"))
    return BuiltOperator(leftdef.SpectralOperator.from_matrix(op.matrix),
                         f"sl({coeffs.name},N={n},bc={op.bc})", discrete=op)


def _sl_coeffs(coeffs: dict) -> sldiscrete.SLCoefficients:
    """The named coefficient family, with its own default truncation delta."""
    name = coeffs["name"]
    if name == "flat":
        return sldiscrete.SLCoefficients.flat()
    if name == "jacobi":
        return sldiscrete.SLCoefficients.jacobi(coeffs["alpha"], coeffs["beta"])
    if name == "laguerre":
        return sldiscrete.SLCoefficients.laguerre(coeffs["alpha"], **_given(coeffs, "cutoff"))
    table = np.loadtxt(coeffs["path"], delimiter=",", ndmin=2)   # name "csv"
    if table.shape[1] != 4:
        raise ValueError(f"{coeffs['path']}: expected (x, p, q, w) rows, "
                         f"got {table.shape[1]} columns")
    return sldiscrete.SLCoefficients.from_tables(table[:, 0], table[:, 1],
                                                 table[:, 2], table[:, 3])


def run_scenario(config: ScenarioConfig) -> Report:
    rng = np.random.default_rng(config.seed)
    report = Report(
        f"ldlab scenario: {config.experiment}",
        meta={"experiment": config.experiment, "seed": config.seed},
    )
    try:
        built = build_operator(config.operator_spec)
        report.meta["operator"] = built.label
        runner = _RUNNERS[config.experiment]
        runner(report, built, config, rng)
    except (ValueError, OSError) as exc:  # module and I/O errors become FAIL rows
        report.add_failure("scenario-error", f"{type(exc).__name__}: {exc}")
    return report


def _run_leftdef_verify(report: Report, built: BuiltOperator, config: ScenarioConfig, rng):
    report.extend(leftdef.verify_ld_properties(built.operator, config.params["r"],
                                               config.params["samples"], config.seed,
                                               tol=config.tolerances["property"]))


def _run_laguerre_identity(report: Report, built: BuiltOperator, config: ScenarioConfig, rng):
    alpha, k, n, deg = (config.params[key] for key in ("alpha", "k", "n", "deg"))
    rows = classical.laguerre_identity_table(alpha, k, n, deg)
    report.add_table(Table.build(
        "laguerre_identity",
        ("alpha", "k", "n", "degP", "degQ", "dirichlet", "spectral", "residual"),
        rows,
    ))
    report.add_check("laguerre-identity", f"alpha={alpha:g}, k={k:g}, n={n}, deg<={deg}",
                     _worst(row[7] for row in rows), config.tolerances["identity"])


def _run_scale(report: Report, built: BuiltOperator, config: ScenarioConfig, rng):
    op = built.operator
    s_values, t_values, samples = (config.params[key] for key in ("s", "t", "samples"))
    # sample i is draws[i, 0] + 1j draws[i, 1]: the stream order of drawing each sample's
    # real part, then its imaginary part
    draws = rng.normal(size=(samples, 2, op.dim))
    vectors = draws[:, 0] + 1j * draws[:, 1]

    worst_iso = _worst(hscale.isometry_check(op, s, t, vectors.T)
                       for s in s_values for t in t_values)
    report.add_check("isometry", f"{len(s_values)}x{len(t_values)} grid", worst_iso,
                     config.tolerances["isometry"])

    duals = []
    for s in s_values:    # sample i is paired with sample samples - 1 - i
        pairs = hscale.duality_pair(op, s, vectors.T, vectors[::-1].T)
        for pair, v, u in zip(pairs, vectors, vectors[::-1]):
            plain = complex(np.vdot(u, v))
            duals.append(abs(complex(pair) - plain) / max(abs(plain), 1.0))
    report.add_check("duality-reduction", f"{len(s_values)} s-values", _worst(duals),
                     config.tolerances["duality"])

    stats = hscale.equivalence_check(op, 2.0, vectors.T)
    in_bounds = stats["bound_lo"] - 1e-12 <= stats["min_ratio"] and \
        stats["max_ratio"] <= stats["bound_hi"] + 1e-12
    report.add_flag("equivalence-bounds",
                    f"ratios [{stats['min_ratio']:.6g}, {stats['max_ratio']:.6g}] in "
                    f"[{stats['bound_lo']:.6g}, {stats['bound_hi']:.6g}]", in_bounds)

    if built.growth is not None:
        model = built.growth
        s_star = hscale.critical_index(model)
        offsets = (-1.5, -0.5, -0.15, -0.06, 0.06, 0.15, 0.5, 1.5)
        rows = hscale.membership_table(model, [s_star + d for d in offsets],
                                       config.params["classifierTerms"])
        report.add_table(Table.build(
            "membership", ("p", "q", "s", "s_star", "verdict", "partial_sum_verdict"), rows))
        report.add_flag("membership-classifier-agreement",
                        f"s* = {s_star:g}, {len(rows)} grid points",
                        all(r[4] == r[5] for r in rows))


def _random_minimal_relation(rng: np.random.Generator, n: int, codim: int):
    """A random positive definite matrix on C^n restricted to the complement of a
    random codim-dimensional subspace (codim 0 draws nothing for it)."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = m @ m.conj().T + 0.5 * np.eye(n)
    c = Subspace.span(rng.normal(size=(n, codim)) + 1j * rng.normal(size=(n, codim)))
    return extensions.minimal_relation(h, c)


def _run_extensions(report: Report, built: BuiltOperator, config: ScenarioConfig, rng):
    trials, dim_min, dim_max, codim = (
        config.params[key] for key in ("trials", "dimMin", "dimMax", "codim"))
    rows = []
    all_ok = {"deficiency": True, "von-neumann": True, "friedrichs-sa": True, "friedrichs-dom": True}
    for trial in range(trials):
        n = int(rng.integers(dim_min, dim_max + 1))
        s = _random_minimal_relation(rng, n, codim)
        rep = extensions.deficiency_indices(s)
        ok_def = (rep.m_plus, rep.m_minus) == (codim, codim)
        vn = extensions.von_neumann_check(s)
        ok_vn = vn.overall == "PASS"
        sf = extensions.friedrichs_relation(s)
        ok_sa = extensions.rel_is_selfadjoint(sf)
        ok_dom = extensions.subspaces_equal(sf.domain(), s.domain())
        all_ok["deficiency"] &= ok_def
        all_ok["von-neumann"] &= ok_vn
        all_ok["friedrichs-sa"] &= ok_sa
        all_ok["friedrichs-dom"] &= ok_dom
        rows.append((trial, n, codim, rep.m_plus, rep.m_minus, s.dim,
                     rep.adjoint.dim,
                     "PASS" if (ok_def and ok_vn and ok_sa and ok_dom) else "FAIL"))
    report.add_table(Table.build(
        "extension_trials",
        ("trial", "dim", "codim", "m_plus", "m_minus", "dim_S", "dim_Sstar", "status"), rows))
    inputs = f"{trials} trials, dims {dim_min}-{dim_max}, codim {codim}"
    report.add_flag("deficiency-indices", inputs, all_ok["deficiency"])
    report.add_flag("von-neumann-identity", inputs, all_ok["von-neumann"])
    report.add_flag("friedrichs-selfadjoint", inputs, all_ok["friedrichs-sa"])
    report.add_flag("friedrichs-domain", inputs, all_ok["friedrichs-dom"])


def _run_friedrichs_conjecture(report: Report, built: BuiltOperator, config: ScenarioConfig, rng):
    dim, codim, n_pow, trials = (config.params[key] for key in ("dim", "codim", "n", "trials"))
    rows = []
    agree = True
    equal_when_trivial = True
    for trial in range(trials):
        s = _random_minimal_relation(rng, dim, codim)
        main = extensions.friedrichs_power_experiment(s, n_pow)
        oracle = extensions.friedrichs_power_oracle(s, n_pow)
        agree &= main.verdict == oracle.verdict
        if codim == 0 or n_pow == 1:
            equal_when_trivial &= main.verdict == "EQUAL"
        rows.append((trial, dim, codim, n_pow, main.verdict, oracle.verdict,
                     main.dim_power_of_friedrichs, main.dim_friedrichs_of_power))
    report.add_table(Table.build(
        "friedrichs_power",
        ("trial", "dim", "codim", "n", "verdict", "oracle", "dim_SFn", "dim_SnF"), rows))
    inputs = f"{trials} trials, dim {dim}, codim {codim}, n {n_pow}"
    report.add_flag("oracle-agreement", inputs, agree)
    if codim == 0 or n_pow == 1:
        report.add_flag("trivial-case-equal", inputs, equal_when_trivial)


def _run_perturb_sweep(report: Report, built: BuiltOperator, config: ScenarioConfig, rng):
    op = built.operator
    n = op.dim
    rank, t_max, t_steps = (config.params[key] for key in ("rank", "tMax", "tSteps"))
    cols = []
    if built.discrete is not None:
        # boundary-functional columns exist only at regular endpoints;
        # non-regular ones fall through to seeded columns below
        disc = built.discrete
        declared = {"a": disc.coeffs.endpoint_a, "b": disc.coeffs.endpoint_b}
        for endpoint in ("a", "b")[:rank]:
            if declared[endpoint] != "regular":
                continue
            u = sldiscrete.principal_solution(disc.coeffs, 0.0, endpoint, disc.n_interior)
            func = sldiscrete.boundary_functional(disc.coeffs, u, endpoint)
            vec = func.representer * disc.weights * disc.h  # plain-coordinate representer
            cols.append(vec / np.linalg.norm(vec))
            report.add_table(Table.build(
                f"principal_solution_{endpoint}", ("x", "value"),
                list(zip(disc.nodes, u)),
            ))
    if len(cols) < rank:
        raw = rng.normal(size=(n, rank - len(cols))) + 1j * rng.normal(size=(n, rank - len(cols)))
        cols.extend(Subspace.span(raw).basis.T)
    b = Subspace.span(np.column_stack(cols).astype(complex)).basis
    t_grid = np.linspace(0.0, t_max, t_steps)
    family = [(float(t), float(t) * np.eye(rank)) for t in t_grid]
    rows = extensions.theta_sweep(op.matrix, b, family)
    table_rows = [(label, mul) + eigs for label, mul, eigs in rows]
    report.add_table(Table.build(
        "theta_sweep", ("t", "mul_dim") + tuple(f"eig{i}" for i in range(n)), table_rows))

    spectra = np.array([row[2] for row in rows])
    monotone = bool(np.all(np.diff(spectra, axis=0) >= -1e-10 * max(1.0, t_max)))
    report.add_flag("eigenvalue-monotone-in-t", f"rank {rank}, {t_steps} steps", monotone)

    # the operator's own eigendecomposition, not a repeat of the sweep's eigvalsh
    # (not the SL tridiagonal solver either: loading scipy.linalg for this one
    # comparison adds about 5 MB to the experiment's peak memory)
    base = op.eigenvalues
    report.add_check("t0-matches-base", "t=0",
                     float(np.max(np.abs(spectra[0] - base))), 1e-10 * max(1.0, float(base[-1])))

    if rank == 1:
        ok = extensions.interlacing_check(op, b[:, 0], max(t_max, 1.0))
        report.add_flag("rank-one-interlacing", f"t={max(t_max, 1.0):g}", ok)

    theta_mul = LinearRelation.multivalued(rank)
    spec_mul = extensions.PerturbationSpec(b, theta_mul)
    crossrows, target, mul_dim = extensions.limit_crosscheck(op.matrix, spec_mul, [1e8])
    scale = max(1.0, op.matrix.norm_max)
    report.add_check("limit-crosscheck", f"t=1e8, mul_dim={mul_dim}",
                     crossrows[0][1] / scale, config.tolerances["limit"])


_RUNNERS = {
    "leftdef-verify": _run_leftdef_verify,
    "laguerre-identity": _run_laguerre_identity,
    "scale": _run_scale,
    "extensions": _run_extensions,
    "friedrichs-conjecture": _run_friedrichs_conjecture,
    "perturb-sweep": _run_perturb_sweep,
}
