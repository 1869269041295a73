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

import math
from dataclasses import dataclass, replace

import numpy as np

from . import classical, extensions, hscale, leftdef, sldiscrete
from .config import ScenarioConfig
from .report import Report, Table, _worst
from .spectral import LinearRelation, Subspace, _ct, load_matrix_csv


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

    # sample i is paired with sample samples - 1 - i; the plain pairings <v_i, v_{-1-i}>
    plain = np.einsum("ij,ij->i", vectors, vectors[::-1].conj())
    scale = np.maximum(np.abs(plain), 1.0)
    duals = [np.abs(hscale.duality_pair(op, s, vectors.T, vectors[::-1].T) - plain) / scale
             for s in s_values]
    report.add_check("duality-reduction", f"{len(s_values)} s-values", _worst(np.ravel(duals)),
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


def _draw_restriction(rng: np.random.Generator, n: int, codim: int):
    """The draws of one random restriction on C^n: a matrix m and codim constraint columns
    c (codim 0 draws nothing for them), real parts before imaginary ones."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = rng.normal(size=(n, codim)) + 1j * rng.normal(size=(n, codim))
    return m, c


def _restriction(m: np.ndarray, c: np.ndarray):
    """The positive definite matrix m m* + I/2 restricted to the complement of span c,
    for one draw or a stack of them."""
    h = m @ _ct(m) + 0.5 * np.eye(m.shape[-1])
    return extensions.minimal_relation(h, Subspace.span(c))


# members x entries of a draw's first array (n^2 for a trial on C^n) in one stack. The
# arrays a stack holds grow with it: one stack per shape group raised the peak memory of
# the benchmark's 640 extension and Friedrichs trials by 13%, this budget by about 5%
_STACK_ENTRIES = 2048


def _by_shape(draws: list, trial) -> list:
    """trial's rows for every draw, in draw order, each group of same-shape draws run as
    stacks of up to _STACK_ENTRIES entries: `trial(*stacked arrays)` returns one row per
    member.

    A group whose stack raises a ValueError (a failed check, or members that disagree on a
    rank) is run again as stacks of one; an error then reports the first failing draw in
    draw order, with the message a loop over the draws would have raised.
    """
    groups = {}
    for i, arrays in enumerate(draws):
        groups.setdefault(tuple(a.shape for a in arrays), []).append(i)
    stacks = []
    for shapes, members in groups.items():
        size = max(1, _STACK_ENTRIES // max(1, math.prod(shapes[0])))
        stacks += [members[i:i + size] for i in range(0, len(members), size)]
    rows, errors = [None] * len(draws), {}
    for members in stacks:
        try:
            out = trial(*map(np.stack, zip(*(draws[i] for i in members))))
        except ValueError:
            out = []
            for i in members:
                try:
                    out += trial(*(a[None] for a in draws[i]))
                except ValueError as exc:
                    errors[i] = exc
                    out.append(None)
        for i, row in zip(members, out):
            rows[i] = row
    if errors:
        raise errors[min(errors)]
    return rows


def _run_extensions(report: Report, built: BuiltOperator, config: ScenarioConfig, rng):
    trials, dim_min, dim_max, codim = (
        config.params[key] for key in ("trials", "dimMin", "dimMax", "codim"))
    draws = []
    for _ in range(trials):
        n = int(rng.integers(dim_min, dim_max + 1))
        draws.append(_draw_restriction(rng, n, codim))

    def trial(m, c):
        s = _restriction(m, c)
        rep = extensions.deficiency_indices(s)
        ok_def = (rep.m_plus, rep.m_minus) == (codim, codim)
        ok_vn = [vn.overall == "PASS" for vn in extensions.von_neumann_check(s)]
        sf = extensions.friedrichs_relation(s)
        ok_sa = extensions.rel_is_selfadjoint(sf)
        ok_dom = extensions.subspaces_equal(sf.domain(), s.domain())
        return [(m.shape[-1], rep.m_plus, rep.m_minus, s.dim, rep.adjoint.dim,
                 ok_def, vn, bool(sa), bool(dom))
                for vn, sa, dom in zip(ok_vn, ok_sa, ok_dom)]

    rows = []
    all_ok = {"deficiency": True, "von-neumann": True, "friedrichs-sa": True, "friedrichs-dom": True}
    for trial_no, (n, m_plus, m_minus, dim_s, dim_adj, *oks) in enumerate(_by_shape(draws, trial)):
        for key, ok in zip(all_ok, oks):
            all_ok[key] &= ok
        rows.append((trial_no, n, codim, m_plus, m_minus, dim_s, dim_adj,
                     "PASS" if all(oks) else "FAIL"))
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
    draws = [_draw_restriction(rng, dim, codim) for _ in range(trials)]

    def trial(m, c):
        s = _restriction(m, c)
        return list(zip(extensions.friedrichs_power_experiment(s, n_pow),
                        extensions.friedrichs_power_oracle(s, n_pow)))

    rows = []
    agree = True
    equal_when_trivial = True
    for trial_no, (main, oracle) in enumerate(_by_shape(draws, trial)):
        agree &= main.verdict == oracle.verdict
        if codim == 0 or n_pow == 1:
            equal_when_trivial &= main.verdict == "EQUAL"
        rows.append((trial_no, dim, codim, n_pow, main.verdict, oracle.verdict,
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
    # rounding in the sweep's eigenvalues scales with their size, not only with t
    slack = 1e-10 * max(1.0, t_max, float(np.max(np.abs(spectra))))
    monotone = bool(np.all(np.diff(spectra, axis=0) >= -slack))
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
