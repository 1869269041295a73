import json
import math

import numpy as np
import pytest

from ldlab import classical, extensions, hscale, scenarios
from ldlab.cli import main
from ldlab.config import (
    COEFFS, EXPERIMENTS, FLOATS, OPERATORS, PARAMS, REQUIRED, TOLERANCES, ConfigError,
    parse_config,
)
from ldlab.leftdef import SpectralOperator
from ldlab.report import Report, Table, emit
from ldlab.scenarios import build_operator, run_scenario
from ldlab.spectral import LinearRelation, Subspace


def make_config(**overrides):
    base = {
        "operatorSpec": {"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": 8},
        "experiment": "laguerre-identity",
        "params": {"alpha": 1.0, "k": 1.0, "n": 2, "deg": 6},
        "seed": 0,
    }
    base.update(overrides)
    return base


class TestParseConfig:
    def test_valid_laguerre_identity(self):
        config = parse_config(json.dumps(make_config()))
        assert config.experiment == "laguerre-identity"
        assert config.seed == 0

    def test_rejects_alpha_below_minus_one(self):
        bad = make_config(params={"alpha": -2.0, "k": 1.0, "n": 2, "deg": 6})
        with pytest.raises(ConfigError, match="alpha > -1"):
            parse_config(json.dumps(bad))

    def test_missing_seed_defaults_to_zero(self):
        raw = make_config()
        del raw["seed"]
        config = parse_config(json.dumps(raw))
        assert config.seed == 0
        report = run_scenario(config)
        assert report.meta["seed"] == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer, got -1"):
            parse_config(json.dumps(make_config(seed=-1)))

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps(make_config(bogus=1)))

    def test_all_errors_collected(self):
        bad = make_config(
            operatorSpec={"kind": "laguerre", "alpha": -3.0, "k": -1.0, "N": 8},
            params={"alpha": -2.0, "k": 1.0, "n": 9, "deg": 6},
            seed="zero",
        )
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert len(err.value.errors) >= 4

    def test_inherited_operator_value_reported_once(self):
        # laguerre-identity takes alpha from the operatorSpec only when it passed there
        bad = make_config(operatorSpec={"kind": "laguerre", "alpha": -3.0, "k": 1.0, "N": 8},
                          params={})
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert err.value.errors == ["operatorSpec: alpha=-3.0 violates alpha > -1"]

    def test_dim_min_above_dim_max_is_config_error(self):
        bad = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
            experiment="extensions",
            params={"trials": 2, "dimMin": 9, "dimMax": 5, "codim": 1},
            seed="zero",
        )
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert "params: dimMin=9 exceeds dimMax=5" in err.value.errors
        assert len(err.value.errors) == 2   # reported together with the bad seed

    @pytest.mark.parametrize("params, message", [
        ({"dimMin": 12}, "params: dimMin=12 exceeds dimMax=10"),
        ({"dimMax": 3}, "params: dimMin=5 exceeds dimMax=3"),
    ])
    def test_dim_bound_against_default_is_config_error(self, params, message):
        # the omitted bound takes the default the extensions runner uses
        bad = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
            experiment="extensions",
            params={"trials": 2, **params},
        )
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert err.value.errors == [message]

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{nope")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(json.dumps(make_config(experiment="frobnicate")))

    def test_sl_operator_spec(self):
        raw = make_config(
            operatorSpec={"kind": "sl", "coeffs": "flat", "N": 30, "bc": "dirichlet"},
            experiment="perturb-sweep",
            params={"rank": 1, "tMax": 5.0, "tSteps": 6},
        )
        config = parse_config(json.dumps(raw))
        assert config.operator_spec["kind"] == "sl"

    def test_sl_laguerre_cutoff_must_be_a_positive_number(self):
        for cutoff in ([40], "40", 0.0):
            spec = {"kind": "sl", "N": 20,
                    "coeffs": {"name": "laguerre", "alpha": 1.0, "cutoff": cutoff}}
            with pytest.raises(ConfigError, match="cutoff"):
                parse_config(json.dumps(make_config(operatorSpec=spec)))

    def test_sl_rejects_bad_bc(self):
        raw = make_config(operatorSpec={"kind": "sl", "coeffs": "flat", "N": 30, "bc": "robin"})
        with pytest.raises(ConfigError, match="bc"):
            parse_config(json.dumps(raw))


DIAG = {"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6}

# The defaults each experiment ran with before they were declared in one table.
FILLED_DEFAULTS = [
    ("leftdef-verify", DIAG, {"r": 2.0, "samples": 50}),
    ("laguerre-identity", DIAG, {"alpha": 1.0, "k": 1.0, "n": 1, "deg": 6}),
    ("laguerre-identity", {"kind": "laguerre", "alpha": 0.5, "k": 2.0, "N": 4},
     {"alpha": 0.5, "k": 2.0, "n": 1, "deg": 6}),
    ("scale", DIAG, {"s": [-2.0, -1.0, 0.0, 1.0, 2.0], "t": [0.0, 0.5, 1.0, 2.0],
                     "samples": 25, "classifierTerms": 1000000}),
    ("extensions", DIAG, {"trials": 25, "dimMin": 5, "dimMax": 10, "codim": 1}),
    ("friedrichs-conjecture", DIAG, {"dim": 6, "codim": 1, "n": 2, "trials": 20}),
    ("perturb-sweep", DIAG, {"rank": 1, "tMax": 10.0, "tSteps": 11}),
]


# One valid object per operator kind and coefficient family, each setting every declared key.
SPECS = {
    "diag-growth": {"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
    "matrix-file": {"kind": "matrix-file", "path": "operator.csv"},
    "sl": {"kind": "sl", "coeffs": "flat", "N": 8, "bc": "dirichlet", "delta": 0.0},
    "laguerre": {"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": 8},
}
COEFF_OBJECTS = {
    "flat": {"name": "flat"},
    "jacobi": {"name": "jacobi", "alpha": 1.0, "beta": 1.0},
    "laguerre": {"name": "laguerre", "alpha": 1.0, "cutoff": 20.0},
    "csv": {"name": "csv", "path": "coeffs.csv"},
}

# (section, owner, key, declaration) for every key of every declaration table; the
# owner is the operator kind, coefficient family or experiment that declares the key.
DECLARED = (
    [("operatorSpec", kind, key, decl) for kind, schema in OPERATORS.items()
     for key, decl in schema.items()]
    + [("operatorSpec.coeffs", name, key, decl) for name, schema in COEFFS.items()
       for key, decl in schema.items()]
    + [("params", experiment, key, decl) for experiment, schema in PARAMS.items()
       for key, decl in schema.items()]
    + [("tolerances", "", key, decl) for key, decl in TOLERANCES.items()]
)
OMITTED = object()


def config_with(section, owner, key, value):
    """A valid config, except that `key` of `section` is `value` (absent when OMITTED)."""
    spec, experiment, params, tolerances = dict(SPECS["diag-growth"]), "leftdef-verify", {}, {}
    if section == "operatorSpec":
        spec = target = dict(SPECS[owner])
    elif section == "operatorSpec.coeffs":
        target = dict(COEFF_OBJECTS[owner])
        spec = {"kind": "sl", "coeffs": target, "N": 8}
    elif section == "params":
        experiment, target = owner, params
    else:
        target = tolerances
    target[key] = value
    if value is OMITTED:
        del target[key]
    return {"operatorSpec": spec, "experiment": experiment, "params": params,
            "tolerances": tolerances}


def declared(select):
    return [pytest.param(section, owner, key, decl, id=f"{section}-{owner}-{key}")
            for section, owner, key, decl in DECLARED if select(decl)]


# Values that are not of a kind, with the message each draws.
NOT_OF_KIND = {
    float: [(float("nan"), "must be a finite number, got nan"),
            (float("inf"), "must be a finite number, got inf"),
            ("1", "must be a finite number, got '1'"),
            (True, "must be a finite number, got True")],
    int: [(float("-inf"), "must be a finite number, got -inf"),
          (2.5, "must be an integer, got 2.5"),
          (None, "must be a finite number, got None")],
    FLOATS: [([], "must be a finite number or a nonempty list of them"),
             ([1.0, "2"], "must be a finite number or a nonempty list of them"),
             (float("nan"), "must be a finite number or a nonempty list of them")],
    str: [(5, "must be a string, got 5"), (None, "must be a string, got None")],
}


class TestDeclarations:
    """Every declared key is checked the same way, in every section."""

    def run_config(self, tmp_path, capsys, raw):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()
        return code, capsys.readouterr().err

    def test_examples_set_every_declared_key(self):
        assert {kind: set(spec) - {"kind"} for kind, spec in SPECS.items()} == \
            {kind: set(schema) for kind, schema in OPERATORS.items()}
        assert {name: set(obj) - {"name"} for name, obj in COEFF_OBJECTS.items()} == \
            {name: set(schema) for name, schema in COEFFS.items()}
        for section, owner, key, _ in DECLARED:
            parse_config(json.dumps(config_with(section, owner, "unused", OMITTED)))

    @pytest.mark.parametrize("section, owner, key, decl", declared(lambda d: d[1] is REQUIRED))
    def test_omitted_required_key(self, tmp_path, capsys, section, owner, key, decl):
        code, err = self.run_config(tmp_path, capsys, config_with(section, owner, key, OMITTED))
        assert code == 2
        assert f"config error: {section}: missing required key {key!r}" in err

    @pytest.mark.parametrize("section, owner, key, decl", declared(lambda d: True))
    def test_value_not_of_its_kind(self, tmp_path, capsys, section, owner, key, decl):
        kind = decl[0]
        if isinstance(kind, dict):   # a nested object: the coefficient families
            cases = [(5, f"{section}.{key}: must be an object"),
                     ({"name": "hermite"}, f"{section}.{key}: name='hermite' not one of")]
        else:
            cases = [(value, f"{section}: {key!r} {message}")
                     for value, message in NOT_OF_KIND[kind]]
        for value, message in cases:
            code, err = self.run_config(tmp_path, capsys, config_with(section, owner, key, value))
            assert code == 2
            assert f"config error: {message}" in err

    @pytest.mark.parametrize("section, owner, key, decl", declared(lambda d: d[2] is not None))
    def test_value_breaking_its_rule(self, tmp_path, capsys, section, owner, key, decl):
        kind, _, pred, rule = decl
        value = "robin" if kind is str else -1000
        assert not pred(value)
        code, err = self.run_config(tmp_path, capsys, config_with(section, owner, key, value))
        assert code == 2
        assert f"config error: {section}: {key}={value} violates {rule}\n" in err

    @pytest.mark.parametrize("section, owner", [("config", "")]
                             + [("operatorSpec", kind) for kind in OPERATORS]
                             + [("operatorSpec.coeffs", name) for name in COEFFS]
                             + [("params", experiment) for experiment in PARAMS]
                             + [("tolerances", "")])
    def test_unknown_key(self, tmp_path, capsys, section, owner):
        if section == "config":
            raw = {**config_with("tolerances", owner, "bogus", OMITTED), "bogus": 1}
        else:
            raw = config_with(section, owner, "bogus", 1)
        code, err = self.run_config(tmp_path, capsys, raw)
        assert code == 2
        assert f"config error: {section}: unknown key 'bogus' (allowed: " in err

    def test_a_mistake_in_every_section_reported_together(self):
        raw = {"operatorSpec": {"kind": "sl", "coeffs": {"name": "jacobi", "alpha": 0, "beta": 1},
                                "N": 2.5, "bc": "robin"},
               "experiment": "perturb-sweep", "params": {"rank": 0, "tSteps": "11"},
               "seed": -1, "tolerances": {"limit": float("nan")}, "note": "x"}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert err.value.errors == [
            "config: unknown key 'note' (allowed: ['experiment', 'operatorSpec', 'params', "
            "'seed', 'tolerances'])",
            "operatorSpec.coeffs: alpha=0 violates alpha > 0",
            "operatorSpec: 'N' must be an integer, got 2.5",
            "operatorSpec: bc=robin violates bc in ('dirichlet', 'neumann-type')",
            "params: rank=0 violates rank >= 1",
            "params: 'tSteps' must be a finite number, got '11'",
            "seed must be a nonnegative integer, got -1",
            "tolerances: 'limit' must be a finite number, got nan",
        ]


class TestFilledConfig:
    @pytest.mark.parametrize("experiment, spec, expected", FILLED_DEFAULTS)
    def test_empty_params_fill_the_defaults(self, experiment, spec, expected):
        raw = make_config(operatorSpec=spec, experiment=experiment, params={})
        params = parse_config(json.dumps(raw)).params
        assert params == expected
        assert [type(v) for v in params.values()] == [type(v) for v in expected.values()]

    def test_every_experiment_has_a_defaults_row(self):
        assert {row[0] for row in FILLED_DEFAULTS} == set(EXPERIMENTS)

    def test_omitted_tolerances_fill_the_defaults(self):
        config = parse_config(json.dumps(make_config()))
        assert config.tolerances == {"identity": 1e-8, "property": 1e-9, "isometry": 1e-10,
                                     "duality": 1e-12, "limit": 1e-6}

    def test_values_are_stored_as_their_kind(self):
        raw = make_config(operatorSpec=DIAG, experiment="scale",
                          params={"s": 1, "t": [0, 2], "samples": 3.0},
                          tolerances={"isometry": 1})
        config = parse_config(json.dumps(raw))
        assert config.params["s"] == [1.0] and type(config.params["s"][0]) is float
        assert config.params["t"] == [0.0, 2.0] and type(config.params["t"][1]) is float
        assert type(config.params["samples"]) is int
        assert type(config.tolerances["isometry"]) is float

    def test_operator_spec_is_typed(self):
        # required keys as their kind, coeffs as an object, optional keys only when given
        for spec, typed in [
            ({"kind": "diag-growth", "p": 2, "q": 0, "N": 4.0},
             {"kind": "diag-growth", "p": 2.0, "q": 0.0, "N": 4}),
            ({"kind": "sl", "coeffs": "flat", "N": 8},
             {"kind": "sl", "coeffs": {"name": "flat"}, "N": 8}),
            ({"kind": "sl", "coeffs": {"name": "laguerre", "alpha": 1}, "N": 8, "delta": 0},
             {"kind": "sl", "coeffs": {"name": "laguerre", "alpha": 1.0}, "N": 8, "delta": 0.0}),
        ]:
            parsed = parse_config(json.dumps(make_config(operatorSpec=spec))).operator_spec
            assert parsed == typed
            assert [type(v) for v in parsed.values()] == [type(v) for v in typed.values()]

    def test_codim_equal_to_the_dimension_is_valid(self):
        for experiment, params in (
            ("extensions", {"trials": 2, "dimMin": 3, "dimMax": 3, "codim": 3}),
            ("friedrichs-conjecture", {"trials": 2, "dim": 3, "codim": 3, "n": 2}),
        ):
            raw = make_config(operatorSpec=DIAG, experiment=experiment, params=params)
            assert run_scenario(parse_config(json.dumps(raw))).overall == "PASS"

    def test_property_tolerance_sets_every_property_threshold(self):
        raw = make_config(operatorSpec=DIAG, experiment="leftdef-verify",
                          params={"r": 2, "samples": 3}, tolerances={"property": 1e-30})
        rows = run_scenario(parse_config(json.dumps(raw))).rows
        governed = {r.name for r in rows if r.threshold == 1e-30}
        assert governed == {"lower-bound(4)", "duality(5)", "eigen-gram-offdiag",
                            "eigen-gram-diag", "closed-form-lower-bound"}
        assert {r.name for r in rows} - governed == {"multiplicity-invariance"}   # a flag


class TestDelta:
    JACOBI = {"name": "jacobi", "alpha": 1.0, "beta": 1.0}
    LAGUERRE = {"name": "laguerre", "alpha": 1.0}

    @pytest.mark.parametrize("coeffs, delta, interval", [
        (JACOBI, None, (-1.0, 1.0)),
        (JACOBI, 0.05, (-0.95, 0.95)),
        (LAGUERRE, None, (1e-3, 40.0 - 1e-3)),
        (LAGUERRE, 0, (0.0, 40.0)),
        (LAGUERRE, 0.5, (0.5, 39.5)),
        ("flat", 0.05, (0.0, np.pi)),   # regular endpoints are never truncated
    ])
    def test_delta_truncates_non_regular_endpoints(self, coeffs, delta, interval):
        spec = {"kind": "sl", "coeffs": coeffs, "N": 10}
        if delta is not None:
            spec["delta"] = delta
        disc = build_operator(parse_config(json.dumps(make_config(operatorSpec=spec)))
                              .operator_spec).discrete
        a, b = disc.coeffs.effective_interval()
        assert (a, b) == pytest.approx(interval, abs=1e-15)
        assert disc.nodes[0] > a and disc.nodes[-1] < b

    def test_jacobi_tables_change_with_delta(self):
        def sweep(delta):
            spec = {"kind": "sl", "coeffs": self.JACOBI, "N": 12, "delta": delta}
            raw = make_config(operatorSpec=spec, experiment="perturb-sweep",
                              params={"tSteps": 3})
            report = run_scenario(parse_config(json.dumps(raw)))
            return next(t for t in report.tables if t.name == "theta_sweep").to_csv()

        assert sweep(0.0) != sweep(0.05)


class TestReportEmit:
    def test_text_ends_with_verdict(self):
        report = Report("demo")
        report.add_check("alpha", "x=1", 1e-12, 1e-9)
        text = report.to_text()
        assert text.rstrip().endswith("PASS")
        report.add_check("beta", "x=2", 1.0, 1e-9)
        assert report.to_text().rstrip().endswith("FAIL")

    def test_overall_empty_is_fail(self):
        assert Report("empty").overall == "FAIL"

    def test_csv_roundtrip(self, tmp_path):
        import csv
        report = Report("demo")
        report.add_check("gamma", "gridpoint, with comma", 0.5, 1.0)
        report.add_table(Table.build("values", ("a", "b"), [(1.0, 2.0), (3.5, -1.0)]))
        emit(report, "csv", tmp_path)
        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check-name", "inputs", "residual", "threshold", "status"]
        assert rows[1][0] == "gamma" and rows[1][4] == "PASS"
        with open(tmp_path / "tables" / "values.csv") as fh:
            tbl = list(csv.reader(fh))
        assert tbl[0] == ["a", "b"]
        assert [float(v) for v in tbl[2]] == [3.5, -1.0]

    def test_emit_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(Report("demo"), "yaml", tmp_path)


class TestRunScenario:
    def test_laguerre_identity_passes(self):
        report = run_scenario(parse_config(json.dumps(make_config())))
        assert report.overall == "PASS"
        assert any(r.name == "laguerre-identity" for r in report.rows)

    def test_friedrichs_conjecture_codim0(self):
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": -1.0, "N": 6},
            experiment="friedrichs-conjecture",
            params={"dim": 6, "codim": 0, "n": 2, "trials": 5},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.overall == "PASS"
        table = next(t for t in report.tables if t.name == "friedrichs_power")
        assert all(row[4] == "EQUAL" for row in table.rows)

    def test_leftdef_verify_on_matrix_file(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 6))
        # the matrix-file layout: row-major, each entry as adjacent (re, im) columns
        np.savetxt(tmp_path / "op.csv", (m @ m.T + np.eye(6)).astype(complex).view(float),
                   delimiter=",", fmt="%.17g")
        raw = make_config(
            operatorSpec={"kind": "matrix-file", "path": str(tmp_path / "op.csv")},
            experiment="leftdef-verify",
            params={"r": 2.0, "samples": 20},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.overall == "PASS"

    def test_module_error_becomes_fail_row(self, tmp_path):
        raw = make_config(
            operatorSpec={"kind": "matrix-file", "path": str(tmp_path / "missing.csv")},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.overall == "FAIL"
        assert any(r.name == "scenario-error" for r in report.rows)

    def test_perturb_sweep_on_sl(self):
        raw = make_config(
            operatorSpec={"kind": "sl", "coeffs": "flat", "N": 40, "bc": "dirichlet"},
            experiment="perturb-sweep",
            params={"rank": 1, "tMax": 10.0, "tSteps": 6},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.overall == "PASS"
        assert any(r.name == "eigenvalue-monotone-in-t" for r in report.rows)
        assert any(r.name == "rank-one-interlacing" for r in report.rows)
        assert any(t.name == "principal_solution_a" for t in report.tables)

    def test_t0_base_is_operator_decomposition(self, monkeypatch):
        # t=0 is compared with the operator's eigendecomposition, not with a repeat
        # of the sweep's own solve: an error in that route must fail the check
        shifted = property(lambda op: op.decomp.eigenvalues + 1e-6 * op.matrix.norm_max)
        monkeypatch.setattr(SpectralOperator, "eigenvalues", shifted)
        raw = make_config(
            operatorSpec={"kind": "sl", "coeffs": "flat", "N": 30, "bc": "dirichlet"},
            experiment="perturb-sweep",
            params={"rank": 2, "tMax": 4.0, "tSteps": 3},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        row = next(r for r in report.rows if r.name == "t0-matches-base")
        assert row.status == "FAIL"

    # t = 1 moves the top eigenvalue of flat SL at N = 60 by about 1e-4, less than 1e-6 ||A||
    RANK_ONE_SWEEP = {"operatorSpec": {"kind": "sl", "coeffs": "flat", "N": 60, "bc": "dirichlet"},
                      "experiment": "perturb-sweep", "params": {"rank": 1, "tMax": 1.0,
                                                                "tSteps": 3}}

    def sweep_status(self, name: str) -> str:
        report = run_scenario(parse_config(json.dumps(make_config(**self.RANK_ONE_SWEEP))))
        return next(r.status for r in report.rows if r.name == name)

    def test_shifted_operator_eigenvalues_fail_interlacing(self, monkeypatch):
        assert self.sweep_status("rank-one-interlacing") == "PASS"
        shifted = property(lambda op: op.decomp.eigenvalues + 1e-6 * op.matrix.norm_max)
        monkeypatch.setattr(SpectralOperator, "eigenvalues", shifted)
        assert self.sweep_status("rank-one-interlacing") == "FAIL"

    def test_decreasing_sweep_row_fails_monotone(self, monkeypatch):
        assert self.sweep_status("eigenvalue-monotone-in-t") == "PASS"
        real = extensions.theta_sweep

        def decreasing(*args):
            rows = real(*args)
            label, mul, eigs = rows[-1]
            return rows[:-1] + [(label, mul, (rows[-2][2][0] - 1e-3,) + eigs[1:])]
        monkeypatch.setattr(extensions, "theta_sweep", decreasing)
        assert self.sweep_status("eigenvalue-monotone-in-t") == "FAIL"

    @staticmethod
    def stiff_sweep_status(tmp_path, name: str) -> str:
        # p = 1e8 on [0, pi] at N = 100: the sweep's eigenvalues reach about 4e11, and their
        # rounding alone moves them down by more than 1e-10 * tMax between steps
        path = tmp_path / "stiff.csv"
        path.write_text("0,1e8,0,1\n3.141592653589793,1e8,0,1\n")
        raw = make_config(operatorSpec={"kind": "sl", "N": 100,
                                        "coeffs": {"name": "csv", "path": str(path)}},
                          experiment="perturb-sweep", params={"rank": 1})
        report = run_scenario(parse_config(json.dumps(raw)))
        return next(r.status for r in report.rows if r.name == name)

    def test_monotone_slack_scales_with_the_eigenvalues(self, tmp_path):
        assert self.stiff_sweep_status(tmp_path, "eigenvalue-monotone-in-t") == "PASS"

    def test_lowered_stiff_sweep_eigenvalue_fails_monotone(self, tmp_path, monkeypatch):
        real = extensions.theta_sweep

        def lowered(*args):
            rows = real(*args)
            top = max(abs(e) for row in rows for e in row[2])
            label, mul, eigs = rows[5]
            return rows[:5] + [(label, mul, (eigs[0] - 1e-6 * top,) + eigs[1:])] + rows[6:]
        monkeypatch.setattr(extensions, "theta_sweep", lowered)
        assert self.stiff_sweep_status(tmp_path, "eigenvalue-monotone-in-t") == "FAIL"

    def test_perturb_sweep_on_limit_circle_sl_falls_back(self):
        # no boundary functional at limit-circle endpoints: seeded columns instead
        raw = make_config(
            operatorSpec={"kind": "sl", "coeffs": {"name": "jacobi", "alpha": 1.0, "beta": 1.0},
                          "N": 40, "bc": "neumann-type"},
            experiment="perturb-sweep",
            params={"rank": 1, "tMax": 5.0, "tSteps": 5},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.overall == "PASS"
        assert not any(t.name.startswith("principal_solution") for t in report.tables)

    def test_leftdef_verify_emits_form_ordering_table(self):
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 8},
            experiment="leftdef-verify",
            params={"r": 2.0, "samples": 15},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.overall == "PASS"
        assert any(t.name == "form_ordering" for t in report.tables)

    def test_scale_scenario_with_growth_model(self):
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": -1.0, "N": 12},
            experiment="scale",
            params={"s": [-2.0, 0.0, 1.5], "t": [0.0, 1.0], "samples": 10,
                    "classifierTerms": 20000},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.overall == "PASS"
        assert any(t.name == "membership" for t in report.tables)

    def test_extensions_scenario(self):
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
            experiment="extensions",
            params={"trials": 10, "dimMin": 5, "dimMax": 8, "codim": 2},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.overall == "PASS"

    def test_friedrichs_domain_fails_on_wrong_domain(self, monkeypatch):
        # S_F^{-1}, the flipped graph, is self-adjoint too, but its domain ran S_F
        # is the whole space: only friedrichs-domain can see the difference
        real = extensions.friedrichs_relation

        def inverse_friedrichs(s):
            n = s.space_dim
            basis = real(s).graph.basis
            return LinearRelation(Subspace(2 * n, np.concatenate([basis[..., n:, :],
                                                                  basis[..., :n, :]], axis=-2)))

        monkeypatch.setattr(extensions, "friedrichs_relation", inverse_friedrichs)
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
            experiment="extensions",
            params={"trials": 3, "dimMin": 5, "dimMax": 8, "codim": 2},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        status = {r.name: r.status for r in report.rows}
        assert status["friedrichs-domain"] == "FAIL"
        assert status["friedrichs-selfadjoint"] == "PASS"
        assert status["deficiency-indices"] == "PASS"

    def test_value_error_from_runner_is_fail_row(self, monkeypatch):
        def failing(report, built, config, rng):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(scenarios._RUNNERS, "laguerre-identity", failing)
        report = run_scenario(parse_config(json.dumps(make_config())))
        assert [(r.name, r.status) for r in report.rows] == [("scenario-error", "FAIL")]
        assert "LinAlgError: SVD did not converge" in report.rows[0].inputs

    def test_programming_error_propagates(self, monkeypatch):
        def broken(report, built, config, rng):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(scenarios._RUNNERS, "laguerre-identity", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_scenario(parse_config(json.dumps(make_config())))

    def test_malformed_coefficient_table_is_fail_row(self, tmp_path):
        np.savetxt(tmp_path / "coeffs.csv", np.ones((5, 3)), delimiter=",")
        raw = make_config(
            operatorSpec={"kind": "sl", "N": 20,
                          "coeffs": {"name": "csv", "path": str(tmp_path / "coeffs.csv")}},
            experiment="leftdef-verify",
            params={"r": 2.0, "samples": 5},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert report.rows[0].name == "scenario-error"
        assert "expected (x, p, q, w) rows, got 3 columns" in report.rows[0].inputs

    def test_coefficient_table_out_of_order_is_fail_row(self, tmp_path):
        # np.interp reads unordered nodes silently: p(0.1) of this table read 1.2, not 1.05
        xs = np.linspace(0.0, 3.0, 7)[[0, 4, 2, 5, 1, 3, 6]]
        table = np.column_stack((xs, 1.0 + xs ** 2, 0 * xs, 1.0 + 0 * xs))
        np.savetxt(tmp_path / "coeffs.csv", table, delimiter=",")
        raw = make_config(
            operatorSpec={"kind": "sl", "N": 20,
                          "coeffs": {"name": "csv", "path": str(tmp_path / "coeffs.csv")}},
            experiment="leftdef-verify",
            params={"r": 2.0, "samples": 5},
        )
        report = run_scenario(parse_config(json.dumps(raw)))
        assert [row.name for row in report.rows] == ["scenario-error"]
        assert "table nodes must be strictly increasing: row 2" in report.rows[0].inputs

    def test_determinism_identical_bytes(self, tmp_path):
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
            experiment="extensions",
            params={"trials": 5, "dimMin": 5, "dimMax": 8, "codim": 1},
            seed=42,
        )
        config = parse_config(json.dumps(raw))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        emit(run_scenario(config), "csv", out1)
        emit(run_scenario(config), "csv", out2)
        for name in ("report.txt", "report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        t1 = sorted((out1 / "tables").iterdir())
        t2 = sorted((out2 / "tables").iterdir())
        assert [p.name for p in t1] == [p.name for p in t2]
        for p1, p2 in zip(t1, t2):
            assert p1.read_bytes() == p2.read_bytes()


def nan_on_call(real, index):
    """`real`, except that call number `index` (from 0) returns its result times NaN."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return out * np.nan if len(calls) - 1 == index else out
    return wrapped


SCALE = make_config(operatorSpec={"kind": "diag-growth", "p": 2.0, "q": 0.5, "N": 20},
                    experiment="scale",
                    params={"s": [0.5, 1.0, 1.5], "t": [0.5], "samples": 4}, seed=9)


class TestNanResidualFails:
    """A NaN met mid-stream fails its check; it is not dropped by the worst-of reduction."""

    def statuses(self, raw):
        return {row.name: (row.status, row.residual)
                for row in run_scenario(parse_config(json.dumps(raw))).rows}

    def test_scale_rows_pass_without_nan(self):
        assert {status for status, _ in self.statuses(SCALE).values()} == {"PASS"}

    @pytest.mark.parametrize("name, index, row", [
        ("isometry_check", 1, "isometry"),          # 3 calls: one per (s, t)
        ("duality_pair", 1, "duality-reduction"),   # 3 calls: one per s
    ])
    def test_scale_check_rows(self, monkeypatch, name, index, row):
        monkeypatch.setattr(hscale, name, nan_on_call(getattr(hscale, name), index))
        status, residual = self.statuses(SCALE)[row]
        assert status == "FAIL" and np.isnan(residual)

    def test_scale_equivalence_ratios(self, monkeypatch):
        real = hscale.equivalence_check

        def nan_sample(operator, s, samples):
            samples = samples.copy()
            samples[:, 2] *= np.nan
            return real(operator, s, samples)
        monkeypatch.setattr(hscale, "equivalence_check", nan_sample)
        assert self.statuses(SCALE)["equivalence-bounds"][0] == "FAIL"

    def test_laguerre_identity_row(self, monkeypatch):
        real = classical.laguerre_identity_table

        def nan_row(*args):
            rows = real(*args)
            middle = len(rows) // 2
            rows[middle] = rows[middle][:7] + (float("nan"),)
            return rows
        monkeypatch.setattr(classical, "laguerre_identity_table", nan_row)
        status, residual = self.statuses(make_config())["laguerre-identity"]
        assert status == "FAIL" and np.isnan(residual)


# |lambda|max + 1 = 2501: the weights (|lambda| + 1)^(s/2) exceed a float from s = 181 on
OVERFLOW = make_config(operatorSpec={"kind": "diag-growth", "p": 2.0, "q": 0.5, "N": 50},
                       experiment="scale", params={"s": [200.0], "t": [0.5], "samples": 2})


class TestScaleOverflow:
    """The isometry and the duality pairing hold where the weights overflow a float, and
    each still reads its weight vectors."""

    @staticmethod
    def statuses(monkeypatch=None, exponent=None, relative=0.0) -> dict:
        """Rows of the OVERFLOW run, the last of the weights whose logs are
        hscale._log_weights(op, exponent) times 1 + relative."""
        if exponent is not None:
            real = hscale._log_weights

            def perturbed(op, e):
                log_w = real(op, e)
                if e == exponent:
                    log_w[-1] += math.log1p(relative)
                return log_w
            monkeypatch.setattr(hscale, "_log_weights", perturbed)
        report = run_scenario(parse_config(json.dumps(OVERFLOW)))
        return {row.name: row.status for row in report.rows}

    def test_weights_beyond_a_float_pass_both_identities(self):
        # pytest turns an overflow RuntimeWarning into an error
        assert 100.0 * np.log(2501.0) > np.log(np.finfo(float).max)
        rows = self.statuses()
        assert rows["isometry"] == rows["duality-reduction"] == "PASS"

    def test_one_map_weight_off_by_1e8_fails_isometry(self, monkeypatch):
        assert self.statuses(monkeypatch, 0.25, 1e-8)["isometry"] == "FAIL"   # t / 2

    @pytest.mark.parametrize("exponent", [-100.0, 100.0])   # -/+ s / 2
    def test_either_pairing_weight_vector_off_fails_duality(self, monkeypatch, exponent):
        assert self.statuses(monkeypatch, exponent, 1e-8)["duality-reduction"] == "FAIL"

    @pytest.mark.parametrize("s", [300.0, 400.0, 1000.0, -1000.0])
    def test_isometry_and_duality_at_large_s(self, s):
        config = make_config(operatorSpec={"kind": "diag-growth", "p": 2.0, "q": 0.5, "N": 50},
                             experiment="scale", params={"s": [s], "t": [1.0]}, seed=0)
        rows = {row.name: row.status for row in run_scenario(parse_config(json.dumps(config))).rows}
        assert rows["isometry"] == rows["duality-reduction"] == "PASS"


class TestScaleDraws:
    def test_one_duality_call_per_s_and_one_equivalence_call(self, monkeypatch):
        calls = []
        for name in ("duality_pair", "equivalence_check"):
            def recording(*args, real=getattr(hscale, name), name=name):
                calls.append((name, args[1]))
                return real(*args)
            monkeypatch.setattr(hscale, name, recording)
        assert run_scenario(parse_config(json.dumps(SCALE))).overall == "PASS"
        assert calls == [("duality_pair", s) for s in SCALE["params"]["s"]] + \
            [("equivalence_check", 2.0)]

    def test_one_isometry_call_per_grid_point_on_the_old_draws(self, monkeypatch):
        real = hscale.isometry_check
        blocks = []

        def recording(operator, s, t, phi):
            blocks.append(phi)
            return real(operator, s, t, phi)
        monkeypatch.setattr(hscale, "isometry_check", recording)
        run_scenario(parse_config(json.dumps(SCALE)))
        # the per-sample list the runner drew before it drew one array
        rng, n = np.random.default_rng(SCALE["seed"]), 20
        vectors = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4)]
        assert len(blocks) == 3
        for block in blocks:
            assert block.shape == (n, 4)
            assert np.array_equal(block, np.column_stack(vectors))


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, make_config())
        code = main(["run", path, "--out", str(tmp_path / "out"), "--format", "csv"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip().endswith("PASS")
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "tables" / "laguerre_identity.csv").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, make_config(experiment="nope"))
        assert main(["run", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_dim_min_above_dim_max_exit_two(self, tmp_path, capsys):
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
            experiment="extensions",
            params={"trials": 2, "dimMin": 9, "dimMax": 5, "codim": 1},
        )
        assert main(["run", self.write_config(tmp_path, raw)]) == 2
        assert "dimMin=9 exceeds dimMax=5" in capsys.readouterr().err

    def test_dim_min_above_default_dim_max_exit_two(self, tmp_path, capsys):
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
            experiment="extensions",
            params={"trials": 2, "dimMin": 12},
        )
        assert main(["run", self.write_config(tmp_path, raw)]) == 2
        assert "dimMin=12 exceeds dimMax=10" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, params, tolerances, message", [
        ("extensions", {"dimMin": 5, "dimMax": 5, "codim": 6}, {},
         "params: codim=6 exceeds dimMin=5"),
        ("friedrichs-conjecture", {"dim": 3, "codim": 4}, {}, "params: codim=4 exceeds dim=3"),
        ("extensions", {"trials": 2.7}, {}, "params: 'trials' must be an integer, got 2.7"),
        ("perturb-sweep", {"tMax": float("inf")}, {}, "params: 'tMax' must be a finite number"),
        ("leftdef-verify", {"r": 10 ** 400}, {}, "params: 'r' must be a finite number"),
        ("scale", {"s": []}, {}, "params: 's' must be a finite number or a nonempty list"),
        ("laguerre-identity", {}, {"identity": float("inf")},
         "tolerances: 'identity' must be a finite number, got inf"),
        ("laguerre-identity", {}, {"property": 0}, "tolerances: property=0 violates property > 0"),
        ("laguerre-identity", {}, {"limt": 1e-3}, "tolerances: unknown key 'limt'"),
        ("laguerre-identity", {}, {"matrix-theta": -5}, "tolerances: unknown key 'matrix-theta'"),
    ])
    def test_config_mistake_exit_two(self, tmp_path, capsys, experiment, params, tolerances,
                                     message):
        raw = make_config(operatorSpec=DIAG, experiment=experiment, params=params,
                          tolerances=tolerances)
        assert main(["run", self.write_config(tmp_path, raw), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": 8.5},
         "operatorSpec: 'N' must be an integer, got 8.5"),
        ({"kind": "diag-growth", "p": float("inf"), "q": 0.0, "N": 4},
         "operatorSpec: 'p' must be a finite number"),
        ({"kind": "sl", "coeffs": "flat", "N": 8, "delta": float("nan")},
         "operatorSpec: 'delta' must be a finite number, got nan"),
    ])
    def test_operator_spec_mistake_exit_two(self, tmp_path, capsys, spec, message):
        raw = make_config(operatorSpec=spec)
        assert main(["run", self.write_config(tmp_path, raw), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("delta", [1.0, 1.5])
    def test_delta_that_empties_the_interval_exit_one(self, tmp_path, delta):
        spec = {"kind": "sl", "coeffs": {"name": "jacobi", "alpha": 1.0, "beta": 1.0},
                "N": 12, "bc": "neumann-type", "delta": delta}
        raw = make_config(operatorSpec=spec, experiment="perturb-sweep", params={})
        out = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path, raw), "--out", str(out),
                     "--format", "csv"]) == 1
        rows = (out / "report.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("scenario-error,")
        assert (f"[FAIL] scenario-error | ValueError: delta={delta} empties the interval "
                "(-1.0, 1.0)") in (out / "report.txt").read_text()

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_programming_error_exit_three_with_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(report, built, config, rng):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(scenarios._RUNNERS, "laguerre-identity", broken)
        path = self.write_config(tmp_path, make_config())
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "TypeError: unsupported operand" in err
        assert not (tmp_path / "out").exists()

    def test_failing_check_exit_one(self, tmp_path):
        raw = make_config(tolerances={"identity": 1e-30})
        path = self.write_config(tmp_path, raw)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1

    def test_overflowing_power_is_a_scenario_error(self, tmp_path, capsys):
        # 11^300 overflows a float: a failed run (exit 1), not a programming error (exit 3)
        raw = make_config(operatorSpec={"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": 10},
                          experiment="leftdef-verify", params={"r": 300, "samples": 3})
        out = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path, raw), "--out", str(out),
                     "--format", "csv"]) == 1
        rows = (out / "report.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("scenario-error,ValueError: ")
        assert "r=300" in rows[1] and "||A||_max=11" in rows[1]
        assert "Traceback" not in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        raw = make_config(
            operatorSpec={"kind": "diag-growth", "p": 1.0, "q": 0.0, "N": 6},
            experiment="extensions",
            params={"trials": 3, "dimMin": 5, "dimMax": 6, "codim": 1},
            seed=1,
        )
        path = self.write_config(tmp_path, raw)
        monkeypatch.setenv("LDLAB_SEED", "777")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert "seed = 777" in capsys.readouterr().out

    def test_bad_seed_env_exit_two(self, tmp_path, monkeypatch):
        path = self.write_config(tmp_path, make_config())
        monkeypatch.setenv("LDLAB_SEED", "not-a-number")
        assert main(["run", path]) == 2

    @pytest.mark.parametrize("seed", [-3, -1])
    def test_negative_config_seed_exit_two(self, tmp_path, capsys, seed):
        path = self.write_config(tmp_path, make_config(seed=seed))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert f"seed must be a nonnegative integer, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-4", "-1"])
    def test_negative_seed_env_exit_two(self, tmp_path, monkeypatch, capsys, value):
        path = self.write_config(tmp_path, make_config())
        out = tmp_path / "out"
        monkeypatch.setenv("LDLAB_SEED", value)
        assert main(["run", path, "--out", str(out)]) == 2
        assert f"LDLAB_SEED='{value}' is not a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()
