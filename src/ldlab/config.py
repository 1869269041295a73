"""Scenario configuration: JSON parsing with exhaustive validation.

One config file describes one scenario. Validation collects *all* problems
(unknown keys, type errors, precondition violations) before rejecting, so a
bad config is fixed in one round trip.

A parsed config is complete: `params` holds every param of its experiment and
`tolerances` every key of `TOLERANCES`, each omitted one filled with its
default from the tables below and each value stored as its declared kind. The
experiment runners read both as given. The operatorSpec is kept as written; its
optional keys (`bc`, `cutoff`, `delta`) take their defaults where they are used.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from . import hscale, leftdef
from .sldiscrete import BOUNDARY_TREATMENTS

OPERATOR_KINDS = ("diag-growth", "matrix-file", "sl", "laguerre")

_TOP_KEYS = {"operatorSpec", "experiment", "params", "seed", "tolerances"}


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    operator_spec: dict
    experiment: str
    params: dict
    seed: int
    tolerances: dict


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return _is_number(x) and abs(x) <= sys.float_info.max   # exact for ints of any size


def _is_integral(x) -> bool:
    return isinstance(x, int) or x.is_integer()


def _check_keys(obj: dict, allowed: set, context: str, errors: list):
    for key in obj:
        if key not in allowed:
            errors.append(f"{context}: unknown key {key!r} (allowed: {sorted(allowed)})")


def _require_number(obj: dict, key: str, context: str, errors: list, pred=None, message=""):
    if key not in obj:
        errors.append(f"{context}: missing required key {key!r}")
        return None
    value = obj[key]
    if not _is_finite(value):
        errors.append(f"{context}: {key!r} must be a finite number, got {value!r}")
        return None
    if pred is not None and not pred(value):
        errors.append(f"{context}: {key}={value} violates {message}")
        return None
    return value


def _validate_operator(spec, errors: list):
    if not isinstance(spec, dict):
        errors.append("operatorSpec: must be an object")
        return
    kind = spec.get("kind")
    if kind not in OPERATOR_KINDS:
        errors.append(f"operatorSpec: kind={kind!r} not one of {OPERATOR_KINDS}")
        return
    if kind == "diag-growth":
        _check_keys(spec, {"kind", "p", "q", "N"}, "operatorSpec[diag-growth]", errors)
        _require_number(spec, "p", "operatorSpec", errors, lambda v: v > 0, "p > 0")
        _require_number(spec, "q", "operatorSpec", errors)
        _require_number(spec, "N", "operatorSpec", errors,
                        lambda v: v >= 1 and _is_integral(v), "integral N >= 1")
    elif kind == "matrix-file":
        _check_keys(spec, {"kind", "path"}, "operatorSpec[matrix-file]", errors)
        if not isinstance(spec.get("path"), str):
            errors.append("operatorSpec: matrix-file needs a string 'path'")
    elif kind == "sl":
        _check_keys(spec, {"kind", "coeffs", "N", "bc", "delta"}, "operatorSpec[sl]", errors)
        _require_number(spec, "N", "operatorSpec", errors,
                        lambda v: v >= 3 and _is_integral(v), "integral N >= 3")
        if "delta" in spec and not (_is_finite(spec["delta"]) and spec["delta"] >= 0):
            errors.append(f"operatorSpec: delta={spec['delta']!r} must be a finite number >= 0")
        if "bc" in spec and spec["bc"] not in BOUNDARY_TREATMENTS:
            errors.append(f"operatorSpec: bc={spec['bc']!r} not one of {BOUNDARY_TREATMENTS}")
        coeffs = spec.get("coeffs")
        if isinstance(coeffs, str):
            if coeffs != "flat":
                errors.append(f"operatorSpec: unknown named coefficients {coeffs!r}")
        elif isinstance(coeffs, dict):
            cname = coeffs.get("name")
            if cname == "jacobi":
                _check_keys(coeffs, {"name", "alpha", "beta"}, "operatorSpec.coeffs", errors)
                _require_number(coeffs, "alpha", "coeffs[jacobi]", errors, lambda v: v > 0, "alpha > 0")
                _require_number(coeffs, "beta", "coeffs[jacobi]", errors, lambda v: v > 0, "beta > 0")
            elif cname == "laguerre":
                _check_keys(coeffs, {"name", "alpha", "cutoff"}, "operatorSpec.coeffs", errors)
                _require_number(coeffs, "alpha", "coeffs[laguerre]", errors, lambda v: v > -1, "alpha > -1")
                if "cutoff" in coeffs:
                    _require_number(coeffs, "cutoff", "coeffs[laguerre]", errors,
                                    lambda v: v > 0, "cutoff > 0")
            elif cname == "csv":
                _check_keys(coeffs, {"name", "path"}, "operatorSpec.coeffs", errors)
                if not isinstance(coeffs.get("path"), str):
                    errors.append("operatorSpec.coeffs: csv coefficients need a string 'path'")
            else:
                errors.append(f"operatorSpec.coeffs: unknown name {cname!r}")
        else:
            errors.append("operatorSpec: sl needs 'coeffs' (name string or object)")
    elif kind == "laguerre":
        _check_keys(spec, {"kind", "alpha", "k", "N"}, "operatorSpec[laguerre]", errors)
        _require_number(spec, "alpha", "operatorSpec", errors, lambda v: v > -1, "alpha > -1")
        _require_number(spec, "k", "operatorSpec", errors, lambda v: v > 0, "k > 0")
        _require_number(spec, "N", "operatorSpec", errors,
                        lambda v: v >= 1 and _is_integral(v), "integral N >= 1")


FLOATS = "floats"   # a number or a nonempty list of numbers, stored as a list of floats

# Every experiment's params, declared once: name -> (kind, default, predicate,
# rule). parse_config fills each omitted param with its default and stores each
# value as its kind (int, float or FLOATS), so the runners read them as given.
PARAMS = {
    "leftdef-verify": {
        "r": (float, 2.0, lambda v: v > 0, "r > 0"),
        "samples": (int, 50, lambda v: v >= 1, "samples >= 1"),
    },
    "laguerre-identity": {   # alpha and k default to the operatorSpec's when it has them
        "alpha": (float, 1.0, lambda v: v > -1, "alpha > -1"),
        "k": (float, 1.0, lambda v: v > 0, "k > 0"),
        "n": (int, 1, lambda v: 1 <= v <= 6, "1 <= n <= 6"),
        "deg": (int, 6, lambda v: 0 <= v <= 30, "0 <= deg <= 30"),
    },
    "scale": {
        "s": (FLOATS, [-2.0, -1.0, 0.0, 1.0, 2.0], lambda v: True, ""),
        "t": (FLOATS, [0.0, 0.5, 1.0, 2.0], lambda v: True, ""),
        "samples": (int, 25, lambda v: v >= 1, "samples >= 1"),
        "classifierTerms": (int, hscale.PARTIAL_SUM_TERMS, lambda v: v >= 100,
                            "classifierTerms >= 100"),
    },
    "extensions": {
        "trials": (int, 25, lambda v: v >= 1, "trials >= 1"),
        "dimMin": (int, 5, lambda v: v >= 2, "dimMin >= 2"),
        "dimMax": (int, 10, lambda v: v >= 2, "dimMax >= 2"),
        "codim": (int, 1, lambda v: v >= 1, "codim >= 1"),
    },
    "friedrichs-conjecture": {
        "dim": (int, 6, lambda v: v >= 2, "dim >= 2"),
        "codim": (int, 1, lambda v: v >= 0, "codim >= 0"),
        "n": (int, 2, lambda v: 1 <= v <= 4, "1 <= n <= 4"),
        "trials": (int, 20, lambda v: v >= 1, "trials >= 1"),
    },
    "perturb-sweep": {
        "rank": (int, 1, lambda v: v >= 1, "rank >= 1"),
        "tMax": (float, 10.0, lambda v: v > 0, "tMax > 0"),
        "tSteps": (int, 11, lambda v: v >= 2, "tSteps >= 2"),
    },
}

EXPERIMENTS = tuple(PARAMS)

# Cross-field constraints on the filled params: (lower, upper) means lower <= upper.
_ORDERED = {
    "extensions": (("dimMin", "dimMax"), ("codim", "dimMin")),
    "friedrichs-conjecture": (("codim", "dim"),),
}

# The thresholds a config may override, with the rows each one governs.
TOLERANCES = {
    "identity": 1e-8,                   # laguerre-identity
    "property": leftdef.PROPERTY_TOL,   # every residual row of leftdef-verify
    "isometry": 1e-10,                  # scale: isometry
    "duality": 1e-12,                   # scale: duality-reduction
    "limit": 1e-6,                      # perturb-sweep: limit-crosscheck
}


def _typed(key: str, kind, value, errors: list):
    """`value` stored as `kind`, or None after recording why it cannot be."""
    if kind is FLOATS:
        values = value if isinstance(value, list) else [value]
        if values and all(_is_finite(v) for v in values):
            return [float(v) for v in values]
        errors.append(f"params: {key!r} must be a finite number or a nonempty list of them")
    elif not _is_finite(value):
        errors.append(f"params: {key!r} must be a finite number, got {value!r}")
    elif kind is int and not _is_integral(value):
        errors.append(f"params: {key!r} must be an integer, got {value!r}")
    else:
        return kind(value)
    return None


def _fill_params(experiment: str, params, spec, errors: list) -> dict:
    if not isinstance(params, dict):
        errors.append("params: must be an object")
        return {}
    schema = PARAMS[experiment]
    _check_keys(params, set(schema), f"params[{experiment}]", errors)
    if experiment == "laguerre-identity" and isinstance(spec, dict):
        params = {**{key: spec[key] for key in ("alpha", "k") if key in spec}, **params}
    filled = {}
    for key, (kind, default, pred, rule) in schema.items():
        value = _typed(key, kind, params.get(key, default), errors)
        if value is not None and not pred(value):
            errors.append(f"params: {key}={params[key]} violates {rule}")
        filled[key] = value
    for lo, hi in _ORDERED.get(experiment, ()):
        if None not in (filled[lo], filled[hi]) and filled[lo] > filled[hi]:
            errors.append(f"params: {lo}={filled[lo]} exceeds {hi}={filled[hi]}")
    return filled


def _fill_tolerances(tolerances, errors: list) -> dict:
    if not isinstance(tolerances, dict):
        errors.append("tolerances: must be an object")
        return {}
    _check_keys(tolerances, set(TOLERANCES), "tolerances", errors)
    filled = dict(TOLERANCES)
    for key, value in tolerances.items():
        if key in TOLERANCES and _is_finite(value) and value > 0:
            filled[key] = float(value)
        elif key in TOLERANCES:
            errors.append(f"tolerances: {key}={value!r} must be a finite number > 0")
    return filled


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario config; raise ConfigError with all problems."""
    errors = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    _check_keys(raw, _TOP_KEYS, "config", errors)

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        errors.append(f"experiment={experiment!r} not one of {EXPERIMENTS}")

    if "operatorSpec" not in raw:
        errors.append("missing required key 'operatorSpec'")
    else:
        _validate_operator(raw["operatorSpec"], errors)

    params = {}
    if experiment in EXPERIMENTS:
        params = _fill_params(experiment, raw.get("params", {}), raw.get("operatorSpec"), errors)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"seed must be a nonnegative integer, got {seed!r}")

    tolerances = _fill_tolerances(raw.get("tolerances", {}), errors)

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        operator_spec=dict(raw["operatorSpec"]),
        experiment=experiment,
        params=params,
        seed=seed,
        tolerances=tolerances,
    )
