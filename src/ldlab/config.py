"""Scenario configuration: JSON parsing with exhaustive validation.

One config file describes one scenario. Validation collects *all* problems
(unknown keys, type errors, precondition violations) before rejecting, so a
bad config is fixed in one round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

EXPERIMENTS = (
    "leftdef-verify",
    "laguerre-identity",
    "scale",
    "extensions",
    "friedrichs-conjecture",
    "perturb-sweep",
)

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
    tolerances: dict = field(default_factory=dict)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_keys(obj: dict, allowed: set, context: str, errors: list):
    for key in obj:
        if key not in allowed:
            errors.append(f"{context}: unknown key {key!r} (allowed: {sorted(allowed)})")


def _require_number(obj: dict, key: str, context: str, errors: list, pred=None, message=""):
    if key not in obj:
        errors.append(f"{context}: missing required key {key!r}")
        return None
    value = obj[key]
    if not _is_number(value):
        errors.append(f"{context}: {key!r} must be a number, got {type(value).__name__}")
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
        _require_number(spec, "N", "operatorSpec", errors, lambda v: v >= 1, "N >= 1")
    elif kind == "matrix-file":
        _check_keys(spec, {"kind", "path"}, "operatorSpec[matrix-file]", errors)
        if not isinstance(spec.get("path"), str):
            errors.append("operatorSpec: matrix-file needs a string 'path'")
    elif kind == "sl":
        _check_keys(spec, {"kind", "coeffs", "N", "bc", "delta"}, "operatorSpec[sl]", errors)
        _require_number(spec, "N", "operatorSpec", errors, lambda v: v >= 3, "N >= 3")
        if "delta" in spec and not (_is_number(spec["delta"]) and spec["delta"] >= 0):
            errors.append(f"operatorSpec: delta={spec['delta']!r} must be a nonnegative number")
        bc = spec.get("bc", "dirichlet")
        if bc not in ("dirichlet", "neumann-type"):
            errors.append(f"operatorSpec: bc={bc!r} not one of ('dirichlet', 'neumann-type')")
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
        _require_number(spec, "N", "operatorSpec", errors, lambda v: v >= 1, "N >= 1")


_PARAM_SCHEMAS = {
    "leftdef-verify": {
        "r": (lambda v: v > 0, "r > 0"),
        "samples": (lambda v: v >= 1, "samples >= 1"),
    },
    "laguerre-identity": {
        "alpha": (lambda v: v > -1, "alpha > -1"),
        "k": (lambda v: v > 0, "k > 0"),
        "n": (lambda v: 1 <= v <= 6, "1 <= n <= 6"),
        "deg": (lambda v: 0 <= v <= 30, "0 <= deg <= 30"),
    },
    "scale": {
        "s": (lambda v: True, ""),
        "t": (lambda v: True, ""),
        "samples": (lambda v: v >= 1, "samples >= 1"),
        "classifierTerms": (lambda v: v >= 100, "classifierTerms >= 100"),
    },
    "extensions": {
        "trials": (lambda v: v >= 1, "trials >= 1"),
        "dimMin": (lambda v: v >= 2, "dimMin >= 2"),
        "dimMax": (lambda v: v >= 2, "dimMax >= 2"),
        "codim": (lambda v: v >= 1, "codim >= 1"),
    },
    "friedrichs-conjecture": {
        "dim": (lambda v: v >= 2, "dim >= 2"),
        "codim": (lambda v: v >= 0, "codim >= 0"),
        "n": (lambda v: 1 <= v <= 4, "1 <= n <= 4"),
        "trials": (lambda v: v >= 1, "trials >= 1"),
    },
    "perturb-sweep": {
        "rank": (lambda v: v >= 1, "rank >= 1"),
        "tMax": (lambda v: v > 0, "tMax > 0"),
        "tSteps": (lambda v: v >= 2, "tSteps >= 2"),
    },
}

_LIST_PARAMS = {"s", "t"}   # numeric lists allowed for these keys

# Trial-dimension range of the extensions experiment when params omit it;
# validation and the experiment runner read the same values.
EXTENSION_DIMS = {"dimMin": 5, "dimMax": 10}


def _validate_params(experiment: str, params, errors: list):
    if not isinstance(params, dict):
        errors.append("params: must be an object")
        return
    schema = _PARAM_SCHEMAS.get(experiment, {})
    _check_keys(params, set(schema), f"params[{experiment}]", errors)
    for key, value in params.items():
        if key not in schema:
            continue
        pred, message = schema[key]
        if key in _LIST_PARAMS and isinstance(value, list):
            if not all(_is_number(v) for v in value):
                errors.append(f"params: {key!r} list must contain only numbers")
            continue
        if not _is_number(value):
            errors.append(f"params: {key!r} must be a number, got {type(value).__name__}")
            continue
        if not pred(value):
            errors.append(f"params: {key}={value} violates {message}")
    lo = params.get("dimMin", EXTENSION_DIMS["dimMin"])
    hi = params.get("dimMax", EXTENSION_DIMS["dimMax"])
    if experiment == "extensions" and _is_number(lo) and _is_number(hi) and lo > hi:
        errors.append(f"params: dimMin={lo} exceeds dimMax={hi}")


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

    if experiment in EXPERIMENTS:
        _validate_params(experiment, raw.get("params", {}), errors)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append(f"seed must be an integer, got {seed!r}")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        errors.append("tolerances: must be an object")
    elif not all(_is_number(v) for v in tolerances.values()):
        errors.append("tolerances: all override values must be numbers")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        operator_spec=dict(raw["operatorSpec"]),
        experiment=experiment,
        params=dict(raw.get("params", {})),
        seed=seed,
        tolerances=dict(tolerances),
    )
