"""Scenario configuration: JSON parsing with exhaustive validation.

One config file describes one scenario. Validation collects *all* problems
(unknown keys, type errors, precondition violations) before rejecting, so a
bad config is fixed in one round trip.

Every key is declared once, as (kind, default, predicate, rule), in `OPERATORS`
(the operatorSpec of each kind), `COEFFS` (the `sl` coefficient families),
`PARAMS` and `TOLERANCES`; one validator, `_fill`, checks and types them all.
A parsed config is complete and typed: `params` and `tolerances` hold every
declared key, omitted ones at their defaults; the operatorSpec holds its
required keys as their kind and `coeffs` as an object with a `name`, and its
optional keys (`bc`, `cutoff`, `delta`) only when given, so the builder's own
defaults apply. The runners and `scenarios.build_operator` read them as given.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from . import hscale, leftdef
from .sldiscrete import BOUNDARY_TREATMENTS

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


def _is_finite(x) -> bool:
    """A finite int or float, bool excluded; the bound is exact for ints of any size."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _check_keys(obj: dict, allowed, context: str, errors: list):
    for key in obj:
        if key not in allowed:
            errors.append(f"{context}: unknown key {key!r} (allowed: {sorted(allowed)})")


FLOATS = "floats"      # a number or a nonempty list of numbers, stored as a list of floats
REQUIRED = "required"  # a default: the key must be given
OPTIONAL = None        # a default: the key is stored only when given

# Every config key, declared once: name -> (kind, default, predicate, rule). The
# kind is int, float, FLOATS, str, or a table of named coefficient families (a
# nested object tagged by "name"); a predicate of None admits every value of the
# kind. parse_config stores each value as its kind, so its readers take it as given.
COEFFS = {
    "flat": {},
    "jacobi": {
        "alpha": (float, REQUIRED, lambda v: v > 0, "alpha > 0"),
        "beta": (float, REQUIRED, lambda v: v > 0, "beta > 0"),
    },
    "laguerre": {
        "alpha": (float, REQUIRED, lambda v: v > -1, "alpha > -1"),
        "cutoff": (float, OPTIONAL, lambda v: v > 0, "cutoff > 0"),
    },
    "csv": {"path": (str, REQUIRED, None, "")},
}

OPERATORS = {
    "diag-growth": {
        "p": (float, REQUIRED, lambda v: v > 0, "p > 0"),
        "q": (float, REQUIRED, None, ""),
        "N": (int, REQUIRED, lambda v: v >= 1, "N >= 1"),
    },
    "matrix-file": {"path": (str, REQUIRED, None, "")},
    "sl": {
        "coeffs": (COEFFS, REQUIRED, None, ""),
        "N": (int, REQUIRED, lambda v: v >= 3, "N >= 3"),
        "bc": (str, OPTIONAL, lambda v: v in BOUNDARY_TREATMENTS,
               f"bc in {BOUNDARY_TREATMENTS}"),
        "delta": (float, OPTIONAL, lambda v: v >= 0, "delta >= 0"),
    },
    "laguerre": {
        "alpha": (float, REQUIRED, lambda v: v > -1, "alpha > -1"),
        "k": (float, REQUIRED, lambda v: v > 0, "k > 0"),
        "N": (int, REQUIRED, lambda v: v >= 1, "N >= 1"),
    },
}


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
        "s": (FLOATS, [-2.0, -1.0, 0.0, 1.0, 2.0], None, ""),
        "t": (FLOATS, [0.0, 0.5, 1.0, 2.0], None, ""),
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
TOLERANCES = {key: (float, default, lambda v: v > 0, f"{key} > 0") for key, default in {
    "identity": 1e-8,                   # laguerre-identity
    "property": leftdef.PROPERTY_TOL,   # every residual row of leftdef-verify
    "isometry": 1e-10,                  # scale: isometry
    "duality": 1e-12,                   # scale: duality-reduction
    "limit": 1e-6,                      # perturb-sweep: limit-crosscheck
}.items()}


def _tagged(obj, tag: str, schemas: dict, section: str, errors: list):
    """An object tagged by `tag` (a bare string s stands for {tag: s}), filled by the
    schema its tag names; None after recording why it cannot be."""
    if isinstance(obj, str):
        obj = {tag: obj}
    if not isinstance(obj, dict):
        errors.append(f"{section}: must be an object")
        return None
    name = obj.get(tag)
    if name not in schemas:
        errors.append(f"{section}: {tag}={name!r} not one of {tuple(schemas)}")
        return None
    return _fill({tag: (str, REQUIRED, None, ""), **schemas[name]}, obj, section, errors)


def _typed(section: str, key: str, kind, value, errors: list):
    """`value` stored as `kind`, or None after recording why it cannot be."""
    if isinstance(kind, dict):
        return _tagged(value, "name", kind, f"{section}.{key}", errors)
    if kind is str:
        if isinstance(value, str):
            return value
        errors.append(f"{section}: {key!r} must be a string, got {value!r}")
    elif kind is FLOATS:
        values = value if isinstance(value, list) else [value]
        if values and all(_is_finite(v) for v in values):
            return [float(v) for v in values]
        errors.append(f"{section}: {key!r} must be a finite number or a nonempty list of them")
    elif not _is_finite(value):
        errors.append(f"{section}: {key!r} must be a finite number, got {value!r}")
    elif kind is int and not (isinstance(value, int) or value.is_integer()):
        errors.append(f"{section}: {key!r} must be an integer, got {value!r}")
    else:
        return kind(value)
    return None


def _fill(schema: dict, given, section: str, errors: list) -> dict:
    """`given` checked against `schema` and typed, each omitted key given its default;
    a key that fails its check is recorded in `errors` and left out."""
    if not isinstance(given, dict):
        errors.append(f"{section}: must be an object")
        return {}
    _check_keys(given, schema, section, errors)
    filled = {}
    for key, (kind, default, pred, rule) in schema.items():
        if key not in given and (default is REQUIRED or default is OPTIONAL):
            if default is REQUIRED:
                errors.append(f"{section}: missing required key {key!r}")
            continue
        value = _typed(section, key, kind, given.get(key, default), errors)
        if value is not None and pred is not None and not pred(value):
            errors.append(f"{section}: {key}={given[key]} violates {rule}")
        elif value is not None:
            filled[key] = value
    return filled


def _fill_params(experiment: str, params, spec: dict, errors: list) -> dict:
    if experiment == "laguerre-identity" and isinstance(params, dict):
        params = {**{key: spec[key] for key in ("alpha", "k") if key in spec}, **params}
    filled = _fill(PARAMS[experiment], params, "params", errors)
    for lo, hi in _ORDERED.get(experiment, ()):
        if lo in filled and hi in filled and filled[lo] > filled[hi]:
            errors.append(f"params: {lo}={filled[lo]} exceeds {hi}={filled[hi]}")
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

    spec = None
    if "operatorSpec" not in raw:
        errors.append("missing required key 'operatorSpec'")
    else:
        spec = _tagged(raw["operatorSpec"], "kind", OPERATORS, "operatorSpec", errors)

    params = {}
    if experiment in EXPERIMENTS:   # only operatorSpec values that passed are inherited
        params = _fill_params(experiment, raw.get("params", {}), spec or {}, errors)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"seed must be a nonnegative integer, got {seed!r}")

    tolerances = _fill(TOLERANCES, raw.get("tolerances", {}), "tolerances", errors)

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        operator_spec=spec,
        experiment=experiment,
        params=params,
        seed=seed,
        tolerances=tolerances,
    )
