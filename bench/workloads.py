"""Workloads of the ldlab benchmark: their items, seeded configs and oracles.

A workload is a fixed list of items run back to back. Scenario items go
through ``ldlab.cli.main(["run", cfg, "--format", "csv", "--out", dir])`` in
process; Sturm-Liouville convergence items call the ``sldiscrete`` API
directly. The workload seed only generates the ``seed`` field of each
scenario config; the program sees nothing but the generated config files.

Each item returns an ``Outcome`` holding its verdict rows (the program's
PASS/FAIL rows plus the benchmark's own oracle checks, prefixed ``bench:``),
whether it failed outright, a digest of its outputs and the bytes it wrote.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("perturb-sl", "relations-small", "spectra")

# Item sizes: (full, smoke). Smoke sizes keep every code path but finish in
# seconds; item names always carry the full size so metric names do not change.
PERTURB_N = ((50, 100, 150, 200), (10, 12, 14, 16))
EIG_N = ((200, 400, 800, 1600), (50, 100, 200, 400))
PRINCIPAL_N = (4000, 200)


@dataclass
class Outcome:
    failed: bool = False                       # raised, exit code 2 or scenario-error row
    rows: list = field(default_factory=list)   # [check-name, inputs, status]
    digest: str = ""
    bytes_written: int = 0
    values: dict = field(default_factory=dict)  # inputs to the cross-item oracles
    error: str = ""


def _oracle(outcome: Outcome, name: str, inputs: str, ok: bool):
    outcome.rows.append([f"bench:{name}", inputs, "PASS" if ok else "FAIL"])


class ScenarioItem:
    """One `ldlab run` of a generated config, in process."""

    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config
        self.config_path = ""
        self.out_dir = ""

    def prepare(self, work_dir: str):
        self.config_path = os.path.join(work_dir, "configs", f"{self.name}.json")
        self.out_dir = os.path.join(work_dir, "out", self.name)
        os.makedirs(os.path.dirname(self.config_path), exist_ok=True)
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=1, sort_keys=True)

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def execute(self, ldlab):
        argv = ["run", self.config_path, "--format", "csv", "--out", self.out_dir]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return ldlab.cli.main(argv)
            except SystemExit as exc:   # argparse usage errors exit with code 2
                return exc.code

    def judge(self, code) -> Outcome:
        outcome = Outcome(failed=code == 2)
        digest = hashlib.sha256()
        csv_path = os.path.join(self.out_dir, "report.csv")
        if not os.path.exists(csv_path):
            return Outcome(failed=True, error=f"exit code {code}, no report.csv written")
        for root, _, files in sorted(os.walk(self.out_dir)):
            for fname in sorted(files):
                path = os.path.join(root, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, self.out_dir).encode() + b"\0" + data)
                outcome.bytes_written += len(data)
        with open(csv_path, newline="") as fh:
            records = list(csv.reader(fh))[1:]
        for record in records:
            name, inputs, status = record[0], ",".join(record[1:-3]), record[-1]
            outcome.rows.append([name, inputs, status])
            if name == "scenario-error":
                outcome.failed = True
                outcome.error = inputs
        if not records:
            outcome.failed = True
            outcome.error = "report.csv holds no verdict rows"
        outcome.digest = digest.hexdigest()
        return outcome


def _array_digest(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class _DirectItem:
    """An item calling the sldiscrete API on the SL coefficients it is given."""

    def __init__(self, name: str, n: int, coeffs: dict):
        self.name = name
        self.n = n
        self.coeffs = coeffs

    def prepare(self, work_dir: str):
        pass

    def reset(self):
        pass


class EigenItem(_DirectItem):
    """discretize + eigenvalues() for flat Dirichlet and Jacobi(1,1) neumann-type SL."""

    def execute(self, ldlab):
        sl = ldlab.sldiscrete
        flat = sl.discretize(self.coeffs["flat"], self.n, "dirichlet").eigenvalues()
        jacobi = sl.discretize(self.coeffs["jacobi"], self.n, "neumann-type").eigenvalues()
        return flat, jacobi

    def judge(self, result) -> Outcome:
        flat, jacobi = result
        outcome = Outcome(digest=_array_digest(flat, jacobi))
        n = self.n
        h = math.pi / (n + 1)
        exact = 4.0 / h ** 2 * np.sin(np.arange(1, n + 1) * h / 2) ** 2
        dev = float(np.max(np.abs(flat - exact)))
        _oracle(outcome, "flat-exact-eigenvalues", f"N={n}", dev <= 1e-9 * float(exact[-1]))
        outcome.values = {"n": n, "jacobi_err1": abs(float(jacobi[1]) - 4.0)}
        return outcome


class PrincipalItem(_DirectItem):
    """principal_solution + boundary_functional at both endpoints of flat SL."""

    def execute(self, ldlab):
        sl = ldlab.sldiscrete
        flat = self.coeffs["flat"]
        out = {}
        for endpoint in ("a", "b"):
            u = sl.principal_solution(flat, 0.0, endpoint, self.n)
            out[endpoint] = sl.boundary_functional(flat, u, endpoint)
        return out

    def judge(self, funcs) -> Outcome:
        n = self.n
        h = math.pi / (n + 1)
        xs = h * np.arange(1, n + 1)
        outcome = Outcome(digest=_array_digest(funcs["a"].solution, funcs["b"].solution))
        # [f, u](a) = -f(a) and [f, u](b) = +f(b), first order in h (criterion 11)
        tests = (
            ("const", np.ones(n), np.zeros(n), lambda x: 1.0),
            ("cos", np.cos(xs), -np.sin(xs), math.cos),
            ("quadratic", 1.0 + 0.3 * xs + xs ** 2, 0.3 + 2 * xs, lambda x: 1.0 + 0.3 * x + x * x),
        )
        for endpoint, sign, x_end in (("a", -1.0, 0.0), ("b", 1.0, math.pi)):
            for label, f, fprime, exact in tests:
                bound = 10 * h * max(float(np.max(np.abs(fprime))), 1.0)
                err = abs(funcs[endpoint].pair(f) - sign * exact(x_end))
                _oracle(outcome, "boundary-pairing", f"N={n}, endpoint {endpoint}, f={label}",
                        err <= bound)
        return outcome


def _sl(coeffs, n: int, bc: str) -> dict:
    return {"kind": "sl", "coeffs": coeffs, "N": n, "bc": bc}


JACOBI = {"name": "jacobi", "alpha": 1.0, "beta": 1.0}


def _scenario_specs(workload: str, smoke: bool):
    """(item name, operatorSpec, experiment, params) for the scenario items."""
    s = int(smoke)
    if workload == "perturb-sl":
        specs = [(f"perturb-flat-r1-N{full}", _sl("flat", size, "dirichlet"), {"rank": 1})
                 for full, size in zip(PERTURB_N[0], PERTURB_N[s])]
        n100 = (100, 12)[s]
        specs.append(("perturb-flat-r2-N100", _sl("flat", n100, "dirichlet"), {"rank": 2}))
        specs.append(("perturb-jacobi-r2-N100", _sl(JACOBI, n100, "neumann-type"), {"rank": 2}))
        return [(name, op, "perturb-sweep", params) for name, op, params in specs]
    if workload == "relations-small":
        op = {"kind": "diag-growth", "p": 1.0, "q": -1.0, "N": 10}
        scale = (1, 50)[s]
        ext = [("extensions-d5-10-c1", {"trials": 300, "dimMin": 5, "dimMax": 10, "codim": 1}),
               ("extensions-d8-16-c3", {"trials": 120, "dimMin": 8, "dimMax": 16, "codim": 3})]
        fried = [("friedrichs-d6-n2-c1", {"dim": 6, "n": 2, "codim": 1, "trials": 120}),
                 ("friedrichs-d10-n4-c2", {"dim": 10, "n": 4, "codim": 2, "trials": 60}),
                 ("friedrichs-d8-n3-c0", {"dim": 8, "n": 3, "codim": 0, "trials": 40})]
        out = []
        for experiment, group in (("extensions", ext), ("friedrichs-conjecture", fried)):
            for name, params in group:
                params = dict(params, trials=max(1, params["trials"] // scale))
                out.append((name, op, experiment, params))
        return out
    if workload == "spectra":
        lag_n, flat_n, scale_n, samples = ((400, 200, 1000, 100), (20, 20, 50, 5))[s]
        return [
            ("leftdef-laguerre-N400", {"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": lag_n},
             "leftdef-verify", {"r": 3, "samples": samples}),
            ("leftdef-flat-N200", _sl("flat", flat_n, "dirichlet"), "leftdef-verify", {"r": 2}),
            ("scale-diag-growth-N1000", {"kind": "diag-growth", "p": 2.0, "q": 0.5, "N": scale_n},
             "scale", {"samples": samples // 2}),
            ("laguerre-identity-a1-k1-n3-d20", {"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": 8},
             "laguerre-identity", {"alpha": 1.0, "k": 1.0, "n": 3, "deg": (20, 6)[s]}),
            ("laguerre-identity-a0.5-k2-n2-d30", {"kind": "laguerre", "alpha": 0.5, "k": 2.0, "N": 8},
             "laguerre-identity", {"alpha": 0.5, "k": 2.0, "n": 2, "deg": (30, 8)[s]}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build_items(workload: str, seed: int, smoke: bool, coeffs: dict | None) -> list:
    """The workload's items, in run order. `coeffs` holds the SL coefficients
    the direct items use ({"flat": ..., "jacobi": ...}); spectra needs it."""
    rng = random.Random(seed)
    items = []
    for name, op, experiment, params in _scenario_specs(workload, smoke):
        config = {"operatorSpec": op, "experiment": experiment, "params": params,
                  "seed": rng.randrange(2 ** 31)}
        items.append(ScenarioItem(name, config))
    if workload == "spectra":
        direct = [EigenItem(f"sl-eig-N{full}", size, coeffs)
                  for full, size in zip(EIG_N[0], EIG_N[int(smoke)])]
        direct.append(PrincipalItem(f"principal-solution-N{PRINCIPAL_N[0]}",
                                    PRINCIPAL_N[int(smoke)], coeffs))
        items = direct + items
    return items


def cross_item_oracles(outcomes: dict) -> list:
    """Oracle rows that need several items: Jacobi(1,1) lambda_1 = 4 error ratios
    between successive N must lie in [3.5, 4.5] (criterion 10)."""
    errs = [o.values for o in outcomes.values() if "jacobi_err1" in o.values]
    rows = []
    for lo, hi in zip(errs, errs[1:]):
        ratio = lo["jacobi_err1"] / hi["jacobi_err1"] if hi["jacobi_err1"] > 0 else math.inf
        rows.append(["bench:jacobi-error-ratio", f"N={lo['n']}->{hi['n']}",
                     "PASS" if 3.5 <= ratio <= 4.5 else "FAIL"])
    return rows
