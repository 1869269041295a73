"""The verdict atlas: fixed stress grids at the edges of `config.PARAMS`, each config run
through `run_scenario` as `ldlab run` runs it.

Every check row and every table row must PASS unless a map of expected FAILs names it,
and every row the map names must FAIL, so a mend drops its entry. Slices so far:
- extensions on diag-growth: dimMin 10, dimMax 10/20/30 x codim 1/2/3, 25 trials, seed 0.
  No row FAILs, so it has no map.
- leftdef-verify, seed 0, default samples: flat SL, N 50/100/200 x r 0.5/1/2/3;
  diag-growth p 1/2/3, q 0, N 100/200, at r 2; laguerre (alpha 1, k 1), N 100, at r 3.
  Its map, LEFTDEF_FAILS, holds 4 rows.
- scale on diag-growth, seed 0, default s/t grids: p 0.5/2/8/50 x q -1/0.5 x N 50/200.
  No row FAILs, so it has no map: at p = 50 the classifier's partial sums leave the float
  range unless they are taken in logs.
"""

import itertools
import json

import pytest

from ldlab.config import parse_config
from ldlab.scenarios import run_scenario


@pytest.mark.parametrize("dim_max, codim", list(itertools.product((10, 20, 30), (1, 2, 3))))
def test_extensions_slice_passes(dim_max, codim):
    config = parse_config(json.dumps({
        "operatorSpec": {"kind": "diag-growth", "p": 1.0, "q": -1.0, "N": 10},
        "experiment": "extensions",
        "params": {"trials": 25, "dimMin": 10, "dimMax": dim_max, "codim": codim},
        "seed": 0}))
    report = run_scenario(config)
    assert [row.name for row in report.rows if row.status != "PASS"] == []
    (trials,) = report.tables
    assert len(trials.rows) == 25
    assert [row for row in trials.rows if row[-1] != "PASS"] == []


LEFTDEF_SLICE = {
    **{f"flat-N{n}-r{r:g}": ({"kind": "sl", "coeffs": "flat", "N": n}, r)
       for n, r in itertools.product((50, 100, 200), (0.5, 1.0, 2.0, 3.0))},
    **{f"diag-growth-p{p:g}-N{n}-r2": ({"kind": "diag-growth", "p": p, "q": 0.0, "N": n}, 2.0)
       for p, n in itertools.product((1.0, 2.0, 3.0), (100, 200))},
    "laguerre-a1-k1-N100-r3": ({"kind": "laguerre", "alpha": 1.0, "k": 1.0, "N": 100}, 3.0),
}

# config -> {check that FAILs: the ROADMAP item that mends it}. eigen-gram-diag compares
# U*(U Lambda^r U*)U with lambda^r, so its error grows like eps * kappa^r (item 1).
LEFTDEF_FAILS = {
    "flat-N50-r3": {"eigen-gram-diag": 1},
    "flat-N100-r3": {"eigen-gram-diag": 1},
    "flat-N200-r2": {"eigen-gram-diag": 1},
    "flat-N200-r3": {"eigen-gram-diag": 1},
}


@pytest.mark.parametrize("name", LEFTDEF_SLICE)
def test_leftdef_slice_fails_only_as_mapped(name):
    spec, r = LEFTDEF_SLICE[name]
    report = run_scenario(parse_config(json.dumps({
        "operatorSpec": spec, "experiment": "leftdef-verify", "params": {"r": r}, "seed": 0})))
    failed = {row.name for row in report.rows if row.status != "PASS"}
    assert failed == set(LEFTDEF_FAILS.get(name, {}))


SCALE_SLICE = {f"diag-growth-p{p:g}-q{q:g}-N{n}": {"kind": "diag-growth", "p": p, "q": q, "N": n}
               for p, q, n in itertools.product((0.5, 2.0, 8.0, 50.0), (-1.0, 0.5), (50, 200))}


@pytest.mark.parametrize("name", SCALE_SLICE)
def test_scale_slice_passes(name):
    report = run_scenario(parse_config(json.dumps({
        "operatorSpec": SCALE_SLICE[name], "experiment": "scale", "seed": 0})))
    assert [row.name for row in report.rows if row.status != "PASS"] == []
    (membership,) = report.tables
    assert [row[4] for row in membership.rows] == [row[5] for row in membership.rows]
