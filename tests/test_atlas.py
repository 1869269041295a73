"""The verdict atlas: fixed stress grids at the edges of `config.PARAMS`, each config run
through `run_scenario` as `ldlab run` runs it.

Every check row and every table row must PASS unless a map of expected FAILs names it.
Slices so far:
- extensions on diag-growth: dimMin 10, dimMax 10/20/30 x codim 1/2/3, 25 trials, seed 0.
  No row FAILs, so it has no map.
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
