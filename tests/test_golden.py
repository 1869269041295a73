"""Golden reports: each config under tests/golden/ reproduces its stored outputs.

Every tests/golden/<name>/ holds a config.json and the report.csv and
tables/*.csv it produced when the directory was written. Check rows must agree
exactly on (check-name, inputs, status); residual digits are not compared.
Table cells must agree exactly, except that numeric cells agree to
1e-9 * max(1, max |column|), so a refactor that reorders floating-point work
passes while a changed verdict or table shape fails.

After a deliberate change of verdicts or tables, rewrite the stored outputs at one
OpenBLAS thread (only the files whose bytes change are written, each one printed):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py

No experiment needs scipy: `ldlab run` on every golden config, one after another
in one fresh interpreter, loads no scipy module.
"""

import ast
import csv
import io
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import ldlab
from ldlab.config import EXPERIMENTS, parse_config
from ldlab.scenarios import run_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").is_file())
NUMERIC_RTOL = 1e-9


def _outputs(name: str):
    report = run_scenario(parse_config((GOLDEN / name / "config.json").read_text()))
    return report.rows_csv(), {t.name: t.to_csv() for t in report.tables}


def _parse(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _assert_table_close(name: str, got: list, want: list):
    assert got[0] == want[0], f"{name}: header changed"
    assert len(got) == len(want), f"{name}: {len(got) - 1} rows, expected {len(want) - 1}"
    for col in range(len(want[0])):
        numbers = [_number(row[col]) for row in want[1:]]
        finite = [abs(x) for x in numbers if x is not None and math.isfinite(x)]
        tol = NUMERIC_RTOL * max([1.0] + finite)
        for i, (row_got, row_want) in enumerate(zip(got[1:], want[1:])):
            a, b = _number(row_got[col]), _number(row_want[col])
            where = f"{name} row {i} column {want[0][col]}: {row_got[col]} vs {row_want[col]}"
            if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
                assert row_got[col] == row_want[col], where
            else:
                assert abs(a - b) <= tol, where


@pytest.mark.parametrize("name", CASES)
def test_golden(name):
    rows_csv, tables = _outputs(name)
    keep = lambda rows: [(r[0], r[1], r[4]) for r in rows]
    want_rows = _parse((GOLDEN / name / "report.csv").read_text())
    assert keep(_parse(rows_csv)) == keep(want_rows)
    stored = sorted((GOLDEN / name / "tables").glob("*.csv"))
    assert sorted(tables) == [p.stem for p in stored]
    for path in stored:
        _assert_table_close(path.stem, _parse(tables[path.stem]), _parse(path.read_text()))


def test_golden_covers_every_experiment():
    seen = {parse_config((GOLDEN / n / "config.json").read_text()).experiment for n in CASES}
    assert seen == set(EXPERIMENTS)


# Runs each config given on the command line in turn and prints, after each, its name,
# exit status and the scipy modules loaded so far.
NO_SCIPY_RUNNER = """\
import contextlib, io, pathlib, sys
from ldlab.cli import main
out = pathlib.Path(sys.argv[1])
for config in sys.argv[2:]:
    name = pathlib.Path(config).parent.name
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(["run", config, "--out", str(out / name), "--format", "csv"])
    loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
    print(repr((name, status, loaded)), flush=True)
"""


@pytest.fixture(scope="module")
def no_scipy_runs(tmp_path_factory) -> dict:
    """name -> (exit status, scipy modules loaded so far) for `ldlab run` of every golden
    config, one after another in one fresh interpreter."""
    src = str(pathlib.Path(ldlab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUNNER, str(tmp_path_factory.mktemp("no-scipy"))]
        + [str(GOLDEN / name / "config.json") for name in CASES],
        capture_output=True, text=True, cwd=src, timeout=600,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    runs = {name: (status, loaded) for name, status, loaded in
            map(ast.literal_eval, out.stdout.splitlines())}
    assert out.returncode == 0 and len(runs) == len(CASES), out.stderr
    return runs


@pytest.mark.parametrize("name", CASES)
def test_run_loads_no_scipy(name, no_scipy_runs):
    status, loaded = no_scipy_runs[name]
    first = next((n for n in CASES if no_scipy_runs[n][1]), None)
    assert status == 0, f"{name}: exit {status}"
    assert loaded == [], f"{first} was the first config to load {no_scipy_runs[first][1]}"


def _regenerate():
    """Write each stored output whose bytes change, drop stored tables no longer produced,
    and print every path touched."""
    for name in CASES:
        rows_csv, tables = _outputs(name)
        tables_dir = GOLDEN / name / "tables"
        wanted = {GOLDEN / name / "report.csv": rows_csv}
        wanted.update((tables_dir / f"{table}.csv", text) for table, text in tables.items())
        for path in sorted(set(tables_dir.glob("*.csv")) - set(wanted)):
            path.unlink()
            print(f"removed {path}")
        for path, text in wanted.items():
            if not path.is_file() or path.read_text() != text:
                path.parent.mkdir(exist_ok=True)
                path.write_text(text)
                print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
