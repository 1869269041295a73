"""Layered benchmark of ldlab.

    python3 bench/run.py --workload perturb-sl --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each run starts the workload in a fresh
interpreter (``bench/worker.py``), with ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONPATH`` set to the checkout's ``src``. Before and after it, ``setup_s``
is probed: fresh interpreters importing ``ldlab`` and ``ldlab.cli``. The
worker's outputs are checked by oracles in ``bench/workloads.py``, and its
verdicts against ``bench/reference_verdicts.json``.

With ``--trace 0`` the result carries the end-to-end metrics: ``pass_s``, one
pass over the workload's items as the sum of each item's fastest warm run
(see ``best_pass``); ``setup_s``, the fastest import probe; ``peak_rss_mb``, the
workload process's peak resident memory. With ``--trace 1`` it carries the
per-layer metrics of a traced run (``bench/spans.py``). Either way the lines before the last one
name ``checks_failed`` (FAIL verdict rows plus failed oracle checks, per pass)
and ``failed_frac`` (items that raised, exited 2 or wrote a scenario-error
row), with the run metadata. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A JSON file with
every sample, its quartiles and the run metadata is written under
``.bench_out/results/``.

``--smoke`` runs the same items at tiny sizes. At full size the verdict rows
(check, inputs, PASS/FAIL) do not depend on the seed, so every full-size run
names each verdict that differs from the reference and reports
``"correct": false``. To refresh the reference after a deliberate change,
copy the ``verdicts`` field of a full-size results file into this workload's
entry of ``bench/reference_verdicts.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from spans import CALL_METRICS, ITEM_ROUTINES, TIME_METRICS, loglog_slope

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference_verdicts.json")
DEFAULT_SEED = 0
DEADLINE_S = 160.0          # a run must end within 180 s, import probes after the workload included
SETUP_PROBES = (6, 1)       # timed import probes before and after the workload (full, smoke)
LAPACK_ITEM = "perturb-flat-r1-N150"

PROBE = ("import time; t = time.perf_counter(); import ldlab, ldlab.cli; "
         "print(repr(time.perf_counter() - t))")

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics():
    """(name, unit) of every per-layer metric, the same list for each workload."""
    out = [(m, "s") for m in TIME_METRICS]
    out += [("spectral.lapack_s", "s"), ("spectral.self_s", "s"),
            ("scenarios.run_scenario_self_s", "s")]
    out += [(m, "count") for m in CALL_METRICS]
    out += [("spectral.svd_work", "computed_ops"), ("spectral.eig_work", "computed_ops"),
            ("extensions.svd_per_theta", "calls/theta"), ("extensions.bookkeeping_share", "frac"),
            ("extensions.perturb_exponent", "slope"), ("sldiscrete.coeff_evals", "count"),
            ("sldiscrete.eig_exponent", "slope"), ("report.bytes", "bytes")]
    for workload in workloads.WORKLOADS:
        out += [(f"item.{item.name}_s", "s")
                for item in workloads.build_items(workload, DEFAULT_SEED, False, None)]
    out += [(f"item.{LAPACK_ITEM}.{r}", "count") for r in ITEM_ROUTINES]
    out.append(("trace.overhead_frac", "frac"))
    return out


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return parser.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    env.pop("LDLAB_SEED", None)        # the program sees only the generated configs
    env.update({
        "PYTHONPATH": SRC,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "TMPDIR": os.path.join(OUT, "tmp"),
    })
    return env


def _spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def measure_setup(env, probes: int, warm_up: bool) -> list:
    """Import time of ldlab + ldlab.cli in `probes` fresh interpreters. A
    warm-up probe, untimed, compiles bytecode and fills the page cache."""
    samples = []
    for i in range(probes + int(warm_up)):
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        if i or not warm_up:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _verdict_flips(workload, rows) -> list:
    """Verdicts that differ from the reference, by name."""
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[workload]
    except (OSError, KeyError, ValueError):
        return [f"no reference verdicts for {workload}"]
    flips = []
    for item in sorted(set(reference) | set(rows)):
        ref = {(r[0], r[1]): r[2] for r in reference.get(item, [])}
        got = {(r[0], r[1]): r[2] for r in rows.get(item, [])}
        for key in sorted(set(ref) | set(got)):
            if ref.get(key) != got.get(key):
                flips.append(f"{item}: {key[0]} [{key[1]}] "
                             f"{ref.get(key, 'absent')} -> {got.get(key, 'absent')}")
    return flips


def best_pass(passes) -> float:
    """Sum over items of each item's fastest time in `passes`.

    Interference on a shared machine only ever slows an item down, so the
    fastest of k warm runs is a far steadier estimate of a pass than the
    median pass (``setup_s`` takes the fastest probe for the same reason): measured on 2 vCPUs, 140 relations-small passes gave a
    run-to-run quartile spread of 0.11-0.16 for the median of 10-13 passes
    and 0.016-0.05 for this sum.
    """
    return sum(min(p["items"][name] for p in passes) for name in passes[0]["items"])


def _per_layer(result, smoke: bool) -> dict:
    """Per-layer metric values: medians over the traced passes, and each
    item's fastest traced run for the item times."""
    layers = result["layers"]
    values = {}
    for name in layers[0]["layers"]:
        values[name] = statistics.median(m["layers"][name] for m in layers)
    item_times = {}
    for name in result["items"]:
        item_times[name] = min(p["items"][name] for p in result["traced"])
        values[f"item.{name}_s"] = item_times[name]
    size = int(smoke)
    perturb = [item_times.get(f"perturb-flat-r1-N{n}", 0.0) for n in workloads.PERTURB_N[0]]
    values["extensions.perturb_exponent"] = loglog_slope(workloads.PERTURB_N[size], perturb)
    eig = [item_times.get(f"sl-eig-N{n}", 0.0) for n in workloads.EIG_N[0]]
    values["sldiscrete.eig_exponent"] = loglog_slope(workloads.EIG_N[size], eig)
    values["sldiscrete.coeff_evals"] = statistics.median(m["coeff_evals"] for m in layers)
    values["report.bytes"] = statistics.median(p["bytes"] for p in result["traced"])
    counts = layers[0]["item_lapack"].get(f"item.{LAPACK_ITEM}", {})
    for metric, names in ITEM_ROUTINES.items():
        values[f"item.{LAPACK_ITEM}.{metric}"] = sum(counts.get(n, 0) for n in names)
    values["trace.overhead_frac"] = best_pass(result["traced"]) / best_pass(result["untraced"]) - 1.0
    return values


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ldlab", "__init__.py")):
        print(f"error: no ldlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    started = perf_counter()
    env = _child_env()
    os.makedirs(env["TMPDIR"], exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work_dir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    result_path = os.path.join(work_dir, "worker.json")
    os.makedirs(work_dir, exist_ok=True)

    setup = measure_setup(env, SETUP_PROBES[int(args.smoke)], warm_up=True)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", SRC, "--work-dir", work_dir, "--result", result_path,
           "--spans-out", os.path.join(OUT, "results", f"{tag}.spans.csv") if args.trace else ""]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=DEADLINE_S - (perf_counter() - started))
        if proc.returncode != 0:
            print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path) as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup += measure_setup(env, SETUP_PROBES[int(args.smoke)], warm_up=False)

    passes = result["untraced"] + result["traced"]
    first = passes[0]
    problems = []
    attempted = len(passes) * len(result["items"])
    failed = sum(len(p["failed_items"]) for p in passes)
    failures = {name: err for p in passes for name, err in p["failed_items"].items()}
    problems += [f"item {name} failed: {err}" for name, err in sorted(failures.items())]
    for p in passes[1:]:
        if p["digests"] != first["digests"] or p["checks_failed"] != first["checks_failed"]:
            problems.append("outputs differ between passes of the same inputs")
            break
    oracle_fails = [f"{item}: {r[0]} [{r[1]}]" for item, rows in first["rows"].items()
                    for r in rows if r[0].startswith("bench:") and r[2] == "FAIL"]
    problems += [f"oracle failed: {o}" for o in oracle_fails]
    flips = [] if args.smoke else _verdict_flips(args.workload, first["rows"])
    problems += [f"verdict changed: {flip}" for flip in flips]

    samples = {"pass_s": [p["time"] for p in result["untraced"]], "setup_s": setup,
               "peak_rss_mb": [result["peak_rss_kb"] / 1024.0]}
    meta = dict(result["meta"], commit=_git_commit(), workload=args.workload,
                trace=args.trace, seconds=args.seconds)
    print(f"# ldlab bench {tag}: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    values = {"pass_s": best_pass(result["untraced"]), "setup_s": min(setup),
              "peak_rss_mb": samples["peak_rss_mb"][0]}
    for name, unit in END_TO_END:
        med, q1, q3 = _spread(samples[name])
        what = {"pass_s": "sum of each item's fastest of", "setup_s": "fastest of"}.get(name, "of")
        print(f"{name:<14} {values[name]:.6g} {unit}  ({what} {len(samples[name])}; "
              f"median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"{'checks_failed':<14} {first['checks_failed']} count  (FAIL rows + failed oracles, per pass)")
    print(f"{'failed_frac':<14} {failed / attempted:.6g} frac  ({failed} of {attempted} items)")
    if not args.smoke:
        print("verdicts vs reference: " + ("unchanged" if not flips else f"{len(flips)} differ"))
    for line in problems:
        print(f"problem: {line}")

    if args.trace:
        values = _per_layer(result, args.smoke)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_metrics()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report = {
        "meta": meta,
        "samples": {k: {"values": v, "median_q1_q3": _spread(v)} for k, v in samples.items()},
        "item_seconds": {"untraced": [p["items"] for p in result["untraced"]],
                         "traced": [p["items"] for p in result["traced"]]},
        "checks_failed": first["checks_failed"],
        "failed_frac": failed / attempted,
        "problems": problems,
        "verdict_flips": flips,
        "verdicts": first["rows"],
        "configs": result["configs"],
        "metrics": metrics,
    }
    results_path = os.path.join(OUT, "results", f"{tag}.json")
    with open(results_path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"results: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
