"""Run one workload in this fresh interpreter and write its raw results as JSON.

Started by ``run.py``, which sets ``PYTHONPATH`` to the checkout's ``src`` and
pins BLAS to one thread. A closed loop: one client, items back to back. After
a warm-up pass at smoke sizes, whole passes run until ``--seconds`` have gone
by (at least one). With ``--trace 1`` the first half of that time runs
untraced passes and the second half traced ones, so the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import workloads
from spans import Tracer, layer_metrics


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--src", required=True, help="directory ldlab must be imported from")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans-out", default="")
    return parser.parse_args(argv)


def run_pass(items, ldlab, tracer=None):
    """Run every item once; return (item seconds, outcomes).

    Outputs are judged after the last item, with tracing off, so the oracle
    checks neither count toward item time nor leave spans.
    """
    times, raws = {}, {}
    if tracer:
        tracer.enabled = True
    try:
        for item in items:
            item.reset()
            execute = tracer.wrap(f"item.{item.name}", item.execute) if tracer else item.execute
            t0 = perf_counter()
            try:
                raws[item.name] = (execute(ldlab), None)
            except Exception:  # an item that raises is a counted failure, not a crash
                raws[item.name] = (None, traceback.format_exc())
            times[item.name] = perf_counter() - t0
    finally:
        if tracer:
            tracer.enabled = False
    outcomes = {}
    for item in items:
        raw, error = raws[item.name]
        outcomes[item.name] = (workloads.Outcome(failed=True, error=error) if error
                               else item.judge(raw))
    return times, outcomes


def _summarize(times, outcomes):
    cross = workloads.cross_item_oracles(outcomes)
    rows = {name: o.rows for name, o in outcomes.items()}
    if cross:
        rows["cross-item"] = cross
    return {
        "time": sum(times.values()),
        "items": times,
        "rows": rows,
        "checks_failed": sum(1 for rs in rows.values() for r in rs if r[2] == "FAIL"),
        "failed_items": {n: o.error.strip().splitlines()[-1] if o.error else "failed"
                         for n, o in outcomes.items() if o.failed},
        "digests": {n: o.digest for n, o in outcomes.items()},
        "bytes": sum(o.bytes_written for o in outcomes.values()),
    }


def _blas_info():
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _metadata(args):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "smoke": args.smoke,
    }


def _write_spans(path, spans):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "parent", "name", "start_s", "end_s", "work"))
        for i, (name, parent, start, end, work) in enumerate(spans):
            writer.writerow((i, parent, name, f"{start:.9f}", f"{end:.9f}", work))


def main(argv=None) -> int:
    args = _parse_args(argv)
    import ldlab
    import ldlab.cli

    src = os.path.realpath(args.src)
    if os.path.dirname(os.path.realpath(ldlab.__file__)) != os.path.join(src, "ldlab"):
        print(f"error: ldlab imported from {ldlab.__file__}, expected {src}", file=sys.stderr)
        return 2

    coeffs = {"flat": ldlab.sldiscrete.SLCoefficients.flat(),
              "jacobi": ldlab.sldiscrete.SLCoefficients.jacobi(1.0, 1.0)}
    warm = workloads.build_items(args.workload, args.seed, True, coeffs)
    for item in warm:
        item.prepare(os.path.join(args.work_dir, "warmup"))
    run_pass(warm, ldlab)

    items = workloads.build_items(args.workload, args.seed, args.smoke, coeffs)
    for item in items:
        item.prepare(args.work_dir)
    untraced, traced, layers, spans = [], [], [], []
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    start = perf_counter()
    while not untraced or perf_counter() - start < untraced_budget:
        untraced.append(_summarize(*run_pass(items, ldlab)))

    if args.trace:
        # wrappers go in only now, so the untraced passes above ran unwrapped code
        tracer = Tracer()
        tracer.install(ldlab)
        counted = {k: dataclasses.replace(c, p=tracer.count_calls(c.p), q=tracer.count_calls(c.q),
                                          w=tracer.count_calls(c.w))
                   for k, c in coeffs.items()}
        items = workloads.build_items(args.workload, args.seed, args.smoke, counted)
        for item in items:
            item.prepare(args.work_dir)
        while not traced or perf_counter() - start < args.seconds:
            tracer.coeff_evals = 0
            times, outcomes = run_pass(items, ldlab, tracer)
            spans = tracer.take()
            summary = _summarize(times, outcomes)
            metrics = layer_metrics(spans)
            metrics["coeff_evals"] = tracer.coeff_evals
            traced.append(summary)
            layers.append(metrics)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.spans_out and spans:
        _write_spans(args.spans_out, spans)
    result = {
        "meta": _metadata(args),
        "items": [item.name for item in items],
        "configs": {item.name: item.config for item in items if hasattr(item, "config")},
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "peak_rss_kb": peak_kb,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
