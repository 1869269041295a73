"""Span tracing of ldlab from outside the package.

``Tracer.install`` wraps the public functions of each ldlab module, the
classmethods and methods of its public classes, and the LAPACK-backed
routines of ``numpy.linalg`` and ``scipy.linalg``. A function is replaced in
every namespace where callers look it up (``extensions.rel_is_selfadjoint`` as
well as ``spectral.rel_is_selfadjoint``), so calls between modules are seen.
Nothing inside ``src/`` changes.

A span is ``[name, parent index, start, end, work]``. Spans stay in memory
until the caller takes them; ``layer_metrics`` turns one pass's spans into the
per-layer metrics. Self time is a span's duration minus the time its children
cover (children of one span never overlap: the benchmark is single-threaded).
"""

from __future__ import annotations

import functools
import inspect
import math
from time import perf_counter

LDLAB_MODULES = ("spectral", "leftdef", "hscale", "classical", "extensions",
                 "sldiscrete", "config", "report", "scenarios", "cli")

# (library, routine, kind); kind groups the count metrics.
LAPACK_ROUTINES = (
    ("numpy", "svd", "svd"), ("numpy", "matrix_rank", "matrix_rank"),
    ("numpy", "lstsq", "lstsq"), ("numpy", "eigh", "eigh"),
    ("numpy", "eigvalsh", "eigh"), ("numpy", "qr", "qr"),
    ("scipy", "svd", "svd"), ("scipy", "null_space", "svd"),
    ("scipy", "lstsq", "lstsq"), ("scipy", "eigh", "eigh"),
    ("scipy", "eigh_tridiagonal", "eigh_tridiagonal"),
    ("scipy", "eigvalsh_tridiagonal", "eigh_tridiagonal"),
    ("scipy", "qr", "qr"),
)

def _shape(args, kwargs, key="a"):
    arr = args[0] if args else kwargs.get(key)
    return getattr(arr, "shape", ())


def _svd_work(args, kwargs):
    shape = _shape(args, kwargs)
    if len(shape) < 2:
        return 0
    m, n = shape[-2:]
    return m * n * min(m, n)


def _eig_work(args, kwargs):
    shape = _shape(args, kwargs)
    return shape[-1] ** 3 if shape else 0


def _tridiagonal_work(args, kwargs):
    shape = _shape(args, kwargs, "d")
    return shape[-1] ** 2 if shape else 0


_WORK = {"svd": _svd_work, "matrix_rank": _svd_work, "eigh": _eig_work,
         "eigh_tridiagonal": _tridiagonal_work}


class Tracer:
    """Collects spans while `enabled`; installed wrappers cost one test when off."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False
        self.coeff_evals = 0

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn, work=None):
        """`fn` recording a span per call; `work(args, kwargs)` sizes LAPACK calls."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans = self.spans
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapper

    def count_calls(self, fn):
        """Wrap an SL coefficient callable so its calls are counted."""
        def counted(x):
            if self.enabled:
                self.coeff_evals += 1
            return fn(x)
        return counted

    def install(self, ldlab):
        """Wrap ldlab's public callables and the numpy/scipy LAPACK routines."""
        import numpy.linalg
        import scipy.linalg

        modules = [getattr(ldlab, short) for short in LDLAB_MODULES]
        namespaces = modules + [ldlab]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        if getattr(ns, attr, None) is obj:
                            setattr(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for lib, routine, kind in LAPACK_ROUTINES:
            ns = numpy.linalg if lib == "numpy" else scipy.linalg
            wrapped = self.wrap(f"lapack.{lib}.{routine}", getattr(ns, routine), _WORK.get(kind))
            setattr(ns, routine, wrapped)

    def _wrap_class(self, short: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__post_init__", "__call__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))


# Inclusive-time metrics: metric -> span names whose time it sums. A span
# nested inside another span of the same metric is not counted twice.
TIME_METRICS = {
    "spectral.rel_is_selfadjoint_s": ("spectral.rel_is_selfadjoint",),
    "spectral.rel_adjoint_s": ("spectral.rel_adjoint",),
    "spectral.rel_compose_s": ("spectral.rel_compose",),
    "spectral.subspace_intersect_s": ("spectral.subspace_intersect",),
    "spectral.orthocomplement_s": ("spectral.orthocomplement",),
    "spectral.span_s": ("spectral.Subspace.span",),
    "spectral.eigh_s": ("spectral.eigh",),
    "extensions.perturb_s": ("extensions.perturb",),
    "extensions.relation_spectrum_s": ("extensions.relation_spectrum",),
    "extensions.spec_init_s": ("extensions.PerturbationSpec.__post_init__",),
    "extensions.theta_sweep_s": ("extensions.theta_sweep",),
    "extensions.limit_crosscheck_s": ("extensions.limit_crosscheck",),
    "extensions.interlacing_check_s": ("extensions.interlacing_check",),
    "extensions.minimal_relation_s": ("extensions.minimal_relation",),
    "extensions.deficiency_indices_s": ("extensions.deficiency_indices",),
    "extensions.von_neumann_check_s": ("extensions.von_neumann_check",),
    "extensions.friedrichs_relation_s": ("extensions.friedrichs_relation",),
    "extensions.friedrichs_power_experiment_s": ("extensions.friedrichs_power_experiment",),
    "extensions.friedrichs_power_oracle_s": ("extensions.friedrichs_power_oracle",),
    "sldiscrete.discretize_s": ("sldiscrete.discretize",),
    "sldiscrete.eigenvalues_s": ("sldiscrete.DiscreteOperator.eigenvalues",),
    "sldiscrete.principal_solution_s": ("sldiscrete.principal_solution",),
    "leftdef.from_matrix_s": ("leftdef.SpectralOperator.from_matrix",),
    "leftdef.verify_ld_properties_s": ("leftdef.verify_ld_properties",),
    "leftdef.closed_form_s": ("leftdef.ClosedFormR.__post_init__", "leftdef.ClosedFormR.__call__",
                              "leftdef.ClosedFormR.lower_bound"),
    "hscale.membership_table_s": ("hscale.membership_table",),
    "hscale.isometry_check_s": ("hscale.isometry_check",),
    "hscale.duality_pair_s": ("hscale.duality_pair",),
    "hscale.equivalence_check_s": ("hscale.equivalence_check",),
    "classical.laguerre_identity_table_s": ("classical.laguerre_identity_table",),
    "config.parse_config_s": ("config.parse_config",),
    "scenarios.build_operator_s": ("scenarios.build_operator",),
    "report.emit_s": ("report.emit",),
    "cli.main_s": ("cli.main",),
}

CALL_METRICS = {
    "spectral.rel_is_selfadjoint_calls": ("spectral.rel_is_selfadjoint",),
    "spectral.svd_calls": ("lapack.numpy.svd", "lapack.scipy.svd", "lapack.scipy.null_space"),
    "spectral.matrix_rank_calls": ("lapack.numpy.matrix_rank",),
    "spectral.lstsq_calls": ("lapack.numpy.lstsq", "lapack.scipy.lstsq"),
    "spectral.eigh_calls": ("lapack.numpy.eigh", "lapack.numpy.eigvalsh", "lapack.scipy.eigh",
                            "lapack.scipy.eigh_tridiagonal", "lapack.scipy.eigvalsh_tridiagonal"),
    "spectral.qr_calls": ("lapack.numpy.qr", "lapack.scipy.qr"),
}

SVD_BACKED = CALL_METRICS["spectral.svd_calls"] + CALL_METRICS["spectral.matrix_rank_calls"]
BOOKKEEPING = SVD_BACKED + CALL_METRICS["spectral.lstsq_calls"]

# LAPACK counts reported for one item, by routine.
ITEM_ROUTINES = {"svd_calls": ("lapack.numpy.svd",),
                 "matrix_rank_calls": ("lapack.numpy.matrix_rank",),
                 "lstsq_calls": ("lapack.numpy.lstsq",),
                 "eigvalsh_calls": ("lapack.numpy.eigvalsh",),
                 "eigh_calls": ("lapack.numpy.eigh",)}


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass's spans (item spans are the roots)."""
    count = len(spans)
    dur = [rec[3] - rec[2] for rec in spans]
    child_time = [0.0] * count
    for i, rec in enumerate(spans):
        if rec[1] >= 0:
            child_time[rec[1]] += dur[i]

    group_of = {}
    for metric, names in TIME_METRICS.items():
        for span_name in names:
            group_of[span_name] = metric
    lapack = {rec[0] for rec in spans if rec[0].startswith("lapack.")}
    for span_name in lapack:
        group_of[span_name] = "spectral.lapack_s"

    # ancestors[i]: the metric groups on the path above span i (shared frozensets)
    ancestors = [frozenset()] * count
    joined = {}
    for i, rec in enumerate(spans):
        p = rec[1]
        if p < 0:
            continue
        base, g = ancestors[p], group_of.get(spans[p][0])
        if g is None or g in base:
            ancestors[i] = base
        else:
            key = (base, g)
            if key not in joined:
                joined[key] = base | {g}
            ancestors[i] = joined[key]

    out = {metric: 0.0 for metric in TIME_METRICS}
    out["spectral.lapack_s"] = 0.0
    out["spectral.self_s"] = 0.0
    out["scenarios.run_scenario_self_s"] = 0.0
    calls = {}
    work = {"svd": 0, "eig": 0}
    item_of = [""] * count
    in_sweep = [False] * count
    item_counts = {}
    bookkeeping = 0.0
    theta_svd = 0
    theta_count = 0
    for i, rec in enumerate(spans):
        name = rec[0]
        calls[name] = calls.get(name, 0) + 1
        g = group_of.get(name)
        if g is not None and g not in ancestors[i]:
            out[g] += dur[i]
        if name.startswith("spectral."):
            out["spectral.self_s"] += dur[i] - child_time[i]
        elif name == "scenarios.run_scenario":
            out["scenarios.run_scenario_self_s"] += dur[i] - child_time[i]
        p = rec[1]
        item_of[i] = name if p < 0 else item_of[p]
        in_sweep[i] = p >= 0 and (in_sweep[p] or spans[p][0] == "extensions.theta_sweep")
        if name.startswith("lapack."):
            per_item = item_counts.setdefault(item_of[i], {})
            per_item[name] = per_item.get(name, 0) + 1
            if name in SVD_BACKED:
                work["svd"] += rec[4]
            elif name in CALL_METRICS["spectral.eigh_calls"]:
                work["eig"] += rec[4]
            if name in BOOKKEEPING:
                bookkeeping += dur[i]
        if in_sweep[i]:
            if name in SVD_BACKED:
                theta_svd += 1
            elif name == "extensions.perturb":
                theta_count += 1

    for metric, names in CALL_METRICS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    out["spectral.svd_work"] = work["svd"]
    out["spectral.eig_work"] = work["eig"]
    out["extensions.svd_per_theta"] = theta_svd / theta_count if theta_count else 0.0
    total = sum(dur[i] for i, rec in enumerate(spans) if rec[1] < 0)
    out["extensions.bookkeeping_share"] = bookkeeping / total if total else 0.0
    return {"layers": out, "item_lapack": item_counts}


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size); 0 without data."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if n > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx if sxx else 0.0
