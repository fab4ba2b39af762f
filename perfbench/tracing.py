"""Per-layer spans and counts, recorded by wrapping specrisk's public functions.

Nothing under ``src/`` knows about tracing.  ``install`` replaces each
traced function or method with a wrapper and ``uninstall`` puts the
originals back.  Modules bind names with ``from .ltrc import fit_pl``, so a
function is rebound in every ``specrisk`` module that holds it, not only in
the module that defines it.

A span is ``[name, start_ns, end_ns, parent index, request id]``.  Spans
stay in memory until the run ends; a layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
import warnings
from collections import Counter
from time import perf_counter_ns

ESTIMATORS = ("prod", "emp", "kernel", "ml", "pm")
QUAD_ESTIMATORS = ("kernel", "ml", "pm")
# estimate_sigma2's density costs (knots x segments); its child fits report both.
SIGMA2 = "inference.estimate_sigma2"

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [(f"ltrc.fit_pl.{m}", u) for m, u in (
        ("calls", "count"), ("self_ms", "ms"), ("obs", "count"),
        ("exact_calls", "count"), ("zero_factor_fits", "count"))]
    + [("ltrc.LtrcSample.calls", "count"), ("ltrc.LtrcSample.self_ms", "ms"),
       ("ltrc.pl_quantile.calls", "count"), ("ltrc.pl_quantile.self_ms", "ms"),
       ("rng.derive_rng.calls", "count"), ("rng.derive_rng.self_ms", "ms"),
       ("rng.derive_seed.calls", "count"),
       ("spectra.segment_integral.calls", "count"), ("spectra.segment_integral.self_ms", "ms"),
       ("spectra.segment_integral.segments", "count"), ("spectra.phi.calls", "count")]
    + [(f"estimators.{e}.{step}.{m}", u)
       for e in ESTIMATORS for step in ("prepare", "evaluate")
       for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("estimators.kernel.integrand_evals", "count"), ("estimators.quad_warnings", "count"),
       ("inference.bootstrap_ci_many.calls", "count"), ("inference.bootstrap_ci_many.self_ms", "ms"),
       ("inference.bootstrap_ci_many.replicates", "count"),
       ("inference.bootstrap_ci_many.replicate_failures", "count"),
       ("inference.bootstrap_ci_many.used_frac", "ratio"),
       ("inference.estimate_sigma2.calls", "count"), ("inference.estimate_sigma2.self_ms", "ms"),
       ("inference.estimate_sigma2.density_cells", "count"),
       ("inference.edgeworth_diagnostics.calls", "count"),
       ("inference.edgeworth_diagnostics.self_ms", "ms"),
       ("inference.asymptotic_ci.calls", "count"), ("inference.asymptotic_ci.self_ms", "ms")]
    + [(f"severity.{f}.{m}", u)
       for f in ("sample_ltrc_iid", "sample_ltrc_dependent")
       for m, u in (("calls", "count"), ("self_ms", "ms"), ("obs", "count"))]
    + [("severity.theoretical_srm.calls", "count"), ("severity.theoretical_srm.self_ms", "ms"),
       ("severity.sample_dependent_marginal.self_ms", "ms"),
       ("severity.calibrate_truncation_location.self_ms", "ms"),
       ("harness.run.calls", "count"), ("harness.run.self_ms", "ms"),
       ("harness.pool_starts", "count"), ("harness.pool_wait_ms", "ms"),
       ("harness.worker_cpu_s", "s"),
       ("claims.parse_claims.calls", "count"), ("claims.parse_claims.self_ms", "ms"),
       ("claims.parse_claims.rows", "count"),
       ("cli.main.self_ms", "ms"), ("cli.bytes_written", "count"),
       ("trace.requests", "count"), ("trace.untraced_units_per_s", "units/s"),
       ("trace.traced_units_per_s", "units/s"), ("trace.overhead_frac", "ratio"),
       ("trace.attributed_frac", "ratio")]
)


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.notes: dict[int, dict] = {}
        self.request = None

    def note_parent(self, parent_name, key, value):
        """Attach a value to the innermost open span if it is a ``parent_name`` span."""
        if self.stack and self.spans[self.stack[-1]][0] == parent_name:
            self.notes.setdefault(self.stack[-1], {})[key] = value

    def spanned(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after`` sees the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            idx = len(self.spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.request]
            self.spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans):
    """{name: [calls, self_ns]} from spans ``(name, start, end, parent, request)``."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        t = totals.setdefault(name, [0, 0])
        t[0] += 1
        t[1] += end - start - covered[i]
    return totals


# ---------------------------------------------------------------------------
# after-hooks: counts read off arguments and results, outside the span's time


def _after_fit(tr, idx, args, kwargs, dist):
    c = tr.counts
    c["ltrc.fit_pl.obs"] += dist.n
    c["ltrc.fit_pl.exact_calls"] += dist.exact_values is not None
    c["ltrc.fit_pl.zero_factor_fits"] += dist.zero_factor_count > 0
    tr.note_parent(SIGMA2, "knots", dist.knots.size)


def _after_quantile(tr, idx, args, kwargs, q):
    tr.note_parent(SIGMA2, "segments", q.values.size)


def _after_sigma2(tr, idx, args, kwargs, result):
    note = tr.notes.pop(idx, {})
    tr.counts["inference.estimate_sigma2.density_cells"] += (
        note.get("knots", 0) * note.get("segments", 0)
    )


def _after_bootstrap(tr, idx, args, kwargs, reports):
    plan = args[3] if len(args) > 3 else kwargs["plan"]
    c = tr.counts
    c["inference.bootstrap_ci_many.replicates"] += plan.replicates
    c["boot.slots"] += plan.replicates * len(reports)
    c["boot.used"] += sum(r.replicates_used for r in reports)
    c["inference.bootstrap_ci_many.replicate_failures"] += sum(
        r.replicate_failures for r in reports
    )


def _after_parse(tr, idx, args, kwargs, claims):
    tr.counts["claims.parse_claims.rows"] += claims.n_rows


def _after_segments(tr, idx, args, kwargs, result):
    tr.counts["spectra.segment_integral.segments"] += getattr(args[1], "size", 1)


def _obs_hook(key):
    def hook(tr, idx, args, kwargs, sample):
        tr.counts[key] += len(sample)

    return hook


def _capturing_quad_warnings(tracer, fn):
    from scipy.integrate import IntegrationWarning

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        tracer.counts["estimators.quad_warnings"] += sum(
            issubclass(w.category, IntegrationWarning) for w in caught
        )
        return result

    return wrapper


# ---------------------------------------------------------------------------
# installation


def _rebind(orig, wrapper, undo):
    """Point every specrisk module attribute bound to ``orig`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "specrisk" or name.startswith("specrisk.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)
                undo.append((module, attr, orig))


def _patch(owner, attr, wrapper, undo):
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, wrapper)


def install_pool_counter(tracer, undo=None):
    """Count process-pool starts and the time the harness waits on them."""
    from specrisk import harness

    undo = [] if undo is None else undo
    base = harness.ProcessPoolExecutor
    counts = tracer.counts

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            counts["harness.pool_starts"] += 1
            super().__init__(*args, **kwargs)

        def __enter__(self):
            self._entered_ns = perf_counter_ns()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                counts["pool_wait_ns"] += perf_counter_ns() - self._entered_ns

    _patch(harness, "ProcessPoolExecutor", CountingPool, undo)
    return undo


def install(tracer):
    """Wrap every traced entry point; returns the list ``uninstall`` reverts."""
    from specrisk import claims, cli, estimators, harness, inference, ltrc, rng, severity, spectra

    undo: list = []
    functions = [
        (ltrc.fit_pl, "ltrc.fit_pl", _after_fit),
        (ltrc.pl_quantile, "ltrc.pl_quantile", _after_quantile),
        (rng.derive_rng, "rng.derive_rng", None),
        (claims.parse_claims, "claims.parse_claims", _after_parse),
        (cli.main, "cli.main", None),
        (inference.bootstrap_ci_many, "inference.bootstrap_ci_many", _after_bootstrap),
        (inference.estimate_sigma2, SIGMA2, _after_sigma2),
        (inference.edgeworth_diagnostics, "inference.edgeworth_diagnostics", None),
        (inference.asymptotic_ci, "inference.asymptotic_ci", None),
        (severity.sample_ltrc_iid, "severity.sample_ltrc_iid",
         _obs_hook("severity.sample_ltrc_iid.obs")),
        (severity.sample_ltrc_dependent, "severity.sample_ltrc_dependent",
         _obs_hook("severity.sample_ltrc_dependent.obs")),
        (severity.theoretical_srm, "severity.theoretical_srm", None),
        (severity.sample_dependent_marginal, "severity.sample_dependent_marginal", None),
        (severity.calibrate_truncation_location, "severity.calibrate_truncation_location", None),
        (harness.run_iid_experiment, "harness.run", None),
        (harness.run_dependent_experiment, "harness.run", None),
        (harness.run_coverage_experiment, "harness.run", None),
    ]
    for fn, name, after in functions:
        _rebind(fn, tracer.spanned(name, fn, after), undo)
    _rebind(rng.derive_seed, tracer.counted("rng.derive_seed.calls", rng.derive_seed), undo)

    classes = {
        "prod": estimators.ProdEstimator,
        "emp": estimators.EmpEstimator,
        "kernel": estimators.KernelEstimator,
        "ml": estimators.MlEstimator,
        "pm": estimators.PmEstimator,
    }
    for est, cls in classes.items():
        for step in ("prepare", "evaluate"):
            fn = cls.__dict__[step]
            if step == "evaluate" and est in QUAD_ESTIMATORS:
                fn = _capturing_quad_warnings(tracer, fn)
            _patch(cls, step, tracer.spanned(f"estimators.{est}.{step}", fn), undo)

    sample_init = ltrc.LtrcSample.__dict__["__init__"]
    _patch(ltrc.LtrcSample, "__init__", tracer.spanned("ltrc.LtrcSample", sample_init), undo)
    spec = spectra.ExponentialSpectrum
    _patch(spec, "segment_integral",
           tracer.spanned("spectra.segment_integral", spec.__dict__["segment_integral"],
                          _after_segments), undo)
    _patch(spec, "phi", tracer.counted("spectra.phi.calls", spec.__dict__["phi"]), undo)
    smoother = estimators.KernelQuantileSmoother
    _patch(smoother, "__call__",
           tracer.counted("estimators.kernel.integrand_evals", smoother.__dict__["__call__"]),
           undo)
    install_pool_counter(tracer, undo)
    return undo


def uninstall(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
    undo.clear()


def layer_metrics(tracer):
    """Per-layer metric values from a tracer's spans and counts."""
    totals = self_times(tracer.spans)
    c = tracer.counts
    out = {}
    for name, unit in PER_LAYER:
        head, _, metric = name.rpartition(".")
        if metric in ("calls", "self_ms") and head in totals:
            calls, self_ns = totals[head]
            out[name] = calls if metric == "calls" else self_ns / 1e6
        else:
            out[name] = c.get(name, 0)
    slots = c.get("boot.slots", 0)
    out["inference.bootstrap_ci_many.used_frac"] = c["boot.used"] / slots if slots else 0.0
    out["harness.pool_wait_ms"] = c.get("pool_wait_ns", 0) / 1e6
    return out
