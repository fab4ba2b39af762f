"""Benchmark of specrisk: one closed-loop client per workload, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports specrisk from
``src/`` there and writes only under ``.perfbench-out/``.  The last line of
standard output is the result JSON.  With ``--trace 0`` it carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced run.
``--out FILE`` also appends the result with its details to FILE, the input
of ``compare.py``.  ``--record-golden`` rewrites a workload's golden file
from the current source.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchstats
import golden
import machine
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = Path(".perfbench-out")
SETUP_SAMPLES = 3  # set-ups per run whose median is setup_s: this process and two children
END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed and recorded in ``detail`` but not in BENCHMARK.json: failed_frac is 0
# on every workload, and the per-run median latency jumps between the host's
# fast and slow speed states (see README.md), so neither can bound a change.
REPORTED_UNITS = {"call_p50_ms": "ms", "failed_frac": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=golden.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append the result record to this JSONL file")
    p.add_argument("--record-golden", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    known = sorted(path.stem for path in golden.GOLDEN_DIR.glob("*.json"))
    if args.workload not in known and not args.record_golden:
        p.error(f"unknown workload {args.workload!r}; valid: {', '.join(known)}")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


class Checker:
    """Golden and repeat checks of every request's outcome."""

    def __init__(self, wl, gold):
        self.wl = wl
        self.gold = gold
        self.seen: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.golden_checked = 0

    def check(self, req, out) -> int:
        """Returns the units to count as failed on top of ``out.failed``."""
        problems = list(out.problems)
        fingerprint = out.digest or json.dumps(out.values, sort_keys=True)
        if self.seen.setdefault(req.key, fingerprint) != fingerprint:
            problems.append("output differs from an earlier run of the same request")
        if self.gold is not None:
            entry = self.gold["requests"].get(req.key)
            if entry is None:
                problems.append("no golden entry for this request")
            else:
                self.golden_checked += 1
                problems += golden.mismatches(
                    entry, out.values, out.failed, lambda name: self.wl.tolerance(req.key, name)
                )
        if not problems:
            return 0
        self.mismatches += [f"{req.key}: {p}" for p in problems]
        return req.units - out.failed


def setup(name, seed, workers=None):
    """Import, generate inputs, calibrate and run the warm-up request.

    The warm-up request is the first request of the golden seed, checked
    against the golden file, so every run checks some outputs against it.
    """
    start = time.perf_counter()
    import workloads

    wl, cfg = workloads.build(name, seed, WORKDIR, workers=workers)
    probe_wl, _ = workloads.build(name, golden.DEFAULT_SEED, WORKDIR / "golden-probe", cfg, workers)
    probe = probe_wl.cycle(0)[0]
    _, probe_out = workloads.execute(probe)
    elapsed = time.perf_counter() - start
    probe_checker = Checker(probe_wl, golden.load(name))
    probe_checker.check(probe, probe_out)
    return elapsed, wl, cfg, probe_checker.mismatches


def run_phase(wl, seconds, checker, tracer=None):
    """Repeat whole cycles of requests until ``seconds`` have passed."""
    import workloads

    latencies, units, failed, cycles = [], 0, 0, 0
    by_key: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        for req in wl.cycle(cycles):
            if tracer is not None:
                tracer.request = len(latencies)
            elapsed, out = workloads.execute(req)
            latencies.append(elapsed)
            by_key.setdefault(req.key, []).append(elapsed)
            units += req.units
            failed += out.failed + checker.check(req, out)
            if tracer is not None:
                tracer.counts["cli.bytes_written"] += out.bytes_written
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "latencies": latencies,
        "units": units,
        "failed": failed,
        "cycles": cycles,
        "elapsed_s": time.perf_counter() - start,
        "p50_ms_by_request": {k: statistics.median(v) * 1e3 for k, v in sorted(by_key.items())},
    }


def child_setup_seconds(args):
    """Set-up time of a fresh interpreter running the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(args, setup_s, phase):
    lat = phase["latencies"]
    tail = benchstats.tail(lat)
    tail_value, tail_pct = tail if tail else (max(lat), 100.0)
    values = {
        "setup_s": setup_s,
        "units_per_s": phase["units"] / sum(lat),
        "call_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "reported": {"call_p50_ms": statistics.median(lat) * 1e3},
        "requests": len(lat),
        "tail_percentile": tail_pct,
        "tail_requests_beyond": benchstats.TAIL_BEYOND if tail else 0,
    }
    return values, detail


def traced(args, wl, cfg, checker):
    """Untraced, traced and (coverage-grid only) pool phases; per-layer metrics."""
    import workloads
    from specrisk import harness

    pooled = args.workload == "coverage-grid"
    # worker processes report no spans, so the traced split runs in-process
    split_wl = wl
    if pooled:
        split_wl = workloads.build(args.workload, args.seed, WORKDIR, cfg, workers=1)[0]
    share = args.seconds / (3 if pooled else 2)
    plain = run_phase(split_wl, share, checker)

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        if cfg is not None:
            tracer.request = "setup"
            harness.default_dependent_config()
        traced_phase = run_phase(split_wl, share, checker, tracer)
    finally:
        tracing.uninstall(undo)
    phases = [plain, traced_phase]

    metrics = tracing.layer_metrics(tracer)
    if pooled:
        pool_tracer = tracing.Tracer()
        undo = tracing.install_pool_counter(pool_tracer)
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            pool_phase = run_phase(wl, share, checker)
        finally:
            tracing.uninstall(undo)
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        phases.append(pool_phase)
        metrics["harness.pool_starts"] = pool_tracer.counts["harness.pool_starts"]
        metrics["harness.pool_wait_ms"] = pool_tracer.counts["pool_wait_ns"] / 1e6
        metrics["harness.worker_cpu_s"] = (
            cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime
        )

    plain_rate = plain["units"] / sum(plain["latencies"])
    traced_rate = traced_phase["units"] / sum(traced_phase["latencies"])
    root_ns = sum(e - s for _, s, e, parent, req in tracer.spans if parent < 0 and req != "setup")
    metrics.update({
        "trace.requests": len(traced_phase["latencies"]),
        "trace.untraced_units_per_s": plain_rate,
        "trace.traced_units_per_s": traced_rate,
        "trace.overhead_frac": plain_rate / traced_rate - 1.0,
        "trace.attributed_frac": root_ns / 1e9 / sum(traced_phase["latencies"]),
    })
    totals = tracing.self_times(tracer.spans)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][1])
    spans_path = WORKDIR / f"spans-{args.workload}.json"
    names = sorted(totals)
    index = {n: i for i, n in enumerate(names)}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({
            "fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "names": names,
            "spans": [[index[n], s, e, p, r] for n, s, e, p, r in tracer.spans],
            "counts": dict(tracer.counts),
        }, fh)
    detail = {
        "phases": {
            name: {"requests": len(ph["latencies"]), "units": ph["units"],
                   "elapsed_s": ph["elapsed_s"]}
            for name, ph in zip(("untraced", "traced", "pool"), phases)
        },
        "self_ms_top": [[n, t[1] / 1e6] for n, t in ranked[:8]],
        "spans_file": str(spans_path),
    }
    return phases, metrics, detail


def record_golden(args):
    import workloads

    wl, _ = workloads.build(args.workload, golden.DEFAULT_SEED, WORKDIR / "golden-probe")
    requests = {}
    cycle = 0
    while True:
        fresh = [r for r in wl.cycle(cycle) if r.key not in requests]
        if not fresh:
            break
        for req in fresh:
            _, out = workloads.execute(req)
            if out.problems:
                raise SystemExit(f"{req.key}: {out.problems}")
            requests[req.key] = {"values": out.values, "failed": out.failed}
        cycle += 1
    golden.save(args.workload, golden.DEFAULT_SEED, requests)
    print(f"wrote {golden.path_for(args.workload)} ({len(requests)} requests)")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "specrisk" / "__init__.py").is_file():
        print(f"error: no specrisk source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.out:
        args.out = os.path.abspath(args.out)
    os.chdir(ROOT)
    WORKDIR.mkdir(exist_ok=True)
    if args.record_golden:
        return record_golden(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0

    load_start = machine.loadavg()
    setup_s, wl, cfg, probe_mismatches = setup(args.workload, args.seed)
    gold = golden.load(args.workload) if args.seed == golden.DEFAULT_SEED else None
    checker = Checker(wl, gold)

    if args.trace:
        phases, metric_values, detail = traced(args, wl, cfg, checker)
        units = dict(tracing.PER_LAYER)
    else:
        phase = run_phase(wl, args.seconds, checker)
        phases = [phase]
        metric_values, detail = end_to_end(args, setup_s, phase)
        samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        metric_values["setup_s"] = statistics.median(samples)
        detail["setup_samples_s"] = samples
        for key in ("cycles", "elapsed_s", "p50_ms_by_request"):
            detail[key] = phase[key]
        units = END_TO_END_UNITS

    attempted = sum(ph["units"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    mismatches = probe_mismatches + checker.mismatches
    load_end = machine.loadavg()
    warnings = [w for w in (machine.load_warning(load_start), machine.load_warning(load_end)) if w]
    detail.update({
        "workload": args.workload,
        "unit": wl.unit,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "golden_requests_checked": 1 + checker.golden_checked,
        "mismatches": mismatches[:20],
        "machine": machine.record(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "warnings": warnings,
    })
    reported = {**detail.pop("reported", {}), "failed_frac": failed / attempted}
    detail["reported"] = {k: {"value": v, "unit": REPORTED_UNITS[k]} for k, v in reported.items()}
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metric_values.items()},
    }

    for warning in warnings:
        print(f"warning: {warning}")
    for line in mismatches[:20]:
        print(f"MISMATCH {line}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} units attempted, {failed} failed (failed_frac {failed / attempted:g}); "
          f"unit = one {wl.unit}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for name, m in detail["reported"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']} (reported, not gated)")
    print("detail " + json.dumps(detail, sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"result": result, "detail": detail}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
