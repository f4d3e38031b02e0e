"""Measuring a workload: untraced for the end-to-end metrics, traced for the layers."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import oracles
import tracing


@dataclass
class Context:
    seed: int
    seconds: float
    root: str  # working directory inside the checkout
    ledger: oracles.Ledger = field(default_factory=oracles.Ledger)


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _all_equal(items):
    return all(item == items[0] for item in items[1:])


def run_untraced(workload, ctx):
    """Repeat (set-ups, unit) while the units fit in --seconds, at least `min_units` times.

    The set-ups are spread through the run, a few before every unit, so that
    their median samples several of the machine's speed phases: back-to-back
    set-ups of a few milliseconds all land in one phase.
    """
    ledger = ctx.ledger
    setup_dir = os.path.join(ctx.root, "setup")
    unit_dir = os.path.join(ctx.root, "unit")
    setup_times, setup_digests = [], []
    unit_times, unit_digests, infos = [], [], []
    probe = tracing.Recorder()
    with probe.installed(tracing.QUERY_TARGETS):
        while len(unit_times) < workload.min_units or (
            sum(unit_times) + unit_times[-1] <= ctx.seconds
        ):
            for _ in range(workload.setups_per_unit):
                dt, _ = _timed(workload.setup, ctx, _fresh(setup_dir))
                setup_times.append(dt)
                setup_digests.append(oracles.tree_digests(setup_dir))
            dt, info = _timed(workload.unit, ctx, _fresh(unit_dir))
            unit_times.append(dt)
            infos.append(info)
            unit_digests.append(oracles.tree_digests(unit_dir))
    ledger.check("set-up repeats write identical files", _all_equal(setup_digests))
    ledger.check("unit repeats write identical files", _all_equal(unit_digests))
    ledger.check("unit repeats give identical counts", _all_equal(infos), str(infos))
    extra = workload.finish(ctx, unit_dir, infos[-1])

    # Retrieval queries only: the template scorer's BM25 searches rank
    # templates against contexts and are timed as their own layer.
    _, retrieval = probe.split_by_parent("lexical.search_bm25", "templates.scorer")
    latencies = {"bm25": [1e3 * d for d in retrieval],
                 "dense": [1e3 * d for d in probe.durations("polydpr.search_dense")]}
    for kind, values in latencies.items():
        if len(values) > 1:
            extra[f"{kind}_query_p50_ms"] = statistics.median(values)
            extra[f"{kind}_query_p95_ms"] = _percentile(values, 95)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(unit_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra["samples"] = {"setups": len(setup_times), "units": len(unit_times),
                        "bm25_queries": len(latencies["bm25"]),
                        "dense_queries": len(latencies["dense"])}
    extra["setup_times_s"] = setup_times
    extra["unit_times_s"] = unit_times
    return metrics, extra


def run_traced(workload, ctx):
    """One untraced pass, then the same set-up and unit traced, in the same directories."""
    setup_dir = os.path.join(ctx.root, "setup")
    unit_dir = os.path.join(ctx.root, "unit")
    passes = []
    recorder = tracing.Recorder()
    for traced in (False, True):
        targets = tracing.LAYER_TARGETS if traced else ()
        with recorder.installed(targets):
            workload.setup(ctx, _fresh(setup_dir))
            dt, info = _timed(workload.unit, ctx, _fresh(unit_dir))
        digests = {"setup": oracles.tree_digests(setup_dir), "unit": oracles.tree_digests(unit_dir)}
        passes.append((dt, info, digests))
    (plain_s, plain_info, plain_digests), (traced_s, traced_info, traced_digests) = passes
    ctx.ledger.check("traced artifacts are byte-identical to untraced ones",
                     plain_digests == traced_digests and plain_info == traced_info)
    extra = workload.finish(ctx, unit_dir, traced_info)
    metrics = tracing.layer_metrics(recorder)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    extra["untraced_run_s"] = plain_s
    extra["traced_run_s"] = traced_s
    return metrics, extra
