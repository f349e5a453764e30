"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload enum-gowalla --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and builds nothing: the library is
imported from ``src/``.  With ``--trace 0`` it measures the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced blocks with blocks that record spans around every layer
boundary, and reports the per-layer metrics plus the tracing overhead.
Every answer is checked after the timed phase.  Human-readable lines go
first; the last line of stdout is the JSON result.  Run files (with spans, for
traced runs) are written to ``perfbench/out/``.  The exit code is 0
only when every answer was right.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

READ_OPS = ("enumerate", "maximum", "statistics")

#: name -> unit of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_s": "s",
    "read_p90_s": "s",
    "edit_p50_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(fingerprints: Dict[str, str]) -> Dict[str, Any]:
    """The stamp every result carries; results differing here never compare."""
    import numpy

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "graph_fingerprints": fingerprints,
    }


def _git_commit() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, else ``None``."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def end_to_end(samples, blocks, setups, edits, peak_rss_mb, scale) -> Dict[str, float]:
    """The end-to-end metrics in reference seconds.

    ``setups`` and ``edits`` are ``(start, seconds)``, ``blocks`` is
    ``(completed, start, seconds)`` per block, and ``scale(start,
    seconds)`` is the reference-over-measured speed of that interval
    (``workloads.Speedometer.scale``).  ``ops_per_s`` is the median over
    blocks (grid passes, or serve cycles) of requests completed per
    second: a stretch of a run slowed by other load on the machine moves
    it only if it covers half the blocks.
    """
    from workloads import median, percentile

    def ref(start: float, seconds: float) -> float:
        return seconds * scale(start, seconds)

    reads = [ref(s.start, s.latency) for s in samples
             if s.error is None and s.op in READ_OPS]
    return {
        "setup_s": median([ref(*t) for t in setups]),
        "ops_per_s": median([n / ref(start, secs) for n, start, secs in blocks]),
        "read_p50_s": median(reads),
        "read_p90_s": percentile(reads, 90),
        "edit_p50_s": median([ref(*t) for t in edits]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans, counters, traced, block_times):
    """The per-layer metrics of one traced phase (see perfbench/README.md).

    ``block_times`` holds the untraced (``False``) and traced (``True``)
    block durations in run order; block i of each ran back to back.
    """
    from tracing import layer_totals, self_by_request
    from workloads import median

    totals = layer_totals(spans)
    n_ops = max(1, len(traced))

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) / n_ops

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / n_ops

    def c(key: str) -> float:
        return counters.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    engine_total = totals.get("engine", {}).get("total_s", 0.0)
    edits = [s for s in traced if s.op == "edit"]
    edit_self = self_by_request(spans, (s.request for s in edits))
    return {
        "pruning.self_s": (self_s("pruning"), "s/op"),
        "pruning.calls": (calls("pruning"), "count/op"),
        "pruning.vertices_pruned": (
            (c("similarity_pruned") + c("structure_pruned")
             + c("connectivity_pruned")) / n_ops, "count/op"),
        "maximal_check.self_s": (self_s("maximal_check"), "s/op"),
        "maximal_check.calls": (c("maximal_checks") / n_ops, "count/op"),
        "maximal_check.check_nodes": (c("check_nodes") / n_ops, "count/op"),
        "termination.self_s": (self_s("termination"), "s/op"),
        "termination.calls": (calls("termination"), "count/op"),
        "termination.hit_ratio": (
            ratio(c("early_term_i") + c("early_term_ii"),
                  totals.get("termination", {}).get("calls", 0)), "ratio"),
        "orders.self_s": (self_s("orders"), "s/op"),
        "orders.calls": (calls("orders"), "count/op"),
        "engine.self_s": (self_s("engine"), "s/op"),
        "engine.nodes": (c("nodes") / n_ops, "count/op"),
        "engine.s_per_node": (ratio(engine_total, c("nodes")), "s"),
        "bitops.kcore_mask.calls": (c("bitops.kcore_mask.calls") / n_ops, "count/op"),
        "bitops.reach_mask.calls": (c("bitops.reach_mask.calls") / n_ops, "count/op"),
        "bitops.row_popcounts.calls": (c("bitops.row_popcounts.calls") / n_ops, "count/op"),
        "context.pack.self_s": (self_s("context.pack"), "s/op"),
        "bounds.self_s": (self_s("bounds"), "s/op"),
        "bounds.calls": (c("bound_calls") / n_ops, "count/op"),
        "bounds.prune_ratio": (ratio(c("bound_pruned"), c("bound_calls")), "ratio"),
        "heuristics.self_s": (self_s("heuristics"), "s/op"),
        "similarity.edge_values.self_s": (self_s("similarity.edge_values"), "s/op"),
        "similarity.filter.self_s": (self_s("similarity.filter"), "s/op"),
        "similarity.index.self_s": (self_s("similarity.index"), "s/op"),
        "similarity.index.calls": (calls("similarity.index"), "count/op"),
        "graph.kcore.self_s": (self_s("graph.kcore"), "s/op"),
        "graph.components.self_s": (self_s("graph.components"), "s/op"),
        "solver.prepare.self_s": (self_s("solver.prepare"), "s/op"),
        "graph.fingerprint.self_s": (self_s("graph.fingerprint"), "s/op"),
        "graph.fingerprint.calls": (calls("graph.fingerprint"), "count/op"),
        "graph.fingerprint.edit_share": (
            ratio(edit_self.get("graph.fingerprint", 0.0),
                  sum(s.latency for s in edits)), "ratio"),
        "maintenance.self_s": (self_s("maintenance"), "s/op"),
        "maintenance.fallback_ratio": (
            ratio(c("maintenance.fallbacks"), c("maintenance.edits")), "ratio"),
        "maintenance.components_rebuilt": (
            c("maintenance.components_rebuilt") / n_ops, "count/op"),
        "maintenance.results_evicted": (
            c("maintenance.results_evicted") / n_ops, "count/op"),
        "session.prepare.self_s": (self_s("session.prepare"), "s/op"),
        "session.query.self_s": (self_s("session.query"), "s/op"),
        "session.cache_hit_ratio": (
            ratio(c("cache_hits"), c("cache_hits") + c("cache_misses")), "ratio"),
        "session.reused_filters": (c("reused_filters") / n_ops, "count/op"),
        "session.seeded_peels": (c("seeded_peels") / n_ops, "count/op"),
        "store.record_edit.self_s": (self_s("store.record_edit"), "s/op"),
        "store.flush.self_s": (self_s("store.flush"), "s/op"),
        "serve.self_s": (self_s("serve"), "s/op"),
        "serve.requests": (totals.get("serve", {}).get("calls", 0), "count"),
        "serve.errors": (c("serve.errors"), "count"),
        "tracing.overhead": (
            median([t / u - 1.0 for u, t in zip(block_times[False], block_times[True])]),
            "ratio"),
    }


def breakdown(spans, samples) -> Dict[str, Dict[str, float]]:
    """Per request kind: each layer's share of the requests' wall time."""
    from tracing import self_by_request

    out = {}
    for op in sorted({s.op for s in samples}):
        chosen = [s for s in samples if s.op == op]
        wall = sum(s.latency for s in chosen)
        selfs = self_by_request(spans, (s.request for s in chosen))
        out[op] = {
            name: round(secs / wall, 4)
            for name, secs in sorted(selfs.items(), key=lambda kv: -kv[1])
            if wall
        }
    return out


def run_traced(wl, state, blocks, seconds: float):
    """Alternate untraced and traced blocks for about ``seconds``.

    Returns every sample in request order, the traced samples, the block
    durations (``{traced?: [seconds, ...]}``, block i of each ran back to
    back), the program's counters over the traced blocks, and the spans.
    """
    from tracing import Tracer, instrument
    from workloads import run_blocks

    tracer = Tracer()
    if wl.repeatable:
        # Each request runs untraced, then again traced, so the overhead
        # compares the same work moments apart; a run ends only after
        # whole passes.
        whole = 2 * len(blocks[0])
        blocks = [[op] for block in blocks for op in block for _ in (0, 1)]
    else:
        # Whole blocks alternate, so both halves see the same mix.
        whole = 2
    samples, traced, counters = [], [], {}
    block_times: Dict[bool, List[float]] = {False: [], True: []}
    begin = group_start = time.perf_counter()
    pos = 0
    while pos < len(blocks):
        if pos and pos % whole == 0:
            now = time.perf_counter()
            if now - begin + (now - group_start) / 2 >= seconds:
                break
            group_start = now
        on = pos % 2 == 1
        if on:
            before = wl.counters_before(state)
            instrument(tracer)
        try:
            done, pos, block = run_blocks(
                wl, state, blocks, pos, 0.0, len(samples),
                tracer if on else None)
        finally:
            tracer.restore()
        block_times[on].append(block[0][2])
        samples += done
        if on:
            traced += done
            for key, value in wl.counters(state, before, done).items():
                counters[key] = counters.get(key, 0) + value
    counters.update(tracer.counts)
    return samples, traced, block_times, counters, tracer.finished_spans()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from the "
            "root of a full checkout", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The serial plan on one core: BLAS threads would otherwise spill onto
    # the second core, where other load makes the timings drift.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from checks import load_expected
    from workloads import (
        SETUP_MAX_REPEATS, SETUP_REPEATS, SETUP_SECONDS, SPEED, WORKLOADS, run_blocks,
    )

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"

    setups: List[Tuple[float, float]] = []  # (start, seconds)
    state = None
    try:
        # Traced runs report no setup_s and set up once.
        while not setups or not args.trace and len(setups) < SETUP_MAX_REPEATS and (
                len(setups) < SETUP_REPEATS or sum(t for _, t in setups) < SETUP_SECONDS):
            if state is not None:
                wl.teardown(state)
                state = None
            gc.collect()
            SPEED.tick(force=True)
            start = time.perf_counter()
            state = wl.setup(scratch / str(len(setups)))
            setups.append((start, time.perf_counter() - start))
            SPEED.tick(force=True)
        state["expected"] = load_expected()[wl.name]
        blocks = wl.stream(state, args.seed)

        if args.trace:
            samples, traced, block_times, counters, spans = run_traced(
                wl, state, blocks, args.seconds)
        else:
            samples, _, block_stats = run_blocks(wl, state, blocks, 0, args.seconds, 0)
        # Taken before the checks, which load and solve graphs of their own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = wl.check(state, samples)
        extra_attempted, extra_problems = wl.final_check(state)
        problems += extra_problems
        edits = []
        if not args.trace:
            edits, edit_attempted, edit_problems = wl.edit_latencies(
                state, samples, args.seed)
            extra_attempted += edit_attempted
            problems += edit_problems
        stamp = environment(wl.fingerprints(state))
    finally:
        if state is not None:
            wl.teardown(state)
        shutil.rmtree(scratch, ignore_errors=True)

    errors = [s for s in samples if s.error is not None]
    attempted = len(samples) + extra_attempted
    failed = len(errors) + len(problems)
    for s in errors[:5]:
        print(f"FAILED request {s.request} {s.op} {s.params}: {s.error}")
    for p in problems[:5]:
        print(f"WRONG ANSWER: {p}")

    if args.trace:
        layer = per_layer(spans, counters, traced, block_times)
        layer["error_rate"] = (failed / attempted, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record = {
            "breakdown": breakdown(spans, traced),
            "requests": [[s.request, s.op, s.params] for s in traced],
            "spans": spans,
        }
    else:
        timed = (samples, block_stats, setups, edits, peak_rss_mb)
        values = end_to_end(*timed, SPEED.scale)
        metrics = {
            k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END
        }
        reads = sum(1 for s in samples if s.op in READ_OPS and s.error is None)
        record = {
            "samples": {"reads": reads, "edits": len(edits), "setups": len(setups)},
            "error_rate": failed / attempted,
            "measured": end_to_end(*timed, lambda start, seconds: 1.0),
            "setups": setups,
            "probes": SPEED.marks,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(workload=wl.name, seed=args.seed, trace=args.trace,
                  environment=stamp, result=result,
                  latencies=[[s.request, s.op, s.params, s.start, s.latency] for s in samples])
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(stamp, sort_keys=True))
    if not args.trace:
        print("samples " + json.dumps(record["samples"]) +
              f"  error_rate {record['error_rate']:.4g}")
    else:
        for op, shares in record["breakdown"].items():
            top = ", ".join(f"{k} {v:.1%}" for k, v in list(shares.items())[:6])
            print(f"self-time share of {op}: {top}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"run file {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
