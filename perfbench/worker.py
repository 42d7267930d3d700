"""One workload in one fresh process: set up, warm up, time whole rounds, check.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY WORKDIR

The parent passes its monotonic clock reading at spawn in PERFBENCH_SPAWN, so
that set-up time counts from process start.  The result is one JSON object on
the last line of standard output.
"""

from __future__ import annotations

import os
import sys
import time

SPAWNED = float(os.environ.get("PERFBENCH_SPAWN", time.monotonic()))

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cli_startup_s(repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter that imports wassalign.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wassalign.cli"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(totals: dict, ops: int, entries: int, latencies: list, spans_seen: int, startup_s: float) -> dict:
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    per_op = 1.0 / ops
    metrics = {
        "measures.cost_tensor_s": (get("measures.build_cost_tensor", "self_s") * per_op, "s"),
        "measures.cost_tensor_mb": (get("measures.build_cost_tensor", "cells") * 8e-6 * per_op, "MB-computed"),
        "lp.solves": (get("lp.solve_lp", "n") * per_op, "count"),
        "lp.solve_s": (get("lp.solve_lp", "self_s") * per_op, "s"),
        "lp.iterations": (get("lp.solve_lp", "iterations") * per_op, "count"),
        "lp.rows": (get("lp.solve_lp", "rows") * per_op, "count"),
        "lp.add_rows": (get("lp.LpProblem.add_row", "n") * per_op, "count"),
        "lp.build_s": (get("lp.LpProblem.add_row", "incl_s") * per_op, "s"),
        "ot.exact_solves": (get("ot.wasserstein", "n") * per_op, "count"),
        "ot.exact_s": (get("ot.wasserstein", "self_s") * per_op, "s"),
        "ot.quantile_solves": (get("ot.wasserstein_1d", "n") * per_op, "count"),
        "ot.quantile_s": (get("ot.wasserstein_1d", "self_s") * per_op, "s"),
        "ot.solves_per_entry": ((get("ot.wasserstein", "n") + get("ot.wasserstein_1d", "n")) / entries, "ratio"),
        "alignment.dual_lp_s": (totals.get("solve_lp_under_align_s", 0.0) * per_op, "s"),
        "alignment.per_entry_ot_s": (get("alignment.per_entry_ot", "incl_s") * per_op, "s"),
        "alignment.report_s": (get("alignment.report_from_dual", "incl_s") * per_op, "s"),
        "alignment.certificates_s": (get("alignment.gap_certificate", "incl_s") * per_op, "s"),
        "alignment.self_s": (get("alignment.align", "self_s") * per_op, "s"),
        "dataio.read_s": (get("dataio.read_points_csv", "incl_s") * per_op, "s"),
        "dataio.write_s": (sum(get(n, "incl_s") for n in ("dataio.write_matrix_csv", "dataio.write_scatter_svg", "dataio.json_dumps")) * per_op, "s"),
        "dataio.bytes_written": (sum(get(n, "bytes") for n in ("dataio.write_matrix_csv", "dataio.write_scatter_svg", "dataio.json_dumps")) * per_op, "bytes"),
        "cli.startup_s": (startup_s, "s"),
        "cli.self_s": (get("cli.main", "self_s") * per_op, "s"),
        "trace.latency_p50_s": (statistics.median(latencies), "s"),
        "trace.spans_per_op": (spans_seen * per_op, "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list) -> int:
    name, seed, seconds, trace, setup_only, workdir = argv
    seed, seconds, trace, setup_only = int(seed), float(seconds), trace == "1", setup_only == "1"
    cls = WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    if tracer is not None and cls.in_process:
        tracer.install()
    workload = cls(seed, workdir, tracer)
    workload.warm_up()
    if tracer is not None:
        tracer.spans.clear()
    setup_s = time.monotonic() - SPAWNED
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    records, latencies = [], []
    totals: dict = {}
    spans_seen = 0
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(workload.round_size):
            t0 = time.perf_counter()
            try:
                rec = workload.op(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                rec = {"error": f"{type(exc).__name__}: {exc}"}
            latencies.append(time.perf_counter() - t0)
            records.append(rec)
            i += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    ops = len(records)

    if workload.in_process:
        cpu_s = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
        peak_rss_mb = cpu1.ru_maxrss / 1024.0
    else:
        cpu_s = sum(rec.get("cpu_s", 0.0) for rec in records)
        peak_rss_mb = max(rec.get("maxrss_mb", 0.0) for rec in records)

    if tracer is not None:
        # one span list per process: the workload process, then each CLI child
        span_lists = [list(tracer.spans)]
        if not workload.in_process:
            span_lists += [workload.spans_of(rec) for rec in records
                           if "error" not in rec and os.path.exists(rec["stem"] + ".spans.json")]
        for span_list in span_lists:
            spans.merge_totals(totals, spans.layer_totals(span_list))
        spans_seen = sum(len(s) for s in span_lists)

    t_check = time.perf_counter()
    failures = workload.check(records)
    check_s = time.perf_counter() - t_check
    failed = sum(1 for errs in failures if errs)
    unexpected = [f"op {k}: {errs[0]}" for k, errs in enumerate(failures) if errs and not workload.expect_fault(k)]

    result = {
        "setup_s": setup_s,
        "attempted": ops,
        "failed": failed,
        "unexpected": unexpected[:5],
        "fault_messages": sorted({errs[0] for k, errs in enumerate(failures) if errs and workload.expect_fault(k)})[:3],
        "elapsed_s": elapsed,
        "check_s": check_s,
        "latencies": latencies,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        startup_s = _cli_startup_s() if not workload.in_process else 0.0
        result["layers"] = layer_metrics(totals, ops, ops * workload.L, latencies, spans_seen, startup_s)
        spans_path = os.path.join(os.path.dirname(workdir), f"spans-{name}-seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(span_lists, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
